import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import accumulate
from math import ceil
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import maldist
import maldist.cli
from maldist import certificates as certs
from maldist.doubling import (
    five_sixth_check,
    invariance_defect,
    zero_block_density,
)
from maldist.empirical import CellPartition, MeasureVector
from maldist.envelope import envelope_dominates
from maldist.exact import format_rational, mod1
from maldist.torus import TorusInterval
from maldist.witness import (
    AvoidanceResult,
    HistogramTarget,
    MixingConfig,
    avoidance_sequence,
    histogram_witness,
    hit_frequency_witness,
    mixing_chain,
    zero_block_alpha,
)
from tests.oracles import fraction_star_discrepancy, interval_json, point_mass, shift_value


# Directory holding the maldist package this test process imported: src/ in a
# checkout, site-packages in an install.
MALDIST_ROOT = str(Path(maldist.__file__).resolve().parents[1])


def cli_env(**extra):
    """Environment for a CLI child process.

    The child imports the same maldist as this process (its root goes first on
    PYTHONPATH), with ``extra`` set on top of the caller's environment.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (MALDIST_ROOT, env.get("PYTHONPATH")) if p
    )
    env.update(extra)
    return env


def run_cli(*args, **env):
    return subprocess.run(
        [sys.executable, "-m", "maldist.cli", *args],
        capture_output=True,
        text=True,
        env=cli_env(**env),
    )


# --- certificate round trips -------------------------------------------------


def all_certificates():
    chain = mixing_chain(
        MixingConfig(
            multipliers=(100, 10**4, 10**6),
            eps=F(1, 10),
            delta=F(1, 20),
            start=TorusInterval(F(3, 10), F(9, 25)),
            targets=tuple(TorusInterval(F(9, 20), F(11, 20)) for _ in range(3)),
        )
    )
    yield "mixing", certs.mixing_certificate(chain)

    n2 = [2**k for k in range(1, 20)]
    witness = hit_frequency_witness(
        n2, TorusInterval(F(1, 2), F(1, 2) + F(1, 64)), F(2)
    )
    yield "hitfreq", certs.hitfreq_certificate(witness, n2)

    n3 = [5 ** (k * k) for k in range(1, 65)]
    hist = histogram_witness(n3, HistogramTarget((3, 1), F(1, 10)), base=8)
    yield "histogram", certs.histogram_certificate(hist, n3)

    avoid = avoidance_sequence(F(5, 17), F(1, 5), prefix=(1,), horizon=500)
    yield "avoid", certs.avoidance_certificate(avoid, discrepancy_floor=F(19, 100))

    point = zero_block_alpha(F(2, 3), (4, 10))
    densities = zero_block_density(point, [16, 100])
    yield "zeroblock", certs.zeroblock_certificate(point, F(2, 3), (4, 10), densities)

    report = five_sixth_check(F(1, 17), 8)
    yield "fivesixth", certs.fivesixth_certificate(report, F(1, 17))

    partition = CellPartition.dyadic(3)
    defect = invariance_defect(F(1, 17), 8, partition)
    yield "invariance", certs.invariance_certificate(F(1, 17), 8, partition, defect)

    mu = MeasureVector((F(3, 5), F(2, 5)))
    lam = MeasureVector((F(1, 2), F(1, 2)))
    pi = point_mass(F(1, 2))
    res = envelope_dominates(mu, lam, pi)
    yield "envelope", certs.envelope_certificate(mu, lam, pi, res, F(0))


@pytest.mark.parametrize("kind,cert", list(all_certificates()))
def test_round_trip(kind, cert):
    assert cert["kind"] == kind
    assert certs.certificate_ok(cert)
    result = certs.verify_certificate(cert)
    assert result.ok, result.failures
    # JSON serialization round-trips losslessly.
    reparsed = json.loads(json.dumps(cert, sort_keys=True))
    assert certs.verify_certificate(reparsed).ok


@pytest.mark.parametrize("kind,cert", list(all_certificates()))
def test_verify_ignores_the_rng_echo(kind, cert):
    """The `rng` echo is no input: removing it or changing its seed or
    algorithm leaves the verification result as it is."""
    echoed = {**cert, "rng": {"algorithm": "splitmix64", "seed": 0}}
    want = certs.verify_certificate(echoed)
    assert want.ok, want.failures
    for rng in ({"algorithm": "splitmix64", "seed": 7}, {"algorithm": "pcg64", "seed": 0}, None):
        variant = {key: value for key, value in echoed.items() if key != "rng"}
        if rng is not None:
            variant["rng"] = rng
        assert certs.verify_certificate(variant) == want, (kind, rng)


def test_tampered_containment_fails():
    chain = mixing_chain(
        MixingConfig(
            multipliers=(100, 10**4),
            eps=F(1, 10),
            delta=F(1, 20),
            start=TorusInterval(F(3, 10), F(9, 25)),
            targets=tuple(TorusInterval(F(9, 20), F(11, 20)) for _ in range(2)),
        )
    )
    cert = json.loads(json.dumps(certs.mixing_certificate(chain)))
    for claim in cert["claims"]:
        if claim["id"] == "containment-2":
            claim["value"] = "1/3"
    result = certs.verify_certificate(cert)
    assert not result.ok
    assert any("containment-2" in f for f in result.failures)


def test_tampered_hit_count_fails():
    n2 = [2**k for k in range(1, 20)]
    witness = hit_frequency_witness(n2, TorusInterval(F(1, 2), F(33, 64)), F(2))
    cert = json.loads(json.dumps(certs.hitfreq_certificate(witness, n2)))
    for claim in cert["claims"]:
        if claim["id"] == "hit-frequency":
            claim["count"] = 0
            claim["verdict"] = False
    result = certs.verify_certificate(cert)
    assert not result.ok
    assert any("hit-frequency" in f for f in result.failures)


def certificate_of(kind):
    return json.loads(json.dumps(dict(all_certificates())[kind]))


def claim(cert, cid):
    return next(c for c in cert["claims"] if c["id"] == cid)


def test_mixing_claims_must_speak_of_the_echoed_intervals():
    """Length and nesting claims that hold for intervals of their own, not
    for the echoed chain, fail by name; so does a chain that does not start
    at the echoed start interval."""
    cert = certificate_of("mixing")
    claim(cert, "nesting-1")["outer"] = interval_json(TorusInterval(F(0), F(1)))
    claim(cert, "nesting-1")["inner"] = interval_json(TorusInterval(F(1, 4), F(1, 2)))
    # The right length, eps/n_1 = 1/1000, on the wrong interval.
    claim(cert, "length-1")["interval"] = interval_json(TorusInterval(F(0), F(1, 1000)))
    chain = cert["inputs"]["intervals"]
    assert certs.verify_certificate(cert).failures == (
        f"length-1: interval is {interval_json(TorusInterval(F(0), F(1, 1000)))!r}, "
        f"recomputed {chain[1]!r}",
        f"nesting-1: outer is {interval_json(TorusInterval(F(0), F(1)))!r}, "
        f"recomputed {chain[0]!r}",
        f"nesting-1: inner is {interval_json(TorusInterval(F(1, 4), F(1, 2)))!r}, "
        f"recomputed {chain[1]!r}",
    )

    cert = certificate_of("mixing")
    wider = interval_json(TorusInterval(F(1, 4), F(1, 2)))
    cert["inputs"]["intervals"][0] = wider
    claim(cert, "nesting-1")["outer"] = wider
    assert certs.verify_certificate(cert).failures == (
        "inputs.intervals[0] is not the start interval",
    )


def test_hitfreq_forced_positions_follow_the_plan():
    cert = certificate_of("hitfreq")
    cert["inputs"]["forced_positions"] = []
    cert["claims"] = [c for c in cert["claims"] if not c["id"].startswith("containment-")]
    assert certs.verify_certificate(cert).failures == (
        "inputs.forced_positions: not c*repeats .. 2*c*repeats step c",
    )


def test_hitfreq_plan_of_a_trillion_repeats_is_refused_by_length():
    # The plan would list 10**12 + 1 positions; the echoed list is compared
    # with it by length, and nothing of that size is built.
    cert = certificate_of("hitfreq")
    cert["inputs"]["plan"].update(c=1, repeats=10**12)
    assert "inputs.forced_positions: not c*repeats .. 2*c*repeats step c" in (
        certs.verify_certificate(cert).failures
    )


def test_hitfreq_containment_claims_speak_of_the_echoed_inputs():
    cert = certificate_of("hitfreq")
    p = cert["inputs"]["forced_positions"][0]
    # A claim about alpha 1/2 with multiplier 1, true of itself: 1/2 is outside
    # the open interval, and the verdict says so.
    honest = dict(claim(cert, f"containment-{p}"))
    claim(cert, f"containment-{p}").update(alpha="1/2", multiplier=1, value="1/2", verdict=False)
    assert certs.verify_certificate(cert).failures == (
        f"containment-{p}: multiplier is 1, recomputed {honest['multiplier']!r}",
        f"containment-{p}: alpha is '1/2', recomputed {honest['alpha']!r}",
        f"containment-{p}: value is '1/2', recomputed {honest['value']!r}",
        f"containment-{p}: verdict is False, recomputed True",
    )


def test_horizon_beyond_inputs_rejected():
    avoid = avoidance_sequence(F(5, 17), F(1, 5), prefix=(1,), horizon=200)
    cert = json.loads(json.dumps(certs.avoidance_certificate(avoid, None)))
    cert["inputs"]["horizon"] = 9_999
    result = certs.verify_certificate(cert)
    assert not result.ok
    assert any("horizon" in f for f in result.failures)


def test_unknown_kind_rejected():
    result = certs.verify_certificate({"format": certs.FORMAT, "kind": "nope", "claims": []})
    assert not result.ok


def _tamper(cert):
    """One semantic edit per certificate kind; returns the edited copy."""
    cert = json.loads(json.dumps(cert))
    kind = cert["kind"]
    if kind == "mixing":
        cert["inputs"]["alpha"] = "1/7"
        for claim in cert["claims"]:
            if claim["kind"] == "point-in-interval":
                claim["alpha"] = "1/7"
    elif kind == "hitfreq":
        cert["inputs"]["plan"]["c"] += 1
    elif kind == "histogram":
        cert["claims"][0]["count"] += 1
    elif kind == "avoid":
        first = "2" if cert["inputs"]["gaps"][0] == "1" else "1"
        cert["inputs"]["gaps"] = first + cert["inputs"]["gaps"][1:]
    elif kind == "zeroblock":
        digits = cert["inputs"]["digits"]
        cert["inputs"]["digits"] = digits[:-1] + ("0" if digits[-1] == "1" else "1")
    elif kind == "fivesixth":
        cert["claims"][0]["hits"] += 1
    elif kind == "invariance":
        cert["claims"][0]["defect"] = "1/2"
    elif kind == "envelope":
        # identity envelope makes the echoed mu > lambda verdict wrong
        cert["inputs"]["pi"] = [["1/1", "1/1"]]
    return cert


@pytest.mark.parametrize("kind,cert", list(all_certificates()))
def test_every_kind_detects_tampering(kind, cert):
    edited = _tamper(cert)
    assert not certs.verify_certificate(edited).ok, kind


denominators = st.one_of(
    st.integers(min_value=17, max_value=5000),
    st.integers(min_value=5, max_value=12).map(lambda j: 1 << j),
)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), denominators, st.integers(1, 120),
       st.integers(1, 5))
def test_invariance_verifier_recounts_the_defect(p, q, steps, level):
    alpha = F(p % q, q)
    partition = CellPartition.dyadic(level)
    defect = invariance_defect(alpha, steps, partition)
    cert = certs.invariance_certificate(alpha, steps, partition, defect)
    assert certs.verify_certificate(cert).ok
    # One count more or less in the stated defect is caught.
    cert["claims"][0]["defect"] = format_rational(abs(defect - F(1, steps)))
    assert not certs.verify_certificate(cert).ok


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), denominators, st.integers(1, 200))
def test_fivesixth_verifier_recounts_the_hits(p, q, horizon):
    alpha = F(p % ((q - 1) // 16) + 1, q)
    cert = certs.fivesixth_certificate(five_sixth_check(alpha, horizon), alpha)
    assert certs.verify_certificate(cert).ok
    cert["claims"][0]["minus_hits"] += 1
    cert["claims"][0]["plus_hits"] -= 1
    assert not certs.verify_certificate(cert).ok


@st.composite
def avoid_certificates_with_hits(draw):
    """An `avoid` certificate whose gaps string has some digits changed, and
    its inputs.  q runs below and above the horizon (residues repeat below),
    eps*q is an integer or not, the prefix of 1-4 indices may start on a
    residue below ceil(eps*q), and one gap is steered, where a digit can,
    onto residue ceil(eps*q) - 1, the largest hit."""
    alpha = mod1(F(draw(st.integers(1, 10**4)),
                   draw(st.one_of(st.integers(3, 30), st.integers(31, 3000)))))
    assume(alpha != 0)
    p, q = alpha.numerator, alpha.denominator
    room = min(alpha, 1 - alpha)  # the builder's precondition: eps <= room
    if draw(st.booleans()):
        eps = F(draw(st.integers(1, room * q)), q)
    else:
        eps = room * F(draw(st.integers(1, 199)), 200)
        assume((eps * q).denominator != 1)
    bound = ceil(eps * q)
    below = [n for n in range(1, q + 1) if n * p % q < bound]
    prefix = [draw(st.one_of(st.integers(1, 2 * q), st.sampled_from(below)))]
    for g in draw(st.lists(st.sampled_from((1, 2)), max_size=3)):
        prefix.append(prefix[-1] + g)
    horizon = len(prefix) + draw(st.integers(1, 120))
    floor = draw(st.one_of(st.none(), st.sampled_from((F(1, 100), eps / 2, eps))))
    cert = certs.avoidance_certificate(avoidance_sequence(alpha, eps, prefix, horizon), floor)
    gaps = list(map(int, cert["inputs"]["gaps"]))
    for pos, digit in draw(st.lists(st.tuples(st.integers(0, len(gaps) - 1), st.integers(0, 9)),
                                    min_size=1, max_size=6)):
        gaps[pos] = digit
    k = draw(st.integers(0, len(gaps) - 1))
    start = prefix[-1] + sum(gaps[:k])
    gaps[k] = next((g for g in range(10) if (start + g) * p % q == bound - 1), gaps[k])
    cert["inputs"]["gaps"] = "".join(map(str, gaps))
    return cert, alpha, eps, prefix, gaps, floor


@settings(max_examples=150, deadline=None)
@given(avoid_certificates_with_hits())
def test_avoid_verifier_recounts_the_hits(drawn):
    """The verifier's numbers are those of a direct Fraction recount, n*alpha
    mod 1 < eps index by index, and of the Fraction D* sweep."""
    cert, alpha, eps, prefix, gaps, floor = drawn
    indices = prefix[:-1] + list(accumulate(gaps, initial=prefix[-1]))
    points = [mod1(n * alpha) for n in indices]
    hits = sum(1 for x in points[len(prefix):] if x < eps)
    gaps_ok = all(b - a in (1, 2) for a, b in zip(indices, indices[1:]))
    cert["claims"] = [
        {"id": "gap-structure", "kind": "gaps-in-one-two", "verdict": gaps_ok},
        {"id": "zero-hits", "kind": "orbit-avoids-interval", "hits": hits, "verdict": hits == 0},
    ]
    if floor is not None:
        disc = fraction_star_discrepancy(points)
        cert["claims"].append({"id": "star-discrepancy-floor", "kind": "star-discrepancy-at-least",
                               "value": format_rational(disc), "floor": format_rational(floor),
                               "verdict": disc >= floor})
    assert certs.verify_certificate(cert).failures == ()
    claim(cert, "zero-hits")["hits"] = hits + 1
    assert f"zero-hits: hits is {hits + 1}, recomputed {hits}" in (
        certs.verify_certificate(cert).failures)


def test_avoid_builder_states_a_gap_outside_one_two_as_false():
    # The rule never makes a gap of 3; a result that holds one is stated as
    # it is, and verify recomputes the same false verdict.
    result = AvoidanceResult(alpha=F(5, 17), eps=F(1, 5), indices=(1, 2, 5, 6),
                             _residues=(5, 10, 8, 13), gaps=b"\1\3\1", prefix_length=1)
    cert = certs.avoidance_certificate(result, None)
    assert claim(cert, "gap-structure")["verdict"] is False
    assert certs.verify_certificate(cert).failures == ()


def shift_window_hits(point, end):
    """Hits of (1/2, 3/4) by 2^k x + x mod 1 for k = 1..end, each shift
    rebuilt from the digits."""
    shifted = (mod1(shift_value(point, k) + point.value) for k in range(1, end + 1))
    return sum(1 for v in shifted if F(1, 2) < v < F(3, 4))


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(F(1, 2), F(3, 4)).filter(lambda b: F(1, 2) < b < F(3, 4)),
    st.lists(st.integers(3, 7), min_size=1, max_size=3, unique=True),
    st.data(),
)
def test_zeroblock_verifier_recounts_window_hits(base, starts, data):
    try:
        point = zero_block_alpha(base, starts)
    except ValueError:
        assume(False)
    # Windows past L count the shifts that have consumed every digit.  Each
    # claim id names its window, so the ends are distinct.
    ends = data.draw(
        st.lists(st.integers(1, len(point.digits) + 12), min_size=1, max_size=4, unique=True)
    )
    cert = certs.zeroblock_certificate(point, base, starts)
    for end in ends:
        hits = shift_window_hits(point, end)
        cert["claims"].append({
            "id": f"window-{end}", "kind": "window-density", "end": end,
            "hits": hits, "density": format_rational(F(hits, end)), "verdict": True,
        })
    assert certs.verify_certificate(cert).ok
    cert["claims"][-1]["hits"] += 1
    assert not certs.verify_certificate(cert).ok


# --- CLI ---------------------------------------------------------------------


# One small certificate of each kind, built through `cli.main`: its exit code,
# the sha256 digest of the file --out writes, and the exit code and `ok` of
# `maldist verify` on the certificate.  The avoid floor 1/2 lies above the
# orbit's D*, and mu = (3/5, 2/5) exceeds the identity envelope on cell 0: both
# state a false verdict.  The zero-block windows pass the 100 digits.
PINNED_CERTIFICATES = {
    "mixing": (
        ["witness", "--mode", "mixing", "--n", "100,10000,1000000", "--eps", "1/10",
         "--delta", "1/20", "--start", "3/10,9/25",
         "--targets", "9/20,11/20;9/20,11/20;9/20,11/20"],
        0, "5980ea0086566101fdbbd1b4f0265d994344fc473a1002dd3880fa40491a60ac"),
    "hitfreq": (
        ["witness", "--mode", "salat2", "--n-kind", "pow:2", "--count", "30",
         "--interval", "1/2,33/64", "--ratio", "2"],
        0, "5ae1911830454d2b82c544d71d72b9c43859ec8749bb4ada7e0f2e90ad7b9ce6"),
    "histogram": (
        ["witness", "--mode", "salat3", "--n-kind", "squarepow:3", "--weights", "3,1",
         "--eta", "1/4", "--base", "4"],
        0, "389b1ebf19ffe1f62005e941c091f86730a7118992a4bd4d78d639013e3a092e"),
    # 64 multipliers 12^(k^2) up to 14,685 bits, written as a chain (`cli._chained_int_texts`).
    "histogram-squarepow": (
        ["witness", "--mode", "salat3", "--n-kind", "squarepow:12", "--weights", "3,1",
         "--eta", "1/10", "--base", "8"],
        0, "58c379a630af2855dd4e35c1434ba1b76e0d1a180df44c8c941adddeb1859236"),
    # Alphas over denominators of 16,387 and 17,402 bits, reduced by the rule's base; at
    # b = 16 its factors of 2 meet the 2 of the interval midpoint.
    "histogram-squarepow-16": (
        ["witness", "--mode", "salat3", "--n-kind", "squarepow:16", "--weights", "3,1",
         "--eta", "1/10", "--base", "8"],
        0, "eae9357ba3e2c697618f336cf283b7c61cee94cd53905173e76957ea9c4bf650"),
    "histogram-squarepow-19": (
        ["witness", "--mode", "salat3", "--n-kind", "squarepow:19", "--weights", "3,1",
         "--eta", "1/10", "--base", "8"],
        0, "0e2d79f5a0d897ec5c89d645ee43392d757557390b28c95e34319042c14f9ecf"),
    "avoid": (
        ["witness", "--mode", "avoid", "--alpha", "832040/1346269", "--eps", "1/10",
         "--horizon", "200", "--discrepancy-floor", "1/2"],
        1, "e5afba9a776ed1944c2263c2f48213220e63d7de6cc0372eada99fe7db666727"),
    "zeroblock": (
        ["witness", "--mode", "zeroblock", "--base", "2/3", "--starts", "4,10"],
        0, "b905c3ba730f328e5ab586fca95751b967b194e0f491dd4ce77398a8b37b253d"),
    "zeroblock-windows": (
        ["doubling", "--mode", "zeroblock", "--base", "2/3", "--starts", "4,10",
         "--windows", "5,16,50,100,1000"],
        0, "bdcf69421392c8ad7367fcd8fa37eedadb5b6d3e840e7c88e2d1332e7416ac04"),
    "fivesixth": (
        ["doubling", "--mode", "fivesixth", "--alpha", "3/61", "--horizon", "1000"],
        0, "469c46540b6abd2a50edcf4b29bd0e5d57cee195a41e146dfe08e3be7a3a05ef"),
    "invariance": (
        ["doubling", "--mode", "invariance", "--alpha", "5/24", "--steps", "40", "--level", "3"],
        0, "9176ec470b62d48d4ca3ad18460a91b02b0c167452e5738e280c9a06f4bdff02"),
    "envelope": (
        ["envelope", "--spec", '{"b": [2, 2], "m": [2, 2]}', "--blocks", "2",
         "--mu", "3/5,2/5", "--lam", "1/2,1/2"],
        1, "6f3f5d7ea8826dfd4cc3c5bb8bb7132e283229728a6c07e0bb7b065be85eae22"),
}


@pytest.mark.parametrize("name", PINNED_CERTIFICATES)
def test_certificate_bytes_are_pinned(tmp_path, name):
    argv, code, digest = PINNED_CERTIFICATES[name]
    out, table = tmp_path / "out.json", tmp_path / "table.csv"
    extra = ["--table-out", str(table)] if argv[0] == "envelope" else []
    assert maldist.cli.main([*argv, *extra, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    cert = json.loads(out.read_text())
    if argv[0] == "envelope":
        cert = cert["certificate"]
    cert_path, report = tmp_path / "cert.json", tmp_path / "verify.json"
    cert_path.write_text(json.dumps(cert))
    assert maldist.cli.main(["verify", str(cert_path), "--out", str(report)]) == code
    assert json.loads(report.read_text()) == {"ok": code == 0, "failures": []}


def verify_text(tmp_path, text: str) -> tuple[int, dict]:
    """The exit code and report of `maldist verify` on a certificate text."""
    path, report = tmp_path / "cert.json", tmp_path / "verify.json"
    path.write_text(text)
    code = maldist.cli.main(["verify", str(path), "--out", str(report)])
    return code, json.loads(report.read_text())


def salat3_text(tmp_path, *argv: str) -> str:
    out = tmp_path / "salat3.json"
    assert maldist.cli.main([*argv, "--out", str(out)]) == 0
    return out.read_text()


def change_a_digit(text: str, value: int) -> str:
    """The certificate text with the middle digit of the int `value` changed."""
    old = str(value)
    assert text.count(old) == 1
    mid = len(old) // 2
    return text.replace(old, old[:mid] + str((int(old[mid]) + 1) % 10) + old[mid + 1:])


def test_chained_reads_give_the_reports_of_plain_reads(tmp_path, monkeypatch):
    # The pinned base-8 certificate's longest integer passes the digit bound
    # of `_long_ints`, so `verify` reads its multipliers as chained products;
    # with `_long_ints` answering no, by `int` alone.  The middle digit
    # changed in n_41 leaves its point in its cell; changed in n_63, it moves
    # the point to the other cell.
    text = salat3_text(tmp_path, *PINNED_CERTIFICATES["histogram-squarepow"][0])
    assert certs._long_ints(text)
    n = json.loads(text)["inputs"]["multipliers"]
    assert len(str(n[40])) > certs._CHAINED_DIGITS
    texts = [text, change_a_digit(text, n[40]), change_a_digit(text, n[62])]
    reader, readers = certs._chained_int_reader, []
    monkeypatch.setattr(certs, "_chained_int_reader", lambda *a: readers.append(1) or reader(*a))
    chained = [verify_text(tmp_path, t) for t in texts]
    monkeypatch.setattr(certs, "_long_ints", lambda text: False)
    assert chained == [verify_text(tmp_path, t) for t in texts]
    assert readers == [1, 1, 1]
    assert chained[:2] == [(0, {"ok": True, "failures": []})] * 2
    assert chained[2] == (1, {"ok": False, "failures": ["cell-0: count is 50, recomputed 51",
                                                        "cell-1: count is 14, recomputed 13"]})


@pytest.mark.parametrize("tamper", [False, True])
def test_certificates_either_side_of_the_size_gate_verify_alike(tmp_path, monkeypatch, tamper):
    # 36 multipliers 12^(k^2), the last 8 past the digit bound, in a short
    # certificate.  The size gate is `_long_ints`, the digit count of the
    # longest integer: the text as written passes it (chained), and the same
    # JSON with no space after the "multipliers" key does not (read by `int`).
    text = salat3_text(tmp_path, "witness", "--mode", "salat3", "--n-kind", "squarepow:12",
                       "--weights", "1,1", "--eta", "1/11", "--base", "6")
    n = json.loads(text)["inputs"]["multipliers"]
    assert len(str(n[-8])) > certs._CHAINED_DIGITS
    if tamper:
        text = change_a_digit(text, n[-3])
    unspaced = text.replace('"multipliers": [', '"multipliers":[')
    assert json.loads(unspaced) == json.loads(text)
    reader, readers = certs._chained_int_reader, []
    monkeypatch.setattr(certs, "_chained_int_reader", lambda *a: readers.append(1) or reader(*a))
    reports = [verify_text(tmp_path, t) for t in (unspaced, text)]
    assert len(text) < 25_000 and readers == [1]
    assert not certs._long_ints(unspaced) and certs._long_ints(text)
    assert reports[0] == reports[1] and reports[0][0] == (1 if tamper else 0)


def test_long_certificates_of_short_integers_skip_the_chained_reader(tmp_path, monkeypatch):
    # 256 multipliers 1000^k, the longest of 769 digits: a certificate of
    # over 100,000 characters with no integer the reader would chain.
    text = salat3_text(tmp_path, "witness", "--mode", "salat3", "--n-kind", "pow:1000",
                       "--weights", "1,1", "--eta", "1/15", "--base", "16")
    n = json.loads(text)["inputs"]["multipliers"]
    assert len(text) > 100_000 and not certs._long_ints(text)
    assert max(len(str(v)) for v in n) == len(str(n[-1])) <= certs._CHAINED_DIGITS
    reader, readers = certs._chained_int_reader, []
    monkeypatch.setattr(certs, "_chained_int_reader", lambda *a: readers.append(1) or reader(*a))
    assert verify_text(tmp_path, text) == (0, {"ok": True, "failures": []})
    assert readers == []


def test_cli_witness_salat2_and_verify(tmp_path):
    out = tmp_path / "cert.json"
    res = run_cli(
        "witness", "--mode", "salat2", "--n-kind", "pow:2", "--count", "30",
        "--interval", "1/2,33/64", "--ratio", "2", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    check = run_cli("verify", str(out))
    assert check.returncode == 0, check.stdout
    payload = json.loads(check.stdout)
    assert payload["ok"] is True


def test_cli_verify_tampered_exits_one(tmp_path):
    out = tmp_path / "cert.json"
    run_cli(
        "witness", "--mode", "salat2", "--n-kind", "pow:2", "--count", "30",
        "--interval", "1/2,33/64", "--ratio", "2", "--out", str(out),
    )
    cert = json.loads(out.read_text())
    for claim in cert["claims"]:
        if claim["id"] == "hit-frequency":
            claim["count"] = 1
    out.write_text(json.dumps(cert))
    check = run_cli("verify", str(out))
    assert check.returncode == 1
    assert "hit-frequency" in check.stdout


@pytest.mark.parametrize(
    "text,failure",
    [
        ("[1]", "certificate is not a JSON object"),
        ('"x"', "certificate is not a JSON object"),
        ("null", "certificate is not a JSON object"),
        ("{}", "certificate has no kind"),
        ('{"format": "maldist-certificate/1", "claims": []}', "certificate has no kind"),
        ('{"format": "maldist-certificate/1", "kind": ["a"]}',
         "unknown certificate kind: ['a']"),
        ('{"format": "maldist-certificate/1", "kind": {"a": 1}}',
         "unknown certificate kind: {'a': 1}"),
        ('{"format": "maldist-certificate/1", "kind": "nope"}',
         "unknown certificate kind: 'nope'"),
    ],
    ids=["list", "string", "null", "empty-object", "no-kind", "list-kind", "object-kind",
         "unknown-kind"],
)
def test_cli_verify_names_a_malformed_certificate(tmp_path, text, failure):
    out = tmp_path / "cert.json"
    out.write_text(text)
    check = run_cli("verify", str(out))
    assert check.returncode == 1, check.stderr
    assert check.stderr == ""
    assert json.loads(check.stdout) == {"ok": False, "failures": [failure]}


def _drop_inputs(inputs):
    return None


def _unknown_input(inputs):
    return {**inputs, "extra": 1}


@pytest.mark.parametrize(
    "kind,edit,failure",
    [
        ("fivesixth", _drop_inputs, "inputs: missing"),
        ("fivesixth", lambda inputs: [], "inputs: expected an object, got a list"),
        ("fivesixth", _unknown_input, "inputs.extra: unknown field"),
        ("fivesixth", lambda inputs: {**inputs, "horizon": 8.9},
         "inputs.horizon: expected an integer, got a number"),
        ("mixing", lambda inputs: {**inputs, "delta": None},
         'inputs.delta: expected a "p/q" string, got null'),
    ],
    ids=["no-inputs", "inputs-list", "unknown-field", "float-horizon", "null-delta"],
)
def test_cli_verify_names_malformed_inputs(tmp_path, kind, edit, failure):
    cert = dict(dict(all_certificates())[kind])
    inputs = edit(cert.pop("inputs"))
    if inputs is not None:
        cert["inputs"] = inputs
    out = tmp_path / "cert.json"
    out.write_text(json.dumps(cert))
    check = run_cli("verify", str(out))
    assert check.returncode == 1, check.stderr
    assert check.stderr == ""
    assert json.loads(check.stdout) == {"ok": False, "failures": [failure]}


class WrappingArc:
    """The arc (left, 1) union [0, right) through 0, 0 < right < left < 1,
    as format /1's interval object can state it; membership by Fraction
    comparisons."""

    def __init__(self, left: F, right: F):
        self.left, self.right = left, right
        self.length = 1 - left + right

    def contains_residue(self, r: int, q: int) -> bool:
        return not self.right <= F(r, q) <= self.left

    def to_json(self) -> dict:
        return {"left": format_rational(self.left), "right": format_rational(self.right),
                "wraps": True}


def wrapping_hitfreq_certificate() -> dict:
    """A hitfreq certificate whose interval is the arc (9/10, 1/10) through
    0, its claims recounted over that arc: every one of them holds."""
    n = [2**k for k in range(1, 30)]
    witness = hit_frequency_witness(n, TorusInterval(F(0), F(1, 10)), F(2))
    cert = certs.hitfreq_certificate(witness, n)
    arc, alpha, plan = WrappingArc(F(9, 10), F(1, 10)), witness.alpha, witness.plan
    horizon = witness.horizon
    hits = sum(arc.contains_residue(m * alpha.numerator % alpha.denominator, alpha.denominator)
               for m in n[:horizon])
    # The writer takes an interval of [0, 1) as its ends: (0, 1/5) has the
    # arc's length, and its containment claims are restated for the arc.
    claims = certs._hitfreq_claims(alpha, n[:horizon], (F(0), arc.length), plan.ratio, plan.u,
                                   plan.c, witness.forced_positions, hits, horizon)
    for claim in claims.values():
        if claim["kind"] == "point-in-interval":
            value = F(claim["value"])
            claim.update(interval=arc.to_json(),
                         verdict=arc.contains_residue(value.numerator, value.denominator))
    cert["inputs"]["interval"] = arc.to_json()
    cert["claims"] = [{"id": cid, **claim} for cid, claim in claims.items()]
    return cert


def test_cli_verify_refuses_a_wrapping_interval_by_name(tmp_path):
    # No construction builds an arc through 0, so the verifier reads none.
    cert = wrapping_hitfreq_certificate()
    assert all(claim["verdict"] for claim in cert["claims"])
    failure = "inputs.interval.wraps: wrapping intervals are not supported"
    assert certs.verify_certificate(cert).failures == (failure,)
    out = tmp_path / "cert.json"
    out.write_text(json.dumps(cert))
    check = run_cli("verify", str(out))
    assert check.returncode == 1, check.stderr
    assert json.loads(check.stdout) == {"ok": False, "failures": [failure]}


def test_cli_byte_identical_reruns(tmp_path):
    args = (
        "witness", "--mode", "mixing", "--n", "100,10000,1000000",
        "--eps", "1/10", "--delta", "1/20", "--start", "3/10,9/25",
        "--targets", "9/20,11/20;9/20,11/20;9/20,11/20",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_cli_envelope_identity_table(tmp_path):
    table = tmp_path / "table.csv"
    res = run_cli(
        "envelope", "--spec", '{"b": [2, 2], "m": [2, 2]}', "--blocks", "2",
        "--grid", "11", "--table-out", str(table), "--out", str(tmp_path / "env.json"),
    )
    assert res.returncode == 0, res.stderr
    rows = table.read_text().strip().splitlines()[1:]
    assert len(rows) == 11
    for row in rows:
        t_dec, f_dec, t_exact, f_exact = row.split(",")
        assert t_dec == f_dec and t_exact == f_exact  # F = identity for pi = point mass at 1


def test_cli_envelope_domination_exit_code(tmp_path):
    res = run_cli(
        "envelope", "--spec", '{"b": [2, 2], "m": [2, 2]}', "--blocks", "2",
        "--mu", "3/5,2/5", "--lam", "1/2,1/2", "--out", str(tmp_path / "env.json"),
    )
    assert res.returncode == 1  # mu exceeds the identity envelope on cell 0
    payload = json.loads((tmp_path / "env.json").read_text())
    assert payload["certificate"]["claims"][0]["verdict"] is False


def test_cli_envelope_generator_names(tmp_path):
    res = run_cli(
        "envelope", "--spec", '{"b": "log", "m": "const:1"}', "--blocks", "20",
        "--grid", "5", "--table-out", str(tmp_path / "t.csv"),
        "--out", str(tmp_path / "e.json"),
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads((tmp_path / "e.json").read_text())
    # log lengths over 20 blocks: ratios m/b land on 1, 1/2, 1/3, 1/4, 1/5
    locations = [atom[0] for atom in payload["pi"]]
    assert locations == ["1/5", "1/4", "1/3", "1/2", "1/1"]


@pytest.mark.parametrize(
    "spec,entry",
    [
        ('{"b": [2.7, 3.9], "m": [1, 1]}', "'b' entries must be JSON integers, got 2.7"),
        ('{"b": [2, 3], "m": [1, true]}', "'m' entries must be JSON integers, got true"),
        ('{"b": "linear", "m": [1, "2"]}', "'m' entries must be JSON integers, got \"2\""),
    ],
    ids=["float-b", "bool-m", "string-m"],
)
def test_cli_spec_lists_hold_only_json_integers(tmp_path, spec, entry):
    res = run_cli("envelope", "--spec", spec, "--blocks", "2",
                  "--out", str(tmp_path / "e.json"), "--table-out", str(tmp_path / "t.csv"))
    assert res.returncode == 2
    assert res.stderr == f"maldist envelope: --spec: {entry}\n"


@pytest.mark.parametrize(
    "spec,error",
    [
        ('{"b": "cubic", "m": "const:1"}',
         "unknown generator 'cubic' (use linear[:o], log, const:c)"),
        ('{"b": "halfceil", "m": "const:1"}',
         "unknown generator 'halfceil' (use linear[:o], log, const:c)"),
        ('{"b": "linear", "m": "quarter"}',
         "unknown generator 'quarter' (use linear[:o], log, const:c, halfceil)"),
        ('{"b": "const", "m": "const:1"}', "const needs a value, e.g. const:4"),
        ('{"b": "linear", "m": "const"}', "const needs a value, e.g. const:4"),
        ('{"b": 5, "m": "const:1"}', "'b' must be a list or generator name"),
        ('{"b": "linear", "m": {"x": 1}}', "'m' must be a list or generator name"),
        ('{"b": [3.5], "m": 7}', "'b' entries must be JSON integers, got 3.5"),
        ('{"b": [2, 3], "m": [1, 1.5]}', "'m' entries must be JSON integers, got 1.5"),
        ('{"b": "cubic", "m": [1.5]}',
         "unknown generator 'cubic' (use linear[:o], log, const:c)"),
    ],
    ids=["unknown-b", "halfceil-b", "unknown-m", "const-b", "const-m", "number-b", "object-m",
         "float-b-before-m", "float-m", "b-before-m"],
)
def test_cli_spec_usage_errors_and_their_order(tmp_path, capsys, spec, error):
    """Each --spec usage error, as the CLI has printed it, with the b side
    read before the m side."""
    out = tmp_path / "e.json"
    argv = ["envelope", "--spec", spec, "--blocks", "3", "--out", str(out)]
    assert maldist.cli.main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"maldist envelope: --spec: {error}\n")
    assert not out.exists()


def test_cli_config_file_flag_wins(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("mode = salat2\nn-kind = pow:2\ncount = 30\ninterval = 1/2,33/64\nratio = 2\n")
    out_a = tmp_path / "a.json"
    res = run_cli("witness", "--config", str(config), "--out", str(out_a))
    assert res.returncode == 0, res.stderr
    # Flag overrides the file's interval.
    out_b = tmp_path / "b.json"
    res = run_cli(
        "witness", "--config", str(config), "--interval", "1/4,17/64", "--out", str(out_b)
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(out_a.read_text())["inputs"]["interval"]["left"] == "1/2"
    assert json.loads(out_b.read_text())["inputs"]["interval"]["left"] == "1/4"


def test_cli_config_unknown_key_rejected(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("mode = salat2\nbogus-key = 1\n")
    res = run_cli("witness", "--config", str(config))
    assert res.returncode == 2
    assert "bogus-key" in res.stderr


def test_cli_malformed_rational_rejected():
    res = run_cli(
        "witness", "--mode", "avoid", "--alpha", "5/17x", "--eps", "1/5",
        "--horizon", "100",
    )
    assert res.returncode == 2
    assert "position" in res.stderr


def test_cli_scan_csv():
    res = run_cli(
        "scan", "--x-kind", "rotation", "--x-alpha", "1/3", "--cells", "3",
        "--checkpoints", "3,6,9",
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert lines[0].startswith("N,freq_0")
    for line in lines[1:]:
        assert line.split(",")[4:] == ["1/3", "1/3", "1/3"]


def fraction_decimal(value: F, digits: int) -> str:
    """A value in [0, 1) to `digits` places, half rounded up, via Fractions."""
    scaled = int(value * 10**digits + F(1, 2))
    whole, frac = divmod(scaled, 10**digits)
    return f"{whole}.{frac:0{digits}d}" if digits else str(whole)


@pytest.mark.parametrize("alpha", ["1/6", "5/12"])
def test_cli_doubling_orbit_csv_on_reducible_residues(alpha):
    # Over q = 6 and q = 12 the orbit's residues share factors with q, so
    # the CSV must reduce them exactly as the Fraction values print.
    steps = 7
    res = run_cli("doubling", "--mode", "orbit", "--alpha", alpha, "--steps", str(steps))
    assert res.returncode == 0, res.stderr
    rows = [["k", "value", "value_exact"]]
    v = F(alpha)
    for k in range(1, steps + 1):
        v = mod1(2 * v)
        rows.append([str(k), fraction_decimal(v, 12), f"{v.numerator}/{v.denominator}"])
    assert res.stdout == "".join(",".join(row) + "\n" for row in rows)


def test_cli_subspace_run(tmp_path):
    trace = tmp_path / "trace.csv"
    res = run_cli(
        "subspace", "--spec", '{"b": "linear:1", "m": "halfceil"}',
        "--cuts", "0,1/2,1", "--mu", "1/2,1/2", "--eps", "1/10",
        "--blocks", "12", "--x-alpha", "832040/1346269",
        "--trace-out", str(trace), "--out", str(tmp_path / "sub.json"),
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads((tmp_path / "sub.json").read_text())
    assert payload["achieved"] is True
    assert trace.read_text().startswith("block,M,d_0,d_1")


def test_cli_witness_mode_aliases(tmp_path):
    # salat2 and salat3 are the only names of their modes.
    for alias in ("hitfreq", "histogram"):
        res = run_cli(
            "witness", "--mode", alias, "--n-kind", "pow:2", "--count", "30",
            "--interval", "1/2,33/64", "--ratio", "2", "--out", str(tmp_path / "a.json"),
        )
        assert res.returncode == 2
        assert res.stderr == f"maldist witness: --mode: unknown witness mode {alias!r}\n"
        assert not (tmp_path / "a.json").exists()


def test_cli_verify_takes_its_path_positionally(tmp_path):
    out = tmp_path / "five.json"
    assert run_cli("doubling", "--mode", "fivesixth", "--alpha", "1/17",
                   "--out", str(out)).returncode == 0
    missing = run_cli("verify")
    assert missing.returncode == 2
    assert missing.stderr.endswith("error: the following arguments are required: certificate\n")
    flag = run_cli("verify", "--certificate", str(out))
    assert flag.returncode == 2
    assert "unrecognized arguments: --certificate" in flag.stderr
    config = tmp_path / "run.conf"
    config.write_text(f"certificate = {out}\n")
    keyed = run_cli("verify", str(out), "--config", str(config))
    assert keyed.returncode == 2
    assert keyed.stderr == f"maldist verify: {config}:1: unknown key 'certificate' for 'verify'\n"


# 12^(64^2) has about 4400 decimal digits, past Python's default limit of
# 4300 on int<->str conversion.
OVER_DIGIT_LIMIT = (
    "witness", "--mode", "salat3", "--n-kind", "squarepow:12", "--weights", "3,1",
    "--eta", "1/10", "--base", "8",
)


def test_cli_integers_past_the_digit_limit(tmp_path):
    out = tmp_path / "cert.json"
    res = run_cli(*OVER_DIGIT_LIMIT, "--out", str(out))
    assert res.returncode == 0, res.stderr
    check = run_cli("verify", str(out))
    assert check.returncode == 0, check.stdout
    assert json.loads(check.stdout)["ok"] is True


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_main_leaves_digit_limit_lifted_for_its_caller(tmp_path):
    from maldist.cli import main

    out = tmp_path / "cert.json"
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert main([*OVER_DIGIT_LIMIT, "--out", str(out)]) == 0
        # The caller reads the certificate main wrote, huge integers included.
        cert = json.loads(out.read_text())
        assert certs.verify_certificate(cert).ok
    finally:
        sys.set_int_max_str_digits(limit)


def test_cli_doubling_fivesixth_roundtrip(tmp_path):
    out = tmp_path / "five.json"
    res = run_cli("doubling", "--mode", "fivesixth", "--alpha", "1/17", "--out", str(out))
    assert res.returncode == 0, res.stderr
    check = run_cli("verify", str(out))
    assert check.returncode == 0


def test_cli_doubling_zeroblock_roundtrip(tmp_path):
    out = tmp_path / "zb.json"
    res = run_cli(
        "doubling", "--mode", "zeroblock", "--base", "2/3", "--starts", "4,10",
        "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    assert run_cli("verify", str(out)).returncode == 0


def test_cli_doubling_at_horizon_ten_to_the_fifteen(tmp_path, capsys):
    """The orbit of 1/17 is 2/17, 4/17, ..., 1/17 with period 8, so its 5/6
    check, invariance defect and scan at N = 10^15, and the verifiers, walk
    one period: 2 hits per period, full periods with defect 0, and one
    point per period in each of 8 of the 16 cells."""
    from maldist import cli

    n = 10**15
    five, inv = tmp_path / "five.json", tmp_path / "inv.json"
    assert cli.main(["doubling", "--mode", "fivesixth", "--alpha", "1/17",
                     "--horizon", str(n), "--out", str(five)]) == 0
    assert cli.main(["doubling", "--mode", "invariance", "--alpha", "1/17",
                     "--steps", str(n), "--level", "3", "--out", str(inv)]) == 0
    hits = json.loads(five.read_text())["claims"][0]
    assert (hits["hits"], hits["minus_hits"], hits["plus_hits"]) == (n // 4, n // 8, n // 8)
    assert json.loads(inv.read_text())["claims"][0]["defect"] == "0/1"
    for cert in (five, inv):
        assert cli.main(["verify", str(cert), "--out", str(tmp_path / "v.json")]) == 0
        assert json.loads((tmp_path / "v.json").read_text()) == {"ok": True, "failures": []}
    assert cli.main(["scan", "--x-kind", "doubling", "--x-alpha", "1/17", "--cells", "16",
                     "--checkpoints", f"1000,{n}"]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split(",")
    cells = {16 * (pow(2, k, 17)) // 17 for k in range(1, 9)}
    assert last[17:] == ["1/8" if c in cells else "0/1" for c in range(16)]


def test_cli_unknown_flag_exits_two():
    res = run_cli("witness", "--mode", "avoid", "--no-such-flag", "1")
    assert res.returncode == 2


def _non_dyadic_cuts(cert):
    cert["inputs"]["cuts"] = ["0/1", "1/3", "1/1"]


def _claimed_defect(claim_id):
    def edit(cert):
        for claim in cert["claims"]:
            if claim["id"] == claim_id:
                claim["defect"] = "1/2"
    return edit


@pytest.mark.parametrize(
    "edit,claim_id",
    [
        (_non_dyadic_cuts, "invariance-defect"),
        (_claimed_defect("invariance-defect"), "invariance-defect"),
        (_claimed_defect("defect-bound"), "defect-bound"),
    ],
    ids=["non-dyadic-cuts", "defect-equals", "defect-bound"],
)
def test_cli_verify_rejects_bad_invariance_certificate(tmp_path, edit, claim_id):
    out = tmp_path / "inv.json"
    res = run_cli(
        "doubling", "--mode", "invariance", "--alpha", "1/17", "--steps", "12",
        "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    cert = json.loads(out.read_text())
    edit(cert)
    out.write_text(json.dumps(cert))
    check = run_cli("verify", str(out))
    assert check.returncode == 1
    failures = json.loads(check.stdout)["failures"]
    assert any(f.startswith(f"{claim_id}: ") for f in failures), failures
