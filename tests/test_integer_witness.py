"""Differential tests of the integer witness kernels against test-local copies
of the Fraction code they replaced: the nested-interval chain, the orbit
recounts of the hit-frequency and histogram witnesses, the recounts of the
hitfreq, histogram and zero-block verifiers, and `BinaryPoint.value`.  The
builders re-check nothing they build, so every built chain, hit-frequency,
histogram, avoidance and 5/6 result is also shown to have a certificate whose
claims are all true and verify.
"""

import json
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from maldist import certificates as certs
from maldist import cli
from maldist import witness as witness_module
from maldist.doubling import BinaryPoint, doubling_period, five_sixth_check
from maldist.exact import format_rational, mod1
from maldist.torus import TorusInterval
from maldist.witness import (
    HistogramTarget,
    MixingConfig,
    MixingChain,
    MixingConfigError,
    avoidance_sequence,
    histogram_witness,
    hit_frequency_witness,
    mixing_chain,
)
from tests.oracles import (
    fraction_contains,
    fraction_contains_interval,
    fraction_mul_mod1,
    interval_json,
    midpoint,
)

# --- Fraction references ------------------------------------------------------


def fraction_validate(cfg):
    if not 0 < cfg.eps < 1 or not 0 < cfg.delta < 1:
        raise MixingConfigError(0, "eps and delta must lie in (0, 1)")
    if len(cfg.targets) != len(cfg.multipliers):
        raise MixingConfigError(0, "need one target interval per multiplier")
    if cfg.start.length < cfg.delta:
        raise MixingConfigError(0, f"start interval shorter than delta={cfg.delta}")
    n = cfg.multipliers
    if n and n[0] * cfg.delta <= 2:
        raise MixingConfigError(1, f"n_1={n[0]} must exceed 2/delta={2 / cfg.delta}")
    for k in range(len(n) - 1):
        if n[k + 1] * cfg.eps <= 2 * n[k]:
            raise MixingConfigError(
                k + 2,
                f"n_{k + 2}={n[k + 1]} must exceed (2/eps) n_{k + 1}={2 * n[k] / cfg.eps}",
            )
    for k, t in enumerate(cfg.targets, start=1):
        if t.length < cfg.eps:
            raise MixingConfigError(k, f"target {k} shorter than eps={cfg.eps}")


def fraction_maps_into(n, interval, target):
    scaled_lo, scaled_hi = n * interval.left, n * interval.right
    j = scaled_lo.numerator // scaled_lo.denominator
    return scaled_lo - j >= target.left and scaled_hi - j <= target.right


def fraction_chain(cfg):
    """(alpha, intervals) of the chain, built and checked on Fractions."""
    fraction_validate(cfg)
    eps = cfg.eps
    chain = [cfg.start]
    current = cfg.start
    for k, (n_k, target) in enumerate(zip(cfg.multipliers, cfg.targets), start=1):
        a = target.left
        lo, hi = current.left, current.right
        j = (lo * n_k).numerator // (lo * n_k).denominator + 1
        if not (lo < F(j, n_k) and F(j + 1, n_k) < hi):
            raise MixingConfigError(k, "internal: no full preimage cell fits")
        current = TorusInterval(F(a + j, n_k), F(a + eps + j, n_k))
        chain.append(current)
    alpha = midpoint(current)
    assert fraction_contains(cfg.start, alpha)
    for k, (n_k, target) in enumerate(zip(cfg.multipliers, cfg.targets), start=1):
        assert chain[k].length == eps / n_k
        assert fraction_contains_interval(chain[k - 1], chain[k])
        assert fraction_contains(target, fraction_mul_mod1(n_k, alpha))
        assert fraction_maps_into(n_k, chain[k], target)
    return alpha, tuple(chain)


def fraction_hits(multipliers, alpha, interval):
    return sum(1 for n in multipliers if fraction_contains(interval, fraction_mul_mod1(n, alpha)))


def fraction_cell_counts(multipliers, alpha, ell):
    counts = [0] * ell
    for n in multipliers:
        counts[min(int(fraction_mul_mod1(n, alpha) * ell), ell - 1)] += 1
    return counts


def fraction_window_hits(digits, end):
    text = "".join(str(d) for d in digits)
    value = F(int(text, 2), 1 << len(text))
    hits = 0
    for k in range(1, end + 1):
        tail = text[k:]
        shifted = mod1(F(int(tail or "0", 2), 1 << len(tail)) + value)
        if F(1, 2) < shifted < F(3, 4):
            hits += 1
    return hits


def bitwise_value(digits):
    num = 0
    for d in digits:
        num = (num << 1) | d
    return F(num, 1 << len(digits))


# --- strategies ---------------------------------------------------------------


@st.composite
def unit_intervals(draw, min_length=F(0)):
    """Non-wrapping (left, right) on a small grid; endpoints 0 and 1 included."""
    den = draw(st.integers(1, 24))
    lo = draw(st.integers(0, den - 1))
    hi = draw(st.integers(lo + 1, den))
    left, right = F(lo, den), F(hi, den)
    if right - left < min_length:
        left, right = (F(0), min_length) if draw(st.booleans()) else (1 - min_length, F(1))
    return TorusInterval(left, right)


def grow(draw, n, factor):
    """Next multiplier above factor * n: an exact multiple of n, or not."""
    if draw(st.booleans()):
        return n * (factor.numerator // factor.denominator + 1 + draw(st.integers(0, 3)))
    return n * factor.numerator // factor.denominator + 1 + draw(st.integers(0, n))


@st.composite
def chain_configs(draw):
    eps = F(draw(st.integers(1, 3)), draw(st.integers(4, 20)))
    start = draw(unit_intervals())
    delta = start.length * F(draw(st.integers(1, 4)), 4)
    if delta >= 1:
        delta = F(1, 2)
    steps = draw(st.integers(0, 6))
    # Sometimes one hypothesis fails on purpose (at the start or at a step).
    bad = draw(st.integers(0, 3 * steps + 2))
    n = (2 / delta).numerator // (2 / delta).denominator + 1 + draw(st.integers(0, 5))
    n *= 10 ** draw(st.sampled_from([0, 0, 3, 40]))
    multipliers = []
    for k in range(1, steps + 1):
        if k == bad:
            n = max(1, n // 2)
        multipliers.append(n)
        n = grow(draw, n, 2 / eps)
    targets = []
    for _ in range(steps):
        # Length exactly eps, or longer, with ends on 0 and 1 as well;
        # sometimes shorter, which `validate` refuses.
        length = min(F(1), eps * F(draw(st.sampled_from([3, 4, 4, 5, 8])), 4))
        left = draw(st.sampled_from([F(0), F(1) - length, F(draw(st.integers(0, 30)), 31)]))
        targets.append(TorusInterval(min(left, 1 - length), min(left, 1 - length) + length))
    return MixingConfig(tuple(multipliers), eps, delta, start, tuple(targets))


def mixed_multipliers(draw, size):
    """Positive multipliers in which some ratios are integers and some not."""
    out = [draw(st.integers(1, 50))]
    for _ in range(size - 1):
        if draw(st.booleans()):
            out.append(out[-1] * draw(st.integers(1, 6)))
        else:
            out.append(draw(st.integers(1, 10**draw(st.sampled_from([3, 30])))))
    return out


# --- the multipliers' ratios ---------------------------------------------------


def divmod_ratios(terms):
    """n_k / n_{k-1} where n_{k-1} is nonzero and divides n_k, else 0 (n_0 = 1)."""
    out, prev = [], 1
    for n in terms:
        q, r = divmod(n, prev) if prev else (0, 1)
        out.append(0 if r else q)
        prev = n
    return out


@given(st.sampled_from(["pow", "squarepow", "explicit"]), st.integers(-3, 12), st.data())
def test_multiplier_ratios_are_the_quotients_of_consecutive_terms(kind, b, data):
    # The chain, the residues and the writer read these ratios in place of a divmod.
    count = data.draw(st.integers(0, 40))
    if kind == "explicit":
        # Some steps divide and some do not.
        terms = mixed_multipliers(data.draw, count + 1)[:count]
        n = cli._multipliers({"n": ",".join(map(str, terms))}, count)
    else:
        n = cli._multipliers({"n-kind": f"{kind}:{b}"}, count)
    assert list(n.ratios) == divmod_ratios(n)
    # A slice such as n[base:] starts over 1; a stepped one is what salat2 steers.
    start, step = data.draw(st.integers(0, count)), data.draw(st.sampled_from([1, 1, 2, 3, -1]))
    part = n[start::step]
    assert list(part) == list(n)[start::step]
    assert list(part.ratios) == divmod_ratios(part)


# --- the chain ------------------------------------------------------------------


def outcome(build):
    try:
        return build()
    except MixingConfigError as exc:
        return ("error", exc.index, str(exc))


def boundary_config(multipliers):
    target = TorusInterval(F(1, 3), F(1, 2))
    return MixingConfig(multipliers, F(1, 10), F(1, 2), TorusInterval(F(0), F(1, 2)), (target,) * 2)


@given(chain_configs())
# Growth hypotheses met with equality, which they must refuse.
@example(boundary_config((4, 81)))
@example(boundary_config((5, 100)))
@example(
    MixingConfig(
        (7, 7 * 21 + 3, (7 * 21 + 3) * 21 + 5),
        F(1, 10),
        F(1, 2),
        TorusInterval(F(0), F(1, 2)),
        (
            TorusInterval(F(0), F(1, 10)),
            TorusInterval(F(9, 10), F(1)),
            TorusInterval(F(1, 3), F(1, 2)),
        ),
    )
)
def test_mixing_chain_matches_fraction_reference(config):
    def integer():
        chain = mixing_chain(config)
        return chain.alpha, chain.intervals

    assert outcome(integer) == outcome(lambda: fraction_chain(config))


def eps_chain(nonint=False):
    eps = F(1, 8)
    target = TorusInterval(F(1, 4), F(3, 8))
    n = [5, 5 * 17, 5 * 17 * 17 + (3 if nonint else 0), 5 * 17 * 17 * 17 * 17]
    config = MixingConfig(tuple(n), eps, F(1, 2), TorusInterval(F(0), F(1, 2)), (target,) * 4)
    return config, mixing_chain(config)


def false_claims(chain):
    cert = certs.mixing_certificate(chain)
    return cert, [c["id"] for c in cert["claims"] if not c["verdict"]]


def verify_exit_code(tmp_path, cert):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    return cli.main(["verify", str(path), "--out", str(tmp_path / "report.json")])


@pytest.mark.parametrize("nonint", [False, True])
def test_moved_cell_gives_a_false_nesting_claim(tmp_path, nonint):
    config, chain = eps_chain(nonint)
    # Any cell keeps the length and maps into the target, and alpha still
    # lands in the target; only the nesting breaks.
    cells = list(chain.cells)
    cells[1] += 5
    cert, false = false_claims(MixingChain(config, tuple(cells), chain.alpha))
    assert false == ["nesting-2", "nesting-3"]
    assert certs.verify_certificate(cert).ok
    assert verify_exit_code(tmp_path, cert) == cli.CLAIM_ERROR


@pytest.mark.parametrize("nonint", [False, True])
def test_target_shorter_than_eps_is_refused_by_validate(nonint):
    config, _ = eps_chain(nonint)
    # The last target shrinks to (a, a + 3 eps/4): no interval of length eps
    # maps into it, and no claim states maps-into, so `validate` refuses it.
    a = config.targets[-1].left
    short = TorusInterval(a, a + config.eps * F(3, 4))
    shrunk = MixingConfig(
        config.multipliers, config.eps, config.delta, config.start, config.targets[:-1] + (short,)
    )
    with pytest.raises(MixingConfigError, match="target 4 shorter than eps=1/8") as info:
        mixing_chain(shrunk)
    assert info.value.index == 4


def test_alpha_off_the_chain_gives_false_containment_claims(tmp_path):
    config, chain = eps_chain()
    # The right end of the last interval maps onto the target's right end.
    cert, false = false_claims(MixingChain(config, chain.cells, chain.intervals[-1].right))
    assert false == ["containment-4"]
    assert verify_exit_code(tmp_path, cert) == cli.CLAIM_ERROR
    cert, false = false_claims(MixingChain(config, chain.cells, F(3, 4)))
    assert "alpha-in-start" in false
    assert verify_exit_code(tmp_path, cert) == cli.CLAIM_ERROR


def assert_true_and_verified(cert):
    assert all(claim["verdict"] is True for claim in cert["claims"])
    assert certs.verify_certificate(cert) == certs.VerificationResult(True, ())


@given(chain_configs())
def test_every_built_chain_has_a_true_verified_certificate(config):
    # The build does not re-check its chain: its certificate does.
    try:
        chain = mixing_chain(config)
    except MixingConfigError:
        assume(False)
    assert_true_and_verified(certs.mixing_certificate(chain))


@st.composite
def hitfreq_builds(draw):
    """A hit-frequency witness: a ratio q > 1, multipliers growing by at
    least q (by exactly q or more), and an interval shorter than 1/q."""
    ratio = draw(st.sampled_from([F(2), F(3), F(7), F(3, 2), F(7, 4)]))
    eps = F(1, draw(st.integers(1, 20))) / ratio * F(draw(st.integers(1, 9)), 10)
    left = draw(st.sampled_from([F(0), 1 - eps, F(draw(st.integers(0, 30)), 31)]))
    interval = TorusInterval(min(left, 1 - eps), min(left, 1 - eps) + eps)
    n = [draw(st.integers(1, 20))]
    for _ in range(draw(st.integers(40, 120))):
        n.append(-(-n[-1] * ratio.numerator // ratio.denominator) + draw(st.integers(0, n[-1])))
    try:
        witness = hit_frequency_witness(n, interval, ratio)
    except ValueError:  # too few multipliers for the plan
        assume(False)
    return certs.hitfreq_certificate(witness, n)


@st.composite
def histogram_builds(draw):
    """A histogram witness at an eta just above its worst-case slack, with
    arbitrary first `base` multipliers and steered ones growing past 2*cells."""
    weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    ell, total = len(weights), sum(weights)
    base = total * draw(st.integers(-(-2 // total), max(1, 12 // total)))
    slack = max(max(F(w, total), 1 - F(w, total)) for w in weights) / base
    eta = slack + F(1, draw(st.integers(1, 10**6)))
    n = draw(st.lists(st.integers(1, 10**6), min_size=base, max_size=base))
    n.append(draw(st.integers(5, 50)))
    while len(n) < base * base:
        n.append(grow(draw, n[-1], F(2 * ell)))
    witness = histogram_witness(n, HistogramTarget(weights, eta), base)
    return certs.histogram_certificate(witness, n)


@st.composite
def avoidance_builds(draw):
    """An avoidance run: eps <= alpha <= 1 - eps, and a gap-{1,2} prefix."""
    q = draw(st.integers(2, 300))
    alpha = F(draw(st.integers(1, q - 1)), q)
    bound = min(alpha, 1 - alpha)
    eps = bound * F(draw(st.integers(1, 8)), 8)
    prefix = [draw(st.integers(1, 5))]
    for gap in draw(st.lists(st.sampled_from([1, 2]), max_size=6)):
        prefix.append(prefix[-1] + gap)
    horizon = len(prefix) + draw(st.integers(0, 400))
    return certs.avoidance_certificate(avoidance_sequence(alpha, eps, prefix, horizon), None)


@st.composite
def fivesixth_builds(draw):
    """A 5/6 report for alpha in (0, 1/16), at a horizon inside the first
    period or past it by whole periods and a part of one."""
    q = draw(st.integers(17, 5000))
    alpha = F(draw(st.integers(1, (q - 1) // 16)), q)
    pre, period = doubling_period(alpha)
    horizon = draw(st.one_of(
        st.integers(1, pre + period),
        st.builds(lambda whole, rest: pre + whole * period + rest,
                  st.integers(1, 10**12), st.integers(0, period)),
    ))
    return certs.fivesixth_certificate(five_sixth_check(alpha, horizon), alpha)


@pytest.mark.parametrize(
    "builds", [hitfreq_builds, histogram_builds, avoidance_builds, fivesixth_builds]
)
@given(data=st.data())
def test_every_built_witness_has_a_true_verified_certificate(builds, data):
    # The builders do not re-check their results: their certificates do.
    assert_true_and_verified(data.draw(builds()))


# --- witness recounts -------------------------------------------------------------


@given(st.integers(2, 9), st.booleans(), st.data())
def test_hit_frequency_count_matches_fraction_reference(b, explicit, data):
    length = F(1, b + data.draw(st.integers(1, 20)))
    left = data.draw(st.sampled_from([F(0), 1 - length, F(data.draw(st.integers(0, 30)), 31)]))
    interval = TorusInterval(min(left, 1 - length), min(left, 1 - length) + length)
    n = [data.draw(st.integers(1, 20))]
    while len(n) < 80:
        # Explicit lists grow by at least b, often by a ratio that is no integer.
        n.append(n[-1] * b + (data.draw(st.integers(0, n[-1])) if explicit else 0))
    try:
        witness = hit_frequency_witness(n, interval, F(b))
    except ValueError:
        assume(False)
    assert witness.hit_count == fraction_hits(n[: witness.horizon], witness.alpha, interval)


@given(
    st.sampled_from([(1, 1), (3, 1), (1, 2, 1), (1, 1, 1, 1)]),
    st.sampled_from([4, 8]),
    st.sampled_from(["explicit", "multiples", "pow", "squarepow"]),
    st.data(),
)
def test_histogram_counts_match_fraction_reference(weights, base, source, data):
    # The builder counts the steered positions from their assigned cells.
    ell = len(weights)
    if source in ("pow", "squarepow"):
        # The chain needs a ratio above 2 * ell; squarepow's ratios b^(2k+1) have it.
        b = data.draw(st.integers(2 * ell + 1 if source == "pow" else 2, 12))
        n = cli._multipliers({"n-kind": f"{source}:{b}"}, base * base)
    else:
        n = [data.draw(st.integers(1, 20))]
        while len(n) < base * base:
            n.append(grow(data.draw, n[-1], F(2 * ell)) if source == "explicit"
                     else n[-1] * (2 * ell + 1))
    witness = histogram_witness(n, HistogramTarget(weights, F(1)), base)
    assert list(witness.counts) == fraction_cell_counts(n[: base * base], witness.alpha, ell)


@pytest.mark.parametrize("weights,base", [((3, 1), 4), ((1, 2, 1), 8), ((1, 1, 1, 1), 4)])
def test_histogram_chain_targets_are_the_assigned_cells(monkeypatch, weights, base):
    # Steered position j aims at the j-th cell of the assignment: one interval per position.
    configs = []

    def recording_chain(config):
        configs.append(config)
        return mixing_chain(config)

    monkeypatch.setattr(witness_module, "mixing_chain", recording_chain)
    ell, steered = len(weights), base * base - base
    n = [(2 * ell + 1) ** k for k in range(1, base * base + 1)]
    histogram_witness(n, HistogramTarget(weights, F(1)), base)
    assignment = [i for i, w in enumerate(weights) for _ in range(w * steered // sum(weights))]
    assert configs[0].targets == tuple(
        TorusInterval(F(i, ell), F(i + 1, ell)) for i in assignment)


# --- verifier recounts ------------------------------------------------------------


def claim_failures(cert, claim_id):
    return [f for f in certs.verify_certificate(cert).failures if f.startswith(claim_id + ":")]


@st.composite
def residue_cases(draw):
    q = draw(st.sampled_from([draw(st.integers(1, 60)), draw(st.integers(1, 10**40))]))
    alpha = F(draw(st.integers(0, 3 * q)), q)
    n = mixed_multipliers(draw, draw(st.integers(1, 25)))
    return alpha, n


@given(residue_cases(), st.data())
def test_hitfreq_verifier_recount_matches_fraction_reference(case, data):
    alpha, n = case
    iv = data.draw(unit_intervals())
    count = fraction_hits(n, alpha, iv)
    # The multipliers grow by 1/max(n), as any list of them does: multipliers
    # that fail the stated growth are refused before the hits are recounted.
    cert = {
        "format": certs.FORMAT,
        "kind": "hitfreq",
        "inputs": {
            "alpha": format_rational(alpha), "multipliers": n, "interval": interval_json(iv),
            "ratio": f"1/{max(n)}", "plan": {"u": 1, "c": 1, "repeats": 1},
            "forced_positions": [],
        },
        "claims": [{
            "id": "hit-frequency", "kind": "hit-count-frequency", "count": count,
            "horizon": len(n), "threshold": "1/2", "verdict": F(count, len(n)) > F(1, 2),
        }],
    }
    assert claim_failures(cert, "hit-frequency") == []
    cert["claims"][0]["count"] += 1
    assert claim_failures(cert, "hit-frequency")


@given(residue_cases(), st.lists(st.integers(1, 4), min_size=1, max_size=6), st.data())
def test_histogram_verifier_recount_matches_fraction_reference(case, weights, data):
    alpha, n = case
    # A histogram certificate echoes base^2 multipliers.
    base = isqrt(len(n))
    n = n[: base * base]
    counts = fraction_cell_counts(n, alpha, len(weights))
    eta = F(1, data.draw(st.integers(1, 8)))
    claims = [
        {
            "id": f"cell-{i}", "kind": "cell-frequency-within", "cell": i, "count": cnt,
            "horizon": len(n), "target": format_rational(F(w, sum(weights))),
            "eta": format_rational(eta),
            "verdict": abs(F(cnt, len(n)) - F(w, sum(weights))) < eta,
        }
        for i, (cnt, w) in enumerate(zip(counts, weights))
    ]
    cert = {
        "format": certs.FORMAT,
        "kind": "histogram",
        "inputs": {
            "alpha": format_rational(alpha), "multipliers": n, "weights": weights,
            "eta": format_rational(eta), "base": base,
        },
        "claims": claims,
    }
    assert certs.verify_certificate(cert).ok
    cell = data.draw(st.integers(0, len(weights) - 1))
    claims[cell]["count"] += 1
    assert claim_failures(cert, f"cell-{cell}")


@pytest.mark.parametrize("tamper", [False, True])
def test_histogram_report_is_the_same_for_an_unreduced_alpha(tamper):
    # The histogram checker reads alpha's p and q as written: 2p/2q doubles
    # every residue and its modulus, so every cell and report is unchanged.
    n = [5**k for k in range(1, 17)]
    cert = certs.histogram_certificate(histogram_witness(n, HistogramTarget((3, 1), F(1)), 4), n)
    if tamper:
        cert["claims"][0]["count"] += 1
    p, q = map(int, cert["inputs"]["alpha"].split("/"))
    doubled = json.loads(json.dumps(cert))
    doubled["inputs"]["alpha"] = f"{2 * p}/{2 * q}"
    report = certs.verify_certificate(cert)
    assert report.ok is not tamper
    assert certs.verify_certificate(doubled) == report


@pytest.mark.parametrize("start", [1, 2, 3])
def test_zeroblock_window_recount_on_every_short_digit_string(start):
    # All strings of start^2 digits, so shifts onto the band edges 1/2 and
    # 3/4 occur; a digit string that does not match the base is a separate
    # failure.
    length = start * start
    for num in range(1 << length):
        text = format(num, f"0{length}b")
        claims = []
        for end in range(1, length + 4):
            hits = fraction_window_hits([int(ch) for ch in text], end)
            claims.append({
                "id": f"window-{end}", "kind": "window-density", "end": end,
                "hits": hits, "density": format_rational(F(hits, end)), "verdict": True,
            })
        cert = {
            "format": certs.FORMAT,
            "kind": "zeroblock",
            "inputs": {"base": "5/8", "block_starts": [start], "digits": text},
            "claims": claims,
        }
        failures = certs.verify_certificate(cert).failures
        assert [f for f in failures if f.startswith("window-")] == [], text


# --- binary points ----------------------------------------------------------------


@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_binary_point_value_matches_bitwise_reference(digits):
    assert BinaryPoint(tuple(digits)).value == bitwise_value(digits)
