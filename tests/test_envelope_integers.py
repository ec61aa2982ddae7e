"""The envelope on integers: `pi_measure`, F, the CLI table, `check_admissible`
and the union walk against test-local copies of the plain-Fraction code they
replace; the integer certificate verifier against enumeration of all unions;
and the bytes of `maldist envelope` beyond the benchmark catalogue's sizes."""

import csv
import hashlib
import io
import json
import tempfile
from bisect import bisect_right
from fractions import Fraction as F
from itertools import accumulate, combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maldist import certificates as certs
from maldist import cli
from maldist.empirical import MeasureVector
from maldist.envelope import (
    AdmissibilityReport,
    BlockSpec,
    DominationResult,
    check_admissible,
    envelope_dominates,
    pi_measure,
)
from tests.oracles import F_pi_eval, point_mass, ratio_atoms, ratio_measure

# --- test-local copies of the plain-Fraction code -----------------------


def ref_pi_atoms(b, m, horizon):
    """Atoms of the ratio measure of the first `horizon` blocks."""
    total = sum(m[:horizon])
    merged = {}
    for bj, mj in zip(b[:horizon], m[:horizon]):
        if mj:
            q = F(mj, bj)
            merged[q] = merged.get(q, F(0)) + F(mj, total)
    return tuple(sorted(merged.items()))


class RefEnvelope:
    """F(t) = pi([0, t]) + t * sum_{q > t} weight(q)/q from Fraction tables."""

    def __init__(self, atoms):
        self.locations = [q for q, _ in atoms]
        self.mass_upto = list(accumulate((w for _, w in atoms), initial=F(0)))
        harmonic = accumulate((w / q if q else F(0) for q, w in reversed(atoms)), initial=F(0))
        self.harmonic_from = list(harmonic)[::-1]

    def __call__(self, t):
        i = bisect_right(self.locations, t)
        return self.mass_upto[i] + t * self.harmonic_from[i]


def ref_decimal(f, digits):
    neg = f < 0
    f = -f if neg else f
    q, r = divmod(f.numerator * 10**digits, f.denominator)
    if 2 * r >= f.denominator:
        q += 1
    whole, frac = divmod(q, 10**digits)
    body = f"{whole}.{frac:0{digits}d}" if digits > 0 else str(whole)
    return "-" + body if neg else body


def ref_format(f):
    return f"{f.numerator}/{f.denominator}"


def ref_table(atoms, grid, digits):
    env = RefEnvelope(atoms)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", "F", "t_exact", "F_exact"])
    for i in range(grid):
        t = F(i, grid - 1)
        v = env(t)
        writer.writerow([ref_decimal(t, digits), ref_decimal(v, digits), ref_format(t), ref_format(v)])
    return out.getvalue()


def ref_check_admissible(b, m, horizon):
    M = list(accumulate(m, initial=0))
    anchors = sorted({1, max(1, horizon // 4), max(1, horizon // 2), max(1, (3 * horizon) // 4)})
    ratios = [F(m[j - 1], M[j]) if M[j] > 0 else F(1) for j in range(1, horizon + 1)]
    b_tail_min = [min(b[k - 1 : horizon]) for k in anchors]
    ratio_tail_max = [max(ratios[k - 1 : horizon]) for k in anchors]
    return AdmissibilityReport(
        horizon=horizon,
        anchors=tuple(anchors),
        b_tail_min=tuple(b_tail_min),
        ratio_tail_max=tuple(ratio_tail_max),
        b_bounded_flag=b_tail_min[-1] <= b_tail_min[0] and horizon > 1,
        ratio_stalled_flag=ratio_tail_max[-1] >= ratio_tail_max[0] and horizon > 1,
    )


def ref_walk(mu, lam, env, tol):
    """The density-order descent in Fraction arithmetic."""
    s = len(mu)
    order = sorted(range(s), key=lambda i: (lam[i] != 0, -mu[i] / lam[i] if lam[i] else 0, i))
    checked = 0

    def violation_below(last, mu_val, lam_val):
        nonlocal checked
        for i in order:
            if i > last:
                mu_val, lam_val = mu_val + mu[i], lam_val + lam[i]
                checked += 1
                if mu_val > env(lam_val) + tol:
                    return True
        return False

    if not violation_below(-1, F(0), F(0)):
        return DominationResult(True, unions_checked=checked)
    cells, mu_val, lam_val = (), F(0), F(0)
    for j in range(s):
        mu_j, lam_j = mu_val + mu[j], lam_val + lam[j]
        checked += 1
        if mu_j > env(lam_j) + tol:
            return DominationResult(False, cells + (j,), mu_j, env(lam_j), checked)
        if violation_below(j, mu_j, lam_j):
            cells, mu_val, lam_val = cells + (j,), mu_j, lam_j
    raise AssertionError("no violation reached")


def violations_in_preorder(mu, lam, env, tol):
    """Every violating union, in pre-order of the subset tree (lexicographic
    order of the sorted index tuples), with its masses."""
    unions = sorted(c for size in range(1, len(mu) + 1) for c in combinations(range(len(mu)), size))
    found, clean = [], []
    for cells in unions:
        union_mass = sum((mu[i] for i in cells), F(0))
        bound = env(sum((lam[i] for i in cells), F(0)))
        (found if union_mass > bound + tol else clean).append((cells, union_mass, bound))
    return found, clean


# --- strategies ------------------------------------------------------------

blocks = st.lists(
    st.integers(1, 15).flatmap(lambda b: st.tuples(st.just(b), st.integers(0, b))),
    min_size=1,
    max_size=14,
)


def spec_lists(pairs):
    b = [bj for bj, _ in pairs]
    m = [mj for _, mj in pairs]
    if not any(m):
        m[-1] = b[-1]  # an atom at location 1
    return b, m


@st.composite
def atom_tuples(draw):
    """Atoms with locations of small denominators, often at 0 and 1."""
    locs = draw(st.sets(st.fractions(0, 1, max_denominator=24), min_size=1, max_size=7))
    locs |= set(draw(st.sampled_from([(), (F(0),), (F(1),), (F(0), F(1))])))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(locs), max_size=len(locs)))
    total = sum(weights)
    return tuple(zip(sorted(locs), (F(w, total) for w in weights)))


@st.composite
def ratio_measures(draw):
    kind = draw(st.sampled_from(["atoms", "spec", "zero", "one"]))
    if kind == "zero":
        return point_mass(F(0))
    if kind == "one":
        return point_mass(F(1))
    if kind == "spec":
        b, m = spec_lists(draw(blocks))
        return pi_measure(BlockSpec(b, m), len(b))
    return ratio_measure(draw(atom_tuples()))


@st.composite
def measure_pairs(draw, max_cells=7):
    """(mu, lam) on s cells: zero-lambda cells and equal densities are common."""
    s = draw(st.integers(1, max_cells))
    lam_w = draw(st.lists(st.integers(0, 4), min_size=s, max_size=s))
    mu_w = draw(st.lists(st.integers(0, 5), min_size=s, max_size=s))
    if not any(lam_w):
        lam_w[0] = 1
    if not any(mu_w):
        mu_w[-1] = 1
    mu = MeasureVector(tuple(F(w, sum(mu_w)) for w in mu_w))
    lam = MeasureVector(tuple(F(w, sum(lam_w)) for w in lam_w))
    return mu, lam


tolerances = st.sampled_from([F(0), F(0), F(1, 50), F(1, 7), F(1, 3)])


# --- pi, F and the table -----------------------------------------------------


@settings(max_examples=120)
@given(blocks, st.data())
def test_pi_measure_matches_fraction_code(pairs, data):
    b, m = spec_lists(pairs)
    horizon = data.draw(st.integers(1, len(b)))
    if not any(m[:horizon]):
        with pytest.raises(ValueError, match="all multiplicities are zero"):
            pi_measure(BlockSpec(b, m), horizon)
        return
    pi = pi_measure(BlockSpec(b, m), horizon)
    atoms = ref_pi_atoms(b, m, horizon)
    assert ratio_atoms(pi) == atoms
    assert pi.to_json() == [[ref_format(q), ref_format(w)] for q, w in atoms]
    env = RefEnvelope(atoms)
    for t in [F(0), F(1)] + [q for q, _ in atoms] + [F(i, 7) for i in range(8)]:
        assert F_pi_eval(pi, t) == env(t)


@settings(max_examples=120)
@given(atom_tuples(), st.lists(st.fractions(0, 1, max_denominator=10**6), max_size=10))
def test_F_matches_fraction_code(atoms, ts):
    pi = ratio_measure(atoms)
    env = RefEnvelope(atoms)
    assert pi.to_json() == [[ref_format(q), ref_format(w)] for q, w in atoms]
    for t in [F(0), F(1)] + [q for q, _ in atoms] + ts:
        assert F_pi_eval(pi, t) == env(t)
        num, den = pi.envelope_ratio(t.numerator * 3, t.denominator * 3)
        assert den > 0 and F(num, den) == env(t)


@settings(max_examples=60)
@given(blocks, st.integers(2, 40), st.data())
def test_cli_table_and_admissibility_match_fraction_code(pairs, grid, data):
    b, m = spec_lists(pairs)
    horizon = data.draw(st.integers(1, len(b)))
    if not any(m[:horizon]):
        m[horizon - 1] = b[horizon - 1]
    with tempfile.TemporaryDirectory() as tmp:
        table, out = Path(tmp, "t.csv"), Path(tmp, "e.json")
        argv = ["envelope", "--spec", json.dumps({"b": b, "m": m}), "--blocks", str(horizon),
                "--grid", str(grid), "--seed", "0",
                "--table-out", str(table), "--out", str(out)]
        assert cli.main(argv) == 0
        atoms = ref_pi_atoms(b, m, horizon)
        assert table.read_text() == ref_table(atoms, grid, 12)
        payload = json.loads(out.read_text())
    assert payload["pi"] == [[ref_format(q), ref_format(w)] for q, w in atoms]
    want = ref_check_admissible(b, m, horizon)
    assert payload["admissibility"]["ratio_tail_max"] == [ref_format(r) for r in want.ratio_tail_max]
    assert payload["admissibility"]["ratio_stalled_flag"] == want.ratio_stalled_flag


@settings(max_examples=150)
@given(blocks, st.data())
def test_check_admissible_matches_fraction_code(pairs, data):
    b = [bj for bj, _ in pairs]
    m = [mj for _, mj in pairs]  # all-zero prefixes give the ratio 1
    horizon = data.draw(st.integers(1, len(b)))
    assert check_admissible(BlockSpec(b, m), horizon) == ref_check_admissible(b, m, horizon)


def test_check_admissible_long_horizon_matches_fraction_code():
    b = [j % 7 + 1 + j // 50 for j in range(1, 901)]
    m = [0 if j % 11 == 0 else (bj + 1) // 2 for j, bj in enumerate(b, start=1)]
    for horizon in (1, 2, 3, 4, 5, 899, 900):
        assert check_admissible(BlockSpec(b, m), horizon) == ref_check_admissible(b, m, horizon)


# --- the union walk ------------------------------------------------------------


@settings(max_examples=200)
@given(measure_pairs(), ratio_measures(), tolerances)
def test_walk_matches_fraction_code(pair, pi, tol):
    mu, lam = pair
    got = envelope_dominates(mu, lam, pi, tol=tol)
    assert got == ref_walk(mu.masses, lam.masses, RefEnvelope(ratio_atoms(pi)), tol)


# --- the integer certificate verifier -------------------------------------------


def restate(cert, cells, union_mass, bound):
    cert = json.loads(json.dumps(cert))
    claim = cert["claims"][0]
    claim.update(verdict=False, violation=list(cells), union_mass=ref_format(union_mass),
                 bound=ref_format(bound))
    return cert


@settings(max_examples=200)
@given(measure_pairs(max_cells=6), ratio_measures(), tolerances)
def test_envelope_verifier_matches_enumeration(pair, pi, tol):
    mu, lam = pair
    found, clean = violations_in_preorder(mu.masses, lam.masses, RefEnvelope(ratio_atoms(pi)), tol)
    result = DominationResult(True) if not found else DominationResult(False, *found[0])
    cert = certs.envelope_certificate(mu, lam, pi, result, tol)
    assert cert == certs.envelope_certificate(mu, lam, pi, envelope_dominates(mu, lam, pi, tol=tol), tol)
    assert certs.verify_certificate(cert).ok
    flipped = json.loads(json.dumps(cert))
    flipped["claims"][0]["verdict"] = not result.ok
    assert not certs.verify_certificate(flipped).ok
    # A violating union that is not the first, or a union that passes, is
    # refused as the stated first violation.
    for later in found[1:]:
        assert not certs.verify_certificate(restate(cert, *later)).ok, later[0]
    for passing in clean[:3]:
        assert not certs.verify_certificate(restate(cert, *passing)).ok, passing[0]
    if found:
        cells, union_mass, bound = found[0]
        assert not certs.verify_certificate(restate(cert, cells, union_mass + F(1, 97), bound)).ok
        assert not certs.verify_certificate(restate(cert, cells, union_mass, bound + F(1, 97))).ok


@pytest.mark.parametrize("violation", [[], [1, 0], [0, 0], [2], [-1], ["0"], "0", [True]])
def test_envelope_verifier_names_malformed_violations(violation):
    mu = MeasureVector((F(3, 5), F(2, 5)))
    lam = MeasureVector((F(1, 2), F(1, 2)))
    pi = point_mass(F(1, 2))
    cert = certs.envelope_certificate(mu, lam, pi, envelope_dominates(mu, lam, pi), F(0))
    assert certs.verify_certificate(cert).ok
    cert["claims"][0]["violation"] = violation
    assert certs.verify_certificate(cert).failures == (
        f"domination: violation is {violation!r}, recomputed None",
    )


def test_envelope_verifier_uses_no_construction_code():
    assert not [name for name, obj in vars(certs).items()
                if getattr(obj, "__module__", None) == "maldist.envelope"]


# --- bytes beyond the catalogue sizes ---------------------------------------------

PINNED_SPEC = '{"b": "linear:3", "m": "halfceil"}'
PINNED_TABLE = "5cea9d4e6f0e19203a87021757d38df55375116a5deacf124777542c76ecdab6"


@pytest.mark.parametrize(
    "mu,lam,exit_code,out_digest",
    [
        ("1/8,1/8,1/4,1/8,1/8,1/4", "1/6,1/12,1/4,1/6,1/12,1/4", 0,
         "470ff7366a644b0ad0b8c07409444cb4a4dc03672946b60bdc4f0de1d2c16a3a"),
        ("1/8,3/8,1/8,0,1/4,1/8", "1/4,1/16,1/4,1/8,1/16,1/4", 1,
         "faaeefa82184ee219c0e7fe82c01ee92f4c3da3df5f18b16eb6392e159be6d2b"),
    ],
    ids=["admissible", "violating"],
)
def test_envelope_bytes_at_2000_blocks_and_grid_1001(tmp_path, mu, lam, exit_code, out_digest):
    table, out = tmp_path / "table.csv", tmp_path / "out.json"
    argv = ["envelope", "--spec", PINNED_SPEC, "--blocks", "2000", "--grid", "1001",
            "--mu", mu, "--lam", lam, "--table-out", str(table), "--out", str(out)]
    assert cli.main(argv) == exit_code
    assert hashlib.sha256(table.read_bytes()).hexdigest() == PINNED_TABLE
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_digest
    assert certs.verify_certificate(json.loads(out.read_text())["certificate"]).ok
