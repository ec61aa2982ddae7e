"""Job catalogue of the benchmark workloads.

Each workload is a list of strata.  A stratum is one job slot of a round: a
job kind with a narrow size band, so every round of a workload has the same
size mix and its latency percentiles repeat from seed to seed.  Each stratum
has VARIANTS concrete jobs, drawn from a fixed per-variant seed; a run's
`--seed` picks one variant per stratum and the job order of every round (see
`harness.rounds`).  The catalogue and the outputs the program gave for it are
stored in `reference/<workload>.json` by `make_reference.py`, which is the
only user of this module.

Sizes are scaled so that 100 jobs with their verification take about 15 s
on a 2-core x86 host; where they fall below the sizes named in the design
notes, README.md says so.

Every generator decides the expected outcome of its job from the inputs
alone (admissible or violating envelope targets, the 4300-digit limit),
without calling the program; `make_reference.py` refuses a catalogue whose
recorded outcome disagrees.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import combinations

VARIANTS = 12

WORK = ".perfbench/work"
OUT_JSON = f"{WORK}/out.json"
OUT_CSV = f"{WORK}/out.csv"
TABLE_CSV = f"{WORK}/table.csv"
TRACE_CSV = f"{WORK}/trace.csv"
TARGET_JSON = f"{WORK}/target.json"

# int(str) and str(int) refuse more digits than this by default (CPython >= 3.11).
INT_STR_DIGITS = 4300
GOLDEN = "832040/1346269"  # F(30)/F(31), a convergent of the golden ratio


def job(argv, *, verifies=False, expect_exit=0, known_defect=False, cert_argv=None):
    """One catalogue entry.  `cert_argv` is an untimed call whose certificate
    the verify step checks, for jobs that produce none themselves."""
    return {
        "argv": [str(a) for a in argv],
        "cert_argv": [str(a) for a in cert_argv] if cert_argv else None,
        "verifies": verifies or cert_argv is not None,
        "expect_exit": expect_exit,
        "known_defect": known_defect,
    }


def fr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def band(rng: random.Random, lo: float, hi: float, k: int, n: int) -> int:
    """Size of stratum k of n: log-spaced over [lo, hi], jittered by +-4%.

    The narrow jitter keeps the cost of a stratum's variants close, so a
    run's latency percentiles depend little on which variants the seed picks."""
    centre = math.exp(math.log(lo) + (k + 0.5) / n * (math.log(hi) - math.log(lo)))
    return int(round(centre * rng.uniform(0.96, 1.04)))


def rational(rng: random.Random, qlo: int, qhi: int, lo=Fraction(0), hi=Fraction(1)) -> Fraction:
    """Random reduced p/q strictly inside (lo, hi) with q in [qlo, qhi]."""
    while True:
        q = rng.randint(qlo, qhi)
        p_lo = math.floor(lo * q) + 1
        p_hi = math.ceil(hi * q) - 1
        if p_lo > p_hi:
            continue
        p = rng.randint(p_lo, p_hi)
        if math.gcd(p, q) == 1:
            return Fraction(p, q)


def masses(rng: random.Random, s: int, lo: int = 1, hi: int = 20) -> list[Fraction]:
    weights = [rng.randint(lo, hi) for _ in range(s)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def csv_list(values) -> str:
    return ",".join(fr(v) if isinstance(v, Fraction) else str(v) for v in values)


# ---------------------------------------------------------------------------
# block specs and the envelope F of their ratio measure (independent of the
# program: used to decide whether a target is admissible)


def spec_lengths(spec: dict, j: int) -> tuple[int, int]:
    """(b_j, m_j) of the specs used here: b "linear:o", m "halfceil" or "const:c"."""
    b = j + int(spec["b"].partition(":")[2] or 0)
    m_name, _, m_arg = spec["m"].partition(":")
    m = (b + 1) // 2 if m_name == "halfceil" else int(m_arg)
    return b, m


def ratio_atoms(spec: dict, blocks: int) -> list[tuple[Fraction, Fraction]]:
    pairs = [spec_lengths(spec, j) for j in range(1, blocks + 1)]
    total = sum(m for _, m in pairs)
    atoms: dict[Fraction, Fraction] = {}
    for b, m in pairs:
        if m:
            q = Fraction(m, b)
            atoms[q] = atoms.get(q, Fraction(0)) + Fraction(m, total)
    return sorted(atoms.items())


def envelope_value(atoms, t: Fraction) -> Fraction:
    return sum((w for q, w in atoms if q <= t), Fraction(0)) + t * sum(
        (w / q for q, w in atoms if q > t), Fraction(0)
    )


def dominated(mu, lam, atoms) -> bool:
    """mu(A) <= F(lam(A)) for every nonempty union A of cells."""
    s = len(mu)
    for r in range(1, s + 1):
        for cells in combinations(range(s), r):
            if sum(mu[i] for i in cells) > envelope_value(atoms, sum(lam[i] for i in cells)):
                return False
    return True


def perturbed(rng: random.Random, lam: list[Fraction], scale: Fraction) -> list[Fraction]:
    """lam with mass moved between random cell pairs, each move at most
    scale * (the smaller cell's mass); sums stay exactly 1."""
    mu = list(lam)
    for _ in range(len(mu)):
        i, j = rng.sample(range(len(mu)), 2)
        delta = scale * min(mu[i], mu[j]) * Fraction(rng.randint(1, 8), 8)
        mu[i] += delta
        mu[j] -= delta
    return mu


# ---------------------------------------------------------------------------
# orbit-stats: many operations on small rationals


def scan_job(k: int, n: int):
    def make(rng):
        points = band(rng, 2_000, 20_000, k, n)
        cps = sorted(rng.sample(range(100, points), rng.randint(2, 4))) + [points]
        alpha = rational(rng, 1_000, 1_000_000)
        return job(["scan", "--x-kind", "rotation", "--x-alpha", fr(alpha),
                    "--cells", (8, 16, 24, 32, 64)[k % 5], "--checkpoints", csv_list(cps),
                    "--out", OUT_CSV])
    return make


def avoid_job(k: int, n: int):
    def make(rng):
        horizon = band(rng, 500, 5_000, k, n)
        eps = Fraction(1, rng.randint(4, 12))
        alpha = rational(rng, 50, 10_000, eps, 1 - eps)
        # No orbit point after the prefix lies in [0, eps), so D* >= eps.
        floor = eps * Fraction(9, 10)
        return job(["witness", "--mode", "avoid", "--alpha", fr(alpha), "--eps", fr(eps),
                    "--horizon", horizon, "--discrepancy-floor", fr(floor), "--out", OUT_JSON],
                   verifies=True)
    return make


def fivesixth_job(k: int, n: int):
    def make(rng):
        horizon = band(rng, 500, 5_000, k, n)
        alpha = rational(rng, 1_000, 20_000, Fraction(0), Fraction(1, 16))
        return job(["doubling", "--mode", "fivesixth", "--alpha", fr(alpha),
                    "--horizon", horizon, "--out", OUT_JSON], verifies=True)
    return make


def invariance_job(k: int, n: int):
    def make(rng):
        steps = band(rng, 500, 5_000, k, n)
        alpha = rational(rng, 1_000, 20_000)
        return job(["doubling", "--mode", "invariance", "--alpha", fr(alpha),
                    "--steps", steps, "--level", 2 + k % 5, "--out", OUT_JSON],
                   verifies=True)
    return make


# ---------------------------------------------------------------------------
# envelope-union: the exhaustive union walk and its re-run in verify


def _envelope_argv(rng, mu, lam, seed: int | None = None):
    """argv of a domination check, and the ratio-measure atoms it uses."""
    spec = {"b": f"linear:{rng.randint(0, 3)}", "m": "halfceil"}
    blocks = rng.randint(58, 62)
    argv = ["envelope", "--spec", json.dumps(spec), "--blocks", blocks,
            "--grid", rng.randint(49, 53), "--mu", csv_list(mu), "--lam", csv_list(lam)]
    if seed is not None:
        argv += ["--seed", seed]
    return ratio_atoms(spec, blocks), argv + ["--table-out", TABLE_CSV, "--out", OUT_JSON]


def admissible_job(s: int):
    def make(rng):
        while True:
            lam = masses(rng, s)
            mu = perturbed(rng, lam, Fraction(1, 2))
            atoms, argv = _envelope_argv(rng, mu, lam)
            if dominated(mu, lam, atoms):
                return job(argv, verifies=True)
    return make


def violating_job(rng):
    s = rng.randint(8, 16)
    lam = masses(rng, s)
    # The first cell carries half the mass on a small Lebesgue share: the
    # walk's first union, that cell alone, already violates.
    mu = [Fraction(1, 2)] + [Fraction(w, 2) for w in masses(rng, s - 1)]
    small = Fraction(1, 4 * s)
    lam = [small] + [m * (1 - small) / (1 - lam[0]) for m in lam[1:]]
    atoms, argv = _envelope_argv(rng, mu, lam)
    if not mu[0] > envelope_value(atoms, lam[0]):
        raise AssertionError("violating target is dominated")
    return job(argv, verifies=True, expect_exit=1)


def sampled_job(rng):
    # Above 25 cells the program samples 4096 unions instead of walking 2^s - 1.
    # mu = lam is dominated (F(t) >= t), so every sampled union passes.
    lam = masses(rng, rng.randint(28, 30))
    _, argv = _envelope_argv(rng, lam, lam, seed=rng.randrange(2**32))
    return job(argv, verifies=True)


# ---------------------------------------------------------------------------
# steer: greedy extension of block-constrained subsequences


def steer_job(k: int, n: int):
    def make(rng):
        s = 2 + round(k * 6 / (n - 1))  # 2..8 cells, more cells in later strata
        # Cuts with large denominators make all 2^s - 1 union masses distinct,
        # so the envelope's evaluation cache hits equally rarely in every variant.
        cuts = sorted({Fraction(0), Fraction(1)} | {rational(rng, 100, 1000) for _ in range(s - 1)})
        while len(cuts) != s + 1:
            cuts = sorted(set(cuts) | {rational(rng, 100, 1000)})
        lam = [b - a for a, b in zip(cuts, cuts[1:])]
        if k % 2:
            spec = {"b": f"linear:{rng.randint(2, 6)}", "m": "const:2"}
        else:
            spec = {"b": f"linear:{rng.randint(0, 2)}", "m": "halfceil"}
        pi_blocks = 64
        atoms = ratio_atoms(spec, pi_blocks)
        while True:
            mu = perturbed(rng, lam, Fraction(1, 3))
            if dominated(mu, lam, atoms):
                break
        eps = Fraction(1, band(rng, 100, 2_000, k % 4, 4))
        if k % 2:
            blocks = band(rng, 60, 200, k // 2, n // 2)
        else:
            blocks = band(rng, 20, 60, k // 2, (n + 1) // 2)
        common = ["--spec", json.dumps(spec), "--mu", csv_list(mu)]
        argv = ["subspace", *common, "--cuts", csv_list(cuts), "--eps", fr(eps),
                "--blocks", blocks, "--pi-blocks", pi_blocks, "--x-alpha", GOLDEN,
                "--trace-out", TRACE_CSV, "--out", OUT_JSON]
        # The certificate verify_s times here: domination of the steering
        # target, the same check the greedy runs before its first pick.
        cert_argv = ["envelope", *common, "--blocks", pi_blocks, "--grid", 2,
                     "--lam", csv_list(lam), "--table-out", TABLE_CSV, "--out", TARGET_JSON]
        return job(argv, cert_argv=cert_argv)
    return make


# ---------------------------------------------------------------------------
# witness-bigint: few operations on huge integers


def mixing_job(rng):
    eps = Fraction(1, rng.randint(4, 20))
    start_left = rational(rng, 4, 40, Fraction(0), Fraction(1, 2))
    start = (start_left, start_left + Fraction(1, rng.randint(3, 20)))
    delta = start[1] - start[0]
    steps = rng.randint(3, 12)
    top = rng.randint(60, 180)
    # n_1 > 2/delta and n_{k+1} > (2/eps) n_k, reached with exponents up to `top`.
    min_gap = len(str(int(2 / eps))) + 1
    gap = max(min_gap, (top - 3) // steps)
    multipliers, exp = [], len(str(int(2 / delta))) + 1
    for _ in range(steps):
        multipliers.append(10**exp + rng.randrange(10**exp))
        exp += gap
    targets = []
    for _ in range(steps):
        left = rational(rng, 8, 64, Fraction(0), 1 - 2 * eps)
        targets.append(f"{fr(left)},{fr(left + eps * Fraction(rng.randint(8, 16), 8))}")
    return job(["witness", "--mode", "mixing", "--n", csv_list(multipliers), "--eps", fr(eps),
                "--delta", fr(delta), "--start", csv_list(start), "--targets", ";".join(targets),
                "--out", OUT_JSON], verifies=True)


def salat2_job(rng):
    b = rng.randint(2, 16)
    length = rng.randint(b + 1, 1000)
    left = rational(rng, 4, 64, Fraction(0), 1 - Fraction(1, length))
    # Mirror the witness plan: stride c with b^c > 2/eps, then k* repeats until
    # n_{c k*} * (1/2) > 2; the horizon is 2 c k*.
    c = 1
    while b**c <= 2 * length:
        c += 1
    repeats = 1
    while b ** (repeats * c) <= 4:
        repeats += 1
    count = 2 * repeats * c + rng.randint(0, 120)
    return job(["witness", "--mode", "salat2", "--n-kind", f"pow:{b}", "--count", count,
                "--interval", f"{fr(left)},{fr(left + Fraction(1, length))}", "--ratio", b,
                "--out", OUT_JSON], verifies=True)


WEIGHTS = [(1, 1), (3, 1), (1, 3), (2, 1, 1), (1, 1, 1, 1)]


def _salat3(rng, kind: str, b: int, base: int, weights) -> list:
    total = sum(weights)
    worst = max(max(Fraction(w, total), 1 - Fraction(w, total)) for w in weights)
    # eta just above the construction's worst-case slack worst/base.
    eta = Fraction(1, math.ceil(base / worst) - 1)
    return ["witness", "--mode", "salat3", "--n-kind", f"{kind}:{b}", "--weights",
            csv_list(weights), "--eta", fr(eta), "--base", base, "--out", OUT_JSON]


def salat3_job(k: int, n: int):
    def make(rng):
        weights = rng.choice(WEIGHTS)  # totals 2 and 4 divide every base below
        base = (8, 12, 16, 24)[k * 4 // n]
        b = rng.randint(900, 1100)
        if base * base * math.log10(b) >= INT_STR_DIGITS - 10:
            b = int(10 ** ((INT_STR_DIGITS - 10) / (base * base)))
        return job(_salat3(rng, "pow", b, base, weights), verifies=True)
    return make


def salat3_over_limit_job(rng):
    # base 8 steers 64 positions; squarepow:b with b >= 12 makes b^(64^2) longer
    # than INT_STR_DIGITS, and writing the certificate fails with exit 2
    # although the README promises integer sequences "however large".
    b = rng.randint(12, 20)
    if 64 * 64 * math.log10(b) <= INT_STR_DIGITS:
        raise AssertionError("multiplier does not exceed the digit limit")
    return job(_salat3(rng, "squarepow", b, 8, (3, 1)), verifies=True, expect_exit=2,
               known_defect=True)


def _zeroblock_base(rng, starts) -> Fraction:
    # A 1 digit before the first zeroed block keeps the value above 1/2.
    while True:
        base = rational(rng, 100, 100_000, Fraction(1, 2), Fraction(3, 4))
        digits = [(base * 2**i).numerator // (base * 2**i).denominator % 2
                  for i in range(1, starts[0])]
        if any(digits[2:]):
            return base


def _starts(rng, last: int) -> list[int]:
    # Two more blocks, each below last/2: the verifier's cost grows with the
    # square of every window j^2, so the last block sets it.
    return sorted(rng.sample(range(4, last // 2), 2)) + [last]


def witness_zeroblock_job(k: int, n: int):
    def make(rng):
        starts = _starts(rng, band(rng, 24, 70, k, n))
        return job(["witness", "--mode", "zeroblock", "--base",
                    fr(_zeroblock_base(rng, starts)), "--starts", csv_list(starts),
                    "--out", OUT_JSON], verifies=True)
    return make


def doubling_zeroblock_job(k: int, n: int):
    def make(rng):
        starts = _starts(rng, band(rng, 16, 48, k, n))
        return job(["doubling", "--mode", "zeroblock", "--base",
                    fr(_zeroblock_base(rng, starts)), "--starts", csv_list(starts),
                    "--out", OUT_JSON], verifies=True)
    return make


# ---------------------------------------------------------------------------


def _strata(*groups):
    out = []
    for name, count, factory in groups:
        for k in range(count):
            out.append((f"{name}-{k}", factory(k, count)))
    return out


def _each(fn):
    return lambda k, n: fn


WORKLOADS = {
    # 15 or 25 strata, 15 or 25 of them verified: the median and the p90 of
    # a run then fall mid-way through one stratum's samples, not on the edge
    # between two strata of different cost, where they would jump.
    "orbit-stats": _strata(
        ("scan", 10, scan_job),
        ("avoid", 5, avoid_job),
        ("fivesixth", 5, fivesixth_job),
        ("invariance", 5, invariance_job),
    ),
    "envelope-union": [
        *((f"admissible-{s}", admissible_job(s)) for s in range(8, 15)),
        *_strata(("violating", 7, _each(violating_job))),
        ("sampled", sampled_job),
    ],
    "steer": _strata(("subspace", 15, steer_job)),
    "witness-bigint": _strata(
        ("mixing", 3, _each(mixing_job)),
        ("salat2", 2, _each(salat2_job)),
        ("salat3", 4, salat3_job),
        ("salat3-over-limit", 1, _each(salat3_over_limit_job)),
        ("witness-zeroblock", 2, witness_zeroblock_job),
        ("doubling-zeroblock", 3, doubling_zeroblock_job),
    ),
}


def variant(workload: str, stratum: str, index: int, make) -> dict:
    return make(random.Random(f"{workload}/{stratum}/{index}"))
