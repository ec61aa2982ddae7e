"""Acceptance suite: one test per criterion, exact tolerances pinned inline.

Each test prints a single [PASS]/[FAIL] line (run with -s to see them live);
every assertion is exact rational arithmetic unless the criterion itself
states a tolerance.
"""

import json
import time
from fractions import Fraction as F
from math import comb

from maldist import certificates as certs
from maldist.doubling import (
    doubling_period,
    five_sixth_check,
    invariance_defect,
    zero_block_density,
)
from maldist.empirical import CellPartition, MeasureVector, star_discrepancy
from maldist.envelope import BlockSpec, envelope_dominates, pi_measure
from maldist.exact import mod1
from maldist.subspace import ExtensionTarget, greedy_extension
from maldist.torus import TorusInterval
from maldist.witness import (
    HistogramTarget,
    MixingConfig,
    avoidance_sequence,
    histogram_witness,
    hit_frequency_witness,
    mixing_chain,
    zero_block_alpha,
)
from tests.conftest import GOLDEN
from tests.oracles import (
    F_pi_eval,
    SplitMix64,
    as_residues,
    brute_force_extension,
    cell_index,
    empirical_measure,
    exchange_facts,
    fraction_contains,
    fraction_mul_mod1,
    frequencies,
    hits_after_prefix,
    mass_at_zero,
    max_checkpoint_fraction,
    point_mass,
    ratio_measure_from_pairs,
    sample_uniform,
)


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_c01_mixing_chain_exactness():
    """25 seeded chain configs, growth factor >= 20, K <= 12, multipliers up
    to ~1e80: every containment and interval length verifies exactly within
    30 seconds total."""
    started = time.time()
    eps, delta = F(1, 10), F(1, 20)
    largest = 0
    for seed in range(25):
        rng = SplitMix64(seed)
        k = 8 + seed % 5
        n = [rng.randint(10**6, 10**9)]
        for _ in range(k - 1):
            n.append(n[-1] * rng.randint(21, 10**7))
        start_left = F(rng.randrange(950), 1000)
        start = TorusInterval(start_left, start_left + delta)
        targets = []
        for _ in range(k):
            left = F(rng.randrange(900), 1000)
            targets.append(TorusInterval(left, left + eps))
        chain = mixing_chain(
            MixingConfig(
                multipliers=tuple(n),
                eps=eps,
                delta=delta,
                start=start,
                targets=tuple(targets),
            )
        )
        alpha = chain.alpha
        assert fraction_contains(start, alpha)
        for idx, (mult, target) in enumerate(zip(n, targets), start=1):
            assert fraction_contains(target, fraction_mul_mod1(mult, alpha)), (seed, idx)
            assert chain.intervals[idx].length == eps / mult
        largest = max(largest, n[-1])
    elapsed = time.time() - started
    report(
        "C1 nested-chain exactness",
        elapsed <= 30,
        f"25 configs, largest multiplier ~1e{len(str(largest)) - 1}, {elapsed:.2f}s",
    )


def test_c02_hit_frequency_witness():
    """Auto-planned witness for n_k = 2^k, eps = 2^-6: frequency strictly
    above 1/(2c); the plan inequality holds exactly; a tampered certificate
    fails verification."""
    n = [2**k for k in range(1, 40)]
    interval = TorusInterval(F(1, 2), F(1, 2) + F(1, 64))
    witness = hit_frequency_witness(n, interval, F(2))
    plan = witness.plan
    strict = witness.frequency > F(1, 2 * plan.c)
    # Exact form of 1/(2c) > 2*quality/log_ratio(1/eps):
    eps = interval.length
    inequality = plan.ratio**plan.c * eps**plan.u < 1
    cert = certs.hitfreq_certificate(witness, n)
    assert certs.certificate_ok(cert)
    assert certs.verify_certificate(cert).ok
    tampered = json.loads(json.dumps(cert))
    for claim in tampered["claims"]:
        if claim["id"] == "hit-frequency":
            claim["count"] = 0
    negative = not certs.verify_certificate(tampered).ok
    report(
        "C2 hit-frequency witness",
        strict and inequality and negative,
        f"frequency {witness.frequency} > 1/(2c) = {F(1, 2 * plan.c)}, tamper detected",
    )


def test_c03_histogram_witness():
    """Weights (3,1), eta = 1/10, base 8, n_k = 5^(k^2): each cell frequency
    within 1/10 of its share, exactly."""
    n = [5 ** (k * k) for k in range(1, 65)]
    witness = histogram_witness(n, HistogramTarget((3, 1), F(1, 10)), base=8)
    shares = (F(3, 4), F(1, 4))
    freqs = frequencies(witness.counts)
    ok = sum(witness.counts) == witness.horizon and all(
        abs(freq - share) < F(1, 10) for freq, share in zip(freqs, shares)
    )
    cert = certs.histogram_certificate(witness, n)
    ok = ok and certs.verify_certificate(cert).ok
    report(
        "C3 histogram witness",
        ok,
        f"frequencies {tuple(str(f) for f in freqs)} vs (3/4, 1/4)",
    )


def test_c04_avoidance_run():
    """alpha = 5/17, eps = 1/5: a 10^4-term gap-{1,2} extension with zero
    hits of the avoided interval, and star discrepancy >= eps - 1/100."""
    result = avoidance_sequence(F(5, 17), F(1, 5), prefix=(1,), horizon=10_000)
    points = [mod1(n * result.alpha) for n in result.indices]
    disc = star_discrepancy(as_residues(points))
    ok = (
        hits_after_prefix(result) == 0
        and set(result.gaps) <= {1, 2}
        and disc >= F(1, 5) - F(1, 100)
    )
    report("C4 avoidance sequence", ok, f"0 hits, D* = {disc} >= 19/100")


def test_c05_invariance_defect():
    """Full doubling periods of 1/3, 1/17, 1/257 have exactly zero
    invariance defect on dyadic partitions up to level 6; truncations obey
    defect <= 2/K."""
    ok = True
    for den in (3, 17, 257):
        _, period = doubling_period(F(1, den))
        for level in range(1, 7):
            ok = ok and invariance_defect(F(1, den), period, CellPartition.dyadic(level)) == 0
        for cut in (1, 2):
            if period - cut >= 1:
                defect = invariance_defect(F(1, den), period - cut, CellPartition.dyadic(4))
                ok = ok and defect <= F(2, period - cut)
    report("C5 invariance defect", ok, "defect 0 on full periods, <= 2/K truncated")


def test_c06_five_sixth_density():
    """Hit density of the widened middle interval along (2^k + 1)-orbits
    stays <= 5/6 + 3/K for 1/17, 1/33, 1/100 over full periods (5/6 is the
    exact analytic cap)."""
    ok = True
    details = []
    for den in (17, 33, 100):
        alpha = F(1, den)
        pre, period = doubling_period(alpha)
        for horizon in (pre + period, 4 * (pre + period)):
            rep = five_sixth_check(alpha, horizon)
            ok = ok and rep.density <= rep.density_bound and rep.spacing_ok
            ok = ok and rep.density <= F(5, 6) + F(3, horizon)
            details.append(f"1/{den}@{horizon}:{rep.density}")
    report("C6 five-sixth density cap", ok, "; ".join(details))


def test_c07_zero_block_density():
    """Blocks at 10 and 40: hit densities at the window ends 100 and 1600
    reach 0.9 and 0.97."""
    point = zero_block_alpha(F(2, 3), (10, 40))
    first, second = (F(w.hits, w.window_end) for w in zero_block_density(point, [100, 1600]))
    ok = first >= F(9, 10) and second >= F(97, 100)
    report("C7 zero-block densities", ok, f"{first} >= 9/10, {second} >= 97/100")


def test_c08_envelope_property_suite():
    """1000 seeded ratio measures on a 101-point grid: monotone, midpoint
    concave, t <= F(t) <= 1, F(0) = mass at 0, F(1) = 1, all exact; point
    masses match the closed form min(t/q, 1)."""
    grid = [F(i, 100) for i in range(101)]
    ok = True
    for seed in range(1000):
        rng = SplitMix64(seed)
        pairs = []
        for _ in range(rng.randint(1, 8)):
            pairs.append((rng.fraction(50, closed_top=True), rng.randint(1, 20)))
        total = sum(w for _, w in pairs)
        pi = ratio_measure_from_pairs((q, F(w, total)) for q, w in pairs)
        values = [F_pi_eval(pi, t) for t in grid]
        ok = ok and values[0] == mass_at_zero(pi) and values[-1] == 1
        ok = ok and all(t <= v <= 1 for t, v in zip(grid, values))
        ok = ok and all(a <= b for a, b in zip(values, values[1:]))
        ok = ok and all(
            2 * values[i] >= values[i - 1] + values[i + 1]
            for i in range(1, len(grid) - 1)
        )
        if not ok:
            break
    for q in (F(1, 10), F(1, 2), F(1)):
        pi = point_mass(q)
        ok = ok and all(F_pi_eval(pi, t) == min(t / q, F(1)) for t in grid)
    report("C8 envelope property suite", ok, "1000 seeded measures, zero tolerance")


def test_c09_sampled_domination_suite(golden_points):
    """100 seeded members of the block space with b_j = j+1, m_j = ceil((j+1)/2)
    against the golden-convergent rotation: every checkpoint measure obeys
    the envelope bound within the computed tolerance (aggregate block defect;
    prefix slack is zero since the count starts at block 1), and the
    tolerance at the largest checkpoint is at most 1/20."""
    spec = BlockSpec(lambda j: j + 1, lambda j: (j + 2) // 2)
    partition = CellPartition.uniform(8)
    lam = partition.lebesgue_masses()
    checkpoints = (50, 100, 200)
    horizon = spec.a(checkpoints[-1])
    cells = [cell_index(partition, p) for p in golden_points[:horizon]]

    block_defect = []  # b_j * TV(block empirical, lambda)
    for j in range(1, checkpoints[-1] + 1):
        lo, hi = spec.a(j - 1), spec.a(j)
        counts = [0] * 8
        for n in range(lo + 1, hi + 1):
            counts[cells[n - 1]] += 1
        b = hi - lo
        block_defect.append(sum(abs(F(c) - F(b, 8)) for c in counts) / 2)

    tolerances = {n: sum(block_defect[:n]) / spec.M(n) for n in checkpoints}
    pis = {n: pi_measure(spec, n) for n in checkpoints}
    violations = 0
    for seed in range(100):
        indices = sample_uniform(spec, checkpoints[-1], seed)
        points = [golden_points[n - 1] for n in indices]
        for n in checkpoints:
            m_n = spec.M(n)
            mu = MeasureVector(frequencies(empirical_measure(points[:m_n], partition)))
            verdict = envelope_dominates(mu, lam, pis[n], tol=tolerances[n])
            if not verdict.ok:
                violations += 1
    ok = violations == 0 and tolerances[200] <= F(1, 20)
    report(
        "C9 sampled envelope domination",
        ok,
        f"0 violations across 300 checks, tol(200) = {float(tolerances[200]):.4f} <= 0.05",
    )


def _c10_instance(seed):
    rng = SplitMix64(seed)
    while True:
        s = rng.randint(2, 3)
        blocks = rng.randint(3, 6)
        b = [rng.randint(2, 6) for _ in range(blocks)]
        m = [rng.randint(1, bi) for bi in b]
        space = 1
        for bi, mi in zip(b, m):
            space *= comb(bi, mi)
        if space <= 10**5:
            break
    spec = BlockSpec(b, m)
    partition = CellPartition.uniform(s)
    lam = partition.lebesgue_masses()
    shift = rng.randint(1, 10**6)
    points = [mod1((shift + n) * GOLDEN) for n in range(1, spec.a(blocks) + 1)]
    pi = pi_measure(spec, blocks)
    weights = [rng.randint(0, 10) for _ in range(s)]
    if sum(weights) == 0:
        weights[0] = 1
    raw = MeasureVector(tuple(F(w, sum(weights)) for w in weights))
    for theta in (F(1), F(3, 4), F(1, 2), F(1, 4), F(0)):
        mu = MeasureVector(
            tuple(theta * r + (1 - theta) * l for r, l in zip(raw.masses, lam.masses))
        )
        if envelope_dominates(mu, lam, pi).ok:
            break
    target = ExtensionTarget(mu=mu, eps=F(1, 10), pi=pi)
    return spec, partition, points, target, blocks


# The open-horizon count measured on the 200 instances (189/200), pinned as
# a floor: C10's 95% bar is for the fixed horizon.
C10_OPEN_FLOOR = 189


def test_c10_greedy_versus_oracle():
    """200 seeded small instances: the exhaustive minimizer never admits an
    improving in-block swap toward its high-deviation set (the exchange
    structure, 100%), and the greedy lands within 0.1 of the optimum on at
    least 95% with the horizon fixed (`fixed_horizon`).  On the open horizon
    the CLI runs (stopping at the first block where the target is met), the
    greedy is compared with the optimum at its own stopping block and must
    stay within 0.1 on at least `C10_OPEN_FLOOR`."""
    within = 0
    open_within = 0
    exchange_ok = 0
    literal_ok = 0
    total = 200
    for i in range(total):
        spec, partition, points, target, blocks = _c10_instance(1000 + i)
        x = lambda n: points[n - 1]
        residues = as_residues(points)
        brute = brute_force_extension([], spec, x, partition, target, j1=blocks)
        greedy = greedy_extension([], spec, residues, partition, target, blocks, fixed_horizon=True)
        if greedy.total_abs_dev <= brute.total_abs_dev + F(1, 10):
            within += 1
        opened = greedy_extension([], spec, residues, partition, target, blocks)
        at_stop = brute if opened.blocks == blocks else brute_force_extension(
            [], spec, x, partition, target, j1=opened.blocks)
        if opened.total_abs_dev <= at_stop.total_abs_dev + F(1, 10):
            open_within += 1
        facts = exchange_facts(brute.indices, spec, x, partition, target, 0, blocks)
        if (not facts.applicable) or facts.exchange_ok:
            exchange_ok += 1
        if (not facts.applicable) or facts.literal_ok:
            literal_ok += 1
    ok = (exchange_ok == total and within >= int(0.95 * total)
          and open_within >= C10_OPEN_FLOOR)
    report(
        "C10 greedy vs oracle",
        ok,
        f"greedy within 0.1 on {within}/200 at the fixed horizon and {open_within}/200 at "
        f"the open horizon's stopping block, exchange facts {exchange_ok}/200 "
        f"(literal form {literal_ok}/200)",
    )


def test_c11_limit_mass_estimator_gap():
    """x_n = 1/(n+1): the checkpoint estimator reports 0 for the singleton
    {0} although the only limit measure is the point mass at 0 (true value
    1); the boundary-enlarged union repairs the undercount.  Documented-gap
    regression."""
    points = [F(1, n + 1) for n in range(1, 2001)]
    checkpoints = [10, 100, 1000, 2000]
    singleton_estimate = max_checkpoint_fraction(points, checkpoints, lambda x: x == 0)
    true_value = F(1)  # point mass at 0 assigns the singleton full mass
    eta = F(1, 100)
    enlarged = max_checkpoint_fraction(
        points, checkpoints, lambda x: x < eta or x > 1 - eta
    )
    ok = singleton_estimate == 0 and true_value == 1 and enlarged > F(9, 10)
    report(
        "C11 estimator gap regression",
        ok,
        f"estimator 0 vs true 1; eta-enlarged recovers {enlarged}",
    )
