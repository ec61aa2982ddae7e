import csv
import hashlib
import json
import tempfile
import tracemalloc
from collections.abc import Sequence
from fractions import Fraction as F
from itertools import combinations, product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from maldist import cli
from maldist.empirical import CellPartition, MeasureVector, Residues
from maldist.envelope import BlockSpec, envelope_dominates, pi_measure
from maldist.exact import format_ratio, format_rational
from maldist.subspace import (
    BlockTrace,
    ExtensionResult,
    ExtensionTarget,
    greedy_extension,
    validate_membership,
)
from tests.oracles import (
    SplitMix64,
    as_residues,
    block_range,
    brute_force_extension,
    cell_index,
    chunk_search_greedy_extension,
    empirical_measure,
    exchange_facts,
    frequencies,
    point_mass,
    sample_uniform,
)

HALVES = CellPartition.uniform(2)
UNIFORM2 = MeasureVector((F(1, 2), F(1, 2)))


def alternating(n: int) -> F:
    """Cell 0 for odd indices, cell 1 for even."""
    return F(1, 4) if n % 2 == 1 else F(3, 4)


def residues(x, spec: BlockSpec, blocks: int):
    """The points x(1), ..., x(a(blocks)) as the residues the greedy reads."""
    return as_residues([x(n) for n in range(1, spec.a(blocks) + 1)])


# --- membership -------------------------------------------------------------


def test_membership_valid():
    assert validate_membership([1, 3], BlockSpec([2, 2], [1, 1]), blocks=2) is True


def test_membership_overfull_block():
    assert validate_membership([1, 2], BlockSpec([2, 2], [1, 1]), blocks=2) is False


def test_membership_empty_first_block():
    assert validate_membership([4, 6], BlockSpec([3, 3], [0, 2]), blocks=2) is True


def test_membership_mid_block_overflow_is_false():
    # Block 2 = {3, 4, 5} holds two indices where it takes one.
    assert validate_membership([1, 3, 4], BlockSpec([2, 3], [1, 1]), blocks=2) is False


def test_membership_rejects_index_past_the_checked_blocks():
    # 6 lies in block 3, so the prefix is not blocks 1..2 exactly, although
    # blocks 1 and 2 each hold their one index.
    spec = BlockSpec([2, 2, 2], [1, 1, 1])
    assert validate_membership([1, 3, 6], spec, blocks=2) is False
    assert validate_membership([1, 3], spec, blocks=2) is True
    assert validate_membership([1, 3, 6], spec, blocks=3) is True


def test_membership_rejects_a_negative_block_count():
    # With no indices there is nothing else to refuse them by.
    for indices in ([], [1]):
        with pytest.raises(ValueError, match="blocks must be nonnegative"):
            validate_membership(indices, BlockSpec([2, 2], [1, 1]), blocks=-3)


def test_membership_rejects_nonincreasing():
    with pytest.raises(ValueError):
        validate_membership([3, 3], BlockSpec([4], [2]), blocks=1)


# --- sampling ----------------------------------------------------------------


def test_sample_full_blocks_deterministic():
    spec = BlockSpec([3, 2], [3, 2])
    assert sample_uniform(spec, 2, seed=5) == (1, 2, 3, 4, 5)


def test_sample_zero_multiplicity():
    spec = BlockSpec([3, 2], [0, 2])
    assert sample_uniform(spec, 2, seed=5) == (4, 5)


def test_sample_membership_always_valid():
    spec = BlockSpec(lambda j: j + 1, lambda j: (j + 2) // 2)
    for seed in range(20):
        assert validate_membership(sample_uniform(spec, 8, seed), spec, blocks=8) is True


def test_sample_uniform_pair_frequencies():
    # One block of 4, choose 2: six possible pairs, each frequency within
    # 5% of 1/6 over 6000 seeded draws.
    spec = BlockSpec([4], [2])
    counts = {pair: 0 for pair in combinations(range(1, 5), 2)}
    draws = 6000
    for seed in range(draws):
        counts[sample_uniform(spec, 1, seed)] += 1
    for pair, count in counts.items():
        assert abs(F(count, draws) - F(1, 6)) < F(1, 20), (pair, count)


# --- greedy extension --------------------------------------------------------


def test_greedy_alternating_example():
    spec = BlockSpec(lambda j: 4, lambda j: 2)
    target = ExtensionTarget(
        mu=MeasureVector((F(1), F(0))), eps=F(1, 10), pi=point_mass(F(1, 2))
    )
    result = greedy_extension(
        [], spec, residues(alternating, spec, 5), HALVES, target, 5, fixed_horizon=True
    )
    # Every block contributes its two odd (cell-0) indices.
    assert result.indices == (1, 3, 5, 7, 9, 11, 13, 15, 17, 19)
    for entry in result.trace:
        assert entry.numerators == (0, 0)
    assert result.achieved


def test_greedy_reaches_lambda_target(golden_residues):
    spec = BlockSpec(lambda j: j + 1, lambda j: (j + 2) // 2)
    partition = CellPartition.uniform(4)
    lam = partition.lebesgue_masses()
    target = ExtensionTarget(mu=lam, eps=F(1, 20), pi=pi_measure(spec, 64))
    result = greedy_extension(
        [], spec, golden_residues, partition, target, 64
    )
    assert result.achieved
    assert result.max_abs_dev < F(1, 20)
    assert validate_membership(result.indices, spec, blocks=result.blocks) is True


def test_greedy_rejects_envelope_violating_target():
    spec = BlockSpec(lambda j: 4, lambda j: 2)
    target = ExtensionTarget(
        mu=MeasureVector((F(1), F(0))), eps=F(1, 10), pi=point_mass(F(1))
    )
    with pytest.raises(ValueError):
        greedy_extension(
            [], spec, residues(alternating, spec, 3), HALVES, target, 3, fixed_horizon=True
        )


def test_greedy_respects_prefix():
    spec = BlockSpec(lambda j: 4, lambda j: 2)
    target = ExtensionTarget(
        mu=MeasureVector((F(1), F(0))), eps=F(1, 10), pi=point_mass(F(1, 2))
    )
    # Prefix takes the two even (cell-1) indices of block 1.
    result = greedy_extension(
        [2, 4], spec, residues(alternating, spec, 5), HALVES, target, 4, fixed_horizon=True
    )
    assert result.indices[:2] == (2, 4)
    assert validate_membership(result.indices, spec, blocks=result.blocks) is True
    # All later picks chase cell 0.
    assert all(n % 2 == 1 for n in result.indices[2:])


def test_greedy_accepts_prefix_ending_inside_its_block():
    # [1, 3] covers block 1 = {1, .., 4} although 3 is not the block's end.
    spec = BlockSpec(lambda j: 4, lambda j: 2)
    target = ExtensionTarget(
        mu=MeasureVector((F(1), F(0))), eps=F(1, 10), pi=point_mass(F(1, 2))
    )
    result = greedy_extension(
        [1, 3], spec, residues(alternating, spec, 3), HALVES, target, 2, fixed_horizon=True
    )
    assert result.indices == (1, 3, 5, 7, 9, 11)
    assert [entry.block for entry in result.trace] == [2, 3]


def test_greedy_budget_exhaustion_reports_partial():
    spec = BlockSpec(lambda j: 2, lambda j: 1)
    # Unreachable target: both cells wanted at 1/2 but x only ever in cell 0.
    target = ExtensionTarget(
        mu=MeasureVector((F(0), F(1))), eps=F(1, 100), pi=point_mass(F(1, 2))
    )
    result = greedy_extension(
        [], spec, residues(lambda n: F(1, 4), spec, 6), HALVES, target, 6
    )
    assert not result.achieved
    assert result.blocks == 6


@pytest.mark.parametrize("budget", [{"blocks": -1}, {"blocks": -2, "fixed_horizon": True}])
def test_greedy_refuses_a_negative_block_budget(budget):
    spec = BlockSpec(lambda j: 2, lambda j: 1)
    target = ExtensionTarget(mu=UNIFORM2, eps=F(1, 10), pi=point_mass(F(1, 2)))
    with pytest.raises(ValueError, match="^block budget must be nonnegative$"):
        greedy_extension([1], spec, residues(alternating, spec, 2), HALVES, target, **budget)


class CountingNums(Sequence):
    """A list of numerators that counts the entries read through it."""

    def __init__(self, nums):
        self.nums = nums
        self.reads = 0

    def __len__(self):
        return len(self.nums)

    def __getitem__(self, key):
        got = self.nums[key]
        self.reads += len(got) if isinstance(key, slice) else 1
        return got


def test_greedy_reads_only_the_cells_its_picks_need(golden_residues):
    # Two picks from each block of j + 500 indices: the greedy maps a block's
    # points to cells only as far as the picks need, so it reads a small
    # share of the 20,820 indices of blocks 1..40, not every one.
    spec = BlockSpec(lambda j: j + 500, lambda j: 2)
    partition = CellPartition.uniform(4)
    lam = partition.lebesgue_masses()
    # Over 101 no count ratio of M <= 80 indices is exact, and eps is below
    # every ratio's distance from mu, so all 40 blocks run.
    mu = MeasureVector((F(25, 101), F(25, 101), F(25, 101), F(26, 101)))
    target = ExtensionTarget(mu=mu, eps=F(1, 10**6), pi=point_mass(min(lam.masses)))
    nums = CountingNums(golden_residues.nums)
    x = Residues(nums, golden_residues.den)
    result = greedy_extension([], spec, x, partition, target, 40)
    assert (result.blocks, len(result.indices)) == (40, 80)
    assert validate_membership(result.indices, spec, blocks=40) is True
    assert nums.reads < spec.a(40) // 4
    # The same picks as on the plain residues.
    assert result == greedy_extension(
        [], spec, golden_residues, partition, target, 40
    )


def test_long_steering_run_forms_only_the_residues_it_reads(tmp_path):
    # Two picks from each of 100 blocks of 2,001-2,100 indices: listing the
    # 205,050 rotation residues alone would peak at about 9 MB.  The outputs
    # are pinned by digest.
    out, trace = tmp_path / "steer.json", tmp_path / "trace.csv"
    argv = ["subspace", "--spec", '{"b": "linear:2000", "m": "const:2"}',
            "--cuts", "0,1/7,1/2,1", "--mu", "1/1000,499/1000,1/2", "--eps", "1/1000000",
            "--blocks", "100", "--x-alpha", "832040/1346269",
            "--out", str(out), "--trace-out", str(trace)]
    assert cli.main(argv) == 0  # loads the layers before the measured run
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "7a6583146e5b536ae7a6fb68d9074c7d81e310911a13b9c6dd2ba320100e60ca")
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
        "5622e01435d27ea76f7ca8e14c1a8a40f45aa9bd86c6b471b8390143798fa327")


def recounted_cells(indices, m, mu, partition, point):
    """The trace cells after the first m indices, from a Fraction recount:
    format_rational(mu_i - c_i/m), or of mu_i while m = 0."""
    counts = [0] * partition.size
    for n in indices[:m]:
        counts[cell_index(partition, point(n))] += 1
    return [format_rational(w - F(c, m) if m else w) for w, c in zip(mu, counts)]


def traced_cells(case):
    """Every trace cell of the case's open-horizon `maldist subspace` run
    and of its fixed-horizon greedy over the same blocks, each checked
    against `recounted_cells`."""
    den, cuts, blocks, weights, p, q, eps = case
    if sum(weights) == 0:
        weights = (1,) + weights[1:]
    mu = [F(w, sum(weights)) for w in weights]
    partition = CellPartition((F(0),) + tuple(F(k, den) for k in cuts) + (F(1),))
    lam = partition.lebesgue_masses()
    spec = {"b": [b for b, _ in blocks], "m": [m for _, m in blocks]}
    block_spec = BlockSpec(spec["b"], spec["m"])
    point = lambda n: F(n * p % q, q)
    argv = ["subspace", "--spec", json.dumps(spec), "--cuts", ",".join(map(str, partition.cuts)),
            "--eps", str(eps), "--blocks", str(len(blocks)), "--x-alpha", f"{p}/{q}"]
    cells = []
    if not any(spec["m"]):
        # No block takes an index: the spec has no ratio measure to check with.
        assert cli.main([*argv, "--mu", ",".join(map(str, mu))]) == cli.USAGE_ERROR
    else:
        # The CLI holds the target to the spec's own envelope: the case's
        # target where that admits it, else the cell widths, which every
        # envelope admits (F(t) >= t).
        pi = pi_measure(block_spec, len(blocks))
        cli_mu = mu if envelope_dominates(MeasureVector(tuple(mu)), lam, pi).ok else lam.masses
        with tempfile.TemporaryDirectory() as tmp:
            out, trace = Path(tmp, "out.json"), Path(tmp, "trace.csv")
            assert cli.main([*argv, "--mu", ",".join(map(str, cli_mu)),
                             "--out", str(out), "--trace-out", str(trace)]) == 0
            indices = [n + k for n, run in json.loads(out.read_text())["indices_runlength"]
                       for k in range(run)]
            rows = list(csv.reader(trace.read_text().splitlines()))
        assert rows[0] == ["block", "M"] + [f"d_{i}" for i in range(partition.size)]
        for row in rows[1:]:
            assert row[2:] == recounted_cells(indices, int(row[1]), cli_mu, partition, point)
            cells += row[2:]
    # F(t) = 1 from the narrowest cell's length on: every target is admissible.
    target = ExtensionTarget(mu=MeasureVector(tuple(mu)), eps=eps, pi=point_mass(min(lam.masses)))
    x = Residues([n * p % q for n in range(1, block_spec.a(len(blocks)) + 1)], q)
    result = greedy_extension([], block_spec, x, partition, target, len(blocks), fixed_horizon=True)
    for entry in result.trace:
        row = [format_ratio(num, entry.denominator) for num in entry.numerators]
        assert row == recounted_cells(result.indices, entry.cumulative, mu, partition, point)
        cells += row
    return cells


@st.composite
def trace_cases(draw):
    s = draw(st.integers(1, 4))
    den = draw(st.integers(max(s, 2), 40))
    cuts = tuple(sorted(draw(st.sets(st.integers(1, den - 1), min_size=s - 1, max_size=s - 1))))
    block = st.integers(1, 5).flatmap(lambda b: st.tuples(st.just(b), st.integers(0, b)))
    blocks = tuple(draw(st.lists(block, min_size=1, max_size=8)))
    weights = tuple(draw(st.lists(st.integers(0, 4), min_size=s, max_size=s)))
    q = draw(st.integers(1, 50))
    p = draw(st.integers(0, q - 1))
    eps = draw(st.sampled_from([F(1, 1000), F(1, 10), F(1, 2)]))
    return den, cuts, blocks, weights, p, q, eps


# Halves and x_n = n/2 mod 1: block 1 takes its cell-1 index (-1/2 in cell
# 1), block 2 its cell-0 index (0/1 in both cells).
ZERO_AND_NEGATIVE = (2, (1,), ((2, 1),) * 4, (1, 1), 1, 2, F(1, 100))
# Only cell 0 is wanted, every block is taken whole: cell 1 stays negative.
ALL_NEGATIVE = (4, (1,), ((3, 3),) * 3, (1, 0), 1, 4, F(1, 10))


@example(ZERO_AND_NEGATIVE)
@example(ALL_NEGATIVE)
@given(trace_cases())
def test_trace_cells_are_the_reduced_recounted_deviations(case):
    traced_cells(case)


def test_trace_cases_draw_zero_and_negative_cells():
    cells = traced_cells(ZERO_AND_NEGATIVE)
    assert "0/1" in cells and "-1/2" in cells
    assert any(c.startswith("-") for c in traced_cells(ALL_NEGATIVE))


SIX_CELLS = CellPartition(
    (F(0), F(17, 101), F(34, 103), F(51, 107), F(68, 109), F(85, 113), F(1)))


def test_greedy_builds_fractions_only_for_the_values_it_reports(golden_residues, monkeypatch):
    # Six cells of widths over 101..113: no M <= 400 meets the target, so
    # every block runs; the Fractions built do not grow with the blocks.
    spec = BlockSpec(lambda j: j + 2, lambda j: 2)
    lam = SIX_CELLS.lebesgue_masses()
    target = ExtensionTarget(mu=lam, eps=F(1, 10**12), pi=point_mass(min(lam.masses)))
    built = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    counts = []
    for blocks in (20, 200):
        built.clear()
        result = greedy_extension([], spec, golden_residues, SIX_CELLS, target, blocks)
        assert (result.blocks, len(result.trace)) == (blocks, blocks)
        counts.append(len(built))
    monkeypatch.undo()
    assert counts[0] == counts[1] <= 10 * SIX_CELLS.size


def pool_scan_greedy(prefix, j0, spec, x, partition, target, blocks, fixed_horizon):
    """Reference greedy with Fraction deficits: each pick recomputes the gap
    set Y and scans every free index of the block for the least key
    (not (in Y with deficit > 0), -deficit, index).  Its trace packages each
    block's Fraction deviations as `BlockTrace` does, as integers over
    den * M (den the lcm of mu's denominators; over den while M = 0)."""
    s = partition.size
    counts = [0] * s
    for n in prefix:
        counts[cell_index(partition, x(n))] += 1
    chosen = list(prefix)
    mu = target.mu.masses
    eps = target.eps
    mu_den = lcm(*(m.denominator for m in mu))
    trace = []
    prefix_mass = spec.M(j0)

    def deviations(total):
        if total == 0:
            return tuple(mu)
        return tuple(mu[i] - F(counts[i], total) for i in range(s))

    def gap_set(devs):
        thresh = eps / (s * s)
        order = sorted(range(s), key=lambda i: (-devs[i], i))
        for r in range(s - 1):
            top, nxt = devs[order[r]], devs[order[r + 1]]
            if top - nxt > thresh and top > thresh:
                return set(order[: r + 1])
        return {i for i in range(s) if devs[i] > 0}

    achieved = False
    j = j0
    final_total = spec.M(j0 + blocks) if fixed_horizon else None
    forced_after = {}
    if fixed_horizon:
        last = j0 + blocks
        suffix = [0] * s
        forced_after[last] = list(suffix)
        for jj in range(last, j0, -1):
            avail = [0] * s
            for n in block_range(spec, jj):
                avail[cell_index(partition, x(n))] += 1
            for i in range(s):
                suffix[i] += max(0, spec.m(jj) - (sum(avail) - avail[i]))
            forced_after[jj - 1] = list(suffix)
    while j - j0 < blocks:
        j += 1
        m_j = spec.m(j)
        steer_total = final_total if final_total is not None else len(chosen) + m_j
        future = forced_after.get(j, [0] * s)
        deficit = [mu[i] * steer_total - counts[i] - future[i] for i in range(s)]
        pool = sorted(block_range(spec, j))
        picked = []
        for _ in range(m_j):
            y_set = gap_set(tuple(d / steer_total for d in deficit))
            best = best_key = None
            for n in pool:
                c = cell_index(partition, x(n))
                key = (0 if (c in y_set and deficit[c] > 0) else 1, -deficit[c], n)
                if best_key is None or key < best_key:
                    best, best_key = n, key
            picked.append(best)
            pool.remove(best)
            c = cell_index(partition, x(best))
            counts[c] += 1
            deficit[c] -= 1
        picked.sort()
        chosen.extend(picked)
        devs_after = deviations(len(chosen))
        over = mu_den * (len(chosen) or 1)
        assert all((d * over).denominator == 1 for d in devs_after)
        nums = tuple(int(d * over) for d in devs_after)
        trace.append(BlockTrace(j, tuple(picked), len(chosen), nums, over))
        if not fixed_horizon:
            washout = prefix_mass == 0 or F(prefix_mass, len(chosen)) < eps / (3 * s)
            if washout and max(abs(d) for d in devs_after) < eps:
                achieved = True
                break
    final = deviations(len(chosen))
    if fixed_horizon:
        achieved = max(abs(d) for d in final) < eps
    return ExtensionResult(
        indices=tuple(chosen),
        blocks=j,
        total_abs_dev=sum(abs(d) for d in final),
        max_abs_dev=max(abs(d) for d in final),
        achieved=achieved,
        trace=tuple(trace),
    )


@st.composite
def greedy_cases(draw):
    s = draw(st.integers(1, 5))
    den = draw(st.integers(max(s, 2), 24))
    cuts = tuple(sorted(draw(st.sets(st.integers(1, den - 1), min_size=s - 1, max_size=s - 1))))
    # Point levels over 96: a narrow range leaves cells without points.
    levels = tuple(draw(st.lists(st.integers(0, 95), min_size=1, max_size=30)))
    j0 = draw(st.integers(0, 3))
    budget = draw(st.integers(1, 6))
    block = st.integers(1, 6).flatmap(lambda b: st.tuples(st.just(b), st.integers(0, b)))
    blocks = tuple(draw(st.lists(block, min_size=j0 + budget, max_size=j0 + budget)))
    weights = tuple(draw(st.lists(st.integers(0, 5), min_size=s, max_size=s)))
    eps = draw(st.sampled_from([F(1, 100), F(1, 20), F(1, 10), F(1, 3)]))
    fixed = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    return den, cuts, levels, j0, budget, blocks, weights, eps, fixed, seed


# Unreachable targets: every point lies in cell 0, the target wants cell 1.
@example((2, (1,), (10,), 0, 4, ((3, 1),) * 4, (0, 1), F(1, 100), False, 0))
@example((2, (1,), (10,), 1, 3, ((3, 2),) * 4, (1, 1), F(1, 100), True, 0))
# Block 1 takes no index, so its deviations are mu itself, all within eps.
@example((24, (5, 10, 15, 20), (10,), 0, 2, ((3, 0), (3, 1)), (1,) * 5, F(1, 3), False, 0))
# Block 2 forces a cell-0 pick, so block 1 must take its cell-1 index.
@example((2, (1,), (10, 60, 10), 0, 2, ((2, 1), (1, 1)), (1, 1), F(1, 100), True, 0))
@given(greedy_cases())
def test_greedy_matches_pool_scan_reference(case):
    den, cuts, levels, j0, budget, blocks, weights, eps, fixed, seed = case
    partition = CellPartition((F(0),) + tuple(F(k, den) for k in cuts) + (F(1),))
    lam = partition.lebesgue_masses()
    spec = BlockSpec([b for b, _ in blocks], [m for _, m in blocks])
    if sum(weights) == 0:
        weights = (1,) + weights[1:]
    mu = MeasureVector(tuple(F(w, sum(weights)) for w in weights))
    # F(t) = 1 from the smallest cell length on, so every target is admissible.
    target = ExtensionTarget(mu=mu, eps=eps, pi=point_mass(min(lam.masses)))
    x = lambda n: F(levels[(n - 1) % len(levels)], 96)
    prefix = sample_uniform(spec, j0, seed) if j0 else ()
    # The prefix covers the blocks through that of its last index.
    j0 = spec.block_of(prefix[-1]) if prefix else 0
    points = residues(x, spec, len(blocks))
    result = greedy_extension(prefix, spec, points, partition, target, budget, fixed)
    want = pool_scan_greedy(prefix, j0, spec, x, partition, target, budget, fixed)
    assert result == want


@st.composite
def long_block_cases(draw):
    """Blocks longer than the greedy's first read, few picks or all of them,
    and points whose period (up to 150 indices) can leave a cell with one
    point in a block, or none."""
    s = draw(st.integers(2, 5))
    cuts = tuple(sorted(draw(st.sets(st.integers(1, 95), min_size=s - 1, max_size=s - 1))))
    levels = tuple(draw(st.lists(st.integers(0, 95), min_size=1, max_size=150)))
    budget = draw(st.integers(1, 4))
    block = st.integers(1, 90).flatmap(
        lambda b: st.tuples(st.just(b), st.one_of(st.integers(0, min(b, 4)), st.just(b)))
    )
    blocks = tuple(draw(st.lists(block, min_size=budget, max_size=budget)))
    weights = tuple(draw(st.lists(st.integers(0, 5), min_size=s, max_size=s)))
    fixed = draw(st.booleans())
    return cuts, levels, blocks, weights, fixed


@given(long_block_cases())
def test_greedy_matches_pool_scan_reference_on_long_blocks(case):
    cuts, levels, blocks, weights, fixed = case
    partition = CellPartition((F(0),) + tuple(F(k, 96) for k in cuts) + (F(1),))
    lam = partition.lebesgue_masses()
    spec = BlockSpec([b for b, _ in blocks], [m for _, m in blocks])
    if sum(weights) == 0:
        weights = (1,) + weights[1:]
    mu = MeasureVector(tuple(F(w, sum(weights)) for w in weights))
    target = ExtensionTarget(mu=mu, eps=F(1, 1000), pi=point_mass(min(lam.masses)))
    x = lambda n: F(levels[(n - 1) % len(levels)], 96)
    budget = len(blocks)
    result = greedy_extension([], spec, residues(x, spec, budget), partition, target, budget,
                              fixed)
    want = pool_scan_greedy((), 0, spec, x, partition, target, budget, fixed)
    assert result == want


ONE_A_BLOCK = BlockSpec([1] * 20, [1] * 20)


THIRDS = (F(0), F(1, 3), F(2, 3), F(1))


@pytest.mark.parametrize(
    "cuts, eps, levels, prefix, blocks, achieved",
    [
        # One cell, so every deviation is 0: the open horizon stops once the
        # prefix share 1/M drops below eps/(3s) = 1/9, at M = 10, not at 9.
        ((F(0), F(1)), F(1, 3), (F(0),), (1,), 10, True),
        # Every point in cell 0 of the halves: the deviations stay at +-1/2,
        # exactly eps, which never counts as within eps.
        ((F(0), F(1, 2), F(1)), F(1, 2), (F(1, 4),), (), 12, False),
        # Thirds, no point in cell 2: its deviation stays at +1/3 = eps.
        (THIRDS, F(1, 3), (F(1, 6), F(1, 2)), (), 12, False),
        # Cells 0, 0, 1, 2 in turn: cell 0 deviates by exactly -eps at every
        # M = 4k, the others by +eps/2, and cell 0 by more than eps between.
        (THIRDS, F(1, 6), (F(1, 6), F(1, 6), F(1, 2), F(5, 6)), (), 12, False),
    ],
)
def test_greedy_stopping_rule_at_its_boundaries(cuts, eps, levels, prefix, blocks, achieved):
    partition = CellPartition(cuts)
    lam = partition.lebesgue_masses()
    target = ExtensionTarget(mu=lam, eps=eps, pi=point_mass(min(lam.masses)))
    x = lambda n: levels[(n - 1) % len(levels)]
    points = residues(x, ONE_A_BLOCK, 20)
    result = greedy_extension(prefix, ONE_A_BLOCK, points, partition, target, 12)
    want = pool_scan_greedy(prefix, len(prefix), ONE_A_BLOCK, x, partition, target, 12, False)
    assert result == want
    assert (result.blocks, result.achieved) == (blocks, achieved)


@st.composite
def loop_cases(draw):
    """Greedy runs the per-cell queue loop must pick alike with the
    chunk-search loop: equal cells with equal masses (every pick starts
    tied) or cuts and weights drawn freely; blocks longer than the first
    read, blocks that take every index (m_j = b_j) or none; point levels
    whose period (up to 120 indices) leaves cells without a free index in a
    block; the open or the fixed horizon; a list or a generator spec; and a
    prefix of up to three blocks."""
    s = draw(st.integers(1, 6))
    tied = draw(st.booleans())
    if tied:
        cuts, weights = tuple(96 * k // s for k in range(1, s)), (1,) * s
    else:
        cuts = tuple(sorted(draw(st.sets(st.integers(1, 95), min_size=s - 1, max_size=s - 1))))
        weights = tuple(draw(st.lists(st.integers(0, 5), min_size=s, max_size=s)))
    levels = tuple(draw(st.lists(st.integers(0, 95), min_size=1, max_size=120)))
    j0 = draw(st.integers(0, 3))
    budget = draw(st.integers(0, 5))
    block = st.integers(1, 40).flatmap(
        lambda b: st.tuples(st.just(b), st.integers(0, min(b, 4)) | st.just(b))
    )
    blocks = tuple(draw(st.lists(block, min_size=j0 + budget + 1, max_size=j0 + budget + 1)))
    eps = draw(st.sampled_from([F(1, 1000), F(1, 20), F(1, 3)]))
    return (cuts, weights, levels, j0, budget, blocks, eps, draw(st.booleans()),
            draw(st.booleans()), draw(st.integers(0, 2**16)))


# Four equal cells, equal masses and points spread over all four: the
# picks tie at every block's start.
@example(((24, 48, 72), (1,) * 4, tuple(range(0, 96, 5)), 0, 5, ((30, 12),) * 6,
          F(1, 1000), False, False, 0))
# Blocks that take every index, after a prefix, on the fixed horizon.
@example(((48,), (1, 1), (10, 60, 70), 2, 3, ((6, 6),) * 6, F(1, 20), True, True, 3))
# Every point in cell 0 of three: cells 1 and 2 have no free index at all.
@example(((32, 64), (1, 1, 1), (5,), 1, 4, ((20, 3),) * 6, F(1, 1000), False, True, 1))
@given(loop_cases())
def test_greedy_matches_the_chunk_search_loop(case):
    cuts, weights, levels, j0, budget, blocks, eps, fixed, generated, seed = case
    partition = CellPartition((F(0),) + tuple(F(k, 96) for k in cuts) + (F(1),))
    lam = partition.lebesgue_masses()
    if generated:
        spec = BlockSpec(lambda j: blocks[(j - 1) % len(blocks)][0],
                         lambda j: blocks[(j - 1) % len(blocks)][1])
    else:
        spec = BlockSpec([b for b, _ in blocks], [m for _, m in blocks])
    if sum(weights) == 0:
        weights = (1,) + weights[1:]
    mu = MeasureVector(tuple(F(w, sum(weights)) for w in weights))
    target = ExtensionTarget(mu=mu, eps=eps, pi=point_mass(min(lam.masses)))
    points = residues(lambda n: F(levels[(n - 1) % len(levels)], 96), spec, len(blocks))
    prefix = sample_uniform(spec, j0, seed) if j0 else ()
    result = greedy_extension(prefix, spec, points, partition, target, budget, fixed)
    assert result == chunk_search_greedy_extension(prefix, spec, points, partition, target,
                                                   budget, fixed)
    assert all(type(entry) is BlockTrace for entry in result.trace)


# --- brute force and exchange facts -----------------------------------------


def index_enumeration_oracle(spec, x, partition, target, j1):
    """Plain enumeration over index combinations; oracle for the collapsed
    (cell-count) enumeration inside brute_force_extension."""
    s = partition.size
    mu = target.mu.masses
    total = spec.M(j1)
    best = None
    for choice in product(
        *(combinations(list(block_range(spec, j)), spec.m(j)) for j in range(1, j1 + 1))
    ):
        counts = [0] * s
        flat = []
        for block in choice:
            for n in block:
                counts[cell_index(partition, x(n))] += 1
                flat.append(n)
        devs = [mu[i] - F(counts[i], total) for i in range(s)]
        key = (sum(abs(d) for d in devs), tuple(sorted(devs, reverse=True)))
        if best is None or key < best:
            best = key
    return best


def test_brute_force_single_block_hand_computation():
    spec = BlockSpec([2], [1])
    target = ExtensionTarget(
        mu=MeasureVector((F(1), F(0))), eps=F(1, 10), pi=point_mass(F(1, 2))
    )
    result = brute_force_extension([], spec, alternating, HALVES, target, j1=1)
    assert result.indices == (1,)  # the cell-0 index
    assert result.total_abs_dev == 0


def test_brute_force_matches_greedy_on_alternating():
    spec = BlockSpec(lambda j: 4, lambda j: 2)
    target = ExtensionTarget(
        mu=MeasureVector((F(1), F(0))), eps=F(1, 10), pi=point_mass(F(1, 2))
    )
    brute = brute_force_extension([], spec, alternating, HALVES, target, j1=3)
    greedy = greedy_extension(
        [], spec, residues(alternating, spec, 3), HALVES, target, 3, fixed_horizon=True
    )
    assert brute.total_abs_dev == 0
    assert greedy.total_abs_dev == brute.total_abs_dev


def test_brute_force_agrees_with_index_enumeration():
    rng = SplitMix64(99)
    partition = CellPartition.uniform(2)
    for trial in range(10):
        blocks = rng.randint(2, 3)
        b = [rng.randint(2, 4) for _ in range(blocks)]
        m = [rng.randint(1, bi) for bi in b]
        spec = BlockSpec(b, m)
        pts = [rng.fraction(16) for _ in range(spec.a(blocks))]
        x = lambda n: pts[n - 1]
        target = ExtensionTarget(
            mu=MeasureVector((F(1, 2), F(1, 2))),
            eps=F(1, 10),
            pi=point_mass(F(1)),
        )
        result = brute_force_extension([], spec, x, partition, target, j1=blocks)
        oracle_key = index_enumeration_oracle(spec, x, partition, target, blocks)
        assert result.total_abs_dev == oracle_key[0]
        assert result.sorted_dev_tuple == oracle_key[1]


def test_brute_force_search_space_cap():
    spec = BlockSpec([20] * 6, [10] * 6)
    target = ExtensionTarget(
        mu=MeasureVector((F(1, 2), F(1, 2))), eps=F(1, 10), pi=point_mass(F(1))
    )
    with pytest.raises(ValueError):
        brute_force_extension([], spec, alternating, HALVES, target, j1=6, limit=10**5)


def test_greedy_block_allocations_swap_optimal(golden_points, golden_residues):
    # On an open horizon the steering objective is the block-boundary
    # deviation itself: no single in-block swap of a chosen index for an
    # unchosen one may lower the boundary total |deviation|.
    spec = BlockSpec(lambda j: j + 2, lambda j: (j + 2) // 2)
    partition = CellPartition.uniform(3)
    mu = MeasureVector((F(1, 2), F(1, 3), F(1, 6)))
    target = ExtensionTarget(mu=mu, eps=F(1, 50), pi=pi_measure(spec, 40))
    result = greedy_extension(
        [], spec, golden_residues, partition, target, 40
    )
    counts = [0, 0, 0]
    chosen = set(result.indices)
    for entry in result.trace:
        for n in entry.chosen:
            counts[cell_index(partition, golden_points[n - 1])] += 1
        m_here = entry.cumulative
        base = sum(abs(mu.masses[i] - F(counts[i], m_here)) for i in range(3))
        # trace deviations agree with an independent recount
        assert tuple(F(d, entry.denominator) for d in entry.numerators) == tuple(
            mu.masses[i] - F(counts[i], m_here) for i in range(3)
        )
        for n_out in entry.chosen:
            c_out = cell_index(partition, golden_points[n_out - 1])
            for n_in in block_range(spec, entry.block):
                if n_in in chosen:
                    continue
                c_in = cell_index(partition, golden_points[n_in - 1])
                if c_in == c_out:
                    continue
                trial = list(counts)
                trial[c_out] -= 1
                trial[c_in] += 1
                swapped = sum(
                    abs(mu.masses[i] - F(trial[i], m_here)) for i in range(3)
                )
                assert swapped >= base, (entry.block, n_out, n_in)


def test_greedy_output_respects_envelope_at_checkpoints(golden_points, golden_residues):
    # Consistency with the envelope bound: the extension's empirical measure
    # at block checkpoints passes domination within the computed aggregate
    # block-defect tolerance.
    from maldist.envelope import envelope_dominates

    spec = BlockSpec(lambda j: j + 1, lambda j: (j + 2) // 2)
    partition = CellPartition.uniform(4)
    lam = partition.lebesgue_masses()
    blocks = 48
    target = ExtensionTarget(mu=lam, eps=F(1, 20), pi=pi_measure(spec, blocks))
    result = greedy_extension(
        [], spec, golden_residues, partition, target, blocks, fixed_horizon=True
    )
    cells = [cell_index(partition, p) for p in golden_points[: spec.a(blocks)]]
    block_defect = []
    for j in range(1, blocks + 1):
        counts = [0] * 4
        for n in block_range(spec, j):
            counts[cells[n - 1]] += 1
        b = spec.b(j)
        block_defect.append(sum(abs(F(c) - F(b, 4)) for c in counts) / 2)
    for checkpoint in (12, 24, 48):
        m_n = spec.M(checkpoint)
        mu = MeasureVector(frequencies(empirical_measure(
            [golden_points[n - 1] for n in result.indices[:m_n]], partition
        )))
        tol = sum(block_defect[:checkpoint]) / m_n
        verdict = envelope_dominates(mu, lam, pi_measure(spec, checkpoint), tol=tol)
        assert verdict.ok, (checkpoint, verdict)


def test_exchange_facts_on_minimizer():
    spec = BlockSpec([4, 4, 4], [2, 2, 2])
    target = ExtensionTarget(
        mu=MeasureVector((F(1), F(0))), eps=F(1, 10), pi=point_mass(F(1, 2))
    )
    result = brute_force_extension([], spec, alternating, HALVES, target, j1=3)
    report = exchange_facts(result.indices, spec, alternating, HALVES, target, 0, 3)
    # Minimizer hits the target exactly: no deviation gap, obligations vacuous.
    assert not report.applicable
    # A deliberately bad solution (all cell-1 picks) leaves improving swaps.
    bad = (2, 4, 6, 8, 10, 12)
    report = exchange_facts(bad, spec, alternating, HALVES, target, 0, 3)
    assert report.applicable
    assert not report.literal_ok
    assert not report.exchange_ok
