from bisect import bisect_right
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maldist.empirical import (
    CellPartition,
    CheckpointScan,
    MeasureVector,
    Residues,
    checkpoint_scan,
    rotation_scan,
    scan_to_csv,
    star_discrepancy,
)
from maldist.exact import mod1
from tests.oracles import (
    as_residues,
    cell_index,
    empirical_measure,
    fraction_scan_to_csv,
    frequencies,
    is_dyadic,
)


def brute_force_star_discrepancy(points):
    """O(N^2) sweep over both one-sided limits at every sample value."""
    n = len(points)
    xs = sorted(points)
    best = F(0)
    for v in set(xs):
        below = sum(1 for x in xs if x < v)
        at_or_below = sum(1 for x in xs if x <= v)
        best = max(best, abs(F(below, n) - v), abs(F(at_or_below, n) - v))
    # sup as t -> 0+ equals the mass at 0
    best = max(best, F(sum(1 for x in xs if x == 0), n))
    return best


def test_empirical_thirds():
    p = CellPartition.uniform(3)
    m = empirical_measure([F(0), F(1, 3), F(2, 3)], p)
    assert frequencies(m) == (F(1, 3), F(1, 3), F(1, 3))


def test_empirical_halves_with_repeats():
    p = CellPartition.uniform(2)
    m = empirical_measure([F(0), F(0), F(0), F(1, 2)], p)
    assert frequencies(m) == (F(3, 4), F(1, 4))


def test_empirical_periodic_orbit():
    p = CellPartition.uniform(5)
    pts = [mod1(n * F(1, 5)) for n in range(1, 6)]
    m = empirical_measure(pts, p)
    assert frequencies(m) == tuple([F(1, 5)] * 5)


def test_empirical_rejects_empty():
    with pytest.raises(ValueError):
        empirical_measure([], CellPartition.uniform(2))


def test_frequencies_have_denominator_dividing_n():
    p = CellPartition.uniform(4)
    pts = [F(i, 7) for i in range(7)]
    m = empirical_measure(pts, p)
    assert sum(frequencies(m)) == 1
    for f in frequencies(m):
        assert 7 % f.denominator == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.fractions(min_value=0, max_value=F(63, 64), max_denominator=64), min_size=1, max_size=30),
    st.lists(st.fractions(min_value=0, max_value=F(63, 64), max_denominator=64), min_size=1, max_size=30),
)
def test_concat_consistency(first, second):
    """The scan of a concatenated sample holds the first part's measure at its
    end, and the cellwise count sum of both parts at the end of the whole."""
    p = CellPartition.uniform(4)
    n, m = len(first), len(second)
    head, whole = checkpoint_scan(as_residues(first + second), p, [n, n + m]).counts
    assert head == empirical_measure(first, p)
    parts = zip(empirical_measure(first, p), empirical_measure(second, p))
    assert whole == tuple(a + b for a, b in parts)
    assert whole == empirical_measure(first + second, p)


def test_star_discrepancy_single_zero():
    assert star_discrepancy(Residues([0], 1)) == 1


def test_star_discrepancy_two_points():
    assert star_discrepancy(Residues([0, 1], 2)) == F(1, 2)


def test_star_discrepancy_centered_lattice():
    n = 4
    pts = [F(2 * i - 1, 2 * n) for i in range(1, n + 1)]
    assert star_discrepancy(as_residues(pts)) == F(1, 2 * n)
    assert brute_force_star_discrepancy(pts) == F(1, 2 * n)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=0, max_value=F(63, 64), max_denominator=64),
        min_size=1,
        max_size=64,
    )
)
def test_star_discrepancy_matches_brute_force(points):
    fast = star_discrepancy(as_residues(points))
    assert fast == brute_force_star_discrepancy(points)
    assert F(1, 2 * len(points)) <= fast <= 1


def test_checkpoint_scan_periodic():
    p = CellPartition.uniform(3)
    pts = [mod1(n * F(1, 3)) for n in range(1, 10)]
    scan = checkpoint_scan(as_residues(pts), p, [3, 6, 9])
    for counts in scan.counts:
        assert frequencies(counts) == (F(1, 3), F(1, 3), F(1, 3))


def test_checkpoint_scan_matches_prefix_measure(golden_points, golden_residues):
    p = CellPartition.uniform(4)
    scan = checkpoint_scan(golden_residues, p, [10, 37, 100])
    for cp, counts in zip(scan.checkpoints, scan.counts):
        assert counts == empirical_measure(golden_points[:cp], p)


def test_scan_reciprocal_sequence_first_cell():
    # x_n = 1/(n+1): all mass drifts into the first cell.
    p = CellPartition((F(0), F(1, 10), F(1)))
    pts = [F(1, n + 1) for n in range(1, 2001)]
    scan = checkpoint_scan(as_residues(pts), p, [10, 100, 2000])
    freqs = [frequencies(counts)[0] for counts in scan.counts]
    assert freqs[-1] > F(99, 100)
    assert freqs == sorted(freqs)


def test_scan_csv_shape():
    p = CellPartition.uniform(2)
    pts = [F(0), F(1, 2), F(0), F(1, 2)]
    scan = checkpoint_scan(as_residues(pts), p, [2, 4])
    text = scan_to_csv(scan)
    lines = text.strip().splitlines()
    assert lines[0] == "N,freq_0,freq_1,freq_0_exact,freq_1_exact"
    assert lines[1] == "2,0.500000000000,0.500000000000,1/2,1/2"
    assert lines[2] == "4,0.500000000000,0.500000000000,1/2,1/2"


# --- integer kernels against the plain-Fraction code they replaced ----------


def reference_cell_index(cuts, x):
    """Bisection over the Fraction cuts, as CellPartition located points
    before its integer lookup."""
    if not 0 <= x < 1:
        raise ValueError("points must lie in [0, 1)")
    lo, hi = 0, len(cuts) - 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if cuts[mid] <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def reference_star_discrepancy(points):
    """Sweep over the sorted Fraction sample, as star_discrepancy ran before
    its integer sweep."""
    n = len(points)
    xs = sorted(F(p) for p in points)
    if not (0 <= xs[0] and xs[-1] < 1):
        raise ValueError("points must lie in [0, 1)")
    best = F(0)
    for i, x in enumerate(xs, start=1):
        best = max(best, F(i, n) - x, x - F(i - 1, n))
    return best


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=97).filter(
    lambda x: x < 1
)


@st.composite
def mixed_cuts(draw):
    inner = draw(st.sets(unit_fractions.filter(lambda t: t > 0), max_size=12))
    return (F(0), *sorted(inner), F(1))


@settings(max_examples=100, deadline=None)
@given(mixed_cuts(), st.data())
def test_cell_lookup_matches_fraction_bisection(cuts, data):
    partition = CellPartition(cuts)
    near_cuts = [t for c in cuts[1:] for t in (c - F(1, 10**6), c) if t < 1]
    points = data.draw(
        st.lists(st.one_of(st.sampled_from(near_cuts), unit_fractions), min_size=1, max_size=20)
    )
    scale = data.draw(st.integers(min_value=1, max_value=9))
    for x in points:
        want = reference_cell_index(cuts, x)
        assert cell_index(partition, x) == want
        # Unreduced r/q locates the same cell.
        den = x.denominator * scale
        assert bisect_right(partition.thresholds(den)[1:], x.numerator * scale) == want


@settings(max_examples=100, deadline=None)
@example(cuts=(F(0), F(1, 3), F(2, 5), F(1)), den=15, on_cuts=False)
@example(cuts=(F(0), F(1, 3), F(2, 5), F(1)), den=7, on_cuts=False)
@example(cuts=(F(0), F(1, 97), F(1, 2), F(96, 97), F(1)), den=2, on_cuts=True)
@given(mixed_cuts(), st.integers(min_value=1, max_value=300), st.booleans())
def test_thresholds_bisect_matches_cell_of(cuts, den, on_cuts):
    """bisect_right(thresholds(den), r) - 1 is the cell of r/den read off
    the Fraction cuts (`cell_index`), for every residue 0 <= r < den, whether
    or not den is a multiple of the cuts' lcm D; with on_cuts, den is one,
    so every cut is itself a residue."""
    partition = CellPartition(cuts)
    lcm_den = lcm(*(t.denominator for t in cuts))
    if on_cuts and lcm_den * den <= 20_000:
        den *= lcm_den
    thresholds = partition.thresholds(den)
    assert len(thresholds) == len(cuts)
    assert (thresholds[0], thresholds[-1]) == (0, den)
    for r in range(den):
        want = cell_index(partition, F(r, den))
        assert bisect_right(thresholds, r) - 1 == want
        assert bisect_right(thresholds[1:], r) == want
    if den % lcm_den == 0:
        for t in cuts[:-1]:
            r = t.numerator * (den // t.denominator)
            assert bisect_right(thresholds, r) - 1 == cuts.index(t)


def fraction_uniform(s: int) -> CellPartition:
    """The uniform partition built from its Fraction cuts i/s."""
    return CellPartition(tuple(F(i, s) for i in range(s + 1)))


@settings(max_examples=60, deadline=None)
@example(s=1, den=1)
@example(s=64, den=131151201344081895336534324866)
@example(s=1 << 12, den=3)
@given(st.one_of(st.integers(1, 80), st.sampled_from([1 << k for k in range(11)])),
       st.one_of(st.integers(1, 400), st.integers(1, 10**30)))
def test_integer_built_uniform_matches_the_fraction_built(s, den):
    """`uniform`, built from the integers 0..s over s, has the Fraction-built
    partition's cuts, thresholds, equality, hash and dyadic verdict."""
    got, want = CellPartition.uniform(s), fraction_uniform(s)
    assert got == want and hash(got) == hash(want)
    assert got.cuts == want.cuts and got.size == want.size == s
    assert got.thresholds(den) == want.thresholds(den)
    assert got.lebesgue_masses() == want.lebesgue_masses()
    assert got.is_dyadic() == want.is_dyadic() == all(is_dyadic(t) for t in want.cuts)
    assert got.is_dyadic() == (s & (s - 1) == 0)


@pytest.mark.parametrize("level", range(8))
def test_integer_built_dyadic_matches_the_fraction_built(level):
    got, want = CellPartition.dyadic(level), fraction_uniform(1 << level)
    assert got == want and got.thresholds(97) == want.thresholds(97)
    assert got.is_dyadic() and want.is_dyadic()


@settings(max_examples=100, deadline=None)
@example(cuts=(F(0), F(1, 4), F(3, 8), F(1)))
@example(cuts=(F(0), F(1, 4), F(1, 3), F(1)))
@given(mixed_cuts())
def test_is_dyadic_reads_the_cuts_lcm(cuts):
    assert CellPartition(cuts).is_dyadic() == all(is_dyadic(t) for t in cuts)


@pytest.mark.parametrize("s", [0, -1, -2, -7])
def test_uniform_refuses_a_nonpositive_count_by_name(s):
    with pytest.raises(ValueError) as err:
        CellPartition.uniform(s)
    assert str(err.value) == f"cell count must be at least 1, got {s}"


@pytest.mark.parametrize("level", [-1, -2, -7])
def test_dyadic_refuses_a_negative_level_by_name(level):
    # Not inside the shift 1 << level.
    with pytest.raises(ValueError) as err:
        CellPartition.dyadic(level)
    assert str(err.value) == f"level must be nonnegative, got {level}"


def test_thresholds_refuse_a_nonpositive_denominator():
    for den in (0, -3):
        with pytest.raises(ValueError, match="^denominator must be positive$"):
            CellPartition.uniform(3).thresholds(den)


def test_cell_index_error_paths_unchanged():
    partition = CellPartition((F(0), F(1, 4), F(2, 3), F(1)))
    for bad in (F(-1, 3), F(1)):
        with pytest.raises(ValueError) as info:
            checkpoint_scan(Residues([bad.numerator], bad.denominator), partition, [1])
        assert type(info.value) is ValueError
        assert str(info.value) == "points must lie in [0, 1)"
    with pytest.raises(ValueError, match=r"^points must lie in \[0, 1\)$"):
        star_discrepancy(as_residues([F(1, 2), F(1)]))
    with pytest.raises(ValueError, match=r"^points must lie in \[0, 1\)$"):
        star_discrepancy(as_residues([F(-1, 3), F(1, 2)]))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(unit_fractions, min_size=1, max_size=40),
    st.integers(min_value=0, max_value=5),
    st.booleans(),
)
def test_star_discrepancy_matches_fraction_sweep(points, repeats, with_zero):
    points = points + points[:repeats] + ([F(0)] if with_zero else [])
    assert star_discrepancy(as_residues(points)) == reference_star_discrepancy(points)


@st.composite
def scans(draw):
    """Checkpoint scans with up to 6 cells and checkpoints past 10^15, each
    checkpoint's counts a random split of it."""
    cells = draw(st.integers(1, 6))
    cps = sorted(draw(st.lists(st.integers(1, 10**18), min_size=1, max_size=4, unique=True)))
    counts = []
    for n in cps:
        splits = sorted(draw(st.lists(st.integers(0, n), min_size=cells - 1,
                                      max_size=cells - 1)))
        bounds = [0, *splits, n]
        counts.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return CheckpointScan(tuple(cps), tuple(counts))


@settings(max_examples=150, deadline=None)
@given(scan=scans())
def test_scan_csv_from_counts_matches_the_fraction_writer(scan):
    assert scan_to_csv(scan) == fraction_scan_to_csv(scan)


def test_rotation_scan_csv_past_10_15_matches_the_fraction_writer():
    scan = rotation_scan(832040, 1346269, CellPartition.uniform(12),
                         [7, 10**15, 10**15 + 3, 2 * 10**16])
    assert scan_to_csv(scan) == fraction_scan_to_csv(scan)


@settings(max_examples=300)
@given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=30), max_size=8),
       st.booleans())
def test_measure_vector_checks_its_masses_as_fractions_do(masses, complete):
    """The checks in integers over the lcm refuse what Fraction comparisons
    and a Fraction sum refuse, negative masses first, and keep the entries
    as Fractions."""
    if complete:
        masses.append(1 - sum(masses))
    if any(m < 0 for m in masses):
        want = "masses must be nonnegative"
    elif sum(masses) != 1:
        want = "masses must sum to exactly 1"
    else:
        assert MeasureVector(tuple(masses)).masses == tuple(masses)
        assert all(type(m) is F for m in MeasureVector(tuple(masses)).masses)
        return
    with pytest.raises(ValueError, match=f"^{want}$"):
        MeasureVector(tuple(masses))
