"""Points as residues: `Residues(nums, den)` against the equal list of
Fractions.

`Residues` is the program's only point type.  Every consumer reads its
integer numerators directly (`checkpoint_scan`, `star_discrepancy`,
`greedy_extension`), as the `avoid` verifier's own D* sweep reads its
residues, and each must give exactly what the
plain-Fraction reference in `tests/oracles.py` gives on the equal Fraction
list, whose points it takes apart one at a time.  The sources are rotation
and doubling orbits, taken from any start, with numerators scaled so that
gcd(r, den) > 1, and with r = 0 wherever the orbit meets 0.
"""

from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maldist import certificates as certs
from maldist.doubling import doubling_orbit
from maldist.empirical import (
    _SWEEP_BLOCK,
    CellPartition,
    MeasureVector,
    Residues,
    checkpoint_scan,
    star_discrepancy,
)
from maldist.envelope import BlockSpec, pi_measure
from maldist.subspace import ExtensionTarget, greedy_extension
from tests.oracles import (
    as_residues,
    cell_index,
    empirical_measure,
    fraction_checkpoint_scan,
    fraction_star_discrepancy,
    fractions_of,
    point_mass,
)

POINTS_ERROR = r"^points must lie in \[0, 1\)$"


@st.composite
def orbits(draw, min_size=1, max_size=60, max_den=300):
    """(Residues, the equal Fraction list) of a rotation or doubling orbit
    segment, numerators scaled by a factor >= 1 (unreduced when > 1)."""
    q = draw(st.integers(min_value=1, max_value=max_den))
    p = draw(st.integers(min_value=0, max_value=3 * q))
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=2 * q))
        nums = [n * p % q for n in range(start, start + count)]
    else:
        orbit = doubling_orbit(F(p, q), count)
        nums, q = list(orbit.nums), orbit.den
    scale = draw(st.sampled_from((1, 1, 2, 6)))
    residues = Residues([scale * r for r in nums], scale * q)
    return residues, [F(r, q) for r in nums]


@st.composite
def partitions(draw, den=None):
    """Cuts of mixed denominators, some of them on the grid 1/den."""
    pool = st.fractions(min_value=0, max_value=1, max_denominator=40)
    if den is not None:
        pool = st.one_of(pool, st.integers(min_value=1, max_value=den).map(lambda i: F(i, den)))
    inner = draw(st.sets(pool.filter(lambda t: 0 < t < 1), max_size=8))
    return CellPartition((F(0), *sorted(inner), F(1)))


@st.composite
def orbit_and_partition(draw, min_size=1, max_size=60):
    residues, points = draw(orbits(min_size, max_size))
    return residues, points, draw(partitions(residues.den))


# --- the record ------------------------------------------------------------------


def test_residues_is_a_record():
    r = Residues([0, 2, 4, 6], 8)
    assert len(r) == 4
    assert (r.nums, r.den) == ([0, 2, 4, 6], 8)
    assert repr(r) == "Residues([0, 2, 4, 6], 8)"
    assert not hasattr(r, "__dict__")
    # Not a sequence of Fractions: no indexing and no iteration.
    with pytest.raises(TypeError):
        r[0]
    with pytest.raises(TypeError):
        iter(r)
    for den in (0, -3):
        with pytest.raises(ValueError, match="^denominator must be positive$"):
            Residues([0], den)


@given(orbits())
def test_orbits_convert_both_ways(pair):
    """The test-side conversions the differential tests rest on."""
    residues, points = pair
    assert len(residues) == len(points)
    assert fractions_of(residues) == points
    assert fractions_of(as_residues(points)) == points


def test_doubling_orbit_is_residues_over_q():
    orbit = doubling_orbit(F(1, 3), 4)
    assert isinstance(orbit, Residues)
    assert (orbit.nums, orbit.den) == ([2, 1, 2, 1], 3)


# --- differential tests against the plain Fraction list ------------------------


@given(orbit_and_partition(), st.data())
def test_checkpoint_scan_matches_fraction_list(triple, data):
    residues, points, partition = triple
    cps = sorted(data.draw(st.sets(st.integers(1, len(points)), min_size=1, max_size=5)))
    assert checkpoint_scan(residues, partition, cps) == fraction_checkpoint_scan(
        points, partition, cps
    )


@given(orbit_and_partition())
def test_empirical_measure_matches_fraction_list(triple):
    residues, points, partition = triple
    scan = checkpoint_scan(residues, partition, [len(points)])
    assert scan.counts[0] == empirical_measure(points, partition)


def listed(nums, q):
    """(Residues, the equal Fraction list) of the numerators nums over q."""
    return Residues(nums, q), [F(r, q) for r in nums]


B = _SWEEP_BLOCK
# 3B points: B + B/2 at 1/10 and the rest at 8/10, so the largest sweep
# value sits at rank B + B/2 and the smallest at the next rank, in one block.
TWO_VALUES = [1] * (B + B // 2) + [8] * (2 * B - B // 2)


@given(st.one_of(orbits(), orbits(max_den=4), orbits(min_size=B - 1, max_size=8 * B + 1),
                 orbits(min_size=4090, max_size=3 * 4096 + 3)))
@example((Residues([0] * 4096, 7), [F(0)] * 4096))
@example((Residues([0] * 4097, 7), [F(0)] * 4097))
@example((Residues([0], 1), [F(0)]))
@example((Residues([0, 0, 0], 1), [F(0)] * 3))
@example((Residues([3], 6), [F(1, 2)]))
@example((Residues([2, 1, 2, 1, 0, 2, 0], 3), [F(2, 3), F(1, 3), F(2, 3), F(1, 3), F(0), F(2, 3), F(0)]))
@example(listed([n * 5 % 17 for n in range(1, B)], 17))
@example(listed([n * 5 % 17 for n in range(1, B + 1)], 17))
@example(listed([n * 5 % 17 for n in range(1, B + 2)], 17))
@example(listed([n * 5 % 17 for n in range(1, 2 * B + 2)], 17))
@example(listed([0] * B, 7))
@example(listed([0] * (B + 1), 7))
@example(listed(TWO_VALUES, 10))
@example(listed([0] * B + [75] + [60 * B] * (B - 1), 100 * B))
@example(listed([3] * 7 + [6] * (B - 4) + [7] * B + [9], 10))
@example(listed([5] * (2 * B + 1), 9))
@example(listed([0] * (2 * B + 1), 1))
def test_star_discrepancy_matches_fraction_list(pair):
    """Over any q, over q <= 4, where the orbit repeats its residues
    (N > q), and over N of one to eight sweep blocks B and of 4,090-12,291
    points.  The examples put the largest sweep value at the last point of
    a block of 4096 and of B and at the next point, take B - 1, B, B + 1
    and 2B + 1 points of a rotation, and put the largest and smallest sweep
    values in one block.  Two more hold an extreme that only a block's
    exact bound finds: the largest value at the last point of a block,
    equal to that block's bound, with the next block's first value just
    below it, and the smallest where only the block's last point bounds it.  The rest are
    all-equal residues, q = 1, N = 1 and residue 0.  The `avoid` verifier's
    own sweep, which blocks the ranks alike, gives the same value."""
    residues, points = pair
    want = fraction_star_discrepancy(points)
    assert star_discrepancy(residues) == want
    assert certs._star_discrepancy(list(residues.nums), residues.den) == want


@pytest.mark.parametrize("n", [600, 9000])
@pytest.mark.parametrize("shift", [-4, 4])
def test_star_discrepancy_finds_one_extreme_at_every_block_edge(n, shift):
    """The residues 10i + 5 over q = 10N give the one sweep value 5N at
    every rank, so every block passes the first values' bound and both
    sweeps read the blocks in merged runs (cut at 4,096 ranks when N =
    9,000).  One residue moved by -4 or +4 makes its rank the one largest
    or smallest value, and D* = 9/(10N); at each rank beside a block edge,
    the first and the last, both sweeps must find it."""
    block = max(32, isqrt(n))
    for k in sorted({e + d for e in range(block, n, block) for d in (-1, 0)} | {0, n - 1}):
        nums = [10 * i + 5 for i in range(n)]
        nums[k] += shift
        assert certs._star_discrepancy(nums, 10 * n) == F(9, 10 * n)
        assert star_discrepancy(Residues(nums, 10 * n)) == F(9, 10 * n)


@given(orbits(), orbits())
def test_star_discrepancy_over_mixed_denominators(first, second):
    """A Fraction list mixing two denominators sweeps over their lcm; the
    same points as residues over that lcm give the same value."""
    (a, points_a), (b, points_b) = first, second
    q = a.den * b.den
    joined = Residues([r * b.den for r in a.nums] + [r * a.den for r in b.nums], q)
    assert fraction_star_discrepancy(points_a + points_b) == star_discrepancy(joined)


@settings(max_examples=50)
@given(st.data())
def test_greedy_extension_matches_fraction_list(data):
    b = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=8))
    m = [data.draw(st.integers(0, bj)) for bj in b]
    spec = BlockSpec(b, m)
    residues, points = data.draw(orbits(min_size=sum(b), max_size=sum(b)))
    partition = data.draw(partitions(residues.den))
    lam = partition.lebesgue_masses()
    weights = [data.draw(st.integers(1, 9)) for _ in range(partition.size)]
    mu = MeasureVector(tuple(F(w, sum(weights)) for w in weights))
    # F(t) = 1 from the smallest cell length on, so every target is admissible.
    pi = point_mass(min(lam.masses))
    target = ExtensionTarget(mu=mu, eps=data.draw(st.sampled_from((F(1, 3), F(1, 1000)))), pi=pi)
    fixed = data.draw(st.booleans())
    # The greedy reads only the cells of the points, so on each point's cell
    # as the Fraction lookup finds it, represented by the cell's left cut,
    # it must run exactly as on the residues themselves.
    cells = as_residues([partition.cuts[cell_index(partition, p)] for p in points])
    want = greedy_extension([], spec, cells, partition, target, len(b), fixed)
    got = greedy_extension([], spec, residues, partition, target, len(b), fixed)
    assert got == want


# --- out-of-range numerators ---------------------------------------------------


@pytest.mark.parametrize("nums", [[0, 5, 1], [1, -1, 2], [5], [-3]])
def test_out_of_range_numerator_rejected(nums):
    bad = Residues(nums, 5)
    partition = CellPartition.dyadic(2)
    calls = [
        lambda: checkpoint_scan(bad, partition, [len(nums)]),
        lambda: star_discrepancy(bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=POINTS_ERROR) as info:
            call()
        assert type(info.value) is ValueError


def test_greedy_rejects_out_of_range_numerator():
    spec = BlockSpec([2], [1])
    partition = CellPartition.uniform(2)
    lam = partition.lebesgue_masses()
    target = ExtensionTarget(mu=lam, eps=F(1, 10), pi=pi_measure(spec, 1))
    with pytest.raises(ValueError, match=POINTS_ERROR):
        greedy_extension([], spec, Residues([1, 4], 4), partition, target, 1)


def test_scan_stops_at_the_last_checkpoint():
    """Like a Fraction list, a residue past the last checkpoint is never read."""
    partition = CellPartition.uniform(2)
    assert checkpoint_scan(Residues([1, 7], 5), partition, [1]).counts[0] == (1, 0)
    assert fraction_checkpoint_scan([F(1, 5), F(7, 5)], partition, [1]).counts[0] == (1, 0)
    with pytest.raises(ValueError, match="exhausted before checkpoint 3"):
        checkpoint_scan(Residues([1, 2], 5), partition, [1, 3])
