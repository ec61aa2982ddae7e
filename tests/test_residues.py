"""Points as residues: `Residues(nums, den)` against the equal list of
Fractions.

Every consumer that reads the integer numerators directly (`checkpoint_scan`,
`star_discrepancy`, `invariance_defect`, `greedy_extension`) must give
exactly what it gives on the equal plain Fraction list, whose points are
taken apart one at a time.  The sources are rotation and doubling orbits, taken from any start, with
numerators scaled so that gcd(r, den) > 1, and with r = 0 wherever the orbit
meets 0.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maldist.doubling import doubling_orbit, invariance_defect
from maldist.empirical import (
    CellPartition,
    MeasureVector,
    Residues,
    checkpoint_scan,
    star_discrepancy,
)
from maldist.envelope import BlockSpec, RatioMeasure, pi_measure
from maldist.subspace import ExtensionTarget, greedy_extension
from tests.oracles import empirical_measure

POINTS_ERROR = r"^points must lie in \[0, 1\)$"


@st.composite
def orbits(draw, min_size=1, max_size=60):
    """(Residues, the equal Fraction list) of a rotation or doubling orbit
    segment, numerators scaled by a factor >= 1 (unreduced when > 1)."""
    q = draw(st.integers(min_value=1, max_value=300))
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


# --- the sequence protocol ----------------------------------------------------


def test_sequence_protocol():
    r = Residues([0, 2, 4, 6], 8)
    values = [F(0), F(1, 4), F(1, 2), F(3, 4)]
    assert len(r) == 4
    assert r[0] == 0 and r[2] == F(1, 2)
    assert r[-1] == F(3, 4) and r[-4] == 0
    assert list(r) == values
    assert all(type(x) is F for x in r)
    assert r == values and values == r
    assert r == tuple(values)
    assert r != values[:3] and r != [F(0), F(1, 4), F(1, 2), F(1, 2)]
    assert r == Residues([0, 1, 2, 3], 4)
    assert r != Residues([0, 1, 2], 4)
    assert F(1, 4) in r and F(1, 3) not in r
    assert r.index(F(1, 2)) == 2
    assert list(reversed(r)) == values[::-1]
    for bad in (4, -5):
        with pytest.raises(IndexError):
            r[bad]
    with pytest.raises(TypeError):
        hash(r)
    with pytest.raises(ValueError):
        Residues([0], 0)


def test_slices_keep_the_denominator():
    r = Residues([1, 3, 5, 7, 9], 10)
    for cut in (slice(1, 3), slice(None, -2), slice(-3, None), slice(None, None, 2),
                slice(4, 1, -1), slice(7, 9)):
        part = r[cut]
        assert isinstance(part, Residues)
        assert part.den == 10
        assert part == list(r)[cut]
    assert r[1:3] == [F(3, 10), F(1, 2)]


@given(orbits())
def test_iteration_and_indexing_match_the_fractions(pair):
    residues, points = pair
    assert len(residues) == len(points)
    assert list(residues) == points
    assert [residues[i] for i in range(-len(points), len(points))] == points + points
    assert residues == points and points == residues


def test_doubling_orbit_is_residues_over_q():
    orbit = doubling_orbit(F(1, 3), 4)
    assert isinstance(orbit, Residues)
    assert (orbit.nums, orbit.den) == ([2, 1, 2, 1], 3)


# --- differential tests against the plain Fraction list ------------------------


@given(orbit_and_partition(), st.data())
def test_checkpoint_scan_matches_fraction_list(triple, data):
    residues, points, partition = triple
    cps = sorted(data.draw(st.sets(st.integers(1, len(points)), min_size=1, max_size=5)))
    assert checkpoint_scan(residues, partition, cps) == checkpoint_scan(points, partition, cps)


@given(orbit_and_partition())
def test_empirical_measure_matches_fraction_list(triple):
    residues, points, partition = triple
    assert empirical_measure(residues, partition) == empirical_measure(points, partition)


@given(orbits())
def test_star_discrepancy_matches_fraction_list(pair):
    residues, points = pair
    assert star_discrepancy(residues) == star_discrepancy(points)


@given(orbits(), orbits())
def test_star_discrepancy_over_mixed_denominators(first, second):
    """A Fraction list mixing two denominators sweeps over their lcm; the
    same points as residues over that lcm give the same value."""
    (a, points_a), (b, points_b) = first, second
    q = a.den * b.den
    joined = Residues([r * b.den for r in a.nums] + [r * a.den for r in b.nums], q)
    assert star_discrepancy(points_a + points_b) == star_discrepancy(joined)


@given(orbits(), st.integers(min_value=0, max_value=6))
def test_invariance_defect_matches_fraction_list(pair, level):
    residues, points = pair
    partition = CellPartition.dyadic(level)
    assert invariance_defect(residues, partition) == invariance_defect(points, partition)


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
    pi = RatioMeasure.point_mass(min(lam.masses))
    target = ExtensionTarget(mu=mu, eps=data.draw(st.sampled_from((F(1, 3), F(1, 1000)))), pi=pi)
    fixed = data.draw(st.sampled_from((None, len(b))))
    want = greedy_extension([], spec, points, partition, lam, target,
                            max_blocks=len(b), fixed_blocks=fixed)
    got = greedy_extension([], spec, residues, partition, lam, target,
                           max_blocks=len(b), fixed_blocks=fixed)
    assert got == want


# --- out-of-range numerators ---------------------------------------------------


@pytest.mark.parametrize("nums", [[0, 5, 1], [1, -1, 2], [5], [-3]])
def test_out_of_range_numerator_rejected(nums):
    bad = Residues(nums, 5)
    partition = CellPartition.dyadic(2)
    calls = [
        lambda: checkpoint_scan(bad, partition, [len(nums)]),
        lambda: star_discrepancy(bad),
        lambda: invariance_defect(bad, partition),
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
        greedy_extension([], spec, Residues([1, 4], 4), partition, lam, target)


def test_scan_stops_at_the_last_checkpoint():
    """Like a Fraction list, a residue past the last checkpoint is never read."""
    partition = CellPartition.uniform(2)
    for points in (Residues([1, 7], 5), [F(1, 5), F(7, 5)]):
        scan = checkpoint_scan(points, partition, [1])
        assert scan.measures[0].counts == (1, 0)
    with pytest.raises(ValueError, match="exhausted before checkpoint 3"):
        checkpoint_scan(Residues([1, 2], 5), partition, [1, 3])
