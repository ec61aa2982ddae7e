"""The lazy orbit source the subspace greedy reads (`cli._OrbitResidues`):
index and slice reads of both kinds against the listed doubling orbit and
against n*alpha mod 1 built as Fractions, and the greedy over it against
the greedy over the listed orbit."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maldist import cli
from maldist.doubling import doubling_orbit
from maldist.empirical import CellPartition, MeasureVector
from maldist.envelope import BlockSpec, pi_measure
from maldist.subspace import ExtensionTarget, greedy_extension
from tests.oracles import fraction_mul_mod1


def listed(doubling: bool, alpha: F, count: int) -> list[int]:
    """The residues over alpha's denominator, listed: the doubling orbit, or
    n*alpha mod 1 for n = 1..count as Fractions, scaled back."""
    if doubling:
        return list(doubling_orbit(alpha, count).nums)
    return [int(fraction_mul_mod1(n, alpha) * alpha.denominator) for n in range(1, count + 1)]


bounds = st.none() | st.integers(-70, 70)


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(-10**12, 10**12),
    q=st.integers(1, 10**12),
    count=st.integers(0, 60),
    start=bounds,
    stop=bounds,
    step=st.sampled_from([None, 1, 2, 3, -1, -2]),
)
@example(p=5, q=1, count=9, start=None, stop=None, step=None)  # q = 1
@example(p=3, q=64, count=12, start=2, stop=None, step=None)  # dyadic: reaches 0
@example(p=5, q=96, count=20, start=1, stop=15, step=None)  # preperiod 5, period 2
@example(p=-7, q=999983, count=30, start=3, stop=29, step=None)  # negative p
@example(p=-7, q=999983, count=30, start=10, stop=4, step=None)  # empty slice
@example(p=1, q=3, count=0, start=None, stop=None, step=None)  # empty source
def test_index_and_slice_reads_match_the_listed_orbits(p, q, count, start, stop, step):
    alpha = F(p, q)
    for doubling in (False, True):
        want = listed(doubling, alpha, count)
        src = cli._OrbitResidues(doubling, alpha.numerator, alpha.denominator, count)
        assert len(src) == count
        assert [src[i] for i in range(count)] == want
        assert [src[i] for i in range(-count, 0)] == want
        assert src[start:stop:step] == want[start:stop:step]
        assert src[:] == want


@pytest.mark.parametrize("kind", ["rotation", "doubling"])
def test_points_source_reads_over_alphas_denominator(kind):
    points = cli._points_source({"x-kind": kind, "x-alpha": "-14/20"}, 25)
    assert points.den == 10
    assert list(points.nums[:]) == listed(kind == "doubling", F(-7, 10), 25)


@pytest.mark.parametrize("alpha", ["832040/1346269", "5/96", "-7/999983", "1/1", "3/64"])
def test_greedy_over_the_lazy_doubling_source_matches_the_listed_orbit(alpha):
    spec = BlockSpec(lambda j: j + 40, lambda j: 2)
    partition = CellPartition((F(0), F(1, 7), F(1, 2), F(1)))
    mu = MeasureVector((F(1, 10), F(2, 5), F(1, 2)))
    target = ExtensionTarget(mu=mu, eps=F(1, 1000), pi=pi_measure(spec, 30))
    count = spec.a(30)
    lazy = cli._points_source({"x-kind": "doubling", "x-alpha": alpha}, count)
    results = [
        greedy_extension([], spec, x, partition, target, 30)
        for x in (lazy, doubling_orbit(F(alpha), count))
    ]
    assert results[0] == results[1]
