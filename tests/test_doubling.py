from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maldist.doubling import (
    BinaryPoint,
    OrbitHitReport,
    doubling_orbit,
    doubling_period,
    five_sixth_check,
    invariance_defect,
    zero_block_density,
)
from maldist.empirical import CellPartition
from maldist.exact import mod1
from maldist.torus import TorusInterval
from tests.oracles import cell_index, fractions_of, shift_value


def test_orbit_period_two():
    assert fractions_of(doubling_orbit(F(1, 3), 4)) == [F(2, 3), F(1, 3), F(2, 3), F(1, 3)]


def test_orbit_one_seventeenth():
    orbit = fractions_of(doubling_orbit(F(1, 17), 8))
    assert orbit[-1] == F(1, 17)
    # cross-check against modular exponentiation
    for k, v in enumerate(orbit, start=1):
        assert v == F(pow(2, k, 17), 17)


def test_orbit_digit_shifts():
    # The orbit of a dyadic point drops one binary digit per step.
    point = BinaryPoint((1, 0, 1, 1))
    assert fractions_of(doubling_orbit(point.value, 3)) == [F(3, 8), F(3, 4), F(1, 2)]


def test_exact_point_shifts_past_length():
    point = BinaryPoint((1, 0, 1))
    assert fractions_of(doubling_orbit(point.value, 5)) == [F(1, 4), F(1, 2), F(0), F(0), F(0)]


def test_period_divides_multiplicative_order():
    for den in (3, 17, 33, 257, 5, 11):
        pre, period = doubling_period(F(1, den))
        assert pre == 0
        k, order = 2 % den, 1
        while k != 1:
            k = (2 * k) % den
            order += 1
        assert order % period == 0


def test_period_with_even_denominator():
    pre, period = doubling_period(F(1, 100))
    assert pre == 2
    assert period == 20  # order of 2 mod 25


def test_invariance_zero_on_full_periods():
    for den in (3, 17, 257):
        pre, period = doubling_period(F(1, den))
        orbit = doubling_orbit(F(1, den), period)
        for level in range(1, 7):
            assert invariance_defect(orbit, CellPartition.dyadic(level)) == 0


def test_invariance_truncation_bound():
    for den in (17, 257):
        _, period = doubling_period(F(1, den))
        for cut in (1, 2, 3):
            orbit = doubling_orbit(F(1, den), period - cut)
            defect = invariance_defect(orbit, CellPartition.dyadic(3))
            assert defect <= F(2, period - cut)


def test_invariance_rejects_non_dyadic():
    orbit = doubling_orbit(F(1, 3), 2)
    with pytest.raises(ValueError):
        invariance_defect(orbit, CellPartition((F(0), F(1, 3), F(1))))


def test_shifted_orbit_identity():
    alpha = F(1, 33)
    orbit = fractions_of(doubling_orbit(alpha, 30))
    for k, v in enumerate(orbit, start=1):
        assert mod1(v + alpha) == mod1((2**k + 1) * alpha)


def test_five_sixth_one_seventeenth_full_period():
    report = five_sixth_check(F(1, 17), 8)
    assert report.hits == 2
    assert report.density == F(1, 4)
    assert report.density <= F(5, 6)
    assert report.bound_ok and report.spacing_ok


def test_five_sixth_even_denominator():
    report = five_sixth_check(F(1, 100), 22)
    assert report.bound_ok and report.spacing_ok
    long_report = five_sixth_check(F(1, 100), 2000)
    assert long_report.density <= F(5, 6) + F(3, 2000)


def test_five_sixth_rejects_large_alpha():
    with pytest.raises(ValueError):
        five_sixth_check(F(1, 10), 100)
    with pytest.raises(ValueError):
        five_sixth_check(F(1, 16), 100)


def test_zero_block_density_short_block():
    # Hand-built digits 10001: positions 2..4 zero, value 17/32.
    point = BinaryPoint((1, 0, 0, 0, 1))
    densities = zero_block_density(point, [4])
    assert densities[0].hits == 2
    assert densities[0].density == F(1, 2)


def test_zero_block_density_no_blocks_stays_low():
    # 0.101010... pattern: no long zero runs, density stays away from 1.
    point = BinaryPoint(tuple([1, 0] * 20))
    densities = zero_block_density(point, [39])
    assert densities[0].density <= F(3, 5)


def test_zero_block_density_requires_target_membership():
    point = BinaryPoint((0, 1, 1))  # value 3/8 outside (1/2, 3/4)
    with pytest.raises(ValueError):
        zero_block_density(point, [2])


# --- integer kernels against the plain-Fraction code they replaced ----------


def reference_doubling_orbit(alpha, steps):
    v = mod1(F(alpha))
    out = []
    for _ in range(steps):
        v = mod1(2 * v)
        out.append(v)
    return out


def reference_invariance_defect(points, partition):
    n, s = len(points), partition.size
    counts, pre_counts = [0] * s, [0] * s
    for p in points:
        counts[cell_index(partition, p)] += 1
        pre_counts[cell_index(partition, mod1(2 * F(p)))] += 1
    return max(abs(F(counts[i] - pre_counts[i], n)) for i in range(s))


def reference_five_sixth_check(alpha, horizon):
    left = F(1, 2) - 4 * alpha / 3
    right = F(3, 4) - 2 * alpha / 3
    wide = TorusInterval(F(1, 2) - alpha / 3, F(3, 4) + alpha / 3)
    minus_flags, plus_flags = [], []
    v = alpha
    for _ in range(horizon):
        v = mod1(2 * v)
        in_minus = left < v <= F(1, 2)
        in_plus = F(1, 2) < v < right
        assert wide.contains(mod1(v + alpha)) == (in_minus or in_plus)
        minus_flags.append(in_minus)
        plus_flags.append(in_plus)
    hits = sum(m or p for m, p in zip(minus_flags, plus_flags))
    spacing_ok = True
    for k in range(horizon):
        if minus_flags[k]:
            if k + 1 < horizon and minus_flags[k + 1]:
                spacing_ok = False
            if k + 2 < horizon and minus_flags[k + 2]:
                spacing_ok = False
        if plus_flags[k] and k + 1 < horizon and plus_flags[k + 1]:
            spacing_ok = False
    density = F(hits, horizon)
    bound = F(5, 6) + F(3, horizon)
    return OrbitHitReport(
        horizon=horizon,
        hits=hits,
        density=density,
        minus_hits=sum(minus_flags),
        plus_hits=sum(plus_flags),
        density_bound=bound,
        bound_ok=density <= bound,
        spacing_ok=spacing_ok,
    )


def reference_zero_block_hits(point, windows):
    alpha = point.value
    target = TorusInterval(F(1, 2), F(3, 4))
    out, hits, k = [], 0, 0
    for end in windows:
        while k < end:
            k += 1
            if target.contains(mod1(shift_value(point, k) + alpha)):
                hits += 1
        out.append(hits)
    return out


rationals = st.builds(
    lambda q, r: F(r % q, q),
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=0, max_value=10**6),
)
bit_strings = st.lists(st.sampled_from((0, 1)), min_size=1, max_size=48).map(tuple)


@settings(max_examples=150, deadline=None)
@given(rationals, bit_strings, st.integers(min_value=0, max_value=60))
def test_doubling_orbit_matches_fraction_reference(alpha, digits, steps):
    assert fractions_of(doubling_orbit(alpha, steps)) == reference_doubling_orbit(alpha, steps)
    # A dyadic point's orbit is its digit shifts, then 0.
    point = BinaryPoint(digits)
    assert fractions_of(doubling_orbit(point.value, steps)) == [
        shift_value(point, k) for k in range(1, steps + 1)
    ]


@settings(max_examples=150, deadline=None)
@given(rationals, st.integers(min_value=1, max_value=80), st.data())
def test_invariance_defect_matches_fraction_reference(alpha, steps, data):
    inner = data.draw(
        st.sets(
            st.builds(F, st.integers(min_value=1, max_value=63), st.just(64)), max_size=10
        )
    )
    partition = CellPartition((F(0), *sorted(inner), F(1)))
    orbit = doubling_orbit(alpha, steps)
    assert invariance_defect(orbit, partition) == reference_invariance_defect(
        fractions_of(orbit), partition
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=17, max_value=20000),
    st.integers(min_value=1, max_value=300),
)
def test_five_sixth_check_matches_fraction_reference(p, q, horizon):
    alpha = F(p, q)
    assume(alpha < F(1, 16))
    assert five_sixth_check(alpha, horizon) == reference_five_sixth_check(alpha, horizon)


@settings(max_examples=150, deadline=None)
@given(bit_strings, st.data())
def test_zero_block_density_matches_fraction_reference(digits, data):
    # Digits 1, 0 lead every point inside (1/2, 3/4).
    point = BinaryPoint((1, 0) + digits)
    assume(F(1, 2) < point.value < F(3, 4))
    limit = 2 * len(point.digits) + 2
    windows = sorted(
        data.draw(st.sets(st.integers(min_value=1, max_value=limit), min_size=1, max_size=5))
    )
    got = zero_block_density(point, windows)
    assert [w.hits for w in got] == reference_zero_block_hits(point, windows)
    assert [w.window_end for w in got] == windows
