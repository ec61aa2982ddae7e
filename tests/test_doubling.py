from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from maldist import certificates as certs
from maldist.doubling import (
    BinaryPoint,
    OrbitHitReport,
    _fold,
    doubling_orbit,
    doubling_period,
    doubling_scan,
    five_sixth_check,
    invariance_defect,
    zero_block_density,
)
from maldist.empirical import CellPartition
from maldist.exact import mod1
from maldist.torus import TorusInterval
from tests.oracles import (
    fraction_checkpoint_scan,
    fraction_contains,
    fractions_of,
    shift_value,
    stepwise_invariance_defect,
)


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


@given(st.lists(st.sampled_from((0, 1)), min_size=1, max_size=64))
def test_binary_point_holds_its_digits_as_bytes(bits):
    """Tuples, lists, bytes and bytearrays of the same bits give equal
    points, each holding bytes, with the value the bits denote."""
    points = [BinaryPoint(form(bits)) for form in (tuple, list, bytes, bytearray)]
    assert all(point == points[0] for point in points)
    assert {type(point.digits) for point in points} == {bytes}
    assert points[0].digits == bytes(bits)
    assert points[0].value == sum(F(d, 2**j) for j, d in enumerate(bits, start=1))


@given(st.lists(st.sampled_from((0, 1)), max_size=8), st.data())
def test_binary_point_refuses_an_empty_string_or_a_non_bit(bits, data):
    for form in (tuple, list, bytes, bytearray):
        with pytest.raises(ValueError, match="^need at least one digit$"):
            BinaryPoint(form(()))
    bad = data.draw(st.one_of(st.integers(2, 255), st.integers(256, 10**6), st.integers(-9, -1),
                              st.sampled_from(("1", None, b"\1"))))
    at = data.draw(st.integers(0, len(bits)))
    digits = [*bits[:at], bad, *bits[at:]]
    # bytes() itself refuses what no byte holds.
    byte = type(bad) is int and 0 <= bad < 256
    for form in (tuple, list, bytes, bytearray) if byte else (tuple, list):
        with pytest.raises(ValueError, match="^digits must be bits$"):
            BinaryPoint(form(digits))


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
        for level in range(1, 7):
            assert invariance_defect(F(1, den), period, CellPartition.dyadic(level)) == 0


def test_invariance_truncation_bound():
    for den in (17, 257):
        _, period = doubling_period(F(1, den))
        for cut in (1, 2, 3):
            defect = invariance_defect(F(1, den), period - cut, CellPartition.dyadic(3))
            assert defect <= F(2, period - cut)


def test_invariance_rejects_non_dyadic():
    with pytest.raises(ValueError):
        invariance_defect(F(1, 3), 2, CellPartition((F(0), F(1, 3), F(1))))


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
    assert report.density <= report.density_bound and report.spacing_ok


def test_five_sixth_even_denominator():
    report = five_sixth_check(F(1, 100), 22)
    assert report.density <= report.density_bound and report.spacing_ok
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
    assert zero_block_density(point, [4]) == [(4, 2)]


def test_zero_block_density_no_blocks_stays_low():
    # 0.101010... pattern: no long zero runs, density stays away from 1.
    point = BinaryPoint(tuple([1, 0] * 20))
    [(end, hits)] = zero_block_density(point, [39])
    assert end == 39 and F(hits, 39) <= F(3, 5)


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
        assert fraction_contains(wide, mod1(v + alpha)) == (in_minus or in_plus)
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
    return OrbitHitReport(
        horizon=horizon,
        hits=hits,
        density=F(hits, horizon),
        minus_hits=sum(minus_flags),
        plus_hits=sum(plus_flags),
        density_bound=F(5, 6) + F(3, horizon),
        spacing_ok=spacing_ok,
    )


def reference_zero_block_hits(point, windows):
    alpha = point.value
    target = TorusInterval(F(1, 2), F(3, 4))
    out, hits, k = [], 0, 0
    for end in windows:
        while k < end:
            k += 1
            if fraction_contains(target, mod1(shift_value(point, k) + alpha)):
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
@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=10**6),
    st.data(),
)
@example(a=0, odd=0, p=1, data=None)
@example(a=5, odd=8, p=3, data=None)
def test_doubling_orbit_repeats_its_period_like_a_fraction_walk(a, odd, p, data):
    # q = 2^a * q' with q' = 2 * odd + 1: the orbit has preperiod a (1 at
    # least for q' > 1) and period ord_{q'}(2).  The step counts run from 0
    # through the preperiod and up to several periods past it.
    q = (1 << a) * (2 * odd + 1)
    alpha = F(p % q, q)
    pre, period = doubling_period(alpha)
    counts = {0, pre // 2, pre, pre + period - 1, pre + 3 * period, pre + 5 * period + period // 2}
    if data is not None:
        counts.add(data.draw(st.integers(0, pre + 6 * period), label="steps"))
    for steps in sorted(counts):
        assert fractions_of(doubling_orbit(alpha, steps)) == reference_doubling_orbit(alpha, steps)


@settings(max_examples=150, deadline=None)
@given(rationals, st.integers(min_value=1, max_value=80), st.data())
def test_invariance_defect_matches_fraction_reference(alpha, steps, data):
    inner = data.draw(
        st.sets(
            st.builds(F, st.integers(min_value=1, max_value=63), st.just(64)), max_size=10
        )
    )
    partition = CellPartition((F(0), *sorted(inner), F(1)))
    assert invariance_defect(alpha, steps, partition) == stepwise_invariance_defect(
        alpha, steps, partition
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
    want = reference_zero_block_hits(point, windows)
    assert zero_block_density(point, windows) == list(zip(windows, want))


# --- period folding against the step-by-step references -----------------------
#
# The orbit of p/q under doubling, with q = 2^a * q' and q' odd, is periodic
# from step max(a, 1) on with period ord_{q'}(2).  The kernels walk one
# preperiod and one period and fold any horizon from them; the references
# walk every step.  The denominators below have periods 1..500 (q' divides
# 2^P - 1), and the horizons run to several periods past the preperiod.


@st.composite
def periodic_denominators(draw):
    """q = 2^a * q' with q' an odd divisor of 2^P - 1, P <= 500, so that the
    period divides P: a small divisor gcd(2^P - 1, m) or its cofactor."""
    period = draw(st.integers(min_value=1, max_value=500))
    mersenne = (1 << period) - 1
    odd = gcd(mersenne, draw(st.integers(min_value=1, max_value=10**6)))
    if draw(st.booleans()):
        odd = mersenne // odd
    return odd << draw(st.integers(min_value=0, max_value=12))


@st.composite
def small_alphas(draw):
    """alpha = p/q in (0, 1/16) over a periodic denominator q >= 17."""
    q = draw(periodic_denominators())
    if q < 17:
        q <<= 5
    return F(draw(st.integers(min_value=1, max_value=(q - 1) // 16)), q)


def horizons(alpha, data):
    """A horizon from 1 to four periods past the preperiod."""
    pre, period = doubling_period(alpha)
    return data.draw(st.integers(min_value=1, max_value=pre + 4 * period + 3))


def fivesixth_agrees_with_reference(alpha, horizon):
    want = reference_five_sixth_check(alpha, horizon)
    assert five_sixth_check(alpha, horizon) == want
    # The verifier recomputes every claim of the reference's certificate.
    assert certs.verify_certificate(certs.fivesixth_certificate(want, alpha)).failures == ()


def scan_agrees_with_reference(alpha, partition, checkpoints):
    points = reference_doubling_orbit(alpha, checkpoints[-1])
    assert doubling_scan(alpha, partition, checkpoints) == fraction_checkpoint_scan(
        points, partition, checkpoints
    )


@settings(max_examples=150, deadline=None)
@given(small_alphas(), st.data())
def test_five_sixth_check_and_verifier_fold_periods(alpha, data):
    fivesixth_agrees_with_reference(alpha, horizons(alpha, data))


LEMMA_STEPS = 300


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=17, max_value=10**12), st.data())
def test_five_sixth_spacing_lemma(q, data):
    """The lemma `five_sixth_check` states its `spacing_ok` by: for alpha in
    (0, 1/16), along 2^k alpha mod 1 no hit of I- or I+ is followed by a
    hit, and no two hits of I- lie two steps apart.  Half the draws take
    the largest p with p/q < 1/16.  The verifier's own walk of the
    certificate reads the spacing true."""
    top = (q - 1) // 16
    p = data.draw(st.one_of(st.just(top), st.integers(min_value=1, max_value=top)))
    alpha = F(p, q)
    left, right = F(1, 2) - 4 * alpha / 3, F(3, 4) - 2 * alpha / 3
    minus, hit = [], []
    v = alpha
    for _ in range(LEMMA_STEPS):
        v = mod1(2 * v)
        minus.append(left < v <= F(1, 2))
        hit.append(left < v < right)
    assert not any(a and b for a, b in zip(hit, hit[1:]))
    assert not any(a and b for a, b in zip(minus, minus[2:]))
    cert = certs.fivesixth_certificate(five_sixth_check(alpha, LEMMA_STEPS), alpha)
    assert [c["verdict"] for c in cert["claims"] if c["id"] == "spacing"] == [True]
    assert certs.verify_certificate(cert).failures == ()


@settings(max_examples=150, deadline=None)
@given(periodic_denominators(), st.data())
def test_invariance_defect_and_verifier_over_several_periods(q, data):
    alpha = F(data.draw(st.integers(min_value=0, max_value=q - 1)), q)
    steps = horizons(alpha, data)
    partition = CellPartition.dyadic(data.draw(st.integers(min_value=0, max_value=6)))
    defect = stepwise_invariance_defect(alpha, steps, partition)
    assert invariance_defect(alpha, steps, partition) == defect
    cert = certs.invariance_certificate(alpha, steps, partition, defect)
    assert certs.verify_certificate(cert).failures == ()


@settings(max_examples=150, deadline=None)
@given(periodic_denominators(), st.data())
def test_doubling_scan_folds_periods(q, data):
    alpha = F(data.draw(st.integers(min_value=0, max_value=q - 1)), q)
    pre, period = doubling_period(alpha)
    limit = pre + 4 * period + 3
    checkpoints = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=limit),
                                           min_size=1, max_size=6)))
    partition = CellPartition.uniform(data.draw(st.integers(min_value=1, max_value=12)))
    scan_agrees_with_reference(alpha, partition, checkpoints)


@pytest.mark.parametrize("alpha,pre,period", [
    (F(1, 32), 5, 1),  # the orbit reaches 0 and stays
    (F(1, 48), 4, 2),
    (F(1, 56), 3, 3),
])
def test_short_periods_at_every_horizon(alpha, pre, period):
    """Periods 1, 2 and 3 are the edge cases of the spacing wrap, which
    reads the period's first two steps after its last ones."""
    assert doubling_period(alpha) == (pre, period)
    limit = pre + 5 * period + 3
    for horizon in range(1, limit + 1):
        fivesixth_agrees_with_reference(alpha, horizon)
    scan_agrees_with_reference(alpha, CellPartition.dyadic(4), list(range(1, limit + 1)))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2), max_size=4),
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4),
    st.data(),
)
def test_spacing_and_counts_fold_from_one_period(pre_codes, period_codes, data):
    """On any code sequence, a preperiod then a repeating period, the counts
    folded from the walk equal those of the sequence written out to the
    horizon."""
    walk = bytes(pre_codes + period_codes)
    pre = len(pre_codes)
    horizon = data.draw(st.integers(min_value=1, max_value=len(walk) + 5 * len(period_codes)))
    walk = walk[:horizon]
    full = (pre_codes + period_codes * horizon)[:horizon]
    whole, end = _fold(len(walk), pre, horizon)
    for code in (0, 1, 2):
        assert walk[:end].count(code) + whole * walk[pre:].count(code) == full.count(code)
