from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maldist import certificates as certs
from maldist.torus import TorusInterval, interval_contains_interval, mul_mod1
from tests.oracles import midpoint


def test_mul_mod1_integer_product():
    assert mul_mod1(3, F(1, 3)) == 0


def test_mul_mod1_wraps():
    assert mul_mod1(2, F(2, 3)) == F(1, 3)


def test_mul_mod1_order_of_two_mod_17():
    # 2^8 = 1 mod 17, confirmed by exhaustive modular computation.
    value = 1
    for _ in range(8):
        value = (2 * value) % 17
    assert value == 1
    assert mul_mod1(256, F(1, 17)) == F(1, 17)


def test_mul_mod1_rejects_nonpositive():
    with pytest.raises(ValueError):
        mul_mod1(0, F(1, 2))


def test_interval_length_examples():
    assert TorusInterval(F(1, 4), F(3, 4)).length == F(1, 2)
    assert TorusInterval(F(4, 5), F(1, 10), wraps=True).length == F(3, 10)
    assert TorusInterval(F(1, 3), F(1, 2)).length == F(1, 6)


def test_wrapping_membership_includes_zero():
    iv = TorusInterval(F(4, 5), F(1, 10), wraps=True)
    assert iv.contains(F(0))
    assert iv.contains(F(9, 10))
    assert iv.contains(F(1, 20))
    assert not iv.contains(F(1, 10))
    assert not iv.contains(F(1, 2))


def test_degenerate_interval_rejected():
    with pytest.raises(ValueError):
        TorusInterval(F(1, 2), F(1, 2))


rationals01 = st.fractions(min_value=0, max_value=1, max_denominator=64)


@settings(max_examples=80, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=12),
    b=st.integers(min_value=1, max_value=12),
    alpha=rationals01.filter(lambda x: x < 1),
)
def test_mul_semigroup(a, b, alpha):
    assert mul_mod1(a * b, alpha) == mul_mod1(a, mul_mod1(b, alpha))


def test_wrapping_midpoint_lands_on_zero():
    # The arc midpoint the chain tests compare alpha against.
    iv = TorusInterval(F(19, 20), F(1, 20), wraps=True)
    mid = midpoint(iv)
    assert mid == 0
    assert iv.contains(mid)


def test_contains_interval_wrap_cases():
    outer = TorusInterval(F(7, 10), F(2, 10), wraps=True)
    inner = TorusInterval(F(8, 10), F(1, 10), wraps=True)
    assert interval_contains_interval(outer, inner)
    assert not interval_contains_interval(inner, outer)
    plain = TorusInterval(F(75, 100), F(95, 100))
    assert interval_contains_interval(outer, plain)
    assert not interval_contains_interval(plain, outer)


def test_json_round_trip():
    # Certificates read an interval back through their declared input field.
    iv = TorusInterval(F(4, 5), F(1, 10), wraps=True)
    assert iv.to_json() == {"left": "4/5", "right": "1/10", "wraps": True}
    assert certs._INTERVAL.parse(iv.to_json()) == iv
