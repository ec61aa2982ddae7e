from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maldist import certificates as certs
from maldist.torus import TorusInterval
from tests.oracles import (
    fraction_contains,
    fraction_contains_interval,
    fraction_mul_mod1,
    interval_json,
)


def residue(n: int, alpha: F) -> tuple[int, int]:
    """n*alpha mod 1 in the residue form the certificate builders use."""
    return n * alpha.numerator % alpha.denominator, alpha.denominator


def test_mul_mod1_integer_product():
    r, q = residue(3, F(1, 3))
    assert F(r, q) == fraction_mul_mod1(3, F(1, 3)) == 0
    # 0 is an end of (0, 1/10), not a point of the open interval.
    assert not TorusInterval(F(0), F(1, 10)).contains_residue(r, q)
    assert not TorusInterval(F(1, 10), F(1)).contains_residue(r, q)


def test_mul_mod1_wraps():
    r, q = residue(2, F(2, 3))
    assert F(r, q) == fraction_mul_mod1(2, F(2, 3)) == F(1, 3)
    assert TorusInterval(F(1, 4), F(1, 2)).contains_residue(r, q)
    assert not TorusInterval(F(1, 2), F(1)).contains_residue(r, q)


def test_mul_mod1_order_of_two_mod_17():
    # 2^8 = 1 mod 17, confirmed by exhaustive modular computation.
    value = 1
    for _ in range(8):
        value = (2 * value) % 17
    assert value == 1
    assert residue(256, F(1, 17)) == (1, 17)
    assert fraction_mul_mod1(256, F(1, 17)) == F(1, 17)
    assert TorusInterval(F(1, 18), F(1, 16)).contains_residue(*residue(256, F(1, 17)))


def test_interval_length_examples():
    assert TorusInterval(F(1, 4), F(3, 4)).length == F(1, 2)
    assert TorusInterval(F(1, 3), F(1, 2)).length == F(1, 6)


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
    r, q = residue(a * b, alpha)
    assert r == a * residue(b, alpha)[0] % q
    point = fraction_mul_mod1(a, fraction_mul_mod1(b, alpha))
    assert F(r, q) == fraction_mul_mod1(a * b, alpha) == point
    for iv in (TorusInterval(F(1, 3), F(2, 3)), TorusInterval(F(0), F(1, 6))):
        assert iv.contains_residue(r, q) is fraction_contains(iv, point)


def test_json_round_trip():
    # Certificates write an interval as its ends and read it back through
    # their declared input field as the pair (left, right).
    ends = (F(1, 10), F(4, 5))
    assert certs._INTERVAL.emit(ends) == {"left": "1/10", "right": "4/5", "wraps": False}
    assert certs._INTERVAL.parse(certs._INTERVAL.emit(ends)) == ends


# --- the integer kernels against the Fraction references -------------------------

# Small denominators make shared ends and ends at 0 and 1 common.
ends = st.fractions(min_value=0, max_value=1, max_denominator=12)


@st.composite
def intervals(draw):
    """An interval between two distinct ends."""
    a, b = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    return TorusInterval(a, b)


@settings(max_examples=200, deadline=None)
@given(left=ends, right=ends)
@example(left=F(0), right=F(1))
@example(left=F(1), right=F(1, 2))
@example(left=F(1, 2), right=F(1, 2))
@example(left=F(1), right=F(1))
def test_interval_ends_ordered_as_by_fractions(left, right):
    # The construction's intervals and the verifier's interval reader hold
    # the ends to the same order, with the same refusal.
    echoed = {"left": f"{left.numerator}/{left.denominator}",
              "right": f"{right.numerator}/{right.denominator}", "wraps": False}
    if 0 <= left < right <= 1:
        iv = TorusInterval(left, right)
        assert iv.length == right - left
        assert certs._INTERVAL.emit((iv.left, iv.right)) == interval_json(iv) == echoed
        assert certs._INTERVAL.parse(echoed) == (left, right)
        return
    text = f"interval needs 0 <= left < right <= 1, got ({left}, {right})"
    with pytest.raises(ValueError) as err:
        TorusInterval(left, right)
    assert str(err.value) == text
    with pytest.raises(certs._Refused) as refused:
        certs._INTERVAL.parse(echoed)
    assert refused.value.reason == text


def test_interval_ends_become_fractions():
    iv = TorusInterval(0, 1)
    assert type(iv.left) is F and type(iv.right) is F
    assert iv == TorusInterval(F(0), F(1))


@settings(max_examples=150, deadline=None)
@given(iv=intervals(), x=ends.filter(lambda v: v < 1), scale=st.integers(1, 10**12))
@example(iv=TorusInterval(F(0), F(1, 3)), x=F(0), scale=5)
def test_contains_residue_matches_fraction_contains(iv, x, scale):
    # The residue r/q is read unreduced, as k*r over k*q.
    r, q = x.numerator * scale, x.denominator * scale
    assert iv.contains_residue(r, q) is fraction_contains(iv, x)
    assert certs._holds((iv.left, iv.right), r, q) is fraction_contains(iv, x)


@settings(max_examples=250, deadline=None)
@given(outer=intervals(), inner=intervals())
@example(outer=TorusInterval(F(0), F(1)), inner=TorusInterval(F(0), F(1)))
def test_contains_interval_matches_fraction_reference(outer, inner):
    # The verifier's nesting test on the intervals' ends.
    nested = certs._nested((outer.left, outer.right), (inner.left, inner.right))
    assert nested is fraction_contains_interval(outer, inner)
