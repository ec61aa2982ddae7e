import csv
import io
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maldist.exact import (
    RationalParseError,
    binary_digits,
    csv_text,
    decimal_row,
    format_ratio,
    format_rational,
    mod1,
    parse_rational,
    ratio_row,
)
from tests.oracles import decimal_ratio, is_dyadic


def test_parse_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("7") == 7
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational("  0.1  ") == F(1, 10)  # exact, not a float


def test_parse_rejects_with_position():
    with pytest.raises(RationalParseError) as err:
        parse_rational("5/17x")
    assert err.value.position >= 0
    with pytest.raises(RationalParseError):
        parse_rational("1/0")
    with pytest.raises(RationalParseError):
        parse_rational("")


def test_format_always_shows_denominator():
    assert format_rational(F(1, 2)) == "1/2"
    assert format_rational(F(3)) == "3/1"
    assert format_rational(F(0)) == "0/1"


@given(st.fractions(max_denominator=10**6))
def test_parse_format_round_trip(value):
    assert parse_rational(format_rational(value)) == value


def test_decimal_str_rounding():
    assert decimal_row([1, 2, -1], 3) == ["0.333333333333", "0.666666666667", "-0.333333333333"]
    # Ties round away from zero.
    assert decimal_row([1, -1, 3], 2 * 10**12) == ["0.000000000001", "-0.000000000001",
                                                   "0.000000000002"]
    assert decimal_row([5], 1) == ["5.000000000000"]
    assert decimal_row([-1, 0], 10**15) == ["-0.000000000000", "0.000000000000"]
    assert decimal_row([], 7) == []


@given(num=st.integers(-10**20, 10**20), den=st.integers(1, 10**20),
       scale=st.integers(1, 10**6))
def test_decimal_ratio_matches_decimal_half_up(num, den, scale):
    # Independent of the scale of num/den, and equal to `decimal`'s rounding
    # of ties away from zero at ample precision.
    with localcontext() as ctx:
        ctx.prec = 100
        want = (Decimal(num) / Decimal(den)).quantize(Decimal(1).scaleb(-12),
                                                      rounding=ROUND_HALF_UP)
    [text] = decimal_row([num], den)
    assert [text] == decimal_row([num * scale], den * scale)
    assert Decimal(text) == want


# Numerators over one denominator as a CSV row prints them: zero and negative
# ones, denominators that need not be reduced against them, up to 30 digits.
numerator_rows = st.lists(st.one_of(st.integers(-50, 50), st.integers(-10**31, 10**31)),
                          max_size=12)
row_denominators = st.one_of(st.integers(1, 60), st.integers(1, 10**30),
                             st.integers(1, 10**6).map(lambda d: d * 10**24))


@given(numerator_rows, row_denominators)
def test_decimal_row_matches_the_one_value_form(nums, den):
    assert decimal_row(nums, den) == [decimal_ratio(n, den) for n in nums]


@given(numerator_rows, row_denominators)
def test_ratio_row_matches_the_one_value_forms(nums, den):
    row = ratio_row(nums, den)
    assert row == [format_ratio(n, den) for n in nums]
    assert row == [format_rational(F(n, den)) for n in nums]


def test_ratio_rows_of_ranges_and_scales():
    assert ratio_row(range(5), 4) == ["0/1", "1/4", "1/2", "3/4", "1/1"]
    assert ratio_row([-6, 0, 9], 12) == ["-1/2", "0/1", "3/4"]
    assert decimal_row(range(3), 2) == ["0.000000000000", "0.500000000000", "1.000000000000"]


@given(st.lists(st.tuples(numerator_rows.filter(bool), row_denominators), max_size=4))
def test_csv_text_is_what_csv_writer_writes(rows):
    lines = [["N", "freq_0"], *([str(den), *ratio_row(nums, den), *decimal_row(nums, den)]
                                for nums, den in rows)]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(lines)
    assert csv_text(lines) == out.getvalue()


def test_mod1():
    assert mod1(F(7, 3)) == F(1, 3)
    assert mod1(F(-1, 3)) == F(2, 3)
    assert mod1(F(2)) == 0


def test_binary_digits_periodic():
    assert binary_digits(F(1, 3), 6) == b"\0\1\0\1\0\1"
    assert binary_digits(F(5, 8), 5) == b"\1\0\1\0\0"
    with pytest.raises(ValueError):
        binary_digits(F(3, 2), 4)
    with pytest.raises(ValueError):
        binary_digits(F(-1, 3), 4)
    assert binary_digits(F(1, 3), 0) == b""
    assert binary_digits(F(0), 0) == b""


def doubling_digits(value, length):
    """Reference: double a Fraction `length` times, taking the integer parts."""
    x = F(value)
    out = []
    for _ in range(length):
        x *= 2
        d = x.numerator // x.denominator
        out.append(d)
        x -= d
    return bytes(out)


@settings(max_examples=300)
@given(
    st.integers(min_value=1, max_value=10**40).flatmap(
        lambda q: st.tuples(st.integers(min_value=0, max_value=q - 1), st.just(q))
    ),
    st.integers(min_value=-2, max_value=400),
)
def test_binary_digits_match_repeated_doubling(pq, length):
    value = F(*pq)
    assert binary_digits(value, length) == doubling_digits(value, length)


def test_is_dyadic():
    assert is_dyadic(F(3, 8))
    assert not is_dyadic(F(1, 3))
