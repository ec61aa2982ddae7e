import contextlib
import csv
import io
import random
import sys
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maldist.exact import (
    _SPLIT_BITS,
    RationalParseError,
    _coprime_fraction,
    _int_text,
    _text_int,
    binary_digits,
    csv_text,
    decimal_row,
    format_ratio,
    format_rational,
    mod1,
    parse_ratio,
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


# --- big integers across text: the split kernel ---------------------------------


@contextlib.contextmanager
def int_digit_limit(limit):
    # The kernel splits only with the int/str digit limit lifted (0), as the
    # command line runs; with a limit set it gives `int`'s own conversion.
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


@st.composite
def big_ints(draw):
    """Ints of up to 10^6 bits, sized on a log scale: random bits, 10^k and
    10^k - 1, and values whose low digits hold a long run of zeros, so that
    a lower part of a split needs its leading zeros; either sign."""
    size = draw(st.integers(0, 19))
    bits = min(10**6, draw(st.integers(1 << size, 2 << size)))
    digits = bits * 3 // 10 + 1
    shape = draw(st.sampled_from(["random", "ten", "ten-less-one", "zero-run"]))
    if shape == "ten":
        value = 10**digits
    elif shape == "ten-less-one":
        value = 10**digits - 1
    else:
        value = random.Random(draw(st.integers(0, 2**32))).getrandbits(bits) | 1 << (bits - 1)
        if shape == "zero-run":
            cut = draw(st.integers(0, digits))
            value = value // 10**cut * 10**cut + draw(st.integers(0, 10**3))
    return -value if draw(st.booleans()) else value


@settings(max_examples=60, deadline=None)
@given(big_ints())
def test_split_kernel_writes_and_reads_as_int_does(value):
    with int_digit_limit(0):
        text = int.__repr__(value)
        assert _int_text(value) == text
        digits = text.lstrip("-")
        assert _text_int(digits) == abs(value)
        assert _text_int("000" + digits) == abs(value)
        assert parse_ratio(text + "/" + digits) == (value, abs(value))
        head, tail = digits[: len(digits) // 2] or "0", digits[len(digits) // 2 :]
        assert parse_ratio(f"{head}.{tail}") == (int(head + tail), 10 ** len(tail))
        assert format_ratio(value, abs(value) + 1) == f"{value}/{abs(value) + 1}"


def test_split_kernel_reads_any_unicode_decimal_digit():
    with int_digit_limit(0):
        digits = str(random.Random(7).getrandbits(40_000))
        arabic = digits.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
        assert _text_int(arabic) == int(digits)
        assert parse_ratio("1/" + arabic) == (1, int(digits))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_split_kernel_gives_ints_error_with_a_digit_limit_set():
    value = random.Random(3).getrandbits(20_000)
    with int_digit_limit(0):
        text = str(value)
    with int_digit_limit(4300):
        for ours, theirs, arg in ((_int_text, int.__repr__, value), (_text_int, int, text)):
            with pytest.raises(ValueError) as want:
                theirs(arg)
            with pytest.raises(ValueError) as got:
                ours(arg)
            assert str(got.value) == str(want.value)
        within = random.Random(4).getrandbits(_SPLIT_BITS + 1000)
        assert _int_text(within) == int.__repr__(within)
        assert _text_int(str(within)) == within


@given(st.integers(), st.integers(1, 10**60), st.integers(0, 2**4000))
def test_coprime_fraction_is_the_reduced_fraction(p, q, scale):
    ref = F(p * (scale | 1), q * (scale | 1))
    made = _coprime_fraction(ref.numerator, ref.denominator)
    assert type(made) is F
    assert (made.numerator, made.denominator) == (ref.numerator, ref.denominator)
    assert made == ref and hash(made) == hash(ref) and str(made) == str(ref)
