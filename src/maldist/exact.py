"""Exact rational plumbing shared by every module.

All quantities in this package are arbitrary-precision rationals
(`fractions.Fraction`, or integer numerators over a shared denominator);
nothing downstream is allowed to round.  This module holds the serialization
conventions ("p/q" strings in JSON, decimal strings for display only), each
written from a Fraction (`format_rational`), from the integers num/den
(`format_ratio`), or as a row of numerators over one denominator in one pass
(`ratio_row`, and `decimal_row` with 12 places), and the CSV text of such
rows (`csv_text`), which every CSV table is printed with; and a few small
numeric helpers.
A binary digit string is the bytes of its digit values from `binary_digits`
to a certificate's reader; `_BIT_CHARS` and `_BIT_VALUES` write and read it.

Big integers cross text by one split kernel: `_int_text` writes an int of
more than `_SPLIT_BITS` bits, and `_text_int` reads a digit run of more than
`_SPLIT_DIGITS` digits, by splitting the digits at powers of ten 10^k,
k = _LEAF_DIGITS * 2^m, each formed once (`_ten_to`).  `int.__repr__` and
`int` take time quadratic in the digits on CPython 3.10 and 3.11; on 3.11
the split writes 28% faster at 14,700 bits and 40% at 235,000, and reads
14% faster at 4,400 digits and 65% at 70,000.  `format_rational`, `format_ratio` and `parse_ratio` take it past one length
guard, and smaller values keep the single f-string or `int`.  With a digit
limit set (`sys.set_int_max_str_digits`), both give `int`'s own conversion
and ValueError.  `_coprime_fraction` builds the Fraction of integers already
in lowest terms without a second gcd.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cache
from itertools import repeat
from math import gcd, lcm

__all__ = [
    "RationalParseError",
    "parse_rational",
    "parse_ratio",
    "format_rational",
    "format_ratio",
    "ratio_row",
    "decimal_row",
    "csv_text",
    "mod1",
    "binary_digits",
    "over_lcm",
]


class RationalParseError(ValueError):
    """Raised for malformed rational literals; carries the bad text and position."""

    def __init__(self, text: str, position: int, reason: str):
        self.text = text
        self.position = position
        self.reason = reason
        super().__init__(f"bad rational {text!r} at position {position}: {reason}")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer or a plain decimal string into an exact
    Fraction; decimal input is exact (no binary float is involved).

    The accepted grammar, a space being a character `str.isspace` accepts
    and a digit one `str.isdecimal` accepts (any Unicode decimal digit):

        text   = space* sign? digits ("/" digits | "." digits)? space*
        sign   = "+" | "-"
        digits = digit+

    A zero denominator fails at the offset of its first digit.  Any other
    text fails at the offset of the first character after its leading
    spaces that is neither a `str.isdigit` character nor one of "+-./", or
    at the end of those spaces when there is none; a value that is not a
    `str` fails at offset 0.  Digits past the interpreter's int/str limit
    raise `int`'s ValueError.
    """
    return Fraction(*parse_ratio(text))


def parse_ratio(text: str) -> tuple[int, int]:
    """The integers (p, q), q > 0, of the text `parse_rational` reads, as
    written and not reduced: "2/4" reads (2, 4), "-0.25" (-25, 100) and "7"
    (7, 1).  It fails as `parse_rational` does."""
    if not isinstance(text, str):
        raise RationalParseError(repr(text), 0, "not a string")
    body = text.strip()
    negative = body[:1] == "-"
    if negative or body[:1] == "+":
        body = body[1:]
    head, sep, tail = body.partition("/")
    if not sep:
        head, sep, tail = body.partition(".")
    if head.isdecimal() and (tail.isdecimal() or not sep):
        read = int if len(body) <= _SPLIT_DIGITS else _text_int
        if sep == "/":
            den = read(tail)
            if den == 0:
                raise RationalParseError(text, text.index("/") + 1, "zero denominator")
            num = read(head)
        elif sep:
            den = 10 ** len(tail)
            num = read(head) * den + read(tail)
        else:
            num, den = read(head), 1
        return (-num if negative else num), den
    stripped = text.lstrip()
    pos = len(text) - len(stripped)
    for i, ch in enumerate(stripped):
        if not (ch.isdigit() or ch in "+-./"):
            pos += i
            break
    raise RationalParseError(text, pos, "expected 'p/q', integer or decimal")


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" form (denominator always printed, lowest terms); a
    denominator of more than `_SPLIT_BITS` bits is written with its
    numerator by `_int_text`."""
    f = value if isinstance(value, Fraction) else Fraction(value)
    p, q = f.numerator, f.denominator
    if q.bit_length() > _SPLIT_BITS:
        return _int_text(p) + "/" + _int_text(q)
    return f"{p}/{q}"


def format_ratio(num: int, den: int) -> str:
    """`format_rational` of num/den (den > 0, need not be reduced), read
    from the two integers without building a Fraction."""
    g = gcd(num, den)
    num, den = num // g, den // g
    if den.bit_length() > _SPLIT_BITS:
        return _int_text(num) + "/" + _int_text(den)
    return f"{num}/{den}"


def ratio_row(nums: Sequence[int], den: int) -> list[str]:
    """`format_ratio(num, den)` of each num in nums over the one denominator
    den > 0, in one pass: one `gcd` map, then each reduced pair."""
    return [f"{num // g}/{den // g}" for num, g in zip(nums, map(gcd, nums, repeat(den)))]


# Every displayed decimal has 12 places.
_SCALE = 10**12


def decimal_row(nums: Sequence[int], den: int) -> list[str]:
    """Decimal renderings of num/den for each num in nums over the one
    denominator den > 0 (need not be reduced), with 12 places,
    round-half-away-from-zero, in integers: |num|/den rounds to the floor
    division (2*|num|*10**12 + den) // (2*den), printed with its point.

    Presentational only; exact values always travel alongside as "p/q".
    """
    twice = 2 * den
    texts = ["%d.%012d" % divmod((2 * abs(num) * _SCALE + den) // twice, _SCALE) for num in nums]
    if nums and min(nums) < 0:
        return ["-" + text if num < 0 else text for num, text in zip(nums, texts)]
    return texts


def csv_text(rows: Iterable[Sequence[str]]) -> str:
    """The CSV lines, each ended by "\\n", of rows of column names and
    number texts ("p/q", decimals, integers): none holds a comma, a quote or
    a line break, so no field is quoted, and the text is what `csv.writer`
    writes for them."""
    return "".join([",".join(row) + "\n" for row in rows])


# Past these sizes the split kernel writes an int, or reads a digit run, in
# less time than `int.__repr__` or `int` (CPython 3.11, this kernel's leaves
# of up to 2 * _LEAF_DIGITS digits).
_SPLIT_BITS = 4000
_SPLIT_DIGITS = 3000
_LEAF_DIGITS = 600
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


@cache
def _ten_to(k: int) -> int:
    """10^k, formed once per k: the split kernel uses k = _LEAF_DIGITS * 2^m."""
    return 10**k


def _int_text(n: int) -> str:
    """`int.__repr__(n)`: past `_SPLIT_BITS` bits, with no digit limit set,
    the texts of the two parts of n split at 10^k, for the smallest k of the
    kernel's with n < 10^(2k), written the same way down to leaves of up to
    2 * _LEAF_DIGITS digits and joined once."""
    if n.bit_length() <= _SPLIT_BITS or _digit_limit():
        return int.__repr__(n)
    if n < 0:
        return "-" + _int_text(-n)
    k = _LEAF_DIGITS
    while n >= _ten_to(2 * k):
        k *= 2
    parts: list[str] = []
    _split_into(n, k, parts)
    return "".join(parts)


def _split_into(n: int, k: int, parts: list[str]) -> None:
    """Append the digits of 0 <= n < 10^(2k) to parts: all 2k of them, with
    leading zeros, once parts holds the leading digits, else from n's first."""
    if k <= _LEAF_DIGITS:
        parts.append("%0*d" % (2 * k, n) if parts else int.__repr__(n))
        return
    hi, lo = divmod(n, _ten_to(k))
    k >>= 1
    if hi or parts:
        _split_into(hi, k, parts)
    _split_into(lo, k, parts)


def _text_int(text: str) -> int:
    """`int(text)` of a run of decimal digits: past `_SPLIT_DIGITS` digits,
    with no digit limit set, the value of its leading digits times 10^k plus
    that of its last k, the kernel's largest k below its length, each read
    the same way."""
    if len(text) <= _SPLIT_DIGITS or _digit_limit():
        return int(text)
    return _join_digits(text)


def _join_digits(text: str) -> int:
    """`_text_int`'s split, with no size guard."""
    if len(text) <= 2 * _LEAF_DIGITS:
        return int(text)
    k = _LEAF_DIGITS
    while 2 * k < len(text):
        k *= 2
    return _join_digits(text[:-k]) * _ten_to(k) + _join_digits(text[-k:])


if sys.version_info >= (3, 12):
    _coprime_fraction = Fraction._from_coprime_ints
else:
    def _coprime_fraction(p: int, q: int) -> Fraction:
        """The Fraction p/q of coprime p and q > 0, without a gcd."""
        return Fraction(p, q, _normalize=False)


def mod1(value: Fraction) -> Fraction:
    """Fractional part in [0, 1), exact."""
    f = Fraction(value)
    return f - (f.numerator // f.denominator)


_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def binary_digits(value: Fraction, length: int) -> bytes:
    """First `length` binary digits a_1..a_L of value in [0, 1), exact, as bytes.

    For value = p/q the digits are the L-bit binary expansion of
    floor(p * 2^L / q), one integer division, so periodic expansions are
    handled exactly.
    """
    x = Fraction(value)
    if not 0 <= x < 1:
        raise ValueError("binary_digits requires a value in [0, 1)")
    if length <= 0:
        return b""
    bits = (x.numerator << length) // x.denominator
    return format(bits, f"0{length}b").encode().translate(_BIT_VALUES)


def over_lcm(values) -> tuple[list[int], int]:
    """The Fractions as integer numerators over the lcm of their denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den
