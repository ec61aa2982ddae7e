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
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
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
        if sep == "/":
            den = int(tail)
            if den == 0:
                raise RationalParseError(text, text.index("/") + 1, "zero denominator")
            num = int(head)
        elif sep:
            den = 10 ** len(tail)
            num = int(head) * den + int(tail)
        else:
            num, den = int(head), 1
        return (-num if negative else num), den
    stripped = text.lstrip()
    pos = len(text) - len(stripped)
    for i, ch in enumerate(stripped):
        if not (ch.isdigit() or ch in "+-./"):
            pos += i
            break
    raise RationalParseError(text, pos, "expected 'p/q', integer or decimal")


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" form (denominator always printed, lowest terms)."""
    f = value if isinstance(value, Fraction) else Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def format_ratio(num: int, den: int) -> str:
    """`format_rational` of num/den (den > 0, need not be reduced), read
    from the two integers without building a Fraction."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


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
