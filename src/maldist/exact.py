"""Exact rational plumbing shared by every module.

All quantities in this package are arbitrary-precision rationals
(`fractions.Fraction`); nothing downstream is allowed to round.  This module
holds the serialization conventions ("p/q" strings in JSON, decimal strings
for display only) and a few small numeric helpers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "RationalParseError",
    "parse_rational",
    "format_rational",
    "format_ratio",
    "decimal_str",
    "decimal_ratio",
    "mod1",
    "binary_digits",
    "is_dyadic",
    "over_lcm",
]

_RATIONAL_RE = re.compile(
    r"""^\s*(?P<sign>[-+]?)
        (?P<int>\d+)
        (?:(?P<slash>/)(?P<den>\d+)|\.(?P<frac>\d+))?
        \s*$""",
    re.VERBOSE,
)


class RationalParseError(ValueError):
    """Raised for malformed rational literals; carries the bad text and position."""

    def __init__(self, text: str, position: int, reason: str):
        self.text = text
        self.position = position
        self.reason = reason
        super().__init__(f"bad rational {text!r} at position {position}: {reason}")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer, or a plain decimal string into an exact Fraction.

    Decimal input is exact (no binary float involved).  Anything else is
    rejected with the offset of the first offending character.
    """
    if not isinstance(text, str):
        raise RationalParseError(repr(text), 0, "not a string")
    m = _RATIONAL_RE.match(text)
    if m is None:
        stripped = text.lstrip()
        pos = len(text) - len(stripped)
        for i, ch in enumerate(stripped):
            if not (ch.isdigit() or ch in "+-./"):
                pos += i
                break
        raise RationalParseError(text, pos, "expected 'p/q', integer or decimal")
    sign = -1 if m.group("sign") == "-" else 1
    if m.group("slash"):
        den = int(m.group("den"))
        if den == 0:
            raise RationalParseError(text, m.start("den"), "zero denominator")
        return Fraction(sign * int(m.group("int")), den)
    if m.group("frac") is not None:
        frac = m.group("frac")
        scale = 10 ** len(frac)
        return Fraction(sign * (int(m.group("int")) * scale + int(frac)), scale)
    return Fraction(sign * int(m.group("int")))


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" form (denominator always printed, lowest terms)."""
    f = value if isinstance(value, Fraction) else Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def format_ratio(num: int, den: int) -> str:
    """`format_rational` of num/den (den > 0, need not be reduced), read
    from the two integers without building a Fraction."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def decimal_str(value: Fraction, digits: int = 12) -> str:
    """Decimal rendering with `digits` places, round-half-away-from-zero.

    Presentational only; exact values always travel alongside as "p/q".
    """
    f = value if isinstance(value, Fraction) else Fraction(value)
    return decimal_ratio(f.numerator, f.denominator, digits)


def decimal_ratio(num: int, den: int, digits: int = 12) -> str:
    """`decimal_str` of num/den (den > 0, need not be reduced), in integers.

    A negative `digits` is refused: 10**digits would be a float.
    """
    if digits < 0:
        raise ValueError(f"digits must be nonnegative, got {digits}")
    neg = num < 0
    num = -num if neg else num
    q, r = divmod(num * 10**digits, den)
    if 2 * r >= den:
        q += 1
    whole, frac = divmod(q, 10**digits)
    body = f"{whole}.{frac:0{digits}d}" if digits > 0 else str(whole)
    return "-" + body if neg else body


def mod1(value: Fraction) -> Fraction:
    """Fractional part in [0, 1), exact."""
    f = Fraction(value)
    return f - (f.numerator // f.denominator)


def binary_digits(value: Fraction, length: int) -> tuple[int, ...]:
    """First `length` binary digits a_1..a_L of value in [0, 1), exact.

    For value = p/q the digits are the L-bit binary expansion of
    floor(p * 2^L / q), one integer division, so periodic expansions are
    handled exactly.
    """
    x = Fraction(value)
    if not 0 <= x < 1:
        raise ValueError("binary_digits requires a value in [0, 1)")
    if length <= 0:
        return ()
    bits = (x.numerator << length) // x.denominator
    return tuple(map(int, format(bits, f"0{length}b")))


def is_dyadic(value: Fraction) -> bool:
    den = Fraction(value).denominator
    return den & (den - 1) == 0


def over_lcm(values) -> tuple[list[int], int]:
    """The Fractions as integer numerators over the lcm of their denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den
