"""Exact arithmetic on the circle R/Z: points, open intervals, interval
containment, and the multiplication maps x -> n*x mod 1.

Points are plain `Fraction`s confined to [0, 1).  Intervals are open and may
wrap through 0; a wrapping interval with fields (left, right) denotes the arc
(left, 1) union [0, right).  Everything here is pure and immutable, and all
membership/length statements are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import format_rational

__all__ = [
    "TorusInterval",
    "mul_mod1",
    "interval_contains_interval",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class TorusInterval:
    """Open interval on R/Z with exact rational endpoints.

    Non-wrapping: (left, right) with 0 <= left < right <= 1.
    Wrapping:     (left, 1) union [0, right) with 0 < right < left < 1;
                  note 0 is an interior point of the arc.
    Zero-length intervals are rejected at construction.
    """

    left: Fraction
    right: Fraction
    wraps: bool = False

    def __post_init__(self):
        left = Fraction(self.left)
        right = Fraction(self.right)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if self.wraps:
            if not (_ZERO < right < left < _ONE):
                raise ValueError(
                    f"wrapping interval needs 0 < right < left < 1, got ({left}, {right})"
                )
        else:
            if not (_ZERO <= left < right <= _ONE):
                raise ValueError(
                    f"interval needs 0 <= left < right <= 1, got ({left}, {right})"
                )

    @property
    def length(self) -> Fraction:
        if self.wraps:
            return (_ONE - self.left) + self.right
        return self.right - self.left

    def contains(self, x: Fraction) -> bool:
        """Exact membership of a point in [0, 1)."""
        x = Fraction(x)
        return self.contains_residue(x.numerator, x.denominator)

    def contains_residue(self, r: int, q: int) -> bool:
        """Exact membership of the point r/q (q > 0) by cross-multiplication,
        without reducing r/q: for huge q no gcd is run."""
        above = self.left.numerator * q < r * self.left.denominator
        below = r * self.right.denominator < self.right.numerator * q
        return (above or below) if self.wraps else (above and below)

    def lifted(self) -> tuple[Fraction, Fraction]:
        """Endpoints (a, b) of the lift to R with 0 <= a < b <= a + 1."""
        if self.wraps:
            return self.left, self.right + 1
        return self.left, self.right

    def to_json(self) -> dict:
        return {
            "left": format_rational(self.left),
            "right": format_rational(self.right),
            "wraps": self.wraps,
        }


def mul_mod1(n: int, alpha: Fraction) -> Fraction:
    """Fractional part of n*alpha, exact.  Requires n >= 1."""
    if n < 1:
        raise ValueError("multiplier must be a positive integer")
    alpha = Fraction(alpha)
    return Fraction(n * alpha.numerator % alpha.denominator, alpha.denominator)


def interval_contains_interval(outer: TorusInterval, inner: TorusInterval) -> bool:
    """True iff inner is a subset of outer (as open arcs, exact)."""
    ia, ib = inner.lifted()
    oa, ob = outer.lifted()
    for shift in (-1, 0, 1):
        if oa <= ia + shift and ib + shift <= ob:
            return True
    return False
