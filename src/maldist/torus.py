"""Exact open intervals on the circle R/Z and their containment.

Points of the circle are residues r/q in [0, 1), tested against an interval
by cross-multiplication (`TorusInterval.contains_residue`); the point
n*alpha mod 1 of alpha = p/q is the residue n*p mod q.  Intervals are open
and may wrap through 0; a wrapping interval with fields (left, right)
denotes the arc (left, 1) union [0, right).  Everything here is pure and
immutable, and all membership/length statements are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import format_rational

__all__ = [
    "TorusInterval",
    "interval_contains_interval",
]

_ONE = Fraction(1)


@dataclass(frozen=True)
class TorusInterval:
    """Open interval on R/Z with exact rational endpoints.

    Non-wrapping: (left, right) with 0 <= left < right <= 1.
    Wrapping:     (left, 1) union [0, right) with 0 < right < left < 1;
                  note 0 is an interior point of the arc.
    Zero-length intervals are rejected at construction.  The ends are
    ordered by cross-multiplying their numerators and denominators.
    """

    left: Fraction
    right: Fraction
    wraps: bool = False

    def __post_init__(self):
        left, right = self.left, self.right
        if not isinstance(left, Fraction):
            left = Fraction(left)
            object.__setattr__(self, "left", left)
        if not isinstance(right, Fraction):
            right = Fraction(right)
            object.__setattr__(self, "right", right)
        ln, ld, rn, rd = left.numerator, left.denominator, right.numerator, right.denominator
        if self.wraps:
            if not (0 < rn and rn * ld < ln * rd and ln < ld):
                raise ValueError(
                    f"wrapping interval needs 0 < right < left < 1, got ({left}, {right})"
                )
        elif not (0 <= ln and ln * rd < rn * ld and rn <= rd):
            raise ValueError(
                f"interval needs 0 <= left < right <= 1, got ({left}, {right})"
            )

    @property
    def length(self) -> Fraction:
        if self.wraps:
            return (_ONE - self.left) + self.right
        return self.right - self.left

    def contains_residue(self, r: int, q: int) -> bool:
        """Exact membership of the point r/q (q > 0) by cross-multiplication,
        without reducing r/q: for huge q no gcd is run."""
        above = self.left.numerator * q < r * self.left.denominator
        below = r * self.right.denominator < self.right.numerator * q
        return (above or below) if self.wraps else (above and below)

    def to_json(self) -> dict:
        return {
            "left": format_rational(self.left),
            "right": format_rational(self.right),
            "wraps": self.wraps,
        }


def interval_contains_interval(outer: TorusInterval, inner: TorusInterval) -> bool:
    """True iff inner is a subset of outer (as open arcs, exact).

    Each arc lifts to (a, b) in R with 0 <= a < b <= a + 1, b = right + 1
    for a wrapping arc; inner lies in outer iff some shift s in {-1, 0, 1}
    gives a_out <= a_in + s and b_in + s <= b_out.  Both comparisons are
    made on numerators and denominators, cross-multiplied.
    """
    oan, oad = outer.left.numerator, outer.left.denominator
    obn, obd = outer.right.numerator, outer.right.denominator
    ian, iad = inner.left.numerator, inner.left.denominator
    ibn, ibd = inner.right.numerator, inner.right.denominator
    if outer.wraps:
        obn += obd
    if inner.wraps:
        ibn += ibd
    # a_out <= a_in + s iff lo <= s * left_den; b_in + s <= b_out iff s * right_den <= hi.
    lo, left_den = oan * iad - ian * oad, iad * oad
    hi, right_den = obn * ibd - ibn * obd, ibd * obd
    return any(lo <= s * left_den and s * right_den <= hi for s in (-1, 0, 1))
