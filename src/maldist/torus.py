"""Exact open intervals in [0, 1) and the points they contain.

Points of the circle R/Z are residues r/q in [0, 1), tested against an
interval by cross-multiplication (`TorusInterval.contains_residue`); the
point n*alpha mod 1 of alpha = p/q is the residue n*p mod q.  No interval
wraps through 0: the constructions steer into targets, cells and chain
intervals of [0, 1).  Everything here is pure, immutable and exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["TorusInterval"]


@dataclass(frozen=True)
class TorusInterval:
    """Open interval (left, right), 0 <= left < right <= 1, with exact
    rational ends, ordered by cross-multiplying their numerators and
    denominators.  Zero-length intervals are rejected at construction."""

    left: Fraction
    right: Fraction

    def __post_init__(self):
        left, right = self.left, self.right
        if not isinstance(left, Fraction):
            left = Fraction(left)
            object.__setattr__(self, "left", left)
        if not isinstance(right, Fraction):
            right = Fraction(right)
            object.__setattr__(self, "right", right)
        ln, ld, rn, rd = left.numerator, left.denominator, right.numerator, right.denominator
        if not (0 <= ln and ln * rd < rn * ld and rn <= rd):
            raise ValueError(f"interval needs 0 <= left < right <= 1, got ({left}, {right})")

    @property
    def length(self) -> Fraction:
        return self.right - self.left

    def contains_residue(self, r: int, q: int) -> bool:
        """Exact membership of the point r/q (q > 0) by cross-multiplication,
        without reducing r/q: for huge q no gcd is run."""
        return (self.left.numerator * q < r * self.left.denominator
                and r * self.right.denominator < self.right.numerator * q)
