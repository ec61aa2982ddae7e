"""Exact arithmetic on the circle R/Z: points, open intervals, and the
multiplication maps x -> n*x mod 1 together with their interval preimages.

Points are plain `Fraction`s confined to [0, 1).  Intervals are open and may
wrap through 0; a wrapping interval with fields (left, right) denotes the arc
(left, 1) union [0, right).  Everything here is pure and immutable, and all
membership/length statements are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import format_rational, mod1, parse_rational

__all__ = [
    "TorusInterval",
    "mul_mod1",
    "preimage_intervals",
    "intervals_disjoint",
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

    def midpoint(self) -> Fraction:
        """Arc midpoint, reduced to [0, 1)."""
        return mod1(self.left + self.length / 2)

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

    @classmethod
    def from_json(cls, obj: dict) -> "TorusInterval":
        return cls(
            parse_rational(obj["left"]),
            parse_rational(obj["right"]),
            bool(obj.get("wraps", False)),
        )

    @classmethod
    def from_lift(cls, a: Fraction, b: Fraction) -> "TorusInterval":
        """Interval from a lifted pair with 0 <= a < b <= a + 1 <= 2."""
        a, b = Fraction(a), Fraction(b)
        if not (_ZERO <= a < b <= a + 1) or b - a >= 1:
            raise ValueError("lift must satisfy 0 <= a < b < a + 1")
        if b <= _ONE:
            return cls(a, b)
        return cls(a, b - 1, wraps=True)


def mul_mod1(n: int, alpha: Fraction) -> Fraction:
    """Fractional part of n*alpha, exact.  Requires n >= 1."""
    if n < 1:
        raise ValueError("multiplier must be a positive integer")
    alpha = Fraction(alpha)
    return Fraction(n * alpha.numerator % alpha.denominator, alpha.denominator)


def preimage_intervals(n: int, target: TorusInterval) -> list[TorusInterval]:
    """The n disjoint intervals {x : n*x mod 1 in target}, each of length
    length(target)/n, ordered by left endpoint of their lift."""
    if n < 1:
        raise ValueError("multiplier must be a positive integer")
    if target.length <= 0:
        raise ValueError("target interval must have positive length")
    a, b = target.lifted()
    out = []
    for j in range(n):
        out.append(TorusInterval.from_lift(Fraction(a + j, n), Fraction(b + j, n)))
    return out


def _arcs(interval: TorusInterval) -> list[tuple[Fraction, Fraction]]:
    # Half-open/open distinction is irrelevant for disjointness of open sets;
    # represent the wrapping arc as two plain pieces.
    if interval.wraps:
        return [(interval.left, _ONE), (_ZERO, interval.right)]
    return [(interval.left, interval.right)]


def intervals_disjoint(first: TorusInterval, second: TorusInterval) -> bool:
    """True iff the two open arcs share no point (endpoint contact allowed)."""
    for a0, a1 in _arcs(first):
        for b0, b1 in _arcs(second):
            if a0 < b1 and b0 < a1:
                return False
    return True


def interval_contains_interval(outer: TorusInterval, inner: TorusInterval) -> bool:
    """True iff inner is a subset of outer (as open arcs, exact)."""
    ia, ib = inner.lifted()
    oa, ob = outer.lifted()
    for shift in (-1, 0, 1):
        if oa <= ia + shift and ib + shift <= ob:
            return True
    return False
