"""Orbits of the doubling map T: x -> 2x mod 1 and the exact finite-horizon
facts about their empirical measures.

Covers dyadic points given by their binary digits, orbits as residues over
one denominator, exact invariance defects of orbit segments, the 5/6
density cap for hits of the widened middle interval along (2^k + 1)-orbits
of small points, and the density-1 hitting counts for points whose binary
expansion carries long zero blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import mod1
from .empirical import CellPartition, Residues, _cell_indices

__all__ = [
    "BinaryPoint",
    "OrbitHitReport",
    "WindowDensity",
    "doubling_orbit",
    "invariance_defect",
    "five_sixth_check",
    "zero_block_density",
    "doubling_period",
]


@dataclass(frozen=True)
class BinaryPoint:
    """The dyadic rational with binary digits a_1 a_2 ... a_L: sum a_j 2^-j,
    every digit beyond L being 0."""

    digits: tuple[int, ...]

    def __post_init__(self):
        if len(self.digits) < 1:
            raise ValueError("need at least one digit")
        if any(d not in (0, 1) for d in self.digits):
            raise ValueError("digits must be bits")

    @property
    def value(self) -> Fraction:
        return Fraction(int("".join(map(str, self.digits)), 2), 1 << len(self.digits))


def doubling_orbit(alpha: Fraction, steps: int) -> Residues:
    """T^k(alpha) for k = 1..steps, exact, as the residues over q: with
    alpha = p/q mod 1 they iterate by modular doubling r -> 2r mod q."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    v = mod1(Fraction(alpha))
    r, q = v.numerator, v.denominator
    out = []
    for _ in range(steps):
        r = 2 * r % q
        out.append(r)
    return Residues(out, q)


def doubling_period(alpha: Fraction) -> tuple[int, int]:
    """(preperiod, period) of the doubling orbit of a rational point."""
    alpha = mod1(Fraction(alpha))
    den = alpha.denominator
    pre = 0
    while den % 2 == 0:
        den //= 2
        pre += 1
    if den == 1:
        return (pre, 1)
    k, p = 2 % den, 1
    while k != 1:
        k = (2 * k) % den
        p += 1
    return (pre, p)


def invariance_defect(points: Residues, partition: CellPartition) -> Fraction:
    """Max over cells A of |freq(A) - freq(T^{-1}A)| for the segment's
    empirical measure; exactly 0 on full periods of a periodic orbit.

    Membership in T^{-1}A is decided exactly by doubling each point, so the
    defect is exact; the partition must be dyadic (cut points k/2^L), the
    only family under which the comparison is meaningful cell by cell.
    """
    if not points:
        raise ValueError("empty orbit segment")
    if not partition.is_dyadic():
        raise ValueError("partition cut points must be dyadic rationals")
    counts = [0] * partition.size
    nums, q = points.nums, points.den
    bounds = partition.thresholds(q)[1:]
    for c in _cell_indices(nums, bounds, q):
        counts[c] += 1
    for c in _cell_indices([2 * r % q for r in nums], bounds, q):
        counts[c] -= 1
    return Fraction(max(abs(c) for c in counts), len(points))


@dataclass(frozen=True)
class OrbitHitReport:
    """Exact hit counts of a target arc along an orbit segment."""

    horizon: int
    hits: int
    density: Fraction
    minus_hits: int
    plus_hits: int
    density_bound: Fraction
    bound_ok: bool
    spacing_ok: bool


def five_sixth_check(alpha: Fraction, horizon: int) -> OrbitHitReport:
    """Count k <= horizon with (2^k + 1)*alpha mod 1 in the widened interval
    I' = (1/2 - alpha/3, 3/4 + alpha/3); requires 0 < alpha < 1/16.

    Equivalently 2^k * alpha must land in I' - alpha, whose two halves
    I- = (1/2 - 4a/3, 1/2] and I+ = (1/2, 3/4 - 2a/3) exclude their own
    near-future: a hit of I- blocks the next two k from I-, a hit of I+
    blocks the next k from I+.  That spacing caps the count at
    5/6 * horizon + O(1); the report asserts density <= 5/6 + 3/horizon and
    verifies the spacing patterns k,k+1 / k,k+2 in I- and k,k+1 in I+
    exactly along the orbit.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < Fraction(1, 16):
        raise ValueError("alpha must lie in (0, 1/16)")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    # With alpha = p/q and v = 2^k alpha = r/q, the intervals in integers:
    # I-: 6r > 3q - 8p and 2r <= q; I+: 2r > q and 12r < 9q - 8p;
    # I' holds s = (r + p) mod q iff 6s > 3q - 2p and 12s < 9q + 4p.
    p, q = alpha.numerator, alpha.denominator
    minus_flags = []
    plus_flags = []
    hits = 0
    r = p
    for k in range(1, horizon + 1):
        r = 2 * r % q
        shifted = (r + p) % q
        in_minus = 6 * r > 3 * q - 8 * p and 2 * r <= q
        in_plus = 2 * r > q and 12 * r < 9 * q - 8 * p
        in_wide = 6 * shifted > 3 * q - 2 * p and 12 * shifted < 9 * q + 4 * p
        if in_wide != (in_minus or in_plus):
            raise AssertionError("shifted-orbit identity failed")  # unreachable
        minus_flags.append(in_minus)
        plus_flags.append(in_plus)
        if in_minus or in_plus:
            hits += 1
    spacing_ok = True
    for k in range(horizon):
        if minus_flags[k]:
            if k + 1 < horizon and minus_flags[k + 1]:
                spacing_ok = False
            if k + 2 < horizon and minus_flags[k + 2]:
                spacing_ok = False
        if plus_flags[k] and k + 1 < horizon and plus_flags[k + 1]:
            spacing_ok = False
    density = Fraction(hits, horizon)
    bound = Fraction(5, 6) + Fraction(3, horizon)
    return OrbitHitReport(
        horizon=horizon,
        hits=hits,
        density=density,
        minus_hits=sum(minus_flags),
        plus_hits=sum(plus_flags),
        density_bound=bound,
        bound_ok=density <= bound,
        spacing_ok=spacing_ok,
    )


@dataclass(frozen=True)
class WindowDensity:
    window_end: int
    hits: int
    density: Fraction


def zero_block_density(point: BinaryPoint, windows: list[int]) -> list[WindowDensity]:
    """Per-window hit densities of (2^k + 1)*point mod 1 in the target arc
    (1/2, 3/4) for k = 1..N, N running over the window ends.

    Inside a zero block of the expansion the shifted point vanishes, so the
    sum collapses to the point itself, which lies in the target; the window
    densities therefore approach 1 as the blocks lengthen.  Digit shifts are
    exact (the point is a dyadic rational); windows must be increasing.
    """
    if not windows or any(a >= b for a, b in zip(windows, windows[1:])):
        raise ValueError("window ends must be strictly increasing and nonempty")
    if windows[0] < 1:
        raise ValueError("window ends must be positive")
    # The point is num/2^L, and 2^k point mod 1 = (num << k mod 2^L)/2^L (0
    # once k >= L), so (2^k + 1) point mod 1 = s/2^L with the integer s
    # below; s/2^L > 1/2 iff s > floor(2^L/2), and s/2^L < 3/4 iff
    # s < ceil(3 * 2^L/4).
    length = len(point.digits)
    scale = 1 << length
    alpha = point.value
    num = alpha.numerator * (scale // alpha.denominator)
    lo = scale // 2
    hi = -(-3 * scale // 4)
    if not lo < num < hi:
        raise ValueError("the point itself must lie in the target arc")
    out = []
    hits = 0
    k = 0
    for end in windows:
        while k < end:
            k += 1
            s = ((num << k) + num) & (scale - 1) if k < length else num
            if lo < s < hi:
                hits += 1
        out.append(WindowDensity(window_end=end, hits=hits, density=Fraction(hits, end)))
    return out
