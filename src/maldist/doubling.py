"""Orbits of the doubling map T: x -> 2x mod 1 and the exact finite-horizon
facts about their empirical measures.

Covers dyadic points given by their binary digits, orbits as residues over
one denominator, checkpoint scans of their prefix measures, exact invariance
defects of orbit segments, the 5/6 density cap for hits of the widened
middle interval along (2^k + 1)-orbits of small points, and the zero-block
points, whose binary expansions carry long zero blocks, with their density-1
window counts along the same orbits.

The orbit of alpha = p/q is r_k = 2^k p mod q over q.  With q = 2^a q' and
q' odd it is periodic from k = max(a, 1) on, with period ord_{q'}(2), so
the listing and the scan walk one preperiod and one period at most, and
so does the 5/6 check, which keeps one code per step and no residue; each
folds its listing or its counts for any horizon from that walk, so that no
walk costs more than the period, whatever the horizon.  The invariance
defect needs only the first point and the one past the horizon.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .exact import _BIT_CHARS, binary_digits, mod1
from .empirical import (
    CellPartition,
    CheckpointScan,
    Residues,
    _checked_checkpoints,
    checkpoint_scan,
)

__all__ = [
    "BinaryPoint",
    "OrbitHitReport",
    "doubling_orbit",
    "doubling_scan",
    "invariance_defect",
    "five_sixth_check",
    "zero_block_alpha",
    "zero_block_density",
    "doubling_period",
]


@dataclass(frozen=True)
class BinaryPoint:
    """The dyadic rational sum a_j 2^-j of the binary digits a_1 ... a_L, held
    as bytes: any other sequence of 0s and 1s is copied into bytes once."""

    digits: bytes

    def __post_init__(self):
        if len(self.digits) < 1:
            raise ValueError("need at least one digit")
        try:  # bytes() refuses an entry that is no int in range(256)
            digits = bytes(self.digits)
        except (TypeError, ValueError):
            raise ValueError("digits must be bits") from None
        if digits.translate(None, b"\0\1"):  # deleting the bits leaves any other digit
            raise ValueError("digits must be bits")
        object.__setattr__(self, "digits", digits)

    @property
    def value(self) -> Fraction:
        return Fraction(int(self.digits.translate(_BIT_CHARS), 2), 1 << len(self.digits))


def doubling_orbit(alpha: Fraction, steps: int) -> Residues:
    """T^k(alpha) for k = 1..steps, exact, as the residues over q: with
    alpha = p/q mod 1 they iterate by modular doubling r -> 2r mod q.

    The orbit is walked over its preperiod and one period at most
    (`_orbit_to_cycle`), and the listing repeats that period up to the
    step count (`_fold`)."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    v = mod1(Fraction(alpha))
    q = v.denominator
    walk, pre = list(_orbit_to_cycle(v.numerator, q, steps)), _pre(q, steps)
    whole, end = _fold(len(walk), pre, steps)
    return Residues(walk[:pre] + walk[pre:] * whole + walk[pre:end], q)


def doubling_period(alpha: Fraction) -> tuple[int, int]:
    """(preperiod, period) of the doubling orbit of a rational point."""
    den = mod1(Fraction(alpha)).denominator
    pre = (den & -den).bit_length() - 1  # the exponent of 2 in den
    den >>= pre
    if den == 1:
        return (pre, 1)
    k, p = 2 % den, 1
    while k != 1:
        k = (2 * k) % den
        p += 1
    return (pre, p)


def _pre(q: int, horizon: int) -> int:
    """The number of steps of `_orbit_to_cycle`'s walk over q before the
    start of its cycle: max(a, 1) - 1 for q = 2^a q' with q' odd, capped at
    the horizon."""
    return min(max((q & -q).bit_length() - 1, 1) - 1, horizon)


def _orbit_to_cycle(r: int, q: int, horizon: int) -> Iterator[int]:
    """The residues r_k = 2^k r mod q for k = 1, 2, ... up to the horizon or
    until the orbit returns to the start of its cycle, whichever comes
    first; `_pre(q, horizon)` of them come before that start.

    With q = 2^a q' and q' odd, r_k = r_{k+P} for every k >= a once q'
    divides 2^P - 1, so r_k is on the cycle from k = max(a, 1) on.  When the
    walk is shorter than the horizon, its residues from the start of the
    cycle on are one whole period.
    """
    pre, start = _pre(q, horizon), None
    for k in range(horizon):
        r = 2 * r % q
        if r == start:
            return
        if k == pre:
            start = r
        yield r


def _fold(n: int, pre: int, horizon: int) -> tuple[int, int]:
    """(whole, end) such that any count over the first `horizon` steps of an
    orbit walked by `_orbit_to_cycle` in n steps, its period starting after
    step pre, is C(end) + whole * (C(n) - C(pre)), with C(i) that count over
    the walk's first i steps.

    A horizon past the walk covers the preperiod, (horizon - pre) // P whole
    periods of P = n - pre steps and the first (horizon - pre) % P steps of
    one more.
    """
    if horizon <= n:
        return 0, horizon
    whole, rest = divmod(horizon - pre, n - pre)
    return whole, pre + rest


def doubling_scan(
    alpha: Fraction, partition: CellPartition, checkpoints: Sequence[int]
) -> CheckpointScan:
    """Scan of prefix measures of the doubling orbit x_k = 2^k alpha mod 1,
    k = 1, 2, ..., equal to `checkpoint_scan` of `doubling_orbit(alpha,
    max(checkpoints))`.

    The orbit is walked over its preperiod and one period at most; one
    `checkpoint_scan` of the walk gives the counts of the prefixes that the
    checkpoints fold from (`_fold`).  A scan costs O(pre + period + cells *
    checkpoints), whatever the checkpoints are.
    """
    cps = _checked_checkpoints(checkpoints)
    v = mod1(Fraction(alpha))
    q = v.denominator
    residues, pre = list(_orbit_to_cycle(v.numerator, q, cps[-1])), _pre(q, cps[-1])
    n = len(residues)
    folds = [_fold(n, pre, N) for N in cps]
    ends = sorted({pre, n, *(end for _, end in folds)} - {0})
    walk = checkpoint_scan(Residues(residues, q), partition, ends)
    prefix = {0: (0,) * partition.size}
    prefix.update(zip(ends, walk.counts))
    scanned = []
    for whole, end in folds:
        counts = prefix[end]
        if whole:
            counts = tuple(e + whole * (f - c) for e, f, c in zip(counts, prefix[n], prefix[pre]))
        scanned.append(counts)
    return CheckpointScan(tuple(cps), tuple(scanned))


def invariance_defect(alpha: Fraction, steps: int, partition: CellPartition) -> Fraction:
    """Max over cells A of |freq(A) - freq(T^{-1}A)| for the empirical
    measure of the orbit segment x_k = T^k(alpha), k = 1..steps.

    x_k lies in T^{-1}A iff its image x_{k+1} lies in A, so the count of A
    minus that of T^{-1}A telescopes: sum_k [x_k in A] - [x_{k+1} in A] =
    [x_1 in A] - [x_{N+1} in A] for N = steps.  The defect is therefore 1/N
    when x_1 and x_{N+1} lie in different cells and 0 otherwise (so 0 on
    full periods of a periodic orbit): two exact cell lookups and one
    modular power 2^(N+1) mod q, whatever N is.  The partition must be
    dyadic (cut points k/2^L), the only family under which the comparison
    is meaningful cell by cell.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps == 0:
        raise ValueError("empty orbit segment")
    if not partition.is_dyadic():
        raise ValueError("partition cut points must be dyadic rationals")
    v = mod1(Fraction(alpha))
    p, q = v.numerator, v.denominator
    bounds = partition.thresholds(q)[1:]
    first = bisect_right(bounds, 2 * p % q)
    past = bisect_right(bounds, pow(2, steps + 1, q) * p % q)
    return Fraction(int(first != past), steps)


@dataclass(frozen=True)
class OrbitHitReport:
    """Exact hit counts of a target arc along an orbit segment."""

    horizon: int
    hits: int
    density: Fraction
    minus_hits: int
    plus_hits: int
    density_bound: Fraction
    spacing_ok: bool


def five_sixth_check(alpha: Fraction, horizon: int) -> OrbitHitReport:
    """Count k <= horizon with (2^k + 1)*alpha mod 1 in the widened interval
    I' = (1/2 - alpha/3, 3/4 + alpha/3); requires 0 < alpha < 1/16.

    Equivalently v = 2^k * alpha mod 1 must land in I' - alpha, whose two
    halves are I- = (1/2 - 4a/3, 1/2] and I+ = (1/2, 3/4 - 2a/3).  Their
    hits are spaced for every such alpha:
    - a point of I- doubles into (1 - 8a/3, 1) or to 0, above I+ since
      a < 1/8;
    - a point of I+ doubles into (0, 1/2 - 4a/3), below both halves;
    - two steps after I- the point lies in (1 - 16a/3, 1) or is 0, outside
      I- since a <= 3/32.
    So no hit is followed by a hit, and no two hits of I- lie two steps
    apart: the report's `spacing_ok` is true by this lemma.  That spacing
    caps the count at 5/6 * horizon + O(1); the report gives the density
    and the bound 5/6 + 3/horizon.

    The orbit is walked over its preperiod and one period at most
    (`_orbit_to_cycle`), for the counts alone: each residue it yields leaves
    one code byte and is dropped, and the counts at the horizon are folded
    from those codes (`_fold`).
    Its `fivesixth` certificate's verifier recounts the hits through I'
    itself and reads the spacing along its own walk.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < Fraction(1, 16):
        raise ValueError("alpha must lie in (0, 1/16)")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    # With alpha = p/q and v = 2^k alpha = r/q, the intervals in integers:
    # I-: 6r > 3q - 8p and 2r <= q; I+: 2r > q and 12r < 9q - 8p.  For an
    # integer r, 6r > a iff r > a // 6, and 12r < b iff r <= (b - 1) // 12.
    p, q = alpha.numerator, alpha.denominator
    half = q // 2
    minus_lo, plus_hi = (3 * q - 8 * p) // 6, (9 * q - 8 * p - 1) // 12
    # Per step of the walk its code alone: 1 a hit of I-, 2 a hit of I+, 0 a miss.
    codes = bytes(1 if minus_lo < r <= half else 2 if half < r <= plus_hi else 0
                  for r in _orbit_to_cycle(p, q, horizon))
    pre = _pre(q, horizon)
    whole, end = _fold(len(codes), pre, horizon)
    minus_hits = codes[:end].count(1) + whole * codes[pre:].count(1)
    plus_hits = codes[:end].count(2) + whole * codes[pre:].count(2)
    hits = minus_hits + plus_hits
    return OrbitHitReport(
        horizon=horizon,
        hits=hits,
        density=Fraction(hits, horizon),
        minus_hits=minus_hits,
        plus_hits=plus_hits,
        density_bound=Fraction(5, 6) + Fraction(3, horizon),
        spacing_ok=True,
    )


def zero_block_alpha(
    base: Fraction,
    block_starts: Sequence[int],
) -> BinaryPoint:
    """Binary point equal to `base` except that digits j..j^2 are forced to 0
    for each block start j; the result must stay strictly inside (1/2, 3/4).

    The digit string runs to the square of the last block start, and the
    returned point is the exact dyadic rational it denotes.  Block starts
    must leave the two leading digits (1, 0) untouched, and zeroing must not
    push the value onto or below 1/2.
    """
    base = Fraction(base)
    if not Fraction(1, 2) < base < Fraction(3, 4):
        raise ValueError("base must lie strictly inside (1/2, 3/4)")
    starts = sorted({int(j) for j in block_starts})  # each distinct start zeroes once
    if not starts:
        raise ValueError("need at least one block start")
    if starts[0] < 3:
        raise ValueError("blocks must not overlap the two leading digits")
    length = starts[-1] ** 2
    digits = bytearray(binary_digits(base, length))
    for j in starts:
        digits[j - 1 : j * j] = bytes(j * j - j + 1)  # digit positions j..j^2
    point = BinaryPoint(digits)
    if not Fraction(1, 2) < point.value < Fraction(3, 4):
        raise ValueError("zeroing the blocks pushed the value out of (1/2, 3/4)")
    return point


def zero_block_density(point: BinaryPoint, windows: list[int]) -> list[tuple[int, int]]:
    """Per-window hit counts of (2^k + 1)*point mod 1 in the target arc
    (1/2, 3/4) for k = 1..N, N running over the window ends, as the pairs
    (N, hits); the window's density is hits/N.

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
    # once k passes the last 1 digit), so (2^k + 1) point mod 1 = s/2^L with
    # s = ((num << k) + num) mod 2^L; s/2^L > 1/2 iff s > floor(2^L/2), and
    # s/2^L < 3/4 iff s < ceil(3 * 2^L/4).
    digits = point.digits
    num, scale = int(digits.translate(_BIT_CHARS), 2), 1 << len(digits)
    lo = scale // 2
    hi = -(-3 * scale // 4)
    if not lo < num < hi:
        raise ValueError("the point itself must lie in the target arc")
    # From the last 1 digit on the tail is 0 and s = num, a hit: only the
    # steps before it (none past the last window) can miss, and are tested.
    last = min(len(digits.rstrip(b"\0")), windows[-1] + 1)
    misses = [k for k in range(1, last) if not lo < ((num << k) + num) & (scale - 1) < hi]
    return [(end, end - bisect_right(misses, end)) for end in windows]
