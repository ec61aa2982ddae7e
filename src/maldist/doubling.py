"""Orbits of the doubling map T: x -> 2x mod 1 and the exact finite-horizon
facts about their empirical measures.

Covers dyadic points given by their binary digits, orbits as residues over
one denominator, checkpoint scans of their prefix measures, exact invariance
defects of orbit segments, the 5/6 density cap for hits of the widened
middle interval along (2^k + 1)-orbits of small points, and the density-1
hitting counts for points whose binary expansion carries long zero blocks.

The orbit of alpha = p/q is r_k = 2^k p mod q over q.  With q = 2^a q' and
q' odd it is periodic from k = max(a, 1) on, with period ord_{q'}(2), so
the scan and the 5/6 check walk at most one preperiod and one period and
fold the counts of any horizon from them; the invariance defect needs only
the first point and the one past the horizon.  Their cost follows the
period, not the horizon.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .exact import _BIT_CHARS, mod1
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
    "WindowDensity",
    "doubling_orbit",
    "doubling_scan",
    "invariance_defect",
    "five_sixth_check",
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


def _orbit_to_cycle(r: int, q: int, horizon: int) -> tuple[list[int], int]:
    """The residues r_k = 2^k r mod q for k = 1, 2, ... up to the horizon or
    until the orbit returns to the start of its cycle, whichever comes
    first, and the number `pre` of them before that start.

    With q = 2^a q' and q' odd, r_k = r_{k+P} for every k >= a once q'
    divides 2^P - 1, so r_k is on the cycle from k = max(a, 1) on.  When the
    list is shorter than the horizon, its entries from `pre` on are one
    whole period.
    """
    pre = min(max((q & -q).bit_length() - 1, 1) - 1, horizon)
    out = []
    for _ in range(pre):
        r = 2 * r % q
        out.append(r)
    if horizon > pre:
        r = start = 2 * r % q
        out.append(r)
        for _ in range(horizon - pre - 1):
            r = 2 * r % q
            if r == start:
                break
            out.append(r)
    return out, pre


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
    residues, pre = _orbit_to_cycle(v.numerator, q, cps[-1])
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


def _spacing_ok(codes: bytes, pre: int, horizon: int) -> bool:
    """Whether no hit of I- (code 1) is followed by another one step or two
    later, and no hit of I+ (code 2) by another one step later, among the
    first `horizon` steps of an orbit walked by `_orbit_to_cycle`, given
    its steps' codes.

    When the horizon passes the walk, every pair of steps at most 2 apart
    is a pair of the walk itself or of its last steps and the first two of
    the period that repeats them (the wrap), so those are the pairs read.
    Steps two apart are adjacent among the steps of one parity.
    """
    if horizon > len(codes):
        codes = (codes + (codes[pre:] * 2)[:2])[:horizon]
    return not (b"\x01\x01" in codes or b"\x02\x02" in codes
                or b"\x01\x01" in codes[::2] or b"\x01\x01" in codes[1::2])


def five_sixth_check(alpha: Fraction, horizon: int) -> OrbitHitReport:
    """Count k <= horizon with (2^k + 1)*alpha mod 1 in the widened interval
    I' = (1/2 - alpha/3, 3/4 + alpha/3); requires 0 < alpha < 1/16.

    Equivalently 2^k * alpha must land in I' - alpha, whose two halves
    I- = (1/2 - 4a/3, 1/2] and I+ = (1/2, 3/4 - 2a/3) exclude their own
    near-future: a hit of I- blocks the next two k from I-, a hit of I+
    blocks the next k from I+.  That spacing caps the count at
    5/6 * horizon + O(1); the report gives the density and the bound
    5/6 + 3/horizon, and verifies the spacing patterns k,k+1 / k,k+2 in I-
    and k,k+1 in I+ exactly along the orbit.

    The orbit is walked over its preperiod and one period at most: the
    counts at the horizon are folded from those steps (`_fold`), and the
    spacing is read over them and the period's 2-step wrap
    (`_spacing_ok`).  Its `fivesixth` certificate's verifier recounts the
    hits through I' itself.
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
    residues, pre = _orbit_to_cycle(p, q, horizon)
    # Per step: 1 a hit of I-, 2 a hit of I+, 0 a miss.
    codes = bytes(1 if minus_lo < r <= half else 2 if half < r <= plus_hi else 0
                  for r in residues)
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
        spacing_ok=_spacing_ok(codes, pre, horizon),
    )


@dataclass(frozen=True)
class WindowDensity:
    window_end: int
    hits: int


def zero_block_density(point: BinaryPoint, windows: list[int]) -> list[WindowDensity]:
    """Per-window hit counts of (2^k + 1)*point mod 1 in the target arc
    (1/2, 3/4) for k = 1..N, N running over the window ends; the window's
    density is hits/N.

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
    return [WindowDensity(window_end=end, hits=end - bisect_right(misses, end))
            for end in windows]
