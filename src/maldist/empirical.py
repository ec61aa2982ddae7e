"""Empirical measures over finite partitions of [0, 1).

Covers the cell partition and its integer thresholds (the construction
layers' cell lookup, but for `histogram_witness`, which finds its uniform
cells by `r * ell // q`), measure vectors, points held as integer residues
over one denominator, exact star discrepancy, and checkpoint scans of the
prefix cell counts along a sequence with their CSV form: from a list of
points, or for a rotation n*p/q mod 1 in closed form by floor sums, with no
point list.  A rotation scan forms the Euclid expansion of p/q once and
walks it for every floor sum; a scan's CSV row is printed from its integer
counts over N.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, repeat
from math import isqrt

from .exact import csv_text, decimal_row, over_lcm, ratio_row

__all__ = [
    "CellPartition",
    "MeasureVector",
    "CheckpointScan",
    "Residues",
    "star_discrepancy",
    "checkpoint_scan",
    "rotation_scan",
    "scan_to_csv",
]


class Residues:
    """The points r/den for the integer numerators r in `nums`, over one
    shared denominator den > 0.

    An orbit's points are held in this record (the orbit segment a subspace
    greedy steers, of a rotation or of the doubling map, as a sequence that
    forms each residue when it is read; the doubling orbit that `doubling
    --mode orbit` prints as a list), and every consumer reads the integers
    directly: a cell lookup or a discrepancy sweep builds no Fraction.  A
    scan reads no points (`rotation_scan`, `doubling_scan`).  The numerators
    need not be reduced against den.  A numerator outside [0, den) is
    refused by the consumer that reads it.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: Sequence[int], den: int):
        if den < 1:
            raise ValueError("denominator must be positive")
        self.nums = nums
        self.den = den

    def __len__(self) -> int:
        return len(self.nums)

    def __repr__(self) -> str:
        return f"Residues({self.nums!r}, {self.den!r})"


@dataclass(frozen=True)
class CellPartition:
    """Partition of [0, 1) into cells [t_{i-1}, t_i) by exact rational cuts.

    The cuts are also held as integer numerators over their lcm D, so a
    lookup (`thresholds`) is one `bisect` on integers, with no Fraction
    built, and the cuts are all dyadic iff D is a power of 2.  `uniform` and
    `dyadic` start from those integers (the cuts i/s over D = s) and run no
    Fraction comparison and no lcm.
    """

    cuts: tuple[Fraction, ...]
    _den: int = field(init=False, repr=False, compare=False)
    _scaled_cuts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cuts = tuple(Fraction(t) for t in self.cuts)
        object.__setattr__(self, "cuts", cuts)
        if len(cuts) < 2 or cuts[0] != 0 or cuts[-1] != 1:
            raise ValueError("cuts must run from 0 to 1")
        if any(a >= b for a, b in zip(cuts, cuts[1:])):
            raise ValueError("cuts must be strictly increasing")
        scaled, den = over_lcm(cuts)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_scaled_cuts", tuple(scaled))

    @property
    def size(self) -> int:
        return len(self.cuts) - 1

    @classmethod
    def uniform(cls, s: int) -> "CellPartition":
        if s < 1:
            raise ValueError(f"cell count must be at least 1, got {s}")
        cuts = tuple(Fraction(i, s) for i in range(s + 1))
        partition = object.__new__(cls)
        object.__setattr__(partition, "cuts", cuts)
        object.__setattr__(partition, "_den", s)
        object.__setattr__(partition, "_scaled_cuts", tuple(range(s + 1)))
        return partition

    @classmethod
    def dyadic(cls, level: int) -> "CellPartition":
        if level < 0:
            raise ValueError(f"level must be nonnegative, got {level}")
        return cls.uniform(1 << level)

    def thresholds(self, den: int) -> tuple[int, ...]:
        """The integer thresholds T_i = ceil(c_i*den/D) of the cuts t_i =
        c_i/D over the denominator den > 0: t_i <= r/den iff r >= T_i, so for
        0 <= r < den, `bisect_right(T, r) - 1` is the index of the cell that
        holds r/den.

        T_0 = 0 and the last threshold is den, so `bisect_right(T[1:], r)` is
        the cell index itself: one integer bisect per point, with no
        multiplication or division.  The construction layers look cells up
        by it, but for `histogram_witness`, whose cells are uniform and found
        by `r * ell // q`; the verifiers keep their own lookups.
        """
        if den < 1:
            raise ValueError("denominator must be positive")
        scale = self._den
        return tuple(-(-c * den // scale) for c in self._scaled_cuts)

    def lebesgue_masses(self) -> "MeasureVector":
        return MeasureVector(tuple(b - a for a, b in zip(self.cuts, self.cuts[1:])))

    def is_dyadic(self) -> bool:
        return self._den & (self._den - 1) == 0


@dataclass(frozen=True)
class MeasureVector:
    """Probability masses on the cells of a partition; entries sum to exactly 1.
    `nums` holds them as integers over `den`, the lcm of their denominators."""

    masses: tuple[Fraction, ...]
    nums: tuple[int, ...] = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        masses = tuple(Fraction(m) for m in self.masses)
        object.__setattr__(self, "masses", masses)
        # Checked as integers over the lcm: no Fraction is compared or summed.
        nums, den = over_lcm(masses)
        if nums and min(nums) < 0:
            raise ValueError("masses must be nonnegative")
        if sum(nums) != den:
            raise ValueError("masses must sum to exactly 1")
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @property
    def size(self) -> int:
        return len(self.masses)


def _cell_indices(nums: Sequence[int], bounds: Sequence[int], den: int) -> Iterator[int]:
    """The cell index of each point r/den for r in nums, in order, with no
    Fraction built: one `bisect_right` per point on bounds =
    `partition.thresholds(den)[1:]`, which the caller computes once for all
    the points it maps.  Every numerator is range-checked before the first
    lookup.
    """
    if nums and not (0 <= min(nums) and max(nums) < den):
        raise ValueError("points must lie in [0, 1)")
    return map(bisect_right, repeat(bounds), nums)


_SWEEP_BLOCK, _SWEEP_RUN = 32, 4096


def star_discrepancy(points: Residues) -> Fraction:
    """Exact D*_N = sup_t |#{n: x_n < t}/N - t| over t in (0, 1].

    The sup is attained (in the limit) at one of the 2N empirical-CDF
    breakpoints, so a sweep over the sorted sample is exact.  It runs on
    the integer numerators r over the shared denominator q: for the i-th
    smallest point r_(i)/q, hi_i = i*q - r_(i)*N is N*q times i/N - r_(i)/q,
    and N*q times r_(i)/q - (i-1)/N is q - hi_i.  In a block of B points
    from rank i0 to the point r_last, every hi_i lies between
    i0*q - N*r_last and hi_i0 + (B-1)*q.  So with B = max(32, sqrt N), only
    the blocks whose bounds pass the extremes of the N/B first values are
    read in full, in runs of at most `_SWEEP_RUN` points.
    """
    n = len(points)
    if n == 0:
        raise ValueError("star discrepancy of an empty list is undefined")
    q = points.den
    rs = sorted(points.nums)
    if not (0 <= rs[0] and rs[-1] < q):
        raise ValueError("points must lie in [0, 1)")
    block = max(_SWEEP_BLOCK, isqrt(n))
    heads = [iq - r * n for iq, r in zip(range(q, (n + 1) * q, block * q), rs[::block])]
    top, low = max(0, max(heads)), min(q, min(heads))
    cut, runs = top - (block - 1) * q, []
    for k, head, last in zip(range(0, n, block), heads, chain(rs[block - 1 :: block], rs[-1:])):
        if head > cut or (k + 1) * q - last * n < low:
            if not (runs and runs[-1][1] == k and k + block - runs[-1][0] <= _SWEEP_RUN):
                runs.append([k, k])
            runs[-1][1] += block
    for a, b in runs:
        hi = [iq - r * n for iq, r in zip(range((a + 1) * q, (n + 1) * q, q), rs[a:b])]
        top, low = max(top, max(hi)), min(low, min(hi))
    return Fraction(max(top, q - low), n * q)


@dataclass(frozen=True)
class CheckpointScan:
    """Cell counts of the prefix x_1..x_N at each checkpoint N: `counts[k]`
    sums to `checkpoints[k]`, and a frequency is a count over its N."""

    checkpoints: tuple[int, ...]
    counts: tuple[tuple[int, ...], ...]


def _checked_checkpoints(checkpoints: Sequence[int]) -> list[int]:
    cps = list(checkpoints)
    if not cps or any(c < 1 for c in cps):
        raise ValueError("checkpoints must be positive")
    if any(a >= b for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    return cps


def checkpoint_scan(
    points: Residues,
    partition: CellPartition,
    checkpoints: Sequence[int],
) -> CheckpointScan:
    """Scan of prefix measures; points past the last checkpoint are not read."""
    cps = _checked_checkpoints(checkpoints)
    counts = [0] * partition.size
    scanned = []
    cells = _cell_indices(points.nums[: cps[-1]], partition.thresholds(points.den)[1:],
                          points.den)
    seen = 0
    for target in cps:
        for c in islice(cells, target - seen):
            counts[c] += 1
            seen += 1
        if seen < target:
            raise ValueError(f"point source exhausted before checkpoint {target}")
        scanned.append(tuple(counts))
    return CheckpointScan(tuple(cps), tuple(scanned))


def _euclid_steps(a: int, m: int) -> tuple[tuple[int, int, int], ...]:
    """The steps (m_k, a_k mod m_k, a_k div m_k) of Euclid's algorithm on
    (m, a) = (m_0, a_0), m >= 1: m_{k+1} = a_k mod m_k and a_{k+1} = m_k,
    up to the step whose remainder is 0.  For a/m = p/q there are
    O(log q) steps, formed once for every floor sum over p/q."""
    steps = []
    while m:
        qa, r = divmod(a, m)
        steps.append((m, r, qa))
        m, a = r, m
    return tuple(steps)


def _stepped_floor_sum(steps: tuple[tuple[int, int, int], ...], n: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b)/m) for n >= 0, with steps =
    `_euclid_steps(a, m)`: Euclid's recursion on (m, a), one step each.

    Once a = a_k mod m_k and b are reduced mod m_k, the sum counts the
    lattice points under the line y = (a*x + b)/m_k, which is the same count
    with the axes swapped: a sum of floor((m_k*j + y_max mod m_k)/a) over
    j < y_max div m_k for y_max = a*n + b, the next step's sum.  The step
    whose remainder a is 0 always ends the walk.
    """
    total = 0
    for m, a, qa in steps:
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        y_max = a * n + b
        if y_max < m:
            break
        n, b = divmod(y_max, m)
    return total


def rotation_scan(
    p: int,
    q: int,
    partition: CellPartition,
    checkpoints: Sequence[int],
) -> CheckpointScan:
    """Scan of prefix measures of the rotation x_n = n*p/q mod 1, n = 1, 2,
    ..., counted in closed form with no point list.

    Equal to `checkpoint_scan` of the residues n*p mod q over q.  The point
    x_n lies at or above the cut c_i/D iff its residue r_n = n*p mod q is at
    least its threshold a_i = ceil(c_i*q/D) (`CellPartition.thresholds`).  With
    S(b) = sum_{n=1..N} floor((n*p + b)/q), the term of S(q - a) - S(0) for
    n is 1 iff r_n >= a, so #{n <= N: r_n >= a} = S(q - a) - S(0), and a
    cell count is the difference of its two cuts' counts.  Every S walks the
    one Euclid expansion of p/q, so a scan costs O(cells * checkpoints *
    log q) integer steps, whatever N is.
    """
    cps = _checked_checkpoints(checkpoints)
    if q < 1:
        raise ValueError("denominator must be positive")
    p %= q
    steps = _euclid_steps(p, q)
    inner = partition.thresholds(q)[1:-1]
    scanned = []
    for n in cps:
        base = _stepped_floor_sum(steps, n, p)
        at_or_above = [n, *(_stepped_floor_sum(steps, n, p + q - a) - base for a in inner), 0]
        scanned.append(tuple(x - y for x, y in zip(at_or_above, at_or_above[1:])))
    return CheckpointScan(tuple(cps), tuple(scanned))


def scan_to_csv(scan: CheckpointScan) -> str:
    """CSV of a scan: one row per checkpoint, decimal frequencies first,
    exact "p/q" duplicates after, each row printed from its counts over N
    in one pass (`decimal_row`, `ratio_row`)."""
    s = len(scan.counts[0])
    header = ["N", *(f"freq_{i}" for i in range(s)), *(f"freq_{i}_exact" for i in range(s))]
    return csv_text([header, *([str(n), *decimal_row(counts, n), *ratio_row(counts, n)]
                               for n, counts in zip(scan.checkpoints, scan.counts))])
