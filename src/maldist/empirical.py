"""Empirical measures over finite partitions of [0, 1).

Covers frequency vectors of finite point sets, sliding-window defects against
a reference measure (the finite certificate of approximate well-distribution),
exact star discrepancy, checkpoint scans along a sequence, and the max-over-
checkpoints estimator for the supremum of interval mass over limit measures.

The estimator is a lower bound only: mass can escape to a cell boundary in the
limit without ever being counted at finite N (see `mu_bar_estimate`), which is
why the boundary-enlarged variant is reported alongside it.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import lcm

from .exact import decimal_str, format_rational, is_dyadic

__all__ = [
    "CellStraddleError",
    "CellPartition",
    "MeasureVector",
    "EmpiricalMeasure",
    "CheckpointScan",
    "ApproxPoint",
    "Residues",
    "LimitMassReport",
    "empirical_measure",
    "concat_measures",
    "window_defect",
    "star_discrepancy",
    "checkpoint_scan",
    "mu_bar_estimate",
    "mu_bar_report",
    "max_checkpoint_fraction",
    "enlarged_union_membership",
    "scan_to_csv",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CellStraddleError(ValueError):
    """An approximate point's error radius straddles a cut point; counting it
    would require a guess, so the operation fails loudly instead."""


@dataclass(frozen=True)
class ApproxPoint:
    """Fixed-precision point with an error radius; exact points have radius 0."""

    value: Fraction
    radius: Fraction


class Residues(Sequence):
    """The points r/den for the integer numerators r in `nums`, over one
    shared denominator den > 0.

    A read-only sequence of Fractions: `len`, indexes (negative too) and
    iteration yield `Fraction(r, den)`, a slice is again a `Residues`, and
    `==` compares element by element with any sequence.  The numerators need
    not be reduced against den.  Orbit sources return this type so that cell
    lookups and discrepancy sweeps read the integers directly and a Fraction
    is built only where a value is read out.
    """

    __slots__ = ("nums", "den")
    __hash__ = None  # mutable-sequence semantics, like the list it stands for

    def __init__(self, nums: Sequence[int], den: int):
        if den < 1:
            raise ValueError("denominator must be positive")
        self.nums = nums
        self.den = den

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Residues(self.nums[i], self.den)
        return Fraction(self.nums[i], self.den)

    def __iter__(self) -> Iterator[Fraction]:
        den = self.den
        return (Fraction(r, den) for r in self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(x == y for x, y in zip(self, other))

    def __repr__(self) -> str:
        return f"Residues({self.nums!r}, {self.den!r})"


@dataclass(frozen=True)
class CellPartition:
    """Partition of [0, 1) into cells [t_{i-1}, t_i) by exact rational cuts.

    The cuts are also held as integer numerators over their lcm, so a lookup
    is one `bisect` on integers, with no Fraction built or compared.
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
        den = lcm(*(t.denominator for t in cuts))
        object.__setattr__(self, "_den", den)
        object.__setattr__(
            self, "_scaled_cuts", tuple(t.numerator * (den // t.denominator) for t in cuts)
        )

    @property
    def size(self) -> int:
        return len(self.cuts) - 1

    @classmethod
    def uniform(cls, s: int) -> "CellPartition":
        return cls(tuple(Fraction(i, s) for i in range(s + 1)))

    @classmethod
    def dyadic(cls, level: int) -> "CellPartition":
        return cls.uniform(1 << level)

    def cell_index(self, point: Fraction | ApproxPoint) -> int:
        """Index of the half-open cell containing the point, exact.

        For ApproxPoint the whole ball [v - r, v + r] must sit inside one cell,
        otherwise CellStraddleError is raised.
        """
        if isinstance(point, ApproxPoint):
            lo, hi = point.value - point.radius, point.value + point.radius
            i = self.cell_of(lo.numerator, lo.denominator)
            if hi >= self.cuts[i + 1]:
                raise CellStraddleError(
                    f"point {point.value}±{point.radius} straddles cut {self.cuts[i + 1]}"
                )
            return i
        x = point if isinstance(point, Fraction) else Fraction(point)
        return self.cell_of(x.numerator, x.denominator)

    def cell_of(self, num: int, den: int) -> int:
        """Index of the cell holding num/den (den > 0, need not be reduced).

        Exact: t_i = c_i/D with integer c_i, so t_i <= num/den iff
        c_i <= floor(num*D/den).
        """
        if not 0 <= num < den:
            raise ValueError("points must lie in [0, 1)")
        return bisect_right(self._scaled_cuts, num * self._den // den) - 1

    def cell_bounds(self, i: int) -> tuple[Fraction, Fraction]:
        return self.cuts[i], self.cuts[i + 1]

    def lebesgue_masses(self) -> "MeasureVector":
        return MeasureVector(tuple(b - a for a, b in zip(self.cuts, self.cuts[1:])))

    def is_dyadic(self) -> bool:
        return all(is_dyadic(t) for t in self.cuts)


@dataclass(frozen=True)
class MeasureVector:
    """Probability masses on the cells of a partition; entries sum to exactly 1."""

    masses: tuple[Fraction, ...]

    def __post_init__(self):
        masses = tuple(Fraction(m) for m in self.masses)
        object.__setattr__(self, "masses", masses)
        if any(m < 0 for m in masses):
            raise ValueError("masses must be nonnegative")
        if sum(masses) != 1:
            raise ValueError("masses must sum to exactly 1")

    @property
    def size(self) -> int:
        return len(self.masses)

    def mass(self, cells: Iterable[int]) -> Fraction:
        return sum((self.masses[i] for i in cells), _ZERO)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Cell counts of N sample points; frequencies are counts/N, exact."""

    counts: tuple[int, ...]
    sample_count: int

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample count must be positive")
        if sum(self.counts) != self.sample_count:
            raise ValueError("counts must sum to the sample count")

    @property
    def frequencies(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.sample_count) for c in self.counts)

    def as_vector(self) -> MeasureVector:
        return MeasureVector(self.frequencies)

    def mass(self, cells: Iterable[int]) -> Fraction:
        return Fraction(sum(self.counts[i] for i in cells), self.sample_count)


def _cell_indices(
    points: Iterable[Fraction | ApproxPoint], partition: CellPartition
) -> Iterator[int]:
    """The cell index of each point, in order.

    `Residues` are looked up by their numerators, with no Fraction built:
    r/den lies in cell i iff c_i <= floor(r*D/den) < c_{i+1}, for the cut
    numerators c_i over their lcm D, as in `CellPartition.cell_of`, which
    this inlines.  Every numerator is range-checked before the first lookup.
    Any other points go through `cell_index` one at a time, so an iterator
    is consumed lazily.
    """
    if not isinstance(points, Residues):
        return map(partition.cell_index, points)
    nums, den = points.nums, points.den
    if nums and not (0 <= min(nums) and max(nums) < den):
        raise ValueError("points must lie in [0, 1)")
    cuts, scale = partition._scaled_cuts, partition._den
    return (bisect_right(cuts, r * scale // den) - 1 for r in nums)


def empirical_measure(
    points: Sequence[Fraction | ApproxPoint], partition: CellPartition
) -> EmpiricalMeasure:
    """Frequency vector of the points over the partition cells."""
    if len(points) == 0:
        raise ValueError("empirical measure of an empty point list is undefined")
    counts = [0] * partition.size
    for c in _cell_indices(points, partition):
        counts[c] += 1
    return EmpiricalMeasure(tuple(counts), len(points))


def concat_measures(first: EmpiricalMeasure, second: EmpiricalMeasure) -> EmpiricalMeasure:
    """Measure of the concatenated sample: (N*mu_N + M*mu_M)/(N+M) cellwise."""
    if len(first.counts) != len(second.counts):
        raise ValueError("size mismatch")
    return EmpiricalMeasure(
        tuple(a + b for a, b in zip(first.counts, second.counts)),
        first.sample_count + second.sample_count,
    )


def window_defect(
    points: Sequence[Fraction | ApproxPoint],
    reference: MeasureVector,
    partition: CellPartition,
    window: int,
    shifts: int,
) -> Fraction:
    """Max over shifts k <= `shifts` and cells A of |freq of A in points
    k+1..k+window  -  reference(A)|.

    Small values certify approximate well-distribution at scale (window, shifts).
    Needs window + shifts points.
    """
    if window < 1 or shifts < 0:
        raise ValueError("window must be >= 1 and shifts >= 0")
    need = window + shifts
    if len(points) < need:
        raise ValueError(f"need {need} points, got {len(points)}")
    s = partition.size
    cells = list(_cell_indices(points[:need], partition))
    counts = [0] * s
    for c in cells[:window]:
        counts[c] += 1
    worst = _ZERO
    k = 0
    while True:
        for i in range(s):
            dev = abs(Fraction(counts[i], window) - reference.masses[i])
            if dev > worst:
                worst = dev
        if k == shifts:
            break
        counts[cells[k]] -= 1
        counts[cells[k + window]] += 1
        k += 1
    return worst


def star_discrepancy(points: Sequence[Fraction]) -> Fraction:
    """Exact D*_N = sup_t |#{n: x_n < t}/N - t| over t in (0, 1].

    The sup is attained (in the limit) at one of the 2N empirical-CDF
    breakpoints, so a sweep over the sorted sample is exact.  The sweep runs
    on integer numerators r over one denominator q: the shared denominator
    of `Residues`, otherwise the lcm of the points' denominators.  With
    x = r/q, i/N - x = (i*q - r*N)/(N*q).
    """
    n = len(points)
    if n == 0:
        raise ValueError("star discrepancy of an empty list is undefined")
    if isinstance(points, Residues):
        q = points.den
        rs = sorted(points.nums)
    else:
        q = lcm(*(p.denominator for p in points))
        rs = sorted(p.numerator * (q // p.denominator) for p in points)
    if not (0 <= rs[0] and rs[-1] < q):
        raise ValueError("points must lie in [0, 1)")
    best = 0
    for i, r in enumerate(rs, start=1):
        hi = i * q - r * n
        lo = r * n - (i - 1) * q
        if hi > best:
            best = hi
        if lo > best:
            best = lo
    return Fraction(best, n * q)


@dataclass(frozen=True)
class CheckpointScan:
    """Empirical measures of the sequence prefix at each checkpoint index."""

    checkpoints: tuple[int, ...]
    measures: tuple[EmpiricalMeasure, ...]

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        if len(self.checkpoints) != len(self.measures):
            raise ValueError("one measure per checkpoint required")


def checkpoint_scan(
    points: Iterable[Fraction | ApproxPoint],
    partition: CellPartition,
    checkpoints: Sequence[int],
) -> CheckpointScan:
    """Scan of prefix measures; the points iterable is consumed once."""
    cps = list(checkpoints)
    if not cps or any(c < 1 for c in cps):
        raise ValueError("checkpoints must be positive")
    if any(a >= b for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if isinstance(points, Residues):
        points = points[: cps[-1]]  # range-check only what the scan reads
    counts = [0] * partition.size
    measures = []
    cells = _cell_indices(points, partition)
    seen = 0
    for target in cps:
        for c in islice(cells, target - seen):
            counts[c] += 1
            seen += 1
        if seen < target:
            raise ValueError(f"point source exhausted before checkpoint {target}")
        measures.append(EmpiricalMeasure(tuple(counts), seen))
    return CheckpointScan(tuple(cps), tuple(measures))


def mu_bar_estimate(scan: CheckpointScan, cells: Iterable[int]) -> Fraction:
    """Max over checkpoints of the union's empirical mass.

    This is a limsup surrogate and therefore only a LOWER bound for the true
    supremum of the union's mass over limit measures: mass sitting exactly on
    a cell boundary in the limit is never counted at finite N (the 1/n-orbit
    against the singleton {0} is the canonical failure).  Pair with
    `max_checkpoint_fraction` over an enlarged union when boundaries matter.
    """
    cells = tuple(cells)
    return max(m.mass(cells) for m in scan.measures)


def max_checkpoint_fraction(
    points: Sequence[Fraction],
    checkpoints: Sequence[int],
    member: Callable[[Fraction], bool],
) -> Fraction:
    """Max over checkpoints N of #{n <= N : member(x_n)}/N, exact.

    `member` may encode any target: a single point, an open interval, or an
    enlarged cell union.
    """
    if not checkpoints or any(a >= b for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing and nonempty")
    if len(points) < checkpoints[-1]:
        raise ValueError("not enough points for the last checkpoint")
    best = _ZERO
    hits = 0
    cp = set(checkpoints)
    for n, x in enumerate(points[: checkpoints[-1]], start=1):
        if member(x):
            hits += 1
        if n in cp:
            frac = Fraction(hits, n)
            if frac > best:
                best = frac
    return best


@dataclass(frozen=True)
class LimitMassReport:
    """Both estimates of a union's top limit mass: the plain checkpoint
    maximum (a lower bound that can miss boundary mass entirely) and the same
    maximum over the eta-enlarged open union."""

    plain: Fraction
    enlarged: Fraction
    eta: Fraction


def mu_bar_report(
    points: Sequence[Fraction],
    checkpoints: Sequence[int],
    partition: CellPartition,
    cells: Iterable[int],
    eta: Fraction,
) -> LimitMassReport:
    """Checkpoint estimator of sup over limit measures of the union's mass,
    reported together with its eta-enlarged variant; the plain number alone
    undervalues unions whose limit mass sits on a cell boundary."""
    cells = tuple(cells)
    scan = checkpoint_scan(points[: checkpoints[-1]], partition, checkpoints)
    plain = mu_bar_estimate(scan, cells)
    member = enlarged_union_membership(partition, cells, eta)
    enlarged = max_checkpoint_fraction(points, checkpoints, member)
    return LimitMassReport(plain=plain, enlarged=enlarged, eta=Fraction(eta))


def enlarged_union_membership(
    partition: CellPartition, cells: Iterable[int], eta: Fraction
) -> Callable[[Fraction], bool]:
    """Membership test for the open eta-enlargement of a union of cells.

    Each cell [a, b) grows to (a - eta, b + eta) mod 1; the union of the open
    enlargements is the target.
    """
    eta = Fraction(eta)
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    bounds = [partition.cell_bounds(i) for i in cells]

    def member(x: Fraction) -> bool:
        x = Fraction(x)
        for a, b in bounds:
            lo, hi = a - eta, b + eta
            if lo < x < hi or lo < x - 1 < hi or lo < x + 1 < hi:
                return True
            if eta == 0 and x == a:
                return True
        return False

    return member


def scan_to_csv(scan: CheckpointScan, digits: int = 12) -> str:
    """CSV of a scan: one row per checkpoint, decimal frequencies first,
    exact "p/q" duplicates after."""
    s = len(scan.measures[0].counts)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = (
        ["N"]
        + [f"freq_{i}" for i in range(s)]
        + [f"freq_{i}_exact" for i in range(s)]
    )
    writer.writerow(header)
    for cp, m in zip(scan.checkpoints, scan.measures):
        freqs = m.frequencies
        writer.writerow(
            [cp]
            + [decimal_str(f, digits) for f in freqs]
            + [format_rational(f) for f in freqs]
        )
    return out.getvalue()
