"""Reference code that the tests and the acceptance suite compare the
program against.  None of it backs a `maldist` subcommand.

- `brute_force_extension`: the exact minimizer of the final total deviation
  over all admissible extensions of a small instance, the oracle the greedy
  is measured against (C10);
- `exchange_facts`: the exchange structure of such a minimizer, checked per
  block (C10);
- `SplitMix64`: the seeded generator the randomized tests draw from, and
  `sample_uniform`: seeded uniform members of a block space (C9);
- `max_checkpoint_fraction`: the max-over-checkpoints frequency of a target
  set, whose gap at a cell boundary C11 pins;
- `empirical_measure` and `F_pi_eval`: the cell counts of a whole point
  list and F at one Fraction;
- the plain-Fraction paths the program dropped when `Residues` became its
  only point type: `cell_index` and `cell_indices` (the cell of a point
  read off the Fraction cuts, the reference for `CellPartition.thresholds`),
  `fraction_checkpoint_scan` and `fraction_star_discrepancy`, which the
  differential tests compare the integer kernels against, and
  `as_residues` and `fractions_of`, which convert between the two forms;
- the Fraction twins the program dropped when its circle points and
  decimals came from the integer kernels alone: `fraction_mul_mod1`,
  `fraction_contains` and `fraction_contains_interval` on the circle,
  `interval_json`, the JSON object a certificate writes for an interval, and
  `frequencies`, `fraction_decimal_str` and `fraction_scan_to_csv` for the
  scan CSV;
- the one-value forms the program dropped when its CSV tables came from
  rows over one denominator: `decimal_ratio`, the decimal of one num/den
  that `exact.decimal_row` is held to, and `is_dyadic` of one Fraction,
  the reference for `CellPartition.is_dyadic`;
- `stepwise_invariance_defect`: the invariance defect counted along the
  orbit one step at a time, the reference for the two-lookup identity
  `invariance_defect` and the invariance verifier use;
- `stepwise_window_hits`: the zero-block window hits counted one step k
  at a time up to the last window end, the loop the zero-block verifier
  ran before it folded the steps past the last 1 digit, and the reference
  for that fold on both the build and the verify side;
- `shift_and_mask_window_hits`: the same counts folded as the zero-block
  verifier folds them, one shift and mask of the whole digit integer per
  step before the last 1 digit, held to the stepwise count;
- `walked_avoidance_sequence`: the gap-{1,2} avoidance run walked one
  index at a time on integer residues, as `avoidance_sequence` built it
  before it took the indices by their rule, with the residue of each index
  it takes, and `hits_after_prefix`, the count of its indices after the
  prefix whose points lie in [0, eps), which the run no longer states;
- `chunk_search_greedy_extension`: `greedy_extension` as it searched a
  block's mapped cells with `list.index` in a `find` closure, one call per
  cell tied at the largest deficit, before it kept per-cell queues and
  picked a lone top cell without a scan; the differential test holds the
  new loop to it, with its own copies of the helpers it called;
- `regex_parse_rational`: the regular-expression parser `parse_rational`
  was before it became a one-pass `str`-method parse, which the
  differential test holds it to;
- methods only the tests used: the Fraction face of a ratio measure
  (`ratio_measure` from its (location, weight) atoms and `ratio_atoms`
  back), its constructors and sums (`ratio_measure_from_pairs`,
  `point_mass`, `mass_at_zero`, `mass_leq`, `harmonic_tail`,
  `tv_norm_distance`), the interval `midpoint`, the digit shift
  `shift_value` of a binary point, and the indices `block_range` of a block.

Nothing here imports a private name of the package.  This module is not
collected by pytest (its name does not start with `test_`).
"""

from __future__ import annotations

import csv
import io
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice, repeat
from math import comb, lcm
from typing import Callable, Iterable, Iterator, Sequence

from maldist.doubling import BinaryPoint
from maldist.empirical import CellPartition, CheckpointScan, Residues
from maldist.envelope import BlockSpec, RatioMeasure, envelope_dominates
from maldist.exact import RationalParseError, format_rational, mod1, over_lcm
from maldist.subspace import BlockTrace, ExtensionResult, ExtensionTarget, validate_membership
from maldist.torus import TorusInterval
from maldist.witness import AvoidanceResult

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

PointSource = Callable[[int], Fraction]


# --- seeded draws -----------------------------------------------------------------


class SplitMix64:
    """SplitMix64, the 64-bit mixer of Steele/Lea/Vigna that the `rng` field
    of every JSON output names (`maldist.rng.ALGORITHM`): a counter-based
    generator with one output per increment of the state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection; n must fit in 64 bits."""
        if not 0 < n <= _MASK:
            raise ValueError("randrange bound out of range")
        limit = _MASK - (_MASK + 1) % n
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        return lo + self.randrange(hi - lo + 1)

    def subset(self, lo: int, hi: int, k: int) -> tuple[int, ...]:
        """Uniform k-subset of {lo, ..., hi}, returned sorted (Floyd's method)."""
        n = hi - lo + 1
        if not 0 <= k <= n:
            raise ValueError("subset size out of range")
        chosen: set[int] = set()
        for j in range(n - k, n):
            t = self.randrange(j + 1)
            chosen.add(lo + (j if lo + t in chosen else t))
        return tuple(sorted(chosen))

    def fraction(self, max_den: int, closed_top: bool = False) -> Fraction:
        """Random rational p/q with q in [1, max_den], p in [0, q) or [0, q]."""
        q = self.randint(1, max_den)
        p = self.randrange(q + 1) if closed_top else self.randrange(q)
        return Fraction(p, q)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


# --- rational literals ------------------------------------------------------------


_RATIONAL_RE = re.compile(
    r"""^\s*(?P<sign>[-+]?)
        (?P<int>\d+)
        (?:(?P<slash>/)(?P<den>\d+)|\.(?P<frac>\d+))?
        \s*$""",
    re.VERBOSE,
)


def regex_parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer or a plain decimal string by one regular
    expression, failing with the offset of the first offending character."""
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


# --- points: residues and Fraction lists -----------------------------------------


def as_residues(points: Sequence[Fraction]) -> Residues:
    """The points as numerators over the lcm of their denominators."""
    return Residues(*over_lcm([Fraction(p) for p in points]))


def fractions_of(points: Residues) -> list[Fraction]:
    return [Fraction(r, points.den) for r in points.nums]


def cell_indices(partition: CellPartition, points: Iterable[Fraction]) -> Iterator[int]:
    """The index of the half-open cell [t_{i-1}, t_i) holding each point x,
    in order: the number of inner cuts t <= x, counted along the Fraction
    cuts by their terms (t = a/b <= x = p/q iff a*q <= p*b)."""
    inner = [(t.numerator, t.denominator) for t in partition.cuts[1:-1]]
    for point in points:
        x = point if isinstance(point, Fraction) else Fraction(point)
        p, q = x.numerator, x.denominator
        if not 0 <= p < q:
            raise ValueError("points must lie in [0, 1)")
        cell = 0
        for a, b in inner:
            if a * q > p * b:
                break
            cell += 1
        yield cell


def cell_index(partition: CellPartition, point: Fraction) -> int:
    """Index of the half-open cell containing the point (`cell_indices`)."""
    return next(cell_indices(partition, [point]))


def fraction_checkpoint_scan(
    points: Iterable[Fraction],
    partition: CellPartition,
    checkpoints: Sequence[int],
) -> CheckpointScan:
    """Scan of prefix measures; the points iterable is consumed once."""
    cps = list(checkpoints)
    if not cps or any(c < 1 for c in cps):
        raise ValueError("checkpoints must be positive")
    if any(a >= b for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    counts = [0] * partition.size
    scanned = []
    cells = cell_indices(partition, points)
    seen = 0
    for target in cps:
        for c in islice(cells, target - seen):
            counts[c] += 1
            seen += 1
        if seen < target:
            raise ValueError(f"point source exhausted before checkpoint {target}")
        scanned.append(tuple(counts))
    return CheckpointScan(tuple(cps), tuple(scanned))


def fraction_star_discrepancy(points: Sequence[Fraction]) -> Fraction:
    """Exact D*_N of a Fraction list: the integer sweep over the lcm q of the
    points' denominators, with x = r/q and i/N - x = (i*q - r*N)/(N*q)."""
    n = len(points)
    if n == 0:
        raise ValueError("star discrepancy of an empty list is undefined")
    q = lcm(*(p.denominator for p in points))
    rs = sorted(p.numerator * (q // p.denominator) for p in points)
    if not (0 <= rs[0] and rs[-1] < q):
        raise ValueError("points must lie in [0, 1)")
    best = 0
    for i, r in enumerate(rs, start=1):
        best = max(best, i * q - r * n, r * n - (i - 1) * q)
    return Fraction(best, n * q)


def stepwise_invariance_defect(alpha: Fraction, steps: int, partition: CellPartition) -> Fraction:
    """Max over cells A of |freq(A) - freq(T^{-1}A)| for the orbit segment
    T^k(alpha), k = 1..steps, one step at a time: each point counts +1 in
    its cell and -1 in the cell of its image."""
    if steps < 1:
        raise ValueError("empty orbit segment")
    if not all(is_dyadic(t) for t in partition.cuts):
        raise ValueError("partition cut points must be dyadic rationals")
    counts = [0] * partition.size
    x = mod1(Fraction(alpha))
    for _ in range(steps):
        x = mod1(2 * x)
        counts[cell_index(partition, x)] += 1
        counts[cell_index(partition, mod1(2 * x))] -= 1
    return Fraction(max(abs(c) for c in counts), steps)


def stepwise_window_hits(digits: Sequence[int], ends: Iterable[int]) -> dict[int, int]:
    """end -> the number of steps k = 1..end at which (2^k + 1) * x mod 1
    lies in (1/2, 3/4), for x = 0.d_1 d_2 ... d_L in binary: each step
    shifts and masks the whole digit integer."""
    ends = set(ends)
    length = len(digits)
    num, scale = int("".join(map(str, digits)), 2), 1 << length
    out, hits = {}, 0
    for k in range(1, max(ends) + 1):
        # 2^k * x mod 1 = ((num << k) mod 2^L)/2^L, and (2^k + 1) * x mod 1
        # = s/2^L lies in (1/2, 3/4) iff 2s > 2^L and 4s < 3 * 2^L.
        s = ((num << k) & (scale - 1)) + num
        if s >= scale:
            s -= scale
        if 2 * s > scale and 4 * s < 3 * scale:
            hits += 1
        if k in ends:
            out[k] = hits
    return out


def shift_and_mask_window_hits(digits: Sequence[int], ends: Iterable[int]) -> dict[int, int]:
    """end -> the hits of steps 1..end as the zero-block verifier counts
    them: each step before the last 1 digit shifts and masks the whole digit
    integer, s = ((num << k) + num) mod 2^L, and every later step, where the
    tail is 0, takes the verdict of the value itself.  On the digits a
    certificate may hold, whose last 1 comes before the last block start J =
    sqrt(L), that is O(J * L); quadratic in L on digits whose last 1 is near
    the end."""
    ends = sorted(set(ends))
    length = len(digits)
    num, scale = int("".join(map(str, digits)), 2), 1 << length

    def in_band(s: int) -> bool:
        return 2 * s > scale and 4 * s < 3 * scale

    own = in_band(num)
    last = min(len("".join(map(str, digits)).rstrip("0")), ends[-1] + 1)
    flips = [k for k in range(1, last) if in_band(((num << k) + num) & (scale - 1)) != own]
    return {end: end - flipped if own else flipped
            for end in ends for flipped in (sum(1 for k in flips if k <= end),)}


def walked_avoidance_sequence(
    alpha: Fraction, eps: Fraction, prefix: Sequence[int], horizon: int
) -> AvoidanceResult:
    """The avoidance run walked index by index (input checks left out): from
    the last index n it takes n+1 when (n+1)*alpha mod 1 lies outside
    [0, eps), else n+2."""
    alpha = mod1(Fraction(alpha))
    eps = Fraction(eps)
    idx = [int(v) for v in prefix]

    # The orbit runs on residues: n*alpha mod 1 = (n*p mod q)/q, and r/q lies
    # in [0, eps) iff r * eps.denominator < eps.numerator * q.
    p, q = alpha.numerator, alpha.denominator
    e_den, e_bound = eps.denominator, eps.numerator * q

    prefix_length = len(idx)
    residues = [n * p % q for n in idx]
    value = residues[-1]
    while len(idx) < horizon:
        n = idx[-1]
        step1 = (value + p) % q
        if not step1 * e_den < e_bound:
            idx.append(n + 1)
            value = step1
        else:
            idx.append(n + 2)
            value = (step1 + p) % q
        residues.append(value)
    gaps = bytes(b - a for a, b in zip(idx, idx[1:]))
    return AvoidanceResult(
        alpha=alpha,
        eps=eps,
        indices=tuple(idx),
        _residues=tuple(residues),
        gaps=gaps,
        prefix_length=prefix_length,
    )


def hits_after_prefix(result: AvoidanceResult) -> int:
    """The indices n after an avoidance run's prefix whose points
    n*alpha mod 1 lie in [0, eps), recounted from the indices alone: for
    alpha = p/q, those with n*p mod q < ceil(eps*q)."""
    p, q = result.alpha.numerator, result.alpha.denominator
    bound = -(-result.eps.numerator * q // result.eps.denominator)
    return sum(1 for n in result.indices[result.prefix_length :] if n * p % q < bound)


def empirical_measure(points: Sequence[Fraction], partition: CellPartition) -> tuple[int, ...]:
    """Cell counts of all the points over the partition cells."""
    return fraction_checkpoint_scan(points, partition, [len(points)]).counts[0]


def frequencies(counts: Sequence[int]) -> tuple[Fraction, ...]:
    """The cell frequencies count/N of cell counts of N points, as Fractions."""
    n = sum(counts)
    return tuple(Fraction(c, n) for c in counts)


def decimal_ratio(num: int, den: int) -> str:
    """Decimal rendering of num/den (den > 0, need not be reduced) with 12
    places, round-half-away-from-zero, in integers: one divmod and a
    comparison of twice the remainder with den."""
    neg = num < 0
    num = -num if neg else num
    q, r = divmod(num * 10**12, den)
    if 2 * r >= den:
        q += 1
    whole, frac = divmod(q, 10**12)
    body = f"{whole}.{frac:012d}"
    return "-" + body if neg else body


def is_dyadic(value: Fraction) -> bool:
    """Whether the Fraction's denominator is a power of 2."""
    den = Fraction(value).denominator
    return den & (den - 1) == 0


def fraction_decimal_str(value: Fraction) -> str:
    """Decimal rendering with 12 places, round-half-away-from-zero, of a
    Fraction: the integer kernel on its reduced terms."""
    f = Fraction(value)
    return decimal_ratio(f.numerator, f.denominator)


def fraction_scan_to_csv(scan: CheckpointScan) -> str:
    """The scan CSV with every frequency built as a Fraction, then printed."""
    s = len(scan.counts[0])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["N"] + [f"freq_{i}" for i in range(s)] + [f"freq_{i}_exact" for i in range(s)]
    )
    for cp, counts in zip(scan.checkpoints, scan.counts):
        freqs = frequencies(counts)
        writer.writerow(
            [cp]
            + [fraction_decimal_str(f) for f in freqs]
            + [format_rational(f) for f in freqs]
        )
    return out.getvalue()


# --- ratio measures, arcs and binary points --------------------------------------


def ratio_measure(atoms: Iterable[tuple[Fraction, Fraction]]) -> RatioMeasure:
    """The measure of (location, weight) Fraction atoms: distinct locations
    in [0, 1], positive weights summing to 1."""
    atoms = [(Fraction(q), Fraction(w)) for q, w in atoms]
    weights, wden = over_lcm([w for _, w in atoms])
    return RatioMeasure(zip(((q.numerator, q.denominator) for q, _ in atoms), weights), wden)


def ratio_atoms(pi: RatioMeasure) -> tuple[tuple[Fraction, Fraction], ...]:
    """pi's (location, weight) atoms as Fractions, locations increasing, read
    from its JSON form."""
    return tuple((Fraction(q), Fraction(w)) for q, w in pi.to_json())


def ratio_measure_from_pairs(pairs: Iterable[tuple[Fraction, Fraction]]) -> RatioMeasure:
    """Build from unsorted pairs, merging weights at equal locations."""
    merged: dict[Fraction, Fraction] = {}
    for q, w in pairs:
        q, w = Fraction(q), Fraction(w)
        if w == 0:
            continue
        merged[q] = merged.get(q, _ZERO) + w
    return ratio_measure(sorted(merged.items()))


def point_mass(q: Fraction) -> RatioMeasure:
    return ratio_measure([(q, _ONE)])


def mass_at_zero(pi: RatioMeasure) -> Fraction:
    atoms = ratio_atoms(pi)
    return atoms[0][1] if atoms and atoms[0][0] == 0 else _ZERO


def mass_leq(pi: RatioMeasure, t: Fraction) -> Fraction:
    return sum((w for q, w in ratio_atoms(pi) if q <= t), _ZERO)


def harmonic_tail(pi: RatioMeasure, t: Fraction) -> Fraction:
    """sum of weight(q)/q over atoms with q > t (never touches q = 0)."""
    return sum((w / q for q, w in ratio_atoms(pi) if q > t), _ZERO)


def tv_norm_distance(pi: RatioMeasure, other: RatioMeasure) -> Fraction:
    """Total-variation norm sum_q |pi({q}) - other({q})| over all atoms."""
    mine = dict(ratio_atoms(pi))
    theirs = dict(ratio_atoms(other))
    locs = set(mine) | set(theirs)
    return sum((abs(mine.get(q, _ZERO) - theirs.get(q, _ZERO)) for q in locs), _ZERO)


def fraction_mul_mod1(n: int, alpha: Fraction) -> Fraction:
    """n*alpha mod 1 as a Fraction."""
    return mod1(n * Fraction(alpha))


def fraction_contains(interval: TorusInterval, x: Fraction) -> bool:
    """Membership of the point x in [0, 1) by Fraction comparisons."""
    return interval.left < x < interval.right


def fraction_contains_interval(outer: TorusInterval, inner: TorusInterval) -> bool:
    """Interval containment by Fraction comparisons of the ends."""
    return outer.left <= inner.left and inner.right <= outer.right


def interval_json(interval: TorusInterval) -> dict:
    """The JSON object a certificate writes for an interval: its ends in
    lowest terms and an always-false `wraps`."""
    left, right = interval.left, interval.right
    return {"left": f"{left.numerator}/{left.denominator}",
            "right": f"{right.numerator}/{right.denominator}", "wraps": False}


def midpoint(interval: TorusInterval) -> Fraction:
    """The interval's midpoint."""
    return (interval.left + interval.right) / 2


def shift_value(point: BinaryPoint, k: int) -> Fraction:
    """2^k * value mod 1 of the dyadic point: its digits after the first k
    (0 once k reaches the digit count)."""
    if k < 0:
        raise ValueError("shift must be nonnegative")
    if k >= len(point.digits):
        return _ZERO
    return BinaryPoint(point.digits[k:]).value


def F_pi_eval(pi: RatioMeasure, t0: Fraction) -> Fraction:
    """Envelope value F(t0) = pi([0, t0]) + t0 * sum_{q > t0} weight(q)/q, exact."""
    t0 = Fraction(t0)
    return Fraction(*pi.envelope_ratio(t0.numerator, t0.denominator))


def sample_uniform(spec: BlockSpec, blocks: int, seed: int) -> tuple[int, ...]:
    """Seeded uniform member prefix: an independent uniform m_j-subset of each
    block, drawn from one SplitMix64 stream in block order."""
    if blocks < 1:
        raise ValueError("need at least one block")
    rng = SplitMix64(seed)
    out: list[int] = []
    for j in range(1, blocks + 1):
        out.extend(rng.subset(spec.a(j - 1) + 1, spec.a(j), spec.m(j)))
    return tuple(out)


def max_checkpoint_fraction(
    points: Sequence[Fraction],
    checkpoints: Sequence[int],
    member: Callable[[Fraction], bool],
) -> Fraction:
    """Max over checkpoints N of #{n <= N : member(x_n)}/N, exact.

    `member` may encode any target: a single point, an open interval, or an
    enlarged cell union.  This is only a lower bound for the top limit mass
    of the target: mass that sits exactly on a boundary in the limit is
    never counted at finite N.
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


def _cell_lookup(
    x: PointSource | Sequence[Fraction], partition: CellPartition
) -> Callable[[int], int]:
    """Cell of the point x_n, for x a function of n >= 1 or the sequence
    x_1, x_2, ..., memoized."""
    source = x if callable(x) else (lambda n: x[n - 1])
    return cache(lambda n: cell_index(partition, source(n)))


def block_range(spec: BlockSpec, j: int) -> range:
    """The integers of block j."""
    return range(spec.a(j - 1) + 1, spec.a(j) + 1)


def _cell_buckets(
    spec: BlockSpec, j: int, cell_of: Callable[[int], int], s: int
) -> list[list[int]]:
    """The indices of block j by cell, each list ascending."""
    buckets: list[list[int]] = [[] for _ in range(s)]
    for n in block_range(spec, j):
        buckets[cell_of(n)].append(n)
    return buckets


@dataclass(frozen=True)
class BruteForceResult:
    indices: tuple[int, ...]
    deviations: tuple[Fraction, ...]
    total_abs_dev: Fraction
    sorted_dev_tuple: tuple[Fraction, ...]
    leaves: int


def brute_force_extension(
    prefix: Sequence[int],
    spec: BlockSpec,
    x: PointSource | Sequence[Fraction],
    partition: CellPartition,
    target: ExtensionTarget,
    j1: int,
    limit: int = 10**7,
) -> BruteForceResult:
    """Exact minimizer of the final total absolute deviation over all
    admissible extensions through block j1.

    Ties on the total are broken by the lexicographically smallest sorted
    (descending) deviation tuple, then by the smallest per-block cell
    allocation, which pins a unique minimizer; within a block, cells receive
    their smallest available indices.  The admissible-extension count
    prod C(b_j, m_j) must stay within `limit`.
    """
    s = partition.size
    cell_of = _cell_lookup(x, partition)
    j0 = spec.block_of(prefix[-1]) if prefix else 0
    if not validate_membership(prefix, spec, blocks=j0):
        raise ValueError("prefix is not a valid member through its blocks")
    base_counts = [0] * s
    for n in prefix:
        base_counts[cell_of(n)] += 1
    if j1 < j0:
        raise ValueError("j1 must not precede the prefix blocks")
    space = 1
    for j in range(j0 + 1, j1 + 1):
        space *= comb(spec.b(j), spec.m(j))
        if space > limit:
            raise ValueError(f"search space exceeds limit {limit}")
    total = spec.M(j1)
    mu = target.mu.masses
    den = lcm(*(f.denominator for f in mu))
    p_scaled = [int(f * den) for f in mu]  # mu_i * den, exact integers

    # Per block: available indices per cell and the distinct cell-count
    # allocations (k_0..k_{s-1}) with sum m_j, k_i <= avail_i.
    block_opts: list[list[tuple[int, ...]]] = []
    block_avail: list[list[list[int]]] = []
    for j in range(j0 + 1, j1 + 1):
        avail = _cell_buckets(spec, j, cell_of, s)
        block_avail.append(avail)
        block_opts.append(_count_vectors(tuple(len(a) for a in avail), spec.m(j)))

    best_key = None
    best_path: tuple[tuple[int, ...], ...] | None = None
    leaves = 0
    path: list[tuple[int, ...]] = []

    def walk(depth: int, counts: list[int]):
        nonlocal best_key, best_path, leaves
        if depth == len(block_opts):
            leaves += 1
            scaled = [p_scaled[i] * total - counts[i] * den for i in range(s)]
            t = sum(abs(v) for v in scaled)
            key = (t, tuple(sorted(scaled, reverse=True)), tuple(path))
            if best_key is None or key < best_key:
                best_key = key
                best_path = tuple(path)
            return
        for vec in block_opts[depth]:
            for i in range(s):
                counts[i] += vec[i]
            path.append(vec)
            walk(depth + 1, counts)
            path.pop()
            for i in range(s):
                counts[i] -= vec[i]

    walk(0, list(base_counts))
    if best_path is None:  # every block supplied a vector, so this cannot fire
        raise AssertionError("enumeration produced no candidate")

    indices = list(prefix)
    for depth, vec in enumerate(best_path):
        for i in range(s):
            indices.extend(block_avail[depth][i][: vec[i]])
    indices.sort()
    counts = list(base_counts)
    for vec in best_path:
        for i in range(s):
            counts[i] += vec[i]
    devs = tuple(mu[i] - Fraction(counts[i], total) for i in range(s))
    return BruteForceResult(
        indices=tuple(indices),
        deviations=devs,
        total_abs_dev=sum((abs(d) for d in devs), _ZERO),
        sorted_dev_tuple=tuple(sorted(devs, reverse=True)),
        leaves=leaves,
    )


def _count_vectors(avail: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """All (k_i) with sum = m and 0 <= k_i <= avail_i, lexicographically
    largest-first on the first cells (so smaller cells yield deterministic
    order)."""
    out: list[tuple[int, ...]] = []
    vec: list[int] = []

    def rec(i: int, left: int):
        if i == len(avail) - 1:
            if left <= avail[i]:
                out.append(tuple(vec + [left]))
            return
        for k in range(min(avail[i], left), -1, -1):
            vec.append(k)
            rec(i + 1, left - k)
            vec.pop()

    if m == 0:
        return [tuple([0] * len(avail))]
    rec(0, m)
    if not out:
        raise ValueError("block cannot supply the required multiplicity")
    return out


def deviation_gap_cells(deviations: Sequence[Fraction], eps: Fraction) -> tuple[int, ...]:
    """High-deviation cell set: cells above the first sorted-deviation gap
    exceeding eps/s^2 (with the gap's top value also above eps/s^2).

    Empty when there is no such gap, meaning no exchange obligation is in
    force.
    """
    s = len(deviations)
    thresh = Fraction(eps) / (s * s)
    order = sorted(range(s), key=lambda i: (-deviations[i], i))
    for r in range(s - 1):
        top, nxt = deviations[order[r]], deviations[order[r + 1]]
        if top - nxt > thresh and top > thresh:
            return tuple(sorted(order[: r + 1]))
    return ()


@dataclass(frozen=True)
class BlockFactCheck:
    block: int
    y_available: int
    y_chosen: int
    multiplicity: int
    literal_ok: bool
    exchange_ok: bool


@dataclass(frozen=True)
class ExchangeFactsReport:
    y_cells: tuple[int, ...]
    applicable: bool
    blocks: tuple[BlockFactCheck, ...]

    @property
    def literal_ok(self) -> bool:
        return all(b.literal_ok for b in self.blocks)

    @property
    def exchange_ok(self) -> bool:
        return all(b.exchange_ok for b in self.blocks)


def exchange_facts(
    indices: Sequence[int],
    spec: BlockSpec,
    x: PointSource | Sequence[Fraction],
    partition: CellPartition,
    target: ExtensionTarget,
    j_start: int,
    j_end: int,
) -> ExchangeFactsReport:
    """Check the exchange structure of a candidate solution on blocks
    (j_start, j_end].

    Y is the high-deviation cell set of the *final* deviations (gap rule; if
    no gap exists the obligations are vacuous and the report says so).  Per
    block, either every chosen index lies in Y (when the block offers at
    least m_j indices in Y) or every offered Y-index is chosen.  A literal
    failure is additionally retested by swapping: `exchange_ok` stays true
    when no single in-block swap of a chosen non-Y index for an unchosen
    Y-index strictly improves the (total deviation, sorted tuple) objective,
    which is exactly the optimality the minimizer must have.
    """
    s = partition.size
    cell_of = _cell_lookup(x, partition)
    chosen_set = set(indices)
    total = sum(1 for n in indices if n <= spec.a(j_end))
    counts = [0] * s
    for n in indices:
        if n <= spec.a(j_end):
            counts[cell_of(n)] += 1
    mu = target.mu.masses
    devs = [mu[i] - Fraction(counts[i], total) for i in range(s)]
    y_cells = deviation_gap_cells(devs, target.eps)
    if not y_cells:
        return ExchangeFactsReport(y_cells=(), applicable=False, blocks=())
    y_set = set(y_cells)

    def objective(cnts: Sequence[int]) -> tuple[Fraction, tuple[Fraction, ...]]:
        d = [mu[i] - Fraction(cnts[i], total) for i in range(s)]
        return sum((abs(v) for v in d), _ZERO), tuple(sorted(d, reverse=True))

    base_obj = objective(counts)
    checks = []
    for j in range(j_start + 1, j_end + 1):
        members = list(block_range(spec, j))
        y_avail = sum(1 for n in members if cell_of(n) in y_set)
        in_block_chosen = [n for n in members if n in chosen_set]
        y_chosen = sum(1 for n in in_block_chosen if cell_of(n) in y_set)
        m_j = spec.m(j)
        if y_avail >= m_j:
            literal = y_chosen == m_j
        else:
            literal = y_chosen == y_avail
        exchange = literal
        if not literal:
            exchange = True
            swap_out = [n for n in in_block_chosen if cell_of(n) not in y_set]
            swap_in = [n for n in members if n not in chosen_set and cell_of(n) in y_set]
            for n_out in swap_out:
                for n_in in swap_in:
                    trial = list(counts)
                    trial[cell_of(n_out)] -= 1
                    trial[cell_of(n_in)] += 1
                    if objective(trial) < base_obj:
                        exchange = False
                        break
                if not exchange:
                    break
        checks.append(
            BlockFactCheck(
                block=j,
                y_available=y_avail,
                y_chosen=y_chosen,
                multiplicity=m_j,
                literal_ok=literal,
                exchange_ok=exchange,
            )
        )
    return ExchangeFactsReport(y_cells=y_cells, applicable=True, blocks=tuple(checks))


# --- the greedy's chunk-search loop ------------------------------------------------

# The reference greedy's own copies of the package helpers it called.
_FIRST_READ = 8


def _cell_indices(nums: Sequence[int], bounds: Sequence[int], den: int) -> Iterator[int]:
    if nums and not (0 <= min(nums) and max(nums) < den):
        raise ValueError("points must lie in [0, 1)")
    return map(bisect_right, repeat(bounds), nums)


def _prefix_blocks(prefix: Sequence[int], spec: BlockSpec) -> int:
    """The block of the prefix's last index, 0 for an empty prefix; the
    program checks the prefix before the reference sees it."""
    return spec.block_of(prefix[-1]) if prefix else 0


def chunk_search_greedy_extension(
    prefix: Sequence[int],
    spec: BlockSpec,
    x: Residues,
    partition: CellPartition,
    target: ExtensionTarget,
    blocks: int,
    fixed_horizon: bool = False,
) -> ExtensionResult:
    """`greedy_extension` as it searched a block's mapped cells with
    `list.index`, with one `find` call per cell tied at the largest
    deficit: the reference the per-cell queue loop is held to, pick for pick
    and trace field for trace field."""
    s = partition.size
    if target.mu.size != s:
        raise ValueError("partition and target sizes disagree")
    if blocks < 0:
        raise ValueError("block budget must be nonnegative")
    verdict = envelope_dominates(target.mu, partition.lebesgue_masses(), target.pi)
    if not verdict.ok:
        raise ValueError(
            f"target exceeds the envelope on cells {verdict.violation}: "
            f"{verdict.union_mass} > {verdict.bound}"
        )
    nums, x_den = x.nums, x.den
    j0 = _prefix_blocks(prefix, spec)
    chosen = list(prefix)
    # bisect_right(bounds, r) is the cell of r/x_den, for 0 <= r < x_den.
    bounds = partition.thresholds(x_den)[1:]
    counts = [0] * s
    for c in _cell_indices([nums[n - 1] for n in chosen], bounds, x_den):
        counts[c] += 1
    mu = target.mu.masses
    eps = target.eps
    # Deficits are held as integers over den; every pick of cell c lowers
    # deficit[c] by den.
    mu_scaled, den = over_lcm(mu)
    trace: list[BlockTrace] = []
    prefix_mass = spec.M(j0)

    def deviations() -> tuple[tuple[int, ...], int]:
        """mu_i - counts_i/M for the M indices chosen so far, as integer
        numerators over den*M; mu itself, over den, when M = 0."""
        total = len(chosen) or 1
        return tuple([mu_scaled[i] * total - counts[i] * den for i in range(s)]), den * total

    achieved = False
    j = j0
    hi = spec.a(j0)
    final_total = spec.M(j0 + blocks) if fixed_horizon else None
    forced_after: dict[int, list[int]] = {}
    if fixed_horizon:
        # forced_after[j][i]: picks of cell i that blocks after j will force
        # because their other cells cannot absorb the block multiplicity.
        last = j0 + blocks
        suffix = [0] * s
        forced_after[last] = list(suffix)
        for jj in range(last, j0, -1):
            cells = list(_cell_indices(nums[spec.a(jj - 1) : spec.a(jj)], bounds, x_den))
            m_jj = spec.m(jj)
            for i in range(s):
                suffix[i] += max(0, m_jj - (len(cells) - cells.count(i)))
            forced_after[jj - 1] = list(suffix)
    while j - j0 < blocks:
        j += 1
        m_j = spec.m(j)
        steer_total = final_total if final_total is not None else len(chosen) + m_j
        future = forced_after.get(j, [0] * s)
        deficit = [mu_scaled[i] * steer_total - (counts[i] + future[i]) * den for i in range(s)]
        # Below every deficit the block can reach: the mark of a cell with no
        # free index left in it.
        spent = min(deficit) - m_j * den - 1
        lo, hi = hi, spec.a(j)
        if len(nums) < hi:
            raise ValueError(f"x lists {len(nums)} points, fewer than the {hi} the blocks need")
        # cells[k] is the cell of index lo + 1 + k, for the points read so far;
        # head[c] is the position of cell c's smallest free index once found
        # (-1: none left), and start[c] where the search for it begins.
        cells = []
        read, chunk = lo, _FIRST_READ
        head: list[int | None] = [None] * s
        start = [0] * s

        def find(c: int, k: int) -> int:
            nonlocal read, chunk
            while True:
                try:
                    return cells.index(c, k)
                except ValueError:
                    if read == hi:
                        return -1
                    k = max(k, len(cells))
                    cells.extend(_cell_indices(nums[read : min(read + chunk, hi)], bounds, x_den))
                    read = lo + len(cells)
                    chunk *= 2

        picked: list[int] = []
        for _ in range(m_j):
            best = -1
            while best < 0:
                top = max(deficit)
                for c in range(s):
                    if deficit[c] != top:
                        continue
                    k = head[c]
                    if k is None:
                        k = head[c] = find(c, start[c])
                    if k < 0:
                        deficit[c] = spent
                    elif best < 0 or k < best:
                        best, pick = k, c
            picked.append(lo + 1 + best)
            counts[pick] += 1
            deficit[pick] -= den
            head[pick], start[pick] = None, best + 1
        picked.sort()
        chosen.extend(picked)
        dev_nums, dev_den = deviations()
        trace.append(BlockTrace(j, tuple(picked), len(chosen), dev_nums, dev_den))
        if not fixed_horizon:
            # prefix_mass/len(chosen) < eps/(3s), and every |deviation| < eps.
            washout = (
                prefix_mass == 0
                or prefix_mass * 3 * s * eps.denominator < eps.numerator * len(chosen)
            )
            if washout and max(map(abs, dev_nums)) * eps.denominator < eps.numerator * dev_den:
                achieved = True
                break
    dev_nums, dev_den = deviations()
    max_abs_dev = Fraction(max(map(abs, dev_nums)), dev_den)
    if fixed_horizon:
        achieved = max_abs_dev < eps
    return ExtensionResult(
        indices=tuple(chosen),
        blocks=j,
        total_abs_dev=Fraction(sum(map(abs, dev_nums)), dev_den),
        max_abs_dev=max_abs_dev,
        achieved=achieved,
        trace=tuple(trace),
    )
