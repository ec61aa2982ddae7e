"""Block-constrained subsequence spaces and the envelope bound on their
limit measures.

A block spec partitions the positive integers into consecutive blocks of
lengths b_1, b_2, ... and fixes how many indices (m_j) a subsequence takes
from each block.  The sampling ratios q_j = m_j/b_j, weighted by m_j, form a
discrete probability measure on [0, 1]; its envelope function

    F(t) = mass((0-atoms and atoms <= t)) + t * sum_{q > t} weight(q)/q

caps every achievable limit measure of such subsequences of a well-distributed
sequence: mu(A) <= F(lambda(A)) for all Borel A.  Because F is concave, the
binding checks are on unions of partition cells, not single cells.  The same
concavity makes the union check exact in polynomial time: among unions of a
set of cells, one violates F + tol iff a prefix of those cells in decreasing
mu/lambda order does, so `envelope_dominates` decides all 2^s - 1 unions with
at most s(s + 3)/2 checks.

The measure and F travel as integers: `pi_measure` counts m_j at each
reduced ratio over M_N, a `RatioMeasure` keeps integer prefix masses and
harmonic tails over common denominators, F at num/den is one integer
numerator and denominator (`RatioMeasure.envelope_ratio`), and the walk tests
mu(A) > F(lambda(A)) + tol by cross-multiplication on numerators over the
lcms of mu's and lambda's denominators.  A Fraction is built only where a
value is reported.  Envelope certificates are re-checked by an independent
integer verifier in `certificates`, which shares no code with this module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cmp_to_key
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .empirical import MeasureVector
from .exact import format_ratio

__all__ = [
    "BlockSpec",
    "RatioMeasure",
    "AdmissibilityReport",
    "check_admissible",
    "pi_measure",
    "DominationResult",
    "envelope_dominates",
]

_ZERO = Fraction(0)


class BlockSpec:
    """Block lengths b_j and per-block multiplicities m_j (j is 1-based),
    each side a finite list or a function of j.  `_form` forms blocks in
    order for both kinds of side, checking b_j >= 1 and 0 <= m_j <= b_j, and
    keeps only the block ends a_j and totals M_j.  Two lists are formed
    whole at construction and a function side as far as it is read, so each
    side runs once per formed block, and a read of a formed block is a
    bounds test and a list index."""

    def __init__(self, lengths: Sequence[int] | Callable[[int], int],
                 multiplicities: Sequence[int] | Callable[[int], int]):
        self._a: list[int] = [0]
        self._M: list[int] = [0]
        # A list side is copied, led by a 0 so that block j is entry j.
        sides = [(side if callable(side) else (0, *side), name)
                 for side, name in ((lengths, "lengths"), (multiplicities, "multiplicities"))]
        self._given = [(len(side) - 1, name) for side, name in sides if not callable(side)]
        self._b_at, self._m_at = (side if callable(side) else side.__getitem__ for side, _ in sides)
        if len({count for count, _ in self._given}) > 1:
            raise ValueError("lengths and multiplicities must have equal length")
        if len(self._given) == 2:
            self._form(self._given[0][0], 0)

    def _form(self, j: int, first: int) -> None:
        """Form blocks up to j for a read indexed from block `first` on,
        refusing a block past a list's end before either side is called."""
        if j < first:
            raise ValueError(f"block {j}: index must be at least {first}")
        for count, name in self._given:
            if j > count:
                raise IndexError(f"block {j} beyond the {count} given {name}")
        a, M, b_at, m_at = self._a, self._M, self._b_at, self._m_at
        for i in range(len(a), j + 1):
            b, m = int(b_at(i)), int(m_at(i))
            if b < 1:
                raise ValueError(f"block {i}: length {b} must be >= 1")
            if not 0 <= m <= b:
                raise ValueError(f"block {i}: multiplicity {m} violates 0 <= m <= b ({b})")
            a.append(a[-1] + b)
            M.append(M[-1] + m)

    def b(self, j: int) -> int:
        if not 0 < j < len(self._a):
            self._form(j, 1)
        return self._a[j] - self._a[j - 1]

    def m(self, j: int) -> int:
        if not 0 < j < len(self._M):
            self._form(j, 1)
        return self._M[j] - self._M[j - 1]

    def a(self, j: int) -> int:
        """End of block j >= 0: blocks are (a(j-1), a(j)], and a(0) = 0."""
        if not 0 <= j < len(self._a):
            self._form(j, 0)
        return self._a[j]

    def M(self, j: int) -> int:
        """Total multiplicity of blocks 1..j, for j >= 0."""
        if not 0 <= j < len(self._M):
            self._form(j, 0)
        return self._M[j]

    def block_of(self, n: int) -> int:
        """Block index containing the integer n >= 1 (list specs must cover
        n): blocks are formed until their ends pass n, and the block is found
        by bisection on the ends."""
        if n < 1:
            raise ValueError("indices are positive")
        while self._a[-1] < n:
            self._form(len(self._a), 1)
        return bisect_left(self._a, n)


class RatioMeasure:
    """Finite discrete probability measure on [0, 1]: distinct atom
    locations with positive weights summing to exactly 1.

    The measure is held as integers.  Atom i sits at p_i/q_i in lowest
    terms, also kept as the key k_i = p_i * (L // q_i) over the lcm L of the
    q_i, and weighs w_i/W for integers w_i over one denominator W.  For F
    it stores the weight of the first i atoms (`_mass_upto[i]`, over W) and
    the sum of weight/location over the atoms from i on (`_harmonic_from[i]`:
    the sum of w_j * q_j * (P // p_j), over W * P for the lcm P of the
    nonzero p_j).  A 0-atom adds nothing to the latter: F(t) reads it only
    past the atoms <= t, and t >= 0.
    """

    __slots__ = ("_locs", "_weights", "_wden", "_scale", "_keys", "_mass_upto",
                 "_hscale", "_harmonic_from")

    def __init__(self, weighted: Iterable[tuple[tuple[int, int], int]], wden: int):
        """Weight w/wden at p/q for each ((p, q), w) in weighted, in any order:
        distinct reduced locations in [0, 1], positive weights summing to
        wden (not checked)."""
        weighted = list(weighted)
        scale = lcm(*(q for (_, q), _ in weighted))
        rows = sorted((p * (scale // q), p, q, w) for (p, q), w in weighted)
        locs = [(p, q) for _, p, q, _ in rows]
        weights = [w for *_, w in rows]
        hscale = lcm(*(p for p, _ in locs if p))
        self._locs, self._weights, self._wden = tuple(locs), tuple(weights), wden
        self._scale, self._hscale = scale, hscale
        self._keys = tuple(k for k, *_ in rows)
        self._mass_upto = tuple(accumulate(weights, initial=0))
        tails = [w * q * (hscale // p) if p else 0 for (p, q), w in zip(locs, weights)]
        self._harmonic_from = tuple(accumulate(reversed(tails), initial=0))[::-1]

    def envelope_ratio(self, num: int, den: int) -> tuple[int, int]:
        """F(num/den) as an integer numerator over a positive denominator,
        not reduced, for 0 <= num/den <= 1 (den > 0; not checked): atom i
        lies at or below num/den iff k_i <= floor(num * L / den).  The
        denominator depends on den alone, so F on a grid i/den shares it."""
        i = bisect_right(self._keys, num * self._scale // den)
        hscale_den = self._hscale * den
        return (self._mass_upto[i] * hscale_den + num * self._harmonic_from[i],
                self._wden * hscale_den)

    def to_json(self) -> list:
        wden = self._wden
        return [[format_ratio(p, q), format_ratio(w, wden)]
                for (p, q), w in zip(self._locs, self._weights)]


def pi_measure(spec: BlockSpec, horizon: int) -> RatioMeasure:
    """Ratio measure of the first `horizon` blocks: weight m_j/M_horizon at
    each distinct ratio q_j = m_j/b_j (blocks with m_j = 0 contribute nothing),
    counted as the integer m_j at the reduced location (m_j/g, b_j/g),
    g = gcd(m_j, b_j)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    total = spec.M(horizon)  # forms every block up to the horizon
    if total == 0:
        raise ValueError("all multiplicities are zero up to the horizon")
    a, M = spec._a, spec._M
    counts: dict[tuple[int, int], int] = {}
    for j in range(1, horizon + 1):
        if m := M[j] - M[j - 1]:
            b = a[j] - a[j - 1]
            g = gcd(m, b)
            loc = (m // g, b // g)
            counts[loc] = counts.get(loc, 0) + m
    return RatioMeasure(counts.items(), total)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Finite-horizon trend report for a block spec.

    Admissibility requires b_j -> infinity and m_j/M_j -> 0; at any finite
    horizon only the trend is observable, so the report shows tail minima of
    b_j and tail maxima of m_j/M_j at a few anchor points and flags the cases
    where the trend visibly fails.
    """

    horizon: int
    anchors: tuple[int, ...]
    b_tail_min: tuple[int, ...]
    ratio_tail_max: tuple[Fraction, ...]
    b_bounded_flag: bool
    ratio_stalled_flag: bool


def check_admissible(spec: BlockSpec, horizon: int) -> AdmissibilityReport:
    """Validate m_j <= b_j up to the horizon (hard error if violated, done by
    BlockSpec itself) and report divergence/vanishing trends."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    spec.M(horizon)  # forms every block up to the horizon
    anchors = sorted({1, max(1, horizon // 4), max(1, horizon // 2), max(1, (3 * horizon) // 4)})
    a, M = spec._a, spec._M
    # One pass down from the horizon keeps the tail minimum of b_j and the
    # tail maximum of m_j/M_j (1 where M_j = 0) as an integer pair, compared
    # by cross-multiplication; a Fraction is built only at the anchors.
    b_tail_min: list[int] = []
    ratio_tail_max: list[Fraction] = []
    low, top_num, top_den = a[horizon], -1, 1
    pending = anchors[::-1]
    for j in range(horizon, 0, -1):
        low = min(low, a[j] - a[j - 1])
        num, den = (M[j] - M[j - 1], M[j]) if M[j] > 0 else (1, 1)
        if num * top_den > top_num * den:
            top_num, top_den = num, den
        if j == pending[0]:
            pending.pop(0)
            b_tail_min.append(low)
            ratio_tail_max.append(Fraction(top_num, top_den))
            if not pending:
                break
    b_tail_min.reverse()
    ratio_tail_max.reverse()
    b_bounded = b_tail_min[-1] <= b_tail_min[0] and horizon > 1
    ratio_stalled = ratio_tail_max[-1] >= ratio_tail_max[0] and horizon > 1
    return AdmissibilityReport(
        horizon=horizon,
        anchors=tuple(anchors),
        b_tail_min=tuple(b_tail_min),
        ratio_tail_max=tuple(ratio_tail_max),
        b_bounded_flag=b_bounded,
        ratio_stalled_flag=ratio_stalled,
    )


@dataclass(frozen=True)
class DominationResult:
    ok: bool
    violation: tuple[int, ...] | None = None
    union_mass: Fraction | None = None
    bound: Fraction | None = None
    unions_checked: int = 0


def envelope_dominates(
    mu: MeasureVector,
    lam: MeasureVector,
    pi: RatioMeasure,
    tol: Fraction = _ZERO,
) -> DominationResult:
    """Check mu(A) <= F(lambda(A)) + tol for every union A of partition cells
    and report the first violation in lexicographic order of the sorted
    index tuples (the pre-order of the subset tree), with its masses and the
    number of unions checked.

    The check is exact without visiting all 2^s - 1 unions.  Fix a node C
    of the subset tree (the root is the empty union) and order the cells
    after its last index by decreasing mu_i/lambda_i, zero-lambda cells
    first, ties by index.  For every union S of those cells the point
    (lambda(S), mu(S)) lies on or under the polygon through the points
    (lambda(P), mu(P)) of the prefixes P of that order: the
    fractional-knapsack bound (Dantzig 1957).  Because F is concave, the
    region on or under F + tol is convex.  So if C and every C + P satisfy
    the bound, that region holds the polygon shifted by C, and with it every
    C + S.  Hence C's subtree holds a violation iff C or one of its at most
    s prefixes does, and no breakpoint of F needs a check of its own.

    The walk checks the root's prefixes (s checks settle an ok verdict).
    Otherwise it descends only into subtrees that the density-order prefixes
    show to hold a violation: to the first child that violates or whose
    prefixes show a violation below it, which gives the first violation of
    the full pre-order walk.  Each cell is tried as a child at most once, at
    a cost of at most s - j checks for cell j, so at most s(s + 3)/2 unions
    are checked, within (s + 1)^3.  A negative tol is refused: the empty
    root could then lie above F + tol, and the argument needs it on or under.

    Masses travel as integer numerators over the lcms mu_den and lam_den of
    mu's and lambda's denominators.  With F(l/lam_den) = f/(W * P * lam_den)
    from `RatioMeasure.envelope_ratio`, the test mu(A) > F(lambda(A)) + tol
    is decided by cross-multiplication.
    """
    s = mu.size
    if lam.size != s:
        raise ValueError("mu, lambda and partition disagree on the cell count")
    tol = Fraction(tol)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    mu_num, mu_den, lam_num, lam_den = mu.nums, mu.den, lam.nums, lam.den
    tol_num, tol_den = tol.numerator, tol.denominator
    f_den = pi._wden * pi._hscale * lam_den
    mu_scale, f_scale, tol_term = f_den * tol_den, tol_den * mu_den, tol_num * f_den * mu_den

    def exceeds(m: int, l: int) -> bool:
        return m * mu_scale > pi.envelope_ratio(l, lam_den)[0] * f_scale + tol_term

    def denser(i: int, j: int) -> int:
        # zero-lambda cells first, then decreasing mu/lambda, ties by index
        if (lam_num[i] == 0) != (lam_num[j] == 0):
            return -1 if lam_num[i] == 0 else 1
        return (mu_num[j] * lam_num[i] - mu_num[i] * lam_num[j]) or i - j

    order = sorted(range(s), key=cmp_to_key(denser))
    checked = 0

    def violation_below(last: int, m: int, l: int) -> bool:
        # The node (m, l) itself satisfies the bound; some union of the
        # cells after `last` joined to it violates iff a prefix does.
        nonlocal checked
        for i in order:
            if i > last:
                m, l = m + mu_num[i], l + lam_num[i]
                checked += 1
                if exceeds(m, l):
                    return True
        return False

    if not violation_below(-1, 0, 0):
        return DominationResult(True, unions_checked=checked)
    # Each candidate child j is tried once: a child that holds no violation
    # is skipped for good, and descending into j continues with j + 1.
    cells: tuple[int, ...] = ()
    m = l = 0
    for j in range(s):
        m_j, l_j = m + mu_num[j], l + lam_num[j]
        checked += 1
        if exceeds(m_j, l_j):
            bound = Fraction(*pi.envelope_ratio(l_j, lam_den))
            return DominationResult(False, cells + (j,), Fraction(m_j, mu_den), bound, checked)
        if violation_below(j, m_j, l_j):
            cells, m, l = cells + (j,), m_j, l_j
    raise AssertionError("the prefixes showed a violation the descent did not reach")
