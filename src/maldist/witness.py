"""Explicit rational points whose multiplication orbits are provably
irregular, built by nested-interval chains.

The engine is `mixing_chain`: given multipliers growing fast enough, it pins
down a nested chain of rational intervals forcing n_k * alpha mod 1 into a
prescribed target interval for every k, and returns the midpoint of the last
interval.  On top of it sit two witness constructions (one forcing a short
interval to be hit with frequency above 1/(2c) along a geometric-growth
sequence, one forcing an entire histogram shape at horizon N0^2), the
gap-{1,2} avoidance extension that keeps an orbit out of a fixed interval
forever, and the zero-block digit surgery used by the doubling-map analysis.

Each result ships in a certificate (`maldist.certificates`) whose claims
carry the checks, and `verify` rechecks them on its own code; so the builders
here check their inputs and re-check nothing they build.

Multipliers travel as `Multipliers`, a tuple of the terms that carries each
ratio n_k / n_{k-1}: a rule such as `pow:b` gives its ratios as it forms its
terms, and any other sequence gets them from one `divmod` per term.  The
chain, the residues and the certificate writer read these ratios, so no
builder divides two multipliers.  A rule also passes an integer whose primes
cover every term (b for `pow:b` and `squarepow:b`), with which the chain
reduces its alpha without a gcd over the last multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice, repeat
from operator import mod, sub
from math import gcd
from typing import Sequence

from .doubling import BinaryPoint
from .empirical import Residues, star_discrepancy
from .exact import _coprime_fraction, binary_digits, mod1
from .torus import TorusInterval

__all__ = [
    "MixingConfigError",
    "MixingConfig",
    "MixingChain",
    "mixing_chain",
    "WitnessPlan",
    "auto_plan",
    "HitFrequencyWitness",
    "hit_frequency_witness",
    "HistogramTarget",
    "HistogramWitness",
    "histogram_witness",
    "AvoidanceResult",
    "avoidance_sequence",
    "zero_block_alpha",
]

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)

# Default start interval for chains whose witness may sit anywhere.
_DEFAULT_START = TorusInterval(_ZERO, _HALF)


class Multipliers(tuple):
    """Integer multipliers n_1, n_2, ... with their ratios: `ratios[k]` is
    n_{k+1} / n_k when n_k is nonzero and divides n_{k+1}, else 0, and
    `ratios[0]` is n_1 itself (the ratio over n_0 = 1).

    A rule passes the ratios it forms its (int) terms with; without them, the
    terms are read by `int` and the ratios come from one `divmod` per term.  A
    rule also passes `cover`, a positive integer that every prime factor of
    every term divides, by which `mixing_chain` reduces its alpha; it is
    None for any other sequence.  A slice is a `Multipliers` with the same
    cover whose first ratio is over 1 again: a contiguous slice keeps the
    ratios it spans, and a stepped or reversed one gets its ratios by one
    `divmod` per term.  `Multipliers(m)` of a `Multipliers` m is m.
    """

    def __new__(cls, terms=(), ratios=None, cover=None):
        if ratios is None and type(terms) is cls:
            return terms
        self = super().__new__(cls, map(int, terms) if ratios is None else terms)
        if ratios is None:
            ratios, prev = [], 1
            for n in self:
                ratio, rem = divmod(n, prev) if prev else (0, 1)
                ratios.append(0 if rem else ratio)
                prev = n
        self.ratios = tuple(ratios)
        self.cover = cover
        if len(self.ratios) != len(self):
            raise ValueError("need one ratio per multiplier")
        return self

    def __getitem__(self, key):
        terms = tuple.__getitem__(self, key)
        if not isinstance(key, slice):
            return terms
        start, stop, step = key.indices(len(self))
        if terms and step == 1:
            return Multipliers(terms, (terms[0], *self.ratios[start + 1 : stop]), self.cover)
        return Multipliers(terms, cover=self.cover)


class MixingConfigError(ValueError):
    """A growth or size hypothesis of a chain configuration fails; carries the
    index of the first offending multiplier (0 for the initial-size check)."""

    def __init__(self, index: int, reason: str):
        self.index = index
        super().__init__(f"mixing hypothesis fails at k={index}: {reason}")


@dataclass(frozen=True)
class MixingConfig:
    """Multipliers n_1 < n_2 < ..., target width eps, start width delta, the
    start interval (length >= delta) and one target interval (length >= eps)
    per multiplier.

    Hypotheses checked exactly: n_{k+1} > (2/eps) n_k for all k, and
    n_1 > 2/delta.
    """

    multipliers: Multipliers
    eps: Fraction
    delta: Fraction
    start: TorusInterval
    targets: tuple[TorusInterval, ...]

    def __post_init__(self):
        object.__setattr__(self, "multipliers", Multipliers(self.multipliers))
        object.__setattr__(self, "eps", Fraction(self.eps))
        object.__setattr__(self, "delta", Fraction(self.delta))
        object.__setattr__(self, "targets", tuple(self.targets))

    def validate(self) -> None:
        if not 0 < self.eps < 1 or not 0 < self.delta < 1:
            raise MixingConfigError(0, "eps and delta must lie in (0, 1)")
        if len(self.targets) != len(self.multipliers):
            raise MixingConfigError(0, "need one target interval per multiplier")
        if self.start.length < self.delta:
            raise MixingConfigError(0, f"start interval shorter than delta={self.delta}")
        n = self.multipliers
        if n and n[0] * self.delta.numerator <= 2 * self.delta.denominator:
            raise MixingConfigError(1, f"n_1={n[0]} must exceed 2/delta={2 / self.delta}")
        e_num, e_den = self.eps.numerator, self.eps.denominator
        # n_{k-1} > 0 here (n_1 > 2/delta, and each step grows), so an exact
        # ratio n_k / n_{k-1} decides the growth alone.
        steps = zip(n, islice(n, 1, None), islice(n.ratios, 1, None))
        for k, (prev, nxt, ratio) in enumerate(steps, start=2):
            if (ratio * e_num <= 2 * e_den) if ratio else (nxt * e_num <= 2 * prev * e_den):
                raise MixingConfigError(
                    k, f"n_{k}={nxt} must exceed (2/eps) n_{k - 1}={2 * prev / self.eps}")
        first = {}  # each target object is checked at its first index only
        for k, t in enumerate(self.targets, start=1):
            if first.setdefault(id(t), k) != k:
                continue
            # right - left < eps, as (rn*ld - ln*rd) * e_den < e_num * ld*rd.
            a, b = t.left, t.right
            ld, rd = a.denominator, b.denominator
            if (b.numerator * ld - a.numerator * rd) * e_den < e_num * ld * rd:
                raise MixingConfigError(k, f"target {k} shorter than eps={self.eps}")


@dataclass(frozen=True)
class MixingChain:
    """Nested intervals I_0 (the start) down to I_K, and alpha = midpoint of I_K.

    Interval k >= 1 is the piece of the preimage of target k (trimmed to
    length eps) in the cell [j_k/n_k, (j_k + 1)/n_k]; `cells` holds j_1..j_K.
    """

    config: MixingConfig
    cells: tuple[int, ...]
    alpha: Fraction

    @cached_property
    def intervals(self) -> tuple[TorusInterval, ...]:
        cfg = self.config
        chain = [cfg.start]
        for n_k, target, j in zip(cfg.multipliers, cfg.targets, self.cells):
            a = target.left
            chain.append(TorusInterval(Fraction(a + j, n_k), Fraction(a + cfg.eps + j, n_k)))
        return tuple(chain)


def mixing_chain(config: MixingConfig) -> MixingChain:
    """Build the nested chain: I_k has exact length eps/n_k, sits inside
    I_{k-1}, and maps into target k under multiplication by n_k.

    The returned alpha (midpoint of the last interval) therefore satisfies
    alpha in start and n_k * alpha mod 1 in target_k for every k.  The chain
    is not re-checked here: its `mixing` certificate states alpha in the
    start and every containment, length and nesting, and `verify` rechecks
    them.

    The chain runs on integers: interval k's ends are numerators over
    lo_den * n_k and hi_den * n_k, with small denominators (the start has
    n_0 = 1).  Where the multipliers carry the ratio n_k / n_{k-1}
    (`Multipliers.ratios`), the next cell comes from it, at a cost linear in
    the bits of n_k; the chain divides no multiplier by another.  Where
    they carry a cover, alpha is reduced by it (`_reduced`), with no gcd
    over n_K.
    """
    config.validate()
    e_num, e_den = config.eps.numerator, config.eps.denominator
    start = config.start
    lo, lo_den = start.left.numerator, start.left.denominator
    n = config.multipliers
    prev = 1
    cells = []
    for n_k, ratio, target in zip(n, n.ratios, config.targets):
        # Interval k-1 over n_k has left end lo*scale/(lo_den*n_k), with
        # scale = n_k/prev, the ratio, when prev divides n_k.  It is longer
        # than 2/n_k (n_1 > 2/delta and n_k > (2/eps) n_{k-1}), so the cell
        # [j/n_k, (j+1)/n_k] of the smallest j above its left end fits
        # strictly inside it.
        scale = ratio
        if not ratio:
            scale, lo_den = n_k, lo_den * prev
        j = lo * scale // lo_den + 1
        cells.append(j)
        # Interval k is ((a + j)/n_k, (a + eps + j)/n_k) for a = target.left:
        # the preimage in cell j of the target's leading eps.
        a = target.left
        lo, lo_den = a.numerator + j * a.denominator, a.denominator
        prev = n_k
    if cells:
        # The last interval's right end lies eps past its left end.
        hi, hi_den = lo * e_den + e_num * lo_den, lo_den * e_den
    else:
        hi, hi_den = start.right.numerator, start.right.denominator
    num, den = lo * hi_den + hi * lo_den, 2 * lo_den * hi_den
    if n.cover is None:
        alpha = Fraction(num, den * prev)
    else:
        alpha = _reduced(num, den, prev, n.cover)
    return MixingChain(config=config, cells=tuple(cells), alpha=alpha)


def _reduced(num: int, small: int, big: int, cover: int) -> Fraction:
    """num / (small * big) in lowest terms, for positive integers whose
    `big` has only prime factors of `cover`: the gcd is g * gcd(m, big),
    with g = gcd(num, small) and m = num / g coprime to small / g, and
    gcd(m, big) is that of big with m's part over cover's primes, which
    divisions by small factors strip (each at most squaring the last).
    So no gcd runs over two integers as large as big."""
    g = gcd(num, small)
    num, small = num // g, small // g
    part, m, f = 1, num, gcd(num, cover)
    while f > 1:
        part *= f
        m //= f
        f = gcd(m, f * f)
    g = gcd(part, big)
    return _coprime_fraction(num // g, small * (big // g))


def _residues(multipliers: Multipliers, alpha: Fraction):
    """n * p mod q for each multiplier n and alpha = p/q, in order.  Where
    the multipliers carry the ratio n/n_prev, the residue is that ratio times
    r_prev mod q, which for a small ratio costs time linear in the bits of q;
    otherwise it is one product and one modulo."""
    p, q = alpha.numerator, alpha.denominator
    r = p
    for n, ratio in zip(multipliers, multipliers.ratios):
        r = ratio * r % q if ratio else n * p % q
        yield r


@dataclass(frozen=True)
class WitnessPlan:
    """Constants of the hit-frequency construction.

    quality = 1/(4u) for a positive integer u; c is the subsampling stride;
    repeats (k*) counts the forced hit positions c*repeats .. 2c*repeats.
    The defining inequalities, which `auto_plan`'s choice makes true and
    the `hitfreq` certificate states as exact claims:
        q^(u-2) > 2            (the quality constant is small enough)
        q^c > 2/eps            (stride large enough for mixing)
        q^c * eps^u < 1        (stride below the upper end; equivalently
                                1/(2c) > 2*quality / log_q(1/eps))
    """

    ratio: Fraction  # q, the growth-ratio lower bound
    u: int
    c: int
    repeats: int


def auto_plan(ratio: Fraction, eps: Fraction) -> WitnessPlan:
    """Smallest-constant plan: minimal u with q^(u-2) > 2, then minimal c
    with q^c > 2/eps.  That c is below the upper end: q^(c-1) <= 2/eps by
    minimality, so q^c eps^u <= 2q eps^(u-1) < 2q^(2-u) < 1, using
    eps < 1/q and q^(u-2) > 2."""
    ratio = Fraction(ratio)
    eps = Fraction(eps)
    if ratio <= 1:
        raise ValueError("ratio must exceed 1")
    if not 0 < eps < 1 / ratio:
        raise ValueError("eps must lie in (0, 1/ratio)")
    u = 1
    while not ratio ** (u - 2) > 2:
        u += 1
    c = 1
    while not ratio**c > 2 / eps:
        c += 1
    return WitnessPlan(ratio=ratio, u=u, c=c, repeats=1)


@dataclass(frozen=True)
class HitFrequencyWitness:
    alpha: Fraction
    plan: WitnessPlan
    interval: TorusInterval
    forced_positions: tuple[int, ...]
    horizon: int  # N = 2 * repeats * c
    hit_count: int
    frequency: Fraction
    threshold: Fraction  # 1/(2c)


def hit_frequency_witness(
    multipliers: Sequence[int],
    interval: TorusInterval,
    ratio: Fraction,
) -> HitFrequencyWitness:
    """Point alpha whose orbit n_j * alpha hits the given short interval at
    every position j = c*k*, ..., 2c*k*, so the hit frequency among the first
    N = 2c*k* positions strictly exceeds 1/(2c).

    Requires n_{j+1}/n_j >= ratio for all j and interval length < 1/ratio.
    The subsampled multipliers n_{c*k*}, n_{c*(k*+1)}, ... grow by more than
    q^c > 2/eps per step, so the mixing chain applies to them directly.
    c is `auto_plan`'s; k* rises until n_{c*k*} clears 2/delta.
    """
    ratio = Fraction(ratio)
    n = Multipliers(multipliers)
    eps = interval.length
    if not eps < 1 / ratio:
        raise ValueError("interval length must be below 1/ratio")
    if any(v < 1 for v in n):
        raise ValueError("multiplier must be a positive integer")
    for j, (prev, nxt) in enumerate(zip(n, islice(n, 1, None)), start=1):
        if nxt * ratio.denominator < ratio.numerator * prev:
            raise ValueError(f"growth fails at step {j}: {nxt}/{prev} < {ratio}")
    plan = auto_plan(ratio, eps)
    c, repeats = plan.c, plan.repeats
    delta = _DEFAULT_START.length
    # Raise repeats until the first subsampled multiplier clears 2/delta.
    while repeats * c <= len(n) and n[repeats * c - 1] * delta <= 2:
        repeats += 1
    plan = WitnessPlan(ratio=ratio, u=plan.u, c=c, repeats=repeats)
    horizon = 2 * repeats * c
    if len(n) < horizon:
        raise ValueError(f"need at least {horizon} multipliers, got {len(n)}")
    positions = tuple(range(repeats * c, horizon + 1, c))
    picked = n[repeats * c - 1 : horizon : c]  # n_p for p in positions
    config = MixingConfig(multipliers=picked, eps=eps, delta=delta, start=_DEFAULT_START,
                          targets=(interval,) * len(picked))
    chain = mixing_chain(config)
    alpha = chain.alpha
    q = alpha.denominator
    hits = sum(1 for r in _residues(n[:horizon], alpha) if interval.contains_residue(r, q))
    return HitFrequencyWitness(
        alpha=alpha,
        plan=plan,
        interval=interval,
        forced_positions=positions,
        horizon=horizon,
        hit_count=hits,
        frequency=Fraction(hits, horizon),
        threshold=Fraction(1, 2 * c),
    )


@dataclass(frozen=True)
class HistogramTarget:
    """Desired cell weights e_0..e_{l-1} over the uniform l-cell partition and
    the allowed per-cell deviation eta."""

    weights: tuple[int, ...]
    eta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        object.__setattr__(self, "eta", Fraction(self.eta))
        if not self.weights or any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive integers")
        if self.eta <= 0:
            raise ValueError("eta must be positive")

    @property
    def cells(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> int:
        return sum(self.weights)


@dataclass(frozen=True)
class HistogramWitness:
    alpha: Fraction
    target: HistogramTarget
    base: int  # N0
    horizon: int  # N0^2
    counts: tuple[int, ...]
    deviations: tuple[Fraction, ...]


def histogram_witness(
    multipliers: Sequence[int],
    target: HistogramTarget,
    base: int,
) -> HistogramWitness:
    """Point alpha whose first base^2 orbit points n_j * alpha reproduce the
    target histogram within eta on the uniform partition into len(weights)
    cells.

    Positions base+1..base^2 are steered into cells via a mixing chain with
    eps = 1/cells; the untouched first `base` positions contribute at most
    base hits to any cell, and the per-cell share of the steered positions is
    off the target share by at most (share) * base/base^2, so the worst-case
    deviation is max(share, 1 - share) / base, which must be below eta
    (checked upfront; this is the sharp form of the crude base > 1/eta
    requirement).  Requires total | base and n_{j+1}/n_j > 2*cells along the
    steered range.

    The counts of the steered positions are those of the assignment: the
    chain puts each n_j * alpha mod 1 inside its open target cell.  Residues
    are formed for the first `base` positions only, from the multipliers'
    ratios.  The `histogram` certificate's verifier recounts all base^2.
    """
    ell = target.cells
    e_total = target.total
    if base < 2:
        raise ValueError("base must be at least 2")
    if base % e_total != 0:
        raise ValueError(f"weight total {e_total} must divide base {base}")
    if ell > 1:
        worst_share = max(
            max(Fraction(w, e_total), 1 - Fraction(w, e_total)) for w in target.weights
        )
        if not worst_share / base < target.eta:
            raise ValueError(
                f"eta too small: worst-case slack {worst_share}/{base} >= {target.eta}"
            )
    horizon = base * base
    n = Multipliers(multipliers)
    if len(n) < horizon:
        raise ValueError(f"need at least {horizon} multipliers, got {len(n)}")
    if ell == 1:
        # One cell holds everything; any point in the start interval works,
        # and its midpoint is the alpha a chain of no steps would return.
        return HistogramWitness(
            alpha=(_DEFAULT_START.left + _DEFAULT_START.right) / 2,
            target=target,
            base=base,
            horizon=horizon,
            counts=(horizon,),
            deviations=(_ZERO,),
        )
    # Steered cell counts: exact shares of the base^2 - base steered slots
    # (e_total divides base).
    steered = horizon - base
    shares = [w * steered // e_total for w in target.weights]
    assignment: list[int] = []
    for i, cnt in enumerate(shares):
        assignment.extend([i] * cnt)
    eps = Fraction(1, ell)
    cells = [TorusInterval(Fraction(i, ell), Fraction(i + 1, ell)) for i in range(ell)]
    targets = tuple(cells[i] for i in assignment)
    config = MixingConfig(multipliers=n[base:horizon], eps=eps,
                          delta=_DEFAULT_START.length, start=_DEFAULT_START, targets=targets)
    chain = mixing_chain(config)
    alpha = chain.alpha
    # The chain's hypotheses covered the steered multipliers, not the first base.
    if any(v < 1 for v in n[:base]):
        raise ValueError("multiplier must be a positive integer")
    # Each steered n_j * alpha mod 1 lies inside its open target cell, so the
    # steered positions count as assigned; the first `base` are recounted.
    q = alpha.denominator
    counts = shares
    for r in _residues(n[:base], alpha):
        counts[r * ell // q] += 1
    return HistogramWitness(
        alpha=alpha,
        target=target,
        base=base,
        horizon=horizon,
        counts=tuple(counts),
        deviations=tuple(Fraction(c, horizon) - Fraction(w, e_total)
                         for c, w in zip(counts, target.weights)),
    )


@dataclass(frozen=True)
class AvoidanceResult:
    """The indices of an avoidance run, with the residues n*p mod q of their
    points n*alpha mod 1 = (n*p mod q)/q over alpha = p/q, kept for the
    run's star discrepancy, and the gaps between indices as bytes (1 or 2)."""

    alpha: Fraction
    eps: Fraction
    indices: tuple[int, ...]
    _residues: tuple[int, ...]
    gaps: bytes
    prefix_length: int

    def star_discrepancy(self) -> Fraction:
        """D* of the points n*alpha mod 1 over all the indices."""
        return star_discrepancy(Residues(self._residues, self.alpha.denominator))


def avoidance_sequence(
    alpha: Fraction,
    eps: Fraction,
    prefix: Sequence[int],
    horizon: int,
) -> AvoidanceResult:
    """Gap-{1,2} extension of the prefix: after its last index n_0, the m
    whose point m*alpha mod 1 lies outside [0, eps) (0 included, which
    forces the star discrepancy up to about eps), so no hit follows.

    If m*alpha mod 1 lands in [0, eps), then (m+1)*alpha lands in
    [alpha, alpha+eps), disjoint from [0, eps) by precondition, so the gaps
    are 1 or 2.  The gaps and the hits are claims of the `avoid`
    certificate, which `verify` rechecks.
    """
    alpha = mod1(Fraction(alpha))
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    # Disjointness of [0, eps) and [alpha, alpha+eps) mod 1, exact.
    if not (alpha >= eps and alpha + eps <= 1):
        raise ValueError(
            f"[0, {eps}) and [{alpha}, {alpha + eps}) overlap mod 1; pick a smaller eps"
        )
    idx = [int(v) for v in prefix]
    if not idx:
        raise ValueError("prefix must contain at least one index")
    if idx[0] < 1:
        raise ValueError("prefix indices must be positive")
    if any(b - a not in (1, 2) for a, b in zip(idx, idx[1:])):
        raise ValueError("prefix gaps must lie in {1, 2}")
    if len(idx) > horizon:
        raise ValueError("prefix longer than the requested horizon")

    # m*alpha mod 1 = (m*p mod q)/q, and for an integer r, r/q < eps iff
    # r < ceil(eps*q).  A span of m is sized from the count still needed,
    # up to 2^14 indices; the residues of the indices taken are kept.
    p, q = alpha.numerator, alpha.denominator
    bound = -(-eps.numerator * q // eps.denominator)
    prefix_length, m = len(idx), idx[-1] + 1
    residues = [n * p % q for n in idx]
    while len(idx) < horizon:
        need = horizon - len(idx)
        stop = m + min(-(-need * q // (q - bound)), 1 << 14)
        span = list(map(mod, range(m * p, stop * p, p), repeat(q)))
        taken = list(map(bound.__le__, span))
        idx.extend(islice(compress(range(m, stop), taken), need))
        residues.extend(islice(compress(span, taken), need))
        m = stop
    return AvoidanceResult(
        alpha=alpha,
        eps=eps,
        indices=tuple(idx),
        _residues=tuple(residues),
        gaps=bytes(map(sub, islice(idx, 1, None), idx)),
        prefix_length=prefix_length,
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
