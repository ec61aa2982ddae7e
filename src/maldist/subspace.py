"""Subsequences constrained block by block, and extensions that steer their
empirical measure toward a target.

A member sequence takes exactly m_j indices from block j.  A prefix is
checked block by block by `validate_membership`; `greedy_extension` extends
a valid prefix block by block toward a target measure that the envelope
bound allows, preferring indices whose points lie in the cells the target
still under-serves.  It takes one block budget: at most that many blocks
past the prefix on an open horizon, which stops once the target is met, and
exactly that many on a fixed one.  Its work per block follows the picks and
the cells they need, not the block length: each point lookup is one integer
`bisect` on the partition's thresholds, made only when a pick needs the
point, and a pick with one cell at the largest deficit scans no other cell.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .empirical import CellPartition, MeasureVector, Residues, _cell_indices
from .envelope import BlockSpec, RatioMeasure, envelope_dominates

__all__ = [
    "ExtensionTarget",
    "BlockTrace",
    "ExtensionResult",
    "validate_membership",
    "greedy_extension",
]


def validate_membership(indices: Sequence[int], spec: BlockSpec, blocks: int) -> bool:
    """Exact per-block membership check of a strictly increasing prefix of
    blocks 1..blocks: each of those blocks holds exactly m_j indices, and no
    index lies past the end of block `blocks`."""
    if blocks < 0:
        raise ValueError("blocks must be nonnegative")
    idx = list(indices)
    if any(n < 1 for n in idx):
        raise ValueError("indices must be positive")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError("indices must be strictly increasing")
    if idx and idx[-1] > spec.a(blocks):
        return False
    counts: dict[int, int] = {}
    for n in idx:
        j = spec.block_of(n)
        counts[j] = counts.get(j, 0) + 1
    return all(counts.get(j, 0) == spec.m(j) for j in range(1, blocks + 1))


@dataclass(frozen=True)
class ExtensionTarget:
    """Target cell measure, tolerance, and the envelope the target must obey."""

    mu: MeasureVector
    eps: Fraction
    pi: RatioMeasure

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.eps <= 0:
            raise ValueError("eps must be positive")


class BlockTrace(NamedTuple):
    """The state after one block: the block j, the indices it took, the
    number M of indices chosen through it, and the cell deviations
    mu_i - c_i/M as integer numerators over the one denominator den*M (den
    the lcm of mu's denominators; mu itself, over den, while M = 0).  They
    are not reduced: `ratio_row(numerators, denominator)` prints them."""

    block: int
    chosen: tuple[int, ...]
    cumulative: int
    numerators: tuple[int, ...]
    denominator: int


@dataclass(frozen=True)
class ExtensionResult:
    indices: tuple[int, ...]
    blocks: int
    total_abs_dev: Fraction
    max_abs_dev: Fraction
    achieved: bool
    trace: tuple[BlockTrace, ...]


def _prefix_blocks(prefix: Sequence[int], spec: BlockSpec) -> int:
    """The block j0 of the prefix's last index (0 for an empty prefix), once
    the prefix is checked to be a valid member of blocks 1..j0 exactly."""
    idx = list(prefix)
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError("prefix must be strictly increasing")
    j0 = spec.block_of(idx[-1]) if idx else 0
    if len(idx) != spec.M(j0):
        raise ValueError(f"prefix must cover blocks 1..{j0} exactly")
    if not validate_membership(idx, spec, blocks=j0):
        raise ValueError("prefix is not a valid member through its blocks")
    return j0


# Points of a block mapped to cells before its first pick; each further read
# of the same block maps twice as many as the one before.
_FIRST_READ = 8


def greedy_extension(
    prefix: Sequence[int],
    spec: BlockSpec,
    x: Residues,
    partition: CellPartition,
    target: ExtensionTarget,
    blocks: int,
    fixed_horizon: bool = False,
) -> ExtensionResult:
    """Extend a valid prefix block by block toward the target measure; x
    holds the points x_1, x_2, ... as `Residues`.

    The target must lie under the envelope bound over the partition's
    Lebesgue masses (ValueError otherwise).
    Indices are picked one at a time: of the free indices in the cells with
    the largest remaining deficit, the smallest.  This is the design's
    steering rule with its high-deviation cell set Y recomputed at every
    pick: prefer Y (the cells above the first gap in the sorted deviations
    wider than eps/s^2, falling back to the positive-deviation cells) while
    Y has unmet deficit, then the largest deficit.  Y is a top segment of the deficit order with no tie
    across its border, so the two rules pick the same cell and Y need not be
    formed.  At the asymptotic scale the design mirrors (per-block mass
    vanishing relative to the total) recomputing Y per pick coincides with
    recomputing it once per block; at finite scale it is what keeps a block
    from overshooting its own steering set.

    Steering measures deviations against the sample size where the result
    will be judged: the end of the current block on an open horizon, or the
    end of the prefix's blocks plus `blocks` when the horizon is fixed.  A
    fixed horizon also discounts picks that later blocks will force
    regardless (blocks whose other-cell supply cannot absorb their
    multiplicity), since chasing mass that arrives anyway gives away
    accuracy the remaining blocks cannot return.

    With `fixed_horizon` the extension runs exactly `blocks` blocks past the
    prefix; otherwise it stops at the first block boundary where every
    |deviation| < eps and the prefix mass has washed out to below eps/(3s),
    or gives a partial result once `blocks` blocks are exhausted.

    Work per block follows the picks, not the block length.  Each point
    lookup is one integer `bisect` on the partition's thresholds over x's
    denominator (`CellPartition.thresholds`).  A block's points are mapped
    to cells only as far as its picks need them, in chunks that double in
    size, and each chunk appends its indices to per-cell queues, so a
    cell's next free index is its queue's head.  A pick reads it for the
    cell alone at the largest deficit, with no scan of the others, or for
    each cell tied there, the smallest winning; a cell with no free index
    left in the block drops out of it.  Only the forced-pick counts of a
    fixed horizon map whole blocks.

    Deviations stay integers until they are reported: after each block the
    numerators mu_i*den*M - c_i*den over den*M (den the lcm of mu's
    denominators) feed the stopping test and the block's `BlockTrace` as
    they are.  Fractions are built only for the two values the result
    reports: `total_abs_dev` and `max_abs_dev`.
    """
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
    eps = target.eps
    eps_num, eps_den = eps.numerator, eps.denominator
    # Deficits are held as integers over den; every pick of cell c lowers
    # deficit[c] by den.
    mu_scaled, den = target.mu.nums, target.mu.den
    trace: list[BlockTrace] = []
    prefix_mass = spec.M(j0)
    # The open horizon's washout, prefix_mass/M < eps/(3s), reads
    # washed < eps_num * M; an empty prefix has washed out at every M.
    washed = prefix_mass * 3 * s * eps_den if prefix_mass else -1
    achieved = False
    j, picked = j0, []
    hi = spec.a(j0)
    zeros = [0] * s
    forced_after: dict[int, list[int]] = {}
    if fixed_horizon:
        last = j0 + blocks
        final_total = spec.M(last)
        # forced_after[j][i]: picks of cell i that blocks after j will force
        # because their other cells cannot absorb the block multiplicity.
        suffix = [0] * s
        forced_after[last] = list(suffix)
        for jj in range(last, j0, -1):
            cells = list(_cell_indices(nums[spec.a(jj - 1) : spec.a(jj)], bounds, x_den))
            m_jj = spec.m(jj)
            for i in range(s):
                suffix[i] += max(0, m_jj - (len(cells) - cells.count(i)))
            forced_after[jj - 1] = list(suffix)
    while True:
        # The deviations mu_i - counts_i/M of the M indices chosen so far, as
        # numerators over den*M; mu itself, over den, while M = 0.
        total = len(chosen) or 1
        dev_nums = tuple([mu_scaled[i] * total - counts[i] * den for i in range(s)])
        dev_den = den * total
        if j > j0:
            trace.append(BlockTrace(j, tuple(picked), len(chosen), dev_nums, dev_den))
            # prefix_mass/M < eps/(3s), and every |deviation| < eps.
            if (not fixed_horizon and washed < eps_num * len(chosen)
                    and max(map(abs, dev_nums)) * eps_den < eps_num * dev_den):
                achieved = True
                break
        if j - j0 == blocks:
            break
        j += 1
        m_j = spec.m(j)
        steer_total = final_total if fixed_horizon else len(chosen) + m_j
        future = forced_after.get(j, zeros)
        deficit = [mu_scaled[i] * steer_total - (counts[i] + future[i]) * den for i in range(s)]
        # Below every deficit the block can reach: the mark of a cell with no
        # free index left in it.
        spent = min(deficit) - m_j * den - 1
        lo, hi = hi, spec.a(j)
        if len(nums) < hi:
            raise ValueError(f"x lists {len(nums)} points, fewer than the {hi} the blocks need")
        # at[c] holds, in order, the free indices of cell c among the block's
        # points read so far.
        at = [deque() for _ in range(s)]
        read, chunk = lo, _FIRST_READ
        picked = []
        for _ in range(m_j):
            best = 0
            while not best:
                top = max(deficit)
                c = deficit.index(top)
                for c in (c,) if deficit.count(top) == 1 else range(c, s):
                    if deficit[c] != top:
                        continue
                    ahead = at[c]
                    while not ahead and read < hi:
                        end = min(read + chunk, hi)
                        for n, cell in enumerate(_cell_indices(nums[read:end], bounds, x_den), read + 1):
                            at[cell].append(n)
                        read, chunk = end, chunk * 2
                    if not ahead:
                        deficit[c] = spent
                    elif not best or ahead[0] < best:
                        best, pick = ahead[0], c
            picked.append(best)
            counts[pick] += 1
            deficit[pick] -= den
            at[pick].popleft()
        picked.sort()
        chosen.extend(picked)
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
