from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from maldist import cli
from maldist.doubling import zero_block_alpha, zero_block_density
from maldist.empirical import star_discrepancy
from maldist.exact import mod1
from maldist.torus import TorusInterval
from maldist.witness import (
    AvoidanceResult,
    HistogramTarget,
    MixingConfig,
    MixingConfigError,
    Multipliers,
    _reduced,
    auto_plan,
    avoidance_sequence,
    histogram_witness,
    hit_frequency_witness,
    mixing_chain,
)
from tests.oracles import (
    as_residues,
    fraction_contains,
    fraction_mul_mod1,
    frequencies,
    hits_after_prefix,
    midpoint,
    walked_avoidance_sequence,
)


def test_mixing_chain_no_targets():
    start = TorusInterval(F(3, 10), F(9, 25))
    config = MixingConfig((), F(1, 10), F(1, 20), start, ())
    chain = mixing_chain(config)
    assert chain.intervals == (start,)
    assert chain.alpha == midpoint(start)


def test_mixing_chain_three_steps():
    start = TorusInterval(F(3, 10), F(9, 25))
    target = TorusInterval(F(9, 20), F(11, 20))
    config = MixingConfig(
        multipliers=(100, 10**4, 10**6),
        eps=F(1, 10),
        delta=F(1, 20),
        start=start,
        targets=(target, target, target),
    )
    chain = mixing_chain(config)
    assert fraction_contains(start, chain.alpha)
    for k, n in enumerate((100, 10**4, 10**6), start=1):
        assert fraction_contains(target, fraction_mul_mod1(n, chain.alpha))
        assert chain.intervals[k].length == F(1, 10) / n


def test_mixing_chain_rejects_slow_start():
    start = TorusInterval(F(3, 10), F(9, 25))
    target = TorusInterval(F(9, 20), F(11, 20))
    config = MixingConfig((30,), F(1, 10), F(1, 20), start, (target,))
    with pytest.raises(MixingConfigError) as err:
        mixing_chain(config)
    assert err.value.index == 1


def test_mixing_chain_rejects_slow_growth():
    start = TorusInterval(F(3, 10), F(9, 25))
    target = TorusInterval(F(9, 20), F(11, 20))
    config = MixingConfig((100, 150), F(1, 10), F(1, 20), start, (target, target))
    with pytest.raises(MixingConfigError) as err:
        mixing_chain(config)
    assert err.value.index == 2


def test_repeated_short_target_fails_at_its_first_index():
    # Each target object is checked once, at the first index that holds it.
    start = TorusInterval(F(3, 10), F(9, 25))
    wide, short = TorusInterval(F(0), F(1, 2)), TorusInterval(F(9, 20), F(19, 40))
    targets = (wide, wide, short, wide, short, short)
    config = MixingConfig([100 * 30**k for k in range(6)], F(1, 10), F(1, 20), start, targets)
    with pytest.raises(MixingConfigError) as err:
        config.validate()
    assert err.value.index == 3
    assert str(err.value) == "mixing hypothesis fails at k=3: target 3 shorter than eps=1/10"


def test_auto_plan_power_of_two():
    plan = auto_plan(F(2), F(1, 64))
    assert plan.u == 4  # quality 1/(4u) = 1/16
    assert plan.c == 8
    # explicit inequalities from the plan docstring
    assert F(2) ** (plan.u - 2) > 2
    assert F(2) ** plan.c > 128
    assert F(2) ** plan.c * F(1, 64) ** plan.u < 1


@given(st.integers(1, 20), st.integers(1, 80), st.integers(1, 99), st.integers(0, 9))
# q = 2 and eps = 1/8: q^4 = 2/eps meets the stride bound with equality.
@example(1, 1, 25, 0)
def test_auto_plan_meets_its_three_inequalities(den, excess, share, scale):
    # Any ratio q > 1 and eps in (0, 1/q); the plan is built unchecked.
    q = F(den + excess, den)
    eps = F(share, 100 * 10**scale) / q
    plan = auto_plan(q, eps)
    assert q ** (plan.u - 2) > 2
    assert q**plan.c > 2 / eps
    assert q**plan.c * eps**plan.u < 1


def test_hit_frequency_witness_powers_of_two():
    interval = TorusInterval(F(1, 2), F(1, 2) + F(1, 64))
    witness = hit_frequency_witness(
        [2**k for k in range(1, 30)], interval, F(2)
    )
    assert witness.horizon == 16
    assert witness.threshold == F(1, 16)
    assert witness.frequency > witness.threshold
    for p in witness.forced_positions:
        assert fraction_contains(interval, fraction_mul_mod1(2**p, witness.alpha))


def test_hit_frequency_witness_powers_of_three():
    interval = TorusInterval(F(1, 2), F(1, 2) + F(1, 27))
    witness = hit_frequency_witness(
        [3**k for k in range(1, 20)], interval, F(3)
    )
    assert witness.frequency > witness.threshold
    for p in witness.forced_positions:
        assert fraction_contains(interval, fraction_mul_mod1(3**p, witness.alpha))


def test_hit_frequency_visible_in_checkpoint_scan():
    # The forced hits surface as a cell frequency above 1/(2c) when the orbit
    # is scanned at the witness horizon.
    from maldist.empirical import CellPartition, checkpoint_scan

    interval = TorusInterval(F(1, 2), F(1, 2) + F(1, 64))
    n = [2**k for k in range(1, 30)]
    witness = hit_frequency_witness(n, interval, F(2))
    partition = CellPartition((F(0), interval.left, interval.right, F(1)))
    points = [fraction_mul_mod1(m, witness.alpha) for m in n[: witness.horizon]]
    scan = checkpoint_scan(as_residues(points), partition, [witness.horizon])
    assert frequencies(scan.counts[0])[1] > F(1, 2 * witness.plan.c)


def test_hit_frequency_rejects_wide_interval():
    with pytest.raises(ValueError):
        hit_frequency_witness(
            [2**k for k in range(1, 20)], TorusInterval(F(0), F(3, 4)), F(2)
        )


def test_histogram_witness_two_even_cells():
    target = HistogramTarget(weights=(1, 1), eta=F(1, 4))
    witness = histogram_witness([5 ** (k * k) for k in range(1, 17)], target, base=4)
    assert witness.horizon == 16
    for dev in witness.deviations:
        assert abs(dev) < F(1, 4)


def test_histogram_witness_single_cell():
    target = HistogramTarget(weights=(1,), eta=F(1, 4))
    witness = histogram_witness([5 ** (k * k) for k in range(1, 17)], target, base=4)
    assert witness.counts == (witness.horizon,)
    assert witness.deviations == (F(0),)


def test_histogram_witness_three_one():
    target = HistogramTarget(weights=(3, 1), eta=F(1, 10))
    witness = histogram_witness([5 ** (k * k) for k in range(1, 65)], target, base=8)
    assert witness.horizon == 64
    for dev, want in zip(witness.deviations, (F(3, 4), F(1, 4))):
        assert abs(dev) < F(1, 10)
    # recount independently
    counts = [0, 0]
    for j in range(1, 65):
        v = fraction_mul_mod1(5 ** (j * j), witness.alpha)
        counts[0 if v < F(1, 2) else 1] += 1
    assert tuple(counts) == witness.counts


def test_histogram_witness_rejects_bad_divisibility():
    target = HistogramTarget(weights=(3, 1), eta=F(1, 10))
    with pytest.raises(ValueError):
        histogram_witness([5 ** (k * k) for k in range(1, 50)], target, base=7)


def test_avoidance_5_17():
    result = avoidance_sequence(F(5, 17), F(1, 5), prefix=(1,), horizon=10_000)
    assert hits_after_prefix(result) == 0
    assert set(result.gaps) <= {1, 2}
    assert len(result.indices) == 10_000
    points = [mod1(n * result.alpha) for n in result.indices]
    assert star_discrepancy(as_residues(points)) >= F(1, 5) - F(1, 100)


def test_avoidance_finite_orbit():
    result = avoidance_sequence(F(1, 3), F(1, 4), prefix=(1,), horizon=500)
    assert hits_after_prefix(result) == 0


def test_avoidance_rejects_overlap():
    with pytest.raises(ValueError):
        avoidance_sequence(F(1, 4), F(1, 2), prefix=(1,), horizon=100)


def test_avoidance_rejects_bad_prefix():
    with pytest.raises(ValueError):
        avoidance_sequence(F(5, 17), F(1, 5), prefix=(1, 5), horizon=100)


@pytest.mark.parametrize("prefix", [(0, 1), (-1,), (-2, -1, 1)])
def test_avoidance_rejects_nonpositive_prefix_index(prefix):
    with pytest.raises(ValueError, match="^prefix indices must be positive$"):
        avoidance_sequence(F(5, 17), F(1, 5), prefix=prefix, horizon=100)


def test_zero_block_basic():
    point = zero_block_alpha(F(5, 8), (4,))
    assert len(point.digits) == 16
    assert point.digits[:3] == b"\1\0\1"
    assert all(d == 0 for d in point.digits[3:])
    assert point.value == F(5, 8)


def test_zero_block_density_windows():
    point = zero_block_alpha(F(2, 3), (4, 20))
    assert len(point.digits) == 400
    [(end, hits)] = zero_block_density(point, [400])
    assert end == 400 and F(hits, 400) >= F(9, 10)


def test_zero_block_rejects_leading_overlap():
    with pytest.raises(ValueError):
        zero_block_alpha(F(5, 8), (2,))


def test_zero_block_rejects_value_escape():
    # 1/2 + 2^-10 collapses onto exactly 1/2 once positions 3..9 are zeroed
    # (the lone set digit sits at position 10, beyond the 9-digit horizon).
    with pytest.raises(ValueError):
        zero_block_alpha(F(1, 2) + F(1, 1024), (3,))


def reference_avoidance_sequence(alpha, eps, prefix, horizon):
    """The gap-{1,2} run on Fractions, as avoidance_sequence built it before
    its residue loop (input checks left out)."""
    alpha = mod1(F(alpha))
    idx = list(prefix)
    value = mod1(idx[-1] * alpha)
    while len(idx) < horizon:
        step1 = mod1(value + alpha)
        if not step1 < eps:
            idx.append(idx[-1] + 1)
            value = step1
        else:
            value = mod1(step1 + alpha)
            assert not value < eps
            idx.append(idx[-1] + 2)
    return AvoidanceResult(
        alpha=alpha,
        eps=eps,
        indices=tuple(idx),
        _residues=tuple(int(mod1(n * alpha) * alpha.denominator) for n in idx),
        gaps=bytes(b - a for a, b in zip(idx, idx[1:])),
        prefix_length=len(prefix),
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=2, max_value=5000),
    st.fractions(min_value=0, max_value=F(1, 2), max_denominator=300),
    st.lists(st.sampled_from((1, 2)), max_size=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=400),
)
def test_avoidance_matches_fraction_reference(p, q, eps, prefix_gaps, first, extra):
    alpha = F(p, q)
    assume(eps > 0 and mod1(alpha) >= eps and mod1(alpha) + eps <= 1)
    prefix = [first]
    for g in prefix_gaps:
        prefix.append(prefix[-1] + g)
    horizon = len(prefix) + extra
    got = avoidance_sequence(alpha, eps, prefix=prefix, horizon=horizon)
    assert got == reference_avoidance_sequence(alpha, eps, prefix, horizon)
    assert hits_after_prefix(got) == 0


@st.composite
def avoidance_runs(draw):
    """(alpha, eps, prefix, horizon) with q <= 10^4: eps*q an integer, a
    half-integer or any rational, p/q near 1/2 in a third of the draws
    (eps then near 1/2, where a span holds about half its indices), a
    prefix that may hold points of [0, eps), and horizons from the
    prefix's own length to several spans."""
    q = draw(st.integers(2, 10**4))
    p = draw(st.one_of(st.integers(1, q - 1), st.integers(max(1, q // 2 - 3), (q + 1) // 2)))
    limit = min(p, q - p)
    eps = draw(st.one_of(
        st.builds(lambda b: F(b, q), st.integers(1, limit)),
        st.builds(lambda b: F(2 * b - 1, 2 * q), st.integers(1, limit)),
        st.builds(lambda k: F(limit * k, 97 * q), st.integers(1, 96)),
        st.just(F(limit, q)),
    ))
    bound = -(-eps.numerator * q // eps.denominator)
    offsets = [0]
    for gap in draw(st.lists(st.sampled_from((1, 2)), max_size=6)):
        offsets.append(offsets[-1] + gap)
    if draw(st.booleans()):
        # Place one prefix point on an index whose point lies in [0, eps).
        j = draw(st.sampled_from(offsets))
        inside = [m for m in range(j + 1, j + 2 * q + 1) if m * p % q < bound]
        first = draw(st.sampled_from(inside)) - j
    else:
        first = draw(st.integers(1, 30))
    prefix = [first + o for o in offsets]
    # A span holds at most 2^14 indices.
    extra = draw(st.one_of(st.just(0), st.integers(0, 400), st.integers(1 << 13, 3 << 14)))
    return F(p, q), eps, prefix, len(prefix) + extra


@settings(max_examples=150, deadline=None)
@given(avoidance_runs())
def test_avoidance_takes_the_walks_indices(run):
    """The indices taken by their rule are those of the index-by-index
    walk, with the same residues and gaps and no hit after the prefix, and
    the residue kept for each index n is n*p mod q."""
    alpha, eps, prefix, horizon = run
    got = avoidance_sequence(alpha, eps, prefix=prefix, horizon=horizon)
    assert got == walked_avoidance_sequence(alpha, eps, prefix, horizon)
    assert hits_after_prefix(got) == 0
    p, q = alpha.numerator, alpha.denominator
    assert got._residues == tuple(n * p % q for n in got.indices)


# --- alpha reduced by the rule's base ---------------------------------------------

BASES = st.sampled_from([2, 4, 8, 16, 32, 3, 5, 7, 11, 37]) | st.integers(2, 40)


def fraction_in(low: F, draw_share) -> F:
    """A rational in [low, 1): low plus a drawn share of 1 - low."""
    return low + (1 - low) * draw_share


@st.composite
def rule_chains(draw):
    """Chain configurations over the terms of pow:b or squarepow:b from a
    drawn offset (a contiguous slice), with eps above 2 over the least ratio,
    delta above 2/n_1, and targets and start anywhere they fit."""
    kind = draw(st.sampled_from(["pow", "squarepow"]))
    b = draw(BASES.filter(lambda b: b > 2 or kind == "squarepow"))
    offset, count = draw(st.integers(1 if b == 2 else 0, 4)), draw(st.integers(1, 24))
    n = cli._multipliers({"n-kind": f"{kind}:{b}"}, offset + count)[offset:]
    shares = st.fractions(0, 1, max_denominator=10**4).filter(lambda x: x < 1)
    eps = fraction_in(F(2, min(n.ratios[1:], default=b + 1)), draw(shares.filter(bool)))
    delta = fraction_in(F(2, n[0]), draw(shares.filter(bool)))
    start_left = (1 - delta) * draw(shares)
    targets = tuple(TorusInterval(a, a + eps)
                    for a in ((1 - eps) * draw(shares) for _ in range(count)))
    return MixingConfig(n, eps, delta, TorusInterval(start_left, start_left + delta), targets)


def as_pair(x: F) -> tuple[int, int]:
    return x.numerator, x.denominator


@settings(max_examples=200, deadline=None)
@given(rule_chains())
def test_alpha_reduced_by_the_rules_base_is_the_reduced_fraction(config):
    assert config.multipliers.cover is not None
    plain = MixingConfig(Multipliers(tuple(config.multipliers)), config.eps, config.delta,
                         config.start, config.targets)
    assert plain.multipliers.cover is None
    chain, ref = mixing_chain(config), mixing_chain(plain)
    assert chain.cells == ref.cells
    assert as_pair(chain.alpha) == as_pair(ref.alpha) and chain.alpha == ref.alpha


@settings(max_examples=300)
@given(st.integers(1, 10**30), st.integers(0, 200), st.integers(1, 10**6), BASES,
       st.integers(0, 400), st.sampled_from([1, 2, 7, 30]))
def test_reduction_strips_the_bases_primes_at_any_valuation(rest, valuation, small, b,
                                                             power, extra):
    # num holds b's primes to a drawn valuation; the cover may be b or a
    # multiple of it.
    num = rest * b**valuation
    assert as_pair(_reduced(num, small, b**power, b * extra)) == as_pair(
        F(num, small * b**power))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["pow", "squarepow"]), BASES, st.integers(1, 12),
       st.fractions(0, 1, max_denominator=1000))
def test_stepped_slices_keep_the_cover_and_the_alpha(kind, b, width_den, left_share):
    # hit_frequency_witness subsamples the multipliers with a step.
    ratio = F(b)
    width = F(1, b * width_den + 1)
    left = (1 - width) * left_share
    n = cli._multipliers({"n-kind": f"{kind}:{b}"}, 64)
    assert n[3:40:5].cover == n[::-1].cover == b
    interval = TorusInterval(left, left + width)
    try:
        ref = hit_frequency_witness(tuple(n), interval, ratio)
    except ValueError:
        assume(False)
    witness = hit_frequency_witness(n, interval, ratio)
    assert as_pair(witness.alpha) == as_pair(ref.alpha)
    assert witness == ref


def test_explicit_lists_have_no_cover():
    n = cli._multipliers({"n": "100,10000,1000000"}, 3)
    assert n.cover is None and n[1:].cover is None and n[::2].cover is None
