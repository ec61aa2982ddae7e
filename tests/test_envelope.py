from bisect import bisect_left
from collections import Counter
from fractions import Fraction as F
from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maldist.empirical import CellPartition, MeasureVector
from maldist.envelope import (
    BlockSpec,
    RatioMeasure,
    check_admissible,
    envelope_dominates,
    pi_measure,
)
from maldist.subspace import validate_membership
from tests.oracles import (
    F_pi_eval,
    SplitMix64,
    harmonic_tail,
    mass_at_zero,
    mass_leq,
    point_mass,
    ratio_atoms,
    ratio_measure_from_pairs,
    tv_norm_distance,
)


def random_ratio_measure(rng: SplitMix64) -> RatioMeasure:
    atoms = rng.randint(1, 8)
    pairs = []
    for _ in range(atoms):
        loc = rng.fraction(50, closed_top=True)
        weight = rng.randint(1, 20)
        pairs.append((loc, weight))
    total = sum(w for _, w in pairs)
    return ratio_measure_from_pairs((loc, F(w, total)) for loc, w in pairs)


# --- block specs -----------------------------------------------------------


def test_block_spec_rejects_m_above_b():
    with pytest.raises(ValueError):
        BlockSpec([2, 3], [1, 4])
    # Function-backed specs fail as soon as the bad block is formed.
    lazy = BlockSpec(lambda j: 2, lambda j: j)
    with pytest.raises(ValueError):
        lazy.M(3)


def test_block_spec_lazy_function_backed():
    spec = BlockSpec(lambda j: j, lambda j: 1)
    assert spec.a(4) == 10
    assert spec.M(4) == 4
    assert F(spec.m(3), spec.b(3)) == F(1, 3)
    assert (spec.a(2), spec.a(3)) == (3, 6)
    assert spec.block_of(6) == 3


def linear_block_of(lengths, n):
    """The block of n by its definition: the first j with b_1 + ... + b_j >= n."""
    end = 0
    for j, b in enumerate(lengths, start=1):
        end += b
        if end >= n:
            return j
    return None


@settings(max_examples=150, deadline=None)
@given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=30),
       reads=st.lists(st.integers(1, 300), max_size=40))
def test_block_of_matches_the_linear_definition(lengths, reads):
    # One list-backed and one generator-backed spec, read in the same
    # (unsorted) order, so the generator's sums are extended between reads.
    listed = BlockSpec(lengths, [1] * len(lengths))
    lazy = BlockSpec(lambda j: lengths[(j - 1) % len(lengths)], lambda j: 1)
    cycle = lengths * (300 // len(lengths) + 1)
    for n in reads:
        assert lazy.block_of(n) == linear_block_of(cycle, n)
        want = linear_block_of(lengths, n)
        if want is not None:
            assert listed.block_of(n) == want
            continue
        with pytest.raises(IndexError) as err:
            listed.block_of(n)
        assert str(err.value) == (
            f"block {len(lengths) + 1} beyond the {len(lengths)} given lengths")


def test_block_of_refuses_nonpositive_indices():
    with pytest.raises(ValueError, match="indices are positive"):
        BlockSpec([2], [1]).block_of(0)


@pytest.mark.parametrize("make", [lambda: BlockSpec([2, 3, 4], [1, 1, 2]),
                                  lambda: BlockSpec(lambda j: j + 1, lambda j: 1)],
                         ids=["lists", "functions"])
def test_block_indices_below_the_first_block_are_refused(make):
    """b and m are indexed from block 1, a and M from block 0 (a(0) = M(0) =
    0); a smaller index names its block in a ValueError instead of reading
    a list from its end."""
    spec = make()
    for read, j, first in [(spec.b, 0, 1), (spec.m, 0, 1), (spec.b, -2, 1),
                           (spec.a, -1, 0), (spec.M, -1, 0), (spec.M, -3, 0)]:
        with pytest.raises(ValueError) as err:
            read(j)
        assert str(err.value) == f"block {j}: index must be at least {first}"
    assert (spec.a(0), spec.M(0), spec.b(1), spec.m(1)) == (0, 0, 2, 1)


def test_each_side_runs_once_per_formed_block():
    """The admissibility report through block 100, pi through block 200, a
    check of the first ceil((j+1)/2) indices of each block j = 1..400 of
    b_j = j + 1 (40,400 indices) and a read of every block again call each
    side function once per block: each forms only blocks not yet formed."""
    calls = Counter()

    def lengths(j):
        calls["b", j] += 1
        return j + 1

    def multiplicities(j):
        calls["m", j] += 1
        return (j + 2) // 2

    spec = BlockSpec(lengths, multiplicities)
    blocks = 400
    indices = [n for j in range(1, blocks + 1)
               for n in range(j * (j + 1) // 2, j * (j + 1) // 2 + (j + 2) // 2)]
    assert len(indices) == 40_400
    check_admissible(spec, 100)
    pi_measure(spec, 200)
    assert validate_membership(indices, spec, blocks)
    pi_measure(spec, blocks)
    check_admissible(spec, blocks)
    for j in range(1, blocks + 1):
        assert (spec.b(j), spec.m(j), spec.a(j), spec.M(j)) == (
            j + 1, (j + 2) // 2, spec.a(j - 1) + j + 1, spec.M(j - 1) + (j + 2) // 2)
        assert spec.block_of(spec.a(j)) == j
    assert calls == Counter({(side, j): 1 for side in "bm" for j in range(1, blocks + 1)})


@st.composite
def block_lists(draw):
    """Lengths and multiplicities of a valid spec of 1-12 blocks."""
    b = draw(st.lists(st.integers(1, 9), min_size=1, max_size=12))
    return b, [draw(st.integers(0, bj)) for bj in b]


def make_spec(b, m, kinds):
    """The spec of the lists b and m with each side a list ("list") or a
    function ("fn") that repeats its list."""
    def side(values, kind):
        return values if kind == "list" else lambda j: values[(j - 1) % len(values)]
    return BlockSpec(side(b, kinds[0]), side(m, kinds[1]))


KINDS = [("list", "list"), ("list", "fn"), ("fn", "list"), ("fn", "fn")]


@settings(max_examples=200, deadline=None)
@given(sides=block_lists(), kinds=st.sampled_from(KINDS),
       reads=st.lists(st.tuples(st.sampled_from(["b", "m", "a", "M", "block_of"]),
                                st.integers(-2, 60)), max_size=40),
       data=st.data())
def test_list_and_function_sides_form_blocks_alike(sides, kinds, reads, data):
    """Reads in any order through b, m, a, M and block_of match the prefix
    sums of the lists, a function side repeating its list; a read past a
    list side's end names the block asked for, and a bad block gives the
    same message from a list side as from a function side."""
    b, m = sides
    spec = make_spec(b, m, kinds)
    given = len(b) if "list" in kinds else None
    side = "lengths" if kinds[0] == "list" else "multiplicities"
    repeated = 70
    ends = list(accumulate((b * repeated)[:repeated], initial=0))
    totals = list(accumulate((m * repeated)[:repeated], initial=0))
    want = {"b": lambda j: ends[j] - ends[j - 1], "m": lambda j: totals[j] - totals[j - 1],
            "a": ends.__getitem__, "M": totals.__getitem__,
            "block_of": lambda n: bisect_left(ends, n)}
    for read, j in reads:
        first = 0 if read in ("a", "M") else 1
        if j < first:
            error = "indices are positive" if read == "block_of" else (
                f"block {j}: index must be at least {first}")
            with pytest.raises(ValueError) as err:
                getattr(spec, read)(j)
            assert str(err.value) == error
            continue
        block = want["block_of"](j) if read == "block_of" else j
        if given is not None and block > given:
            with pytest.raises(IndexError) as err:
                getattr(spec, read)(j)
            # block_of asks for one block past the list, the others for j.
            asked = given + 1 if read == "block_of" else j
            assert str(err.value) == f"block {asked} beyond the {given} given {side}"
            continue
        assert getattr(spec, read)(j) == want[read](j)

    at = data.draw(st.integers(0, len(b) - 1))
    bad_b, bad_m = list(b), list(m)
    bad_b[at], bad_m[at], error = data.draw(st.sampled_from([
        (0, 0, "length 0 must be >= 1"), (-3, 0, "length -3 must be >= 1"),
        (2, 3, "multiplicity 3 violates 0 <= m <= b (2)"),
        (2, -1, "multiplicity -1 violates 0 <= m <= b (2)")]))
    for bad_kinds in KINDS:
        with pytest.raises(ValueError) as err:
            make_spec(bad_b, bad_m, bad_kinds).M(len(b))
        assert str(err.value) == f"block {at + 1}: {error}"


def test_admissible_linear():
    rep = check_admissible(BlockSpec(lambda j: j, lambda j: 1), 200)
    assert not (rep.b_bounded_flag or rep.ratio_stalled_flag)


def test_admissible_flags_bounded_lengths():
    rep = check_admissible(BlockSpec(lambda j: 2, lambda j: 1), 200)
    assert rep.b_bounded_flag


def test_admissible_half_ratio_trend():
    spec = BlockSpec(lambda j: j + 1, lambda j: (j + 2) // 2)
    rep = check_admissible(spec, 10_000)
    assert not (rep.b_bounded_flag or rep.ratio_stalled_flag)
    # sampling ratios approach 1/2 from above
    assert abs(F(spec.m(10_000), spec.b(10_000)) - F(1, 2)) < F(1, 10_000)


# --- ratio measures and the envelope --------------------------------------


def test_pi_measure_merges_atoms():
    pi = pi_measure(BlockSpec([2, 2, 4], [1, 2, 2]), 3)
    assert ratio_atoms(pi) == ((F(1, 2), F(3, 5)), (F(1), F(2, 5)))


def test_pi_measure_full_sequence():
    pi = pi_measure(BlockSpec([3, 5, 7], [3, 5, 7]), 3)
    assert ratio_atoms(pi) == ((F(1), F(1)),)


def test_pi_measure_two_blocks():
    pi = pi_measure(BlockSpec([10, 10], [1, 9]), 2)
    assert ratio_atoms(pi) == ((F(1, 10), F(1, 10)), (F(9, 10), F(9, 10)))


def test_pi_measure_rejects_all_zero():
    with pytest.raises(ValueError):
        pi_measure(BlockSpec([2, 2], [0, 0]), 2)


def test_envelope_point_mass_at_one():
    pi = point_mass(F(1))
    assert F_pi_eval(pi, F(1, 2)) == F(1, 2)


def test_envelope_point_mass_at_zero():
    pi = point_mass(F(0))
    assert F_pi_eval(pi, F(1, 2)) == 1
    assert F_pi_eval(pi, F(0)) == 1  # F(0) = pi({0})


def test_envelope_mixture():
    pi = ratio_measure_from_pairs([(F(1, 2), F(1, 2)), (F(1), F(1, 2))])
    assert F_pi_eval(pi, F(1, 4)) == F(3, 8)


def test_envelope_closed_form_point_masses():
    grid = [F(i, 100) for i in range(101)]
    for q in (F(1, 10), F(1, 2), F(1)):
        pi = point_mass(q)
        for t in grid:
            assert F_pi_eval(pi, t) == min(t / q, F(1))


def test_atom_merge_preserves_envelope():
    split = ratio_measure_from_pairs(
        [(F(1, 3), F(1, 4)), (F(1, 3), F(1, 4)), (F(2, 3), F(1, 2))]
    )
    merged = ratio_measure_from_pairs([(F(1, 3), F(1, 2)), (F(2, 3), F(1, 2))])
    assert ratio_atoms(split) == ratio_atoms(merged)
    for t in (F(0), F(1, 5), F(1, 3), F(1, 2), F(1)):
        assert F_pi_eval(split, t) == F_pi_eval(merged, t)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_envelope_properties_random(seed):
    pi = random_ratio_measure(SplitMix64(seed))
    grid = [F(i, 20) for i in range(21)]
    values = [F_pi_eval(pi, t) for t in grid]
    assert values[0] == mass_at_zero(pi)
    assert values[-1] == 1
    for t, v in zip(grid, values):
        assert t <= v <= 1
    for a, b in zip(values, values[1:]):
        assert a <= b
    for i in range(1, len(grid) - 1):
        assert 2 * values[i] >= values[i - 1] + values[i + 1]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_F_pi_eval_matches_reference_sums(seed):
    # The prefix/suffix-sum evaluation against the plain sums over all atoms.
    rng = SplitMix64(seed)
    pi = random_ratio_measure(rng)
    points = [F(0), F(1)] + [q for q, _ in ratio_atoms(pi)]
    points += [rng.fraction(1000, closed_top=True) for _ in range(10)]
    for t in points:
        assert F_pi_eval(pi, t) == mass_leq(pi, t) + t * harmonic_tail(pi, t)


def test_envelope_uniform_convergence_bound():
    # Perturb pi toward a point mass with vanishing weight; the sup-distance
    # of the envelopes on a fine grid is controlled by the atom-wise
    # total-variation norm and shrinks monotonically.
    base = ratio_measure_from_pairs([(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))])
    spike = F(9, 10)
    grid = [F(i, 1000) for i in range(1001)]
    base_vals = [F_pi_eval(base, t) for t in grid]
    last = None
    for n in range(2, 12):
        mixed = ratio_measure_from_pairs(
            [(q, w * (1 - F(1, n))) for q, w in ratio_atoms(base)] + [(spike, F(1, n))]
        )
        dev = max(abs(F_pi_eval(mixed, t) - v) for t, v in zip(grid, base_vals))
        tv = tv_norm_distance(mixed, base)
        min_loc = min(q for q, _ in ratio_atoms(mixed) if q > 0)
        assert dev <= tv * max(F(1), 1 / min_loc)
        if last is not None:
            assert dev <= last
        last = dev


# --- domination ------------------------------------------------------------


UNIFORM2 = MeasureVector((F(1, 2), F(1, 2)))


def test_dominates_identity_envelope():
    res = envelope_dominates(UNIFORM2, UNIFORM2, point_mass(F(1)))
    assert res.ok


def test_dominates_reports_first_violation():
    res = envelope_dominates(
        MeasureVector((F(3, 5), F(2, 5))), UNIFORM2, point_mass(F(1))
    )
    assert not res.ok
    assert res.violation == (0,)
    assert res.union_mass == F(3, 5)
    assert res.bound == F(1, 2)


def test_dominates_half_ratio_allows_full_concentration():
    res = envelope_dominates(
        MeasureVector((F(1), F(0))), UNIFORM2, point_mass(F(1, 2))
    )
    assert res.ok


def test_dominates_mismatched_sizes():
    with pytest.raises(ValueError):
        envelope_dominates(UNIFORM2, MeasureVector((F(1),)), point_mass(F(1)))


def test_union_check_strictly_stronger_than_cellwise():
    # Strictly concave envelope: each cell passes, the two-cell union fails.
    pi = ratio_measure_from_pairs([(F(1, 4), F(1, 2)), (F(1), F(1, 2))])
    partition = CellPartition((F(0), F(1, 4), F(1, 2), F(1)))
    lam = partition.lebesgue_masses()
    mu = MeasureVector((F(5, 8), F(3, 8), F(0)))
    assert all(m <= F_pi_eval(pi, l) for m, l in zip(mu.masses, lam.masses))
    res = envelope_dominates(mu, lam, pi)
    assert not res.ok
    assert res.violation == (0, 1)


def test_lambda_always_dominated():
    rng = SplitMix64(12)
    partition = CellPartition.uniform(4)
    lam = partition.lebesgue_masses()
    for _ in range(25):
        pi = random_ratio_measure(rng)
        assert envelope_dominates(lam, lam, pi).ok


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_cellwise_prefilter_never_stricter(seed):
    # Single cells are unions too: any single-cell failure must also fail
    # the union check, and a union pass implies every cell passes.
    rng = SplitMix64(seed)
    pi = random_ratio_measure(rng)
    partition = CellPartition.uniform(4)
    lam = partition.lebesgue_masses()
    weights = [rng.randint(0, 8) for _ in range(4)]
    if sum(weights) == 0:
        weights[0] = 1
    mu = MeasureVector(tuple(F(w, sum(weights)) for w in weights))
    cellwise_ok = all(m <= F_pi_eval(pi, l) for m, l in zip(mu.masses, lam.masses))
    union = envelope_dominates(mu, lam, pi)
    if not cellwise_ok:
        assert not union.ok
    if union.ok:
        assert cellwise_ok


def test_thirty_cells_decided_by_root_prefixes():
    # mu = lambda lies on F(t) = t: the root's 30 density-order prefixes all
    # pass, which settles every one of the 2^30 - 1 unions.
    partition = CellPartition.uniform(30)
    lam = partition.lebesgue_masses()
    res = envelope_dominates(lam, lam, point_mass(F(1)))
    assert res.ok
    assert res.unions_checked == 30


def test_dominates_rejects_negative_tol():
    with pytest.raises(ValueError):
        envelope_dominates(UNIFORM2, UNIFORM2, point_mass(F(1)), tol=F(-1, 10))


def first_violation_by_enumeration(mu, lam, pi, tol):
    """Lexicographically first of all 2^s - 1 unions that violates F + tol,
    with F from the plain atom sums."""
    found = []
    for size in range(1, len(mu) + 1):
        for cells in combinations(range(len(mu)), size):
            union_mass = sum((mu[i] for i in cells), F(0))
            t = sum((lam[i] for i in cells), F(0))
            bound = mass_leq(pi, t) + t * harmonic_tail(pi, t)
            if union_mass > bound + tol:
                found.append((cells, union_mass, bound))
    return min(found, default=None)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_union_walk_matches_enumeration(seed):
    # Small integer weights give zero-lambda cells and equal densities.
    rng = SplitMix64(seed)
    s = rng.randint(1, 10)
    lam_w = [rng.randint(0, 3) for _ in range(s)]
    mu_w = [rng.randint(0, 4) for _ in range(s)]
    if sum(lam_w) == 0:
        lam_w[0] = 1
    if sum(mu_w) == 0:
        mu_w[-1] = 1
    mu = MeasureVector(tuple(F(w, sum(mu_w)) for w in mu_w))
    lam = MeasureVector(tuple(F(w, sum(lam_w)) for w in lam_w))
    pi = random_ratio_measure(rng)
    tol = (F(0), F(1, 50), F(1, 10), F(1, 3))[rng.randint(0, 3)]
    res = envelope_dominates(mu, lam, pi, tol=tol)
    want = first_violation_by_enumeration(mu.masses, lam.masses, pi, tol)
    if want is None:
        assert (res.ok, res.violation, res.union_mass, res.bound) == (True, None, None, None)
    else:
        assert (res.ok, res.violation, res.union_mass, res.bound) == (False, *want)
    assert res.unions_checked <= s * (s + 3) // 2  # within (s + 1)^3


def test_deep_violation_at_sixty_cells_within_cubic_bound():
    # F(t) = t.  Cells 0..29 carry 1/1200 less mu than lambda, cells 30..59
    # 1/1200 more; with tol = 1/200 the first violating union takes the 30
    # surplus cells and the first 23 deficit cells (excess 7/1200 > 6/1200).
    s = 60
    lam = MeasureVector(tuple(F(1, s) for _ in range(s)))
    d = F(1, 20 * s)
    mu = MeasureVector(tuple(F(1, s) + (d if i >= 30 else -d) for i in range(s)))
    res = envelope_dominates(mu, lam, point_mass(F(1)), tol=F(1, 200))
    assert not res.ok
    assert res.violation == tuple(range(23)) + tuple(range(30, 60))
    assert res.union_mass - res.bound == F(7, 1200)
    assert res.unions_checked <= s * (s + 3) // 2  # within (s + 1)^3
