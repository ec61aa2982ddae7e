from fractions import Fraction as F

import pytest

from tests.oracles import SplitMix64


def test_reference_stream_seed_zero():
    # Reference outputs of the published SplitMix64 mixer for state 0; the
    # certificates' reproducibility promise rests on this stream never
    # changing.
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_seed_masked_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


def test_randrange_bounds_and_determinism():
    g = SplitMix64(7)
    draws = [g.randrange(10) for _ in range(1000)]
    assert set(draws) <= set(range(10))
    assert len(set(draws)) == 10
    replay = SplitMix64(7)
    assert draws == [replay.randrange(10) for _ in range(1000)]
    with pytest.raises(ValueError):
        g.randrange(0)


def test_subset_is_sorted_subset():
    g = SplitMix64(11)
    for _ in range(200):
        sub = g.subset(5, 14, 4)
        assert len(sub) == 4
        assert list(sub) == sorted(set(sub))
        assert all(5 <= v <= 14 for v in sub)
    assert SplitMix64(3).subset(1, 6, 6) == (1, 2, 3, 4, 5, 6)
    assert SplitMix64(3).subset(1, 6, 0) == ()


def test_fraction_ranges():
    g = SplitMix64(5)
    for _ in range(200):
        open_top = g.fraction(12)
        assert 0 <= open_top < 1 and open_top.denominator <= 12
        closed = g.fraction(12, closed_top=True)
        assert 0 <= closed <= 1


def test_shuffle_is_permutation():
    g = SplitMix64(9)
    items = list(range(20))
    g.shuffle(items)
    assert sorted(items) == list(range(20))
    again = list(range(20))
    SplitMix64(9).shuffle(again)
    assert items == again
