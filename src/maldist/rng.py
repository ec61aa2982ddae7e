"""Seeded pseudo-randomness with a pinned, portable algorithm.

SplitMix64 (the 64-bit mixer of Steele/Lea/Vigna), seeded by a single 64-bit
integer, is the generator the `rng` field of every JSON output names.  No
subcommand draws from it: the field and its seed are a reserved echo, so a
randomized experiment added later has its stream pinned already.  The
generator is small enough to re-implement anywhere, which keeps seeded runs
reproducible across machines and languages.  Python's `random` module is
deliberately not used.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["SplitMix64", "ALGORITHM"]

ALGORITHM = "splitmix64"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """Counter-based 64-bit generator; one output per increment of the state."""

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
