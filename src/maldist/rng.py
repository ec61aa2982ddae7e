"""The name of the pinned pseudo-random generator.

SplitMix64 (the 64-bit mixer of Steele/Lea/Vigna), seeded by a single 64-bit
integer, is the generator the `rng` field of the CLI's JSON outputs names.
No subcommand draws from it: the field is a reserved echo, which
`maldist.cli._rng_echo` alone writes, with the seed `envelope --seed` gives
and 0 in every other output.  The generator itself lives with the tests
(`tests/oracles.py`), its only users; it is small enough to re-implement
anywhere, which keeps seeded runs reproducible across machines and
languages.  Python's `random` module is deliberately not used.
"""

__all__ = ["ALGORITHM"]

ALGORITHM = "splitmix64"
