"""The name of the pinned pseudo-random generator.

SplitMix64 (the 64-bit mixer of Steele/Lea/Vigna), seeded by a single 64-bit
integer, is the generator the `rng` field of every JSON output names.  No
subcommand draws from it: the field and its seed are a reserved echo, so a
randomized experiment added later has its stream pinned already.  The
generator itself lives with the tests (`tests/oracles.py`), its only users,
until a subcommand draws; it is small enough to re-implement anywhere, which
keeps seeded runs reproducible across machines and languages.  Python's
`random` module is deliberately not used.
"""

__all__ = ["ALGORITHM"]

ALGORITHM = "splitmix64"
