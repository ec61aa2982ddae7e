from fractions import Fraction

import pytest
from hypothesis import settings

from maldist.empirical import Residues
from maldist.exact import mod1

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

# Fibonacci convergent of the golden rotation, denominator above 10^6; the
# rotation by this rational is indistinguishable from the golden rotation on
# every window tested here.
GOLDEN_NUM = 832040
GOLDEN_DEN = 1346269
GOLDEN = Fraction(GOLDEN_NUM, GOLDEN_DEN)


@pytest.fixture(scope="session")
def golden_points():
    """First 25_000 points of the golden-convergent rotation n*alpha mod 1."""
    alpha = GOLDEN
    out = []
    v = Fraction(0)
    for _ in range(25_000):
        v = mod1(v + alpha)
        out.append(v)
    return out


@pytest.fixture(scope="session")
def golden_residues():
    """The same 25_000 points as `golden_points`, as residues n*p mod q."""
    return Residues([n * GOLDEN_NUM % GOLDEN_DEN for n in range(1, 25_001)], GOLDEN_DEN)
