"""Rotation scans by floor sums: `rotation_scan(p, q, ...)` counts the cells
of n*p/q mod 1 in closed form and must equal the scan of the listed
residues n*p mod q, which `checkpoint_scan` and the plain-Fraction
reference in `tests/oracles.py` both give.  `maldist scan --x-kind rotation`
runs it, and must write the bytes and report the errors of the listed path.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from maldist import cli, empirical
from maldist.empirical import (
    CellPartition,
    Residues,
    checkpoint_scan,
    rotation_scan,
    scan_to_csv,
)
from tests.oracles import fraction_checkpoint_scan
from tests.test_residues import partitions


def listed(p: int, q: int, count: int) -> Residues:
    return Residues([n * p % q for n in range(1, count + 1)], q)


# --- the floor-sum kernel --------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=-300, max_value=300),
)
def test_floor_sum_matches_brute_force(n, m, a, b):
    steps = empirical._euclid_steps(a, m)
    assert empirical._stepped_floor_sum(steps, n, b) == sum((a * i + b) // m for i in range(n))


@given(st.integers(min_value=-10**30, max_value=10**30), st.integers(min_value=1, max_value=10**30))
def test_euclid_steps_are_the_expansion_of_a_over_m(a, m):
    """Each step holds m_k, a_k mod m_k and a_k div m_k, the next step runs
    on (a_k mod m_k, m_k), and the last remainder is 0."""
    steps = empirical._euclid_steps(a, m)
    assert steps[0][0] == m and steps[-1][1] == 0
    assert steps[0][2] * m + steps[0][1] == a
    for (m0, r0, _), (m1, r1, q1) in zip(steps, steps[1:]):
        assert m1 == r0 and q1 * m1 + r1 == m0 and 0 <= r1 < m1


# --- against the listed residues --------------------------------------------------


@st.composite
def rotation_partitions(draw):
    """Uniform, dyadic or mixed cuts, the mixed ones partly on the grid 1/q,
    where a cut's residue threshold lands exactly on a residue."""
    q = draw(st.integers(min_value=1, max_value=300))
    p = draw(st.integers(min_value=-3 * q, max_value=3 * q))
    shape = draw(st.sampled_from(("uniform", "dyadic", "mixed")))
    if shape == "uniform":
        partition = CellPartition.uniform(draw(st.integers(min_value=1, max_value=12)))
    elif shape == "dyadic":
        partition = CellPartition.dyadic(draw(st.integers(min_value=0, max_value=5)))
    else:
        partition = draw(partitions(q))
    return p, q, partition


@given(rotation_partitions(), st.data())
@example((0, 7, CellPartition.uniform(3)), None)
@example((5, 1, CellPartition.uniform(4)), None)
@example((10, 7, CellPartition.dyadic(2)), None)
@example((-3, 7, CellPartition((F(0), F(2, 7), F(3, 7), F(1)))), None)
def test_rotation_scan_matches_listed_residues(triple, data):
    p, q, partition = triple
    if data is None:
        cps = [1, 2, 7, 20]
    else:
        cps = sorted(data.draw(st.sets(st.integers(1, 80), min_size=1, max_size=5)))
    scan = rotation_scan(p, q, partition, cps)
    assert scan == checkpoint_scan(listed(p, q, cps[-1]), partition, cps)
    points = [F(n * p % q, q) for n in range(1, cps[-1] + 1)]
    assert scan == fraction_checkpoint_scan(points, partition, cps)


@pytest.mark.parametrize(
    "checkpoints,message",
    [
        ([], "checkpoints must be positive"),
        ([0, 3], "checkpoints must be positive"),
        ([-2], "checkpoints must be positive"),
        ([3, 3], "checkpoints must be strictly increasing"),
        ([5, 2], "checkpoints must be strictly increasing"),
    ],
)
def test_rotation_scan_checks_checkpoints_as_checkpoint_scan_does(checkpoints, message):
    partition = CellPartition.uniform(3)
    for scan in (
        lambda: rotation_scan(1, 3, partition, checkpoints),
        lambda: checkpoint_scan(listed(1, 3, 10), partition, checkpoints),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            scan()


def test_rotation_scan_needs_a_positive_denominator():
    with pytest.raises(ValueError, match="^denominator must be positive$"):
        rotation_scan(1, 0, CellPartition.uniform(2), [1])


def test_large_rotation_scan_lists_no_points(monkeypatch):
    """N = 10^15 points, which no list could hold, over a 30-digit
    denominator: one floor sum per cell and checkpoint, each a walk of the
    one Euclid expansion, and counts that sum to N.  The alpha is a
    Fibonacci ratio, close to the golden rotation, so every count is within
    a few dozen of N/64."""
    a, b = 1, 1
    while b < 10**29:
        a, b = b, a + b
    assert len(str(b)) == 30
    floor_sum, calls = empirical._stepped_floor_sum, []
    euclid_steps, expansions = empirical._euclid_steps, []

    def counted(*args):
        calls.append(args)
        return floor_sum(*args)

    def formed(*args):
        expansions.append(args)
        return euclid_steps(*args)

    monkeypatch.setattr(empirical, "_stepped_floor_sum", counted)
    monkeypatch.setattr(empirical, "_euclid_steps", formed)
    n, partition = 10**15, CellPartition.uniform(64)
    scan = rotation_scan(a, b, partition, [1000, n])
    assert len(calls) == 2 * 64
    assert expansions == [(a, b)]
    small, large = scan.counts
    assert small == checkpoint_scan(listed(a, b, 1000), partition, [1000]).counts[0]
    assert sum(large) == n
    assert all(abs(64 * count - n) <= 64 * 100 for count in large)


# --- the command line -------------------------------------------------------------


@pytest.mark.parametrize("alpha", ["0", "1", "1/3", "-5/7", "7/3", "355/113", "987/1597"])
@pytest.mark.parametrize("cells", [["--cells", "1"], ["--cells", "8"],
                                   ["--cuts", "0,1/3,1/2,57/113,1"]])
@pytest.mark.parametrize("checkpoints", ["1", "3,6,9", "1,50,113,400"])
def test_cli_rotation_scan_writes_the_listed_path_bytes(tmp_path, alpha, cells, checkpoints):
    out = tmp_path / "scan.csv"
    argv = ["scan", "--x-kind", "rotation", f"--x-alpha={alpha}", *cells,
            "--checkpoints", checkpoints, "--out", str(out)]
    assert cli.main(argv) == 0
    cps = [int(c) for c in checkpoints.split(",")]
    if cells[0] == "--cells":
        partition = CellPartition.uniform(int(cells[1]))
    else:
        partition = CellPartition(tuple(F(t) for t in cells[1].split(",")))
    points = cli._points_source({"x-kind": "rotation", "x-alpha": alpha}, cps[-1])
    assert out.read_bytes() == scan_to_csv(checkpoint_scan(points, partition, cps)).encode()


@pytest.mark.parametrize(
    "options,error",
    [
        (["--x-alpha", "1/0", "--checkpoints", "5,3"],
         "--x-alpha: bad rational '1/0' at position 2: zero denominator"),
        (["--x-alpha", "abc", "--checkpoints", "0"],
         "--x-alpha: bad rational 'abc' at position 0: expected 'p/q', integer or decimal"),
        (["--checkpoints", "-1"], "missing required option --x-alpha"),
        (["--x-alpha", "1/3", "--checkpoints", "5,3"], "checkpoints must be strictly increasing"),
        (["--x-alpha", "1/3", "--checkpoints", "4,4"], "checkpoints must be strictly increasing"),
        (["--x-alpha", "1/3", "--checkpoints", "0,4"], "checkpoints must be positive"),
        (["--x-alpha", "1/3", "--checkpoints", "-2"], "checkpoints must be positive"),
        (["--x-alpha", "abc", "--cuts", "0,1/2", "--checkpoints", "5,3"],
         "cuts must run from 0 to 1"),
    ],
)
def test_cli_rotation_scan_errors_and_their_order(tmp_path, capsys, options, error):
    """The cuts are read first, then --x-alpha, and the checkpoints are
    checked last."""
    out = tmp_path / "scan.csv"
    assert cli.main(["scan", "--x-kind", "rotation", *options, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"maldist scan: {error}\n"
    assert not out.exists()
