"""Every certificate a build writes, `verify` accepts.

Small inputs are drawn for every certificate-writing mode of the command
line: `witness` mixing, salat2, salat3, avoid and zeroblock, `doubling`
fivesixth, invariance and zeroblock, and `envelope` with `--mu`.  Most draws
are refused with exit 2 and write nothing.  A build that exits 0 or 1 writes
a certificate on which `verify` reports no failure, and whose `ok` holds
exactly when the build exited 0: `verify` refuses only what no build makes.
"""

import json
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maldist import cli


def ratio(low: int, high: int, den: int) -> st.SearchStrategy[str]:
    """p/q for p in low..high and q in 1..den."""
    return st.builds(lambda p, q: f"{p}/{q}", st.integers(low, high), st.integers(1, den))


def joined(values) -> str:
    return ",".join(map(str, values))


def growing(first: int, factors: list[int]) -> str:
    """The list first, first * f_1, first * f_1 * f_2, ..."""
    out = [first]
    for f in factors:
        out.append(out[-1] * f)
    return joined(out)


def arc(den: int) -> st.SearchStrategy[str]:
    """a/q,b/q for 0 <= a < b <= q <= den: an open interval inside [0, 1]."""
    return st.integers(1, den).flatmap(lambda q: st.lists(
        st.integers(0, q), min_size=2, max_size=2, unique=True).map(
        lambda ends: f"{min(ends)}/{q},{max(ends)}/{q}"))


def inside(left: int, right: int, den: int) -> st.SearchStrategy[str]:
    """p/q with left/den < p/q < right/den, q from 2 * den to 6 * den."""
    return st.integers(2 * den, 6 * den).flatmap(lambda q: st.integers(
        left * q // den + 1, -(-right * q // den) - 1).map(lambda p: f"{p}/{q}"))


def optional(flag: str, values: st.SearchStrategy) -> st.SearchStrategy[list[str]]:
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


# k multipliers and k targets, most of the time.
mixing = st.integers(1, 3).flatmap(lambda k: st.builds(
    lambda n, eps, delta, start, targets: [
        "witness", "--mode", "mixing", f"--n={n}", "--eps", f"1/{eps}", "--delta", f"1/{delta}",
        "--start", start, "--targets", ";".join(targets)],
    st.builds(growing, st.integers(-1, 40),
              st.lists(st.integers(1, 40), min_size=k - 1, max_size=k - 1)),
    st.integers(1, 12), st.integers(1, 8), arc(4), st.lists(arc(4), min_size=k, max_size=k)))
# Multipliers b^k, or an explicit list that may not grow by the ratio, and a
# ratio of at most b over a short interval.
salat2 = st.integers(2, 6).flatmap(lambda b: st.builds(
    lambda n, count, interval, k, j: [
        "witness", "--mode", "salat2", *n, "--count", str(count), "--interval", interval,
        "--ratio", f"{b * k - j}/{k}"],
    st.one_of(st.just(["--n-kind", f"pow:{b}"]),
              st.builds(lambda first, f: ["--n", growing(first, f)], st.integers(1, 8),
                        st.lists(st.integers(b - 1, 8), min_size=39, max_size=39))),
    st.integers(1, 40), arc(64), st.integers(1, 3), st.integers(0, 2)))
# A base that the weight total divides, most of the time.
salat3 = st.lists(st.integers(1, 3), min_size=1, max_size=3).flatmap(lambda weights: st.builds(
    lambda n, eta, base: [
        "witness", "--mode", "salat3", *n, "--weights", joined(weights), "--eta", eta,
        "--base", str(base)],
    st.one_of(
        st.builds(lambda kind, b: ["--n-kind", f"{kind}:{b}"],
                  st.sampled_from(["pow", "squarepow"]), st.integers(2, 8)),
        st.builds(lambda first, f: ["--n", growing(first, f)], st.integers(1, 8),
                  st.lists(st.integers(1, 12), min_size=63, max_size=63))),
    ratio(1, 3, 12), st.sampled_from([2, sum(weights), 2 * sum(weights)]).filter(
        lambda base: base <= 8)))
# One cell, over explicit lists that may hold 0 and negatives.
one_cell = st.integers(2, 4).flatmap(lambda base: st.builds(
    lambda n, w, eta: [
        "witness", "--mode", "salat3", f"--n={joined(n)}", "--weights", str(w), "--eta", eta,
        "--base", str(base)],
    st.lists(st.integers(-5, 20), min_size=base * base, max_size=base * base),
    st.integers(1, 4), ratio(1, 3, 12)))
avoid = st.builds(
    lambda alpha, eps, horizon, prefix, floor: [
        "witness", "--mode", "avoid", "--alpha", alpha, "--eps", f"1/{eps}",
        "--horizon", str(horizon), *prefix, *floor],
    inside(0, 1, 1), st.integers(2, 12), st.integers(1, 40),
    optional("--prefix", st.lists(st.integers(0, 3), min_size=1, max_size=4).map(
        lambda steps: joined(accumulate(steps)))),
    optional("--discrepancy-floor", ratio(0, 3, 12)))
zero_block_base = st.one_of(inside(2, 3, 4), ratio(1, 3, 4))
starts = st.lists(st.integers(2, 9), min_size=1, max_size=3).map(joined)
witness_zeroblock = st.builds(
    lambda base, s: ["witness", "--mode", "zeroblock", "--base", base, "--starts", s],
    zero_block_base, starts)
fivesixth = st.builds(
    lambda alpha, horizon: ["doubling", "--mode", "fivesixth", "--alpha", alpha, *horizon],
    st.one_of(inside(0, 1, 16), ratio(0, 3, 40)), optional("--horizon", st.integers(1, 400)))
invariance = st.builds(
    lambda alpha, steps, level: [
        "doubling", "--mode", "invariance", "--alpha", alpha, *steps, "--level", str(level)],
    ratio(0, 60, 60), optional("--steps", st.integers(1, 80)), st.integers(0, 4))
doubling_zeroblock = st.builds(
    lambda base, s, windows: [
        "doubling", "--mode", "zeroblock", "--base", base, "--starts", s, *windows],
    zero_block_base, starts,
    optional("--windows", st.lists(st.integers(1, 120), min_size=1, max_size=4).map(
        lambda ends: joined(sorted(set(ends))))))
# Blocks of sizes b_i with multiplicities m_i <= b_i, and two measures.
envelope = st.integers(1, 3).flatmap(lambda cells: st.builds(
    lambda spec, blocks, mu, lam, tol: [
        "envelope", "--spec", json.dumps({"b": [b for b, _ in spec], "m": [m for _, m in spec]}),
        "--blocks", str(blocks), "--mu", joined(f"{w}/{sum(mu)}" for w in mu),
        "--lam", joined(f"{w}/{sum(lam)}" for w in lam), *tol],
    st.lists(st.integers(1, 3).flatmap(lambda b: st.tuples(st.just(b), st.integers(0, b))),
             min_size=3, max_size=3),
    st.integers(1, 3),
    st.lists(st.integers(1, 4), min_size=cells, max_size=cells),
    st.lists(st.integers(1, 4), min_size=cells, max_size=cells),
    optional("--tol", ratio(0, 2, 12))))

BUILDS = st.one_of(mixing, salat2, salat3, one_cell, avoid, witness_zeroblock, fivesixth,
                   invariance, doubling_zeroblock, envelope)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("builds")


@settings(max_examples=300, deadline=None)
@given(argv=BUILDS)
@example(argv=["witness", "--mode", "salat3", "--n", "0,-5,2,3", "--weights", "1",
               "--eta", "1/10", "--base", "2"])
def test_every_certificate_a_build_writes_verifies(workdir, argv):
    out, cert_path, report = workdir / "out.json", workdir / "cert.json", workdir / "verify.json"
    out.unlink(missing_ok=True)
    extra = ["--table-out", str(workdir / "table.csv")] if argv[0] == "envelope" else []
    code = cli.main([*argv, *extra, "--out", str(out)])
    assert code in (0, 1, 2)
    if code == 2:
        assert not out.exists()
        return
    cert = json.loads(out.read_text(encoding="utf-8"))
    if argv[0] == "envelope":
        cert = cert["certificate"]
    cert_path.write_text(json.dumps(cert), encoding="utf-8")
    assert cli.main(["verify", str(cert_path), "--out", str(report)]) == code
    assert json.loads(report.read_text(encoding="utf-8")) == {"ok": code == 0, "failures": []}
