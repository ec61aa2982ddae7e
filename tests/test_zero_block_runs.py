"""The zero-block window counts test one by one only the steps before the
last 1 digit, and give every later step, where the digit tail is 0, the
verdict of the value itself.  Both sides, `zero_block_density` and the
`zeroblock` verifier, are held here to the one-step-at-a-time count of
`tests.oracles`: the builder on digit strings with short and long zero
runs, the verifier on the digits its own rule makes from a base and block
starts (the only digits it accepts), with values on and off the band
(1/2, 3/4), the band's ends, and window ends up to 10**18.
"""

import json
from fractions import Fraction as F
from types import SimpleNamespace

from hypothesis import assume, example, given
from hypothesis import strategies as st

from maldist import certificates as certs
from maldist import cli, doubling
from maldist.doubling import BinaryPoint, zero_block_density
from maldist.exact import binary_digits, format_rational
from tests.oracles import shift_and_mask_window_hits, stepwise_window_hits


def window_hits(digits, ends):
    """end -> hits of steps 1..end.  From step L on every tail is 0, so each
    step has the verdict of step L + 1: ends past L + 1 extend the
    stepwise count by that verdict rather than walking to them."""
    length = len(digits)
    near = stepwise_window_hits(digits, [*(e for e in ends if e <= length + 1), length, length + 1])
    past = near[length + 1] - near[length]
    return {e: near[e] if e in near else near[length + 1] + past * (e - length - 1) for e in ends}


# Digit strings of bits and zero runs, short ones and ones longer than the
# value's distance to the band ends needs for a run of one verdict.
chunks = st.one_of(
    st.lists(st.sampled_from((0, 1)), min_size=1, max_size=8),
    st.integers(1, 60).map(lambda n: [0] * n),
)
mixed_digits = st.lists(chunks, min_size=1, max_size=12).map(lambda cs: [d for c in cs for d in c])
ends_near = st.integers(1, 300)
ends_far = st.integers(300, 10**18)

# Bases in [0, 1), small and large denominators, with 1 to 4 block starts
# up to 17 (at most 289 digits).
bases = st.integers(1, 10**30).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: F(p, q)))
block_starts = st.lists(st.integers(1, 17), min_size=1, max_size=4)


def rule_digits(base, starts):
    """The first max(starts)^2 binary digits of base with digit positions
    j..j^2 zeroed for each start j: the only digits a `zeroblock`
    certificate of these inputs may hold."""
    length = max(starts) ** 2
    digits = list(binary_digits(base, length))
    for j in starts:
        digits[j - 1 : j * j] = [0] * (j * j - j + 1)
    return digits


def window_claim(end, hits):
    return {"id": f"window-{end}", "kind": "window-density", "end": end, "hits": hits,
            "density": format_rational(F(hits, end)), "verdict": True}


def window_failures(base, starts, claims):
    cert = {
        "format": certs.FORMAT,
        "kind": "zeroblock",
        "inputs": {"base": format_rational(base), "block_starts": starts,
                   "digits": "".join(map(str, rule_digits(base, starts)))},
        "claims": claims,
    }
    return [f for f in certs.verify_certificate(cert).failures if f.startswith("window-")]


@given(bases, block_starts, st.data())
# The value on a band end, 1/2 or 3/4, or 1/4, whose first step lands on 3/4.
@example(F(1, 4), [3], None)
@example(F(1, 2), [3], None)
@example(F(3, 4), [3], None)
@example(F(1, 2), [17], None)
@example(F(3, 4), [17], None)
# Digits whose tails run along a band end for long stretches: (2^k + 1) * x
# = 1/2 mod 1 for k = 1 and k = 3.
@example(F(1, 6), [17], None)
@example(F(1, 18), [17], None)
def test_folded_verifier_matches_the_stepwise_count(base, starts, data):
    digits = rule_digits(base, starts)
    length = len(digits)
    if data is None:
        ends = [1, length - 1, length, length + 1, 10**18]
    else:
        ends = data.draw(st.lists(st.one_of(ends_near, ends_far, st.just(length)),
                                  min_size=1, max_size=6, unique=True))
    ends = [e for e in ends if e >= 1]
    want = window_hits(digits, ends)
    assert shift_and_mask_window_hits(digits, ends) == want
    claims = [window_claim(end, want[end]) for end in ends]
    assert window_failures(base, starts, claims) == []
    claims[-1]["hits"] += 1
    failures = window_failures(base, starts, claims)
    assert failures and all(f.startswith(f"window-{ends[-1]}: ") for f in failures)


@given(mixed_digits, st.data())
def test_folded_density_matches_the_stepwise_count(digits, data):
    # The point must lie in the band; digits 1, 0 lead every such point, and
    # digits past them that reach 3/4 are refused by the builder.
    digits = [1, 0, *digits]
    assume(F(1, 2) < BinaryPoint(tuple(digits)).value < F(3, 4))
    ends = sorted(data.draw(st.sets(st.one_of(ends_near, ends_far, st.just(len(digits))),
                                    min_size=1, max_size=6)))
    want = window_hits(digits, ends)
    got = zero_block_density(BinaryPoint(tuple(digits)), ends)
    assert got == [(e, want[e]) for e in ends]


ZEROBLOCK = ["doubling", "--mode", "zeroblock", "--base", "1417/2169", "--starts", "13,18,39"]


def test_window_three_hundred_million_on_1521_digits(tmp_path):
    # Blocks 13..169, 18..324 and 39..1521 zero every digit from the 13th
    # on, so a window end of 3 * 10**8 is one folded run.
    out = tmp_path / "zb.json"
    assert cli.main([*ZEROBLOCK, "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    digits = [int(ch) for ch in cert["inputs"]["digits"]]
    assert len(digits) == 1521
    end = 300_000_000
    cert["claims"].append(window_claim(end, window_hits(digits, [end])[end]))
    assert certs.verify_certificate(cert).ok
    cert["claims"][-1]["hits"] -= 1
    failures = certs.verify_certificate(cert).failures
    assert failures and all(f.startswith(f"window-{end}: hits is ") for f in failures)



def test_repeated_starts_build_as_their_distinct_starts(tmp_path):
    # The default windows are the squares of the distinct starts, and the
    # certificate echoes the starts as given: only that echo differs from
    # the build of the distinct starts.
    built = {}
    for starts in ("13,18", "13,18,18", "18,13,18,13"):
        out = tmp_path / "zb.json"
        assert cli.main([*ZEROBLOCK[:-1], starts, "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        assert cert["inputs"].pop("block_starts") == [int(j) for j in starts.split(",")]
        built[starts] = cert
    assert built["13,18,18"] == built["18,13,18,13"] == built["13,18"]


def test_each_distinct_start_is_zeroed_and_counted_once(monkeypatch):
    zeroed, counted = [], []

    def zeroing(n):
        if type(n) is int:  # `BinaryPoint` copies its digits by `bytes` as well
            zeroed.append(n)
        return bytes(n)

    monkeypatch.setattr(doubling, "bytes", zeroing, raising=False)
    base, starts = F(1417, 2169), [39, 13, 18] + [39] * 2000
    point = doubling.zero_block_alpha(base, starts)
    assert zeroed == [j * j - j + 1 for j in (13, 18, 39)]

    class Counting(bytes):
        def count(self, *args):
            counted.append(args)
            return super().count(*args)

    spied = SimpleNamespace(digits=Counting(point.digits), value=point.value)
    cert = certs.zeroblock_certificate(spied, base, starts)
    assert sorted(counted) == [(1, j - 1, j * j) for j in (13, 18, 39)]
    assert cert["inputs"]["block_starts"] == starts and certs.verify_certificate(cert).ok
