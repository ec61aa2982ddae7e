"""The zero-block window counts test one by one only the steps before the
last 1 digit, and give every later step, where the digit tail is 0, the
verdict of the value itself.  Both sides, `zero_block_density` and the
`zeroblock` verifier, are held here to the one-step-at-a-time count of
`tests.oracles`, on digit strings with short and long zero runs, values on
and off the band (1/2, 3/4), the band's ends, and window ends up to 10**18;
and the verifier's comparison of each digit tail with the arc ends to the
shift-and-mask recount it replaced, on random digits, zero blocks and
tails that run along an end.
"""

import json
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from maldist import certificates as certs
from maldist import cli
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


def square_digits(digits):
    """The digits cut or padded with 1s to the next square length, as a
    `zeroblock` certificate holds max(block_starts)^2 digits."""
    side = max(1, isqrt(len(digits) - 1) + 1) if digits else 1
    return (digits + [1] * side * side)[: side * side]


def window_claim(end, hits):
    return {"id": f"window-{end}", "kind": "window-density", "end": end, "hits": hits,
            "density": format_rational(F(hits, end)), "verdict": True}


def window_failures(digits, claims):
    cert = {
        "format": certs.FORMAT,
        "kind": "zeroblock",
        "inputs": {"base": "0", "block_starts": [isqrt(len(digits))],
                   "digits": "".join(map(str, digits))},
        "claims": claims,
    }
    return [f for f in certs.verify_certificate(cert).failures if f.startswith("window-")]


@given(mixed_digits.map(square_digits), st.data())
# U = 0 and V = 0: the value is 1/2 or 3/4 itself, on an end of the band.
@example([1, 0, 0, 0], None)
@example([1, 1, 0, 0], None)
@example([1] + [0] * 288, None)
@example([1, 1] + [0] * 287, None)
def test_folded_verifier_matches_the_stepwise_count(digits, data):
    length = len(digits)
    if data is None:
        ends = [1, length - 1, length, length + 1, 10**18]
    else:
        ends = data.draw(st.lists(st.one_of(ends_near, ends_far, st.just(length)),
                                  min_size=1, max_size=6, unique=True))
    ends = [e for e in ends if e >= 1]
    want = window_hits(digits, ends)
    claims = [window_claim(end, want[end]) for end in ends]
    assert window_failures(digits, claims) == []
    claims[-1]["hits"] += 1
    failures = window_failures(digits, claims)
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
    assert [(w.window_end, w.hits) for w in got] == [(e, want[e]) for e in ends]


@pytest.mark.parametrize("pattern", ["1", "10", "110", "1011"])
def test_digits_without_a_zero_run_take_fewer_steps_than_digits(monkeypatch, pattern):
    # 256 digits whose zero runs are short: the verifier tests fewer steps
    # than there are digits, each one comparison of the tail with each arc
    # end at most, and none more for the window end 10**18.
    digits = [int(ch) for ch in (pattern * 256)[:256]]
    want = window_hits(digits, [100, 10**18])
    claims = [window_claim(end, want[end]) for end in (100, 10**18)]
    real = certs._tail_order
    tests = []

    def counted(digits, k, end):
        tests.append(k)
        return real(digits, k, end)

    monkeypatch.setattr(certs, "_tail_order", counted)
    assert window_failures(digits, claims) == []
    steps = len(set(tests))
    assert 0 < steps < len(digits)
    assert len(tests) <= 2 * steps


# Digits whose tails run along an arc end U = (1/2 - x) mod 1 or V = (3/4 -
# x) mod 1 for long stretches: the first L digits of a value x with (2^k + 1)
# * x = 1/2 or 3/4 mod 1, of square length L as a certificate holds them.
@st.composite
def digits_along_an_end(draw):
    k, side = draw(st.integers(1, 8)), draw(st.integers(1, 17))
    end, j = draw(st.sampled_from((F(1, 2), F(3, 4)))), draw(st.integers(0, 2**k))
    return list(binary_digits((end + j) / (2**k + 1) % 1, side * side))


random_digits = st.integers(1, 17).flatmap(
    lambda side: st.lists(st.sampled_from((0, 1)), min_size=side * side, max_size=side * side))


@given(st.one_of(random_digits, mixed_digits.map(square_digits), digits_along_an_end()),
       st.data())
# The value is 1/4, 1/2 or 3/4: every step's value lies on a band end.
@example([0, 1, 0, 0], None)
@example([1, 0, 0, 0, 0, 0, 0, 0, 0], None)
@example([1, 1] + [0] * 287, None)
def test_tail_comparison_matches_the_shift_and_mask_recount(digits, data):
    length = len(digits)
    if data is None:
        ends = [1, 2, length - 1, length, length + 1, 10**18]
    else:
        ends = data.draw(st.lists(st.one_of(ends_near, ends_far, st.just(length)),
                                  min_size=1, max_size=6, unique=True))
    ends = [e for e in ends if e >= 1]
    want = shift_and_mask_window_hits(digits, ends)
    assert window_failures(digits, [window_claim(end, want[end]) for end in ends]) == []


@given(st.lists(st.sampled_from((0, 1)), min_size=2, max_size=300), st.data())
def test_tail_order_matches_fraction_comparison(digits, data):
    # The end is drawn as the tail itself (with more zero digits or a 1
    # after it), the tail with one digit flipped, or any digits.
    k = data.draw(st.integers(1, len(digits) - 1))
    tail = digits[k:]
    end = data.draw(st.one_of(
        st.tuples(st.just(tail), st.lists(st.sampled_from((0, 1)), max_size=4))
        .map(lambda t: t[0] + t[1]),
        st.integers(0, len(tail) - 1).map(lambda i: tail[:i] + [1 - tail[i]] + tail[i + 1:]),
        st.lists(st.sampled_from((0, 1)), min_size=len(tail), max_size=len(tail) + 4),
    ))
    value = lambda ds: sum(F(d, 2 ** (i + 1)) for i, d in enumerate(ds))
    t, e = value(tail), value(end)
    assert certs._tail_order(bytes(digits), k, bytes(end)) == (t > e) - (t < e)


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
