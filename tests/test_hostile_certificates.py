"""Hostile edits of the pinned `hitfreq` and `zeroblock` certificates fail
by name, and what `verify` refuses outright it refuses before any recount.

A plan's u, c or repeats, or one block start, is raised up to 10**12, one
digit is flipped, or the ratio is raised to a 47,713-digit integer or set to
a 50,001-digit one near 1, below it or just below 2.  No build makes a plan
whose c exceeds the number of multipliers or whose u exceeds c + 1, nor a
ratio whose c-th power cannot exceed 2 or that has a term above the largest
multiplier, nor multipliers that fail the growth of their ratio, nor digits
other than the base's with its blocks zeroed; spies
on the claim writers `_hitfreq_claims` and `_zeroblock_claims`, which every
recount ends in, show that those inputs run none.  No wall time is asserted.
"""

import hashlib
import json
import re
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maldist import certificates as certs
from maldist import cli
from tests.test_certificates_cli import PINNED_CERTIFICATES
from tests.test_typed_reads import no_int_digit_limit

TRILLION = 10**12
NAMED = re.compile(r"(inputs\.[a-z_]+(\.[a-z_]+)?|[a-z]+(-[0-9a-z]+)*): \S")
DIGITS_REFUSED = "inputs.digits: not those of base with zeroed blocks"


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """The pinned certificates of both kinds, checked against their digests."""
    out = {}
    for name in ("hitfreq", "zeroblock", "zeroblock-windows"):
        argv, code, digest = PINNED_CERTIFICATES[name]
        path = tmp_path_factory.mktemp(name) / "cert.json"
        assert cli.main([*argv, "--out", str(path)]) == code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        out[name] = path.read_text()
    return out


def verified(cert: dict, writer: str):
    """The verify result of cert and the number of calls of the claim writer."""
    with mock.patch.object(certs, writer, wraps=getattr(certs, writer)) as spy:
        result = certs.verify_certificate(cert)
    assert not result.ok and result.failures
    assert all(NAMED.match(failure) for failure in result.failures), result.failures
    return result.failures, spy.call_count


@pytest.mark.parametrize("field", ["u", "c", "repeats"])
@given(data=st.data())
def test_raised_hitfreq_plan_fails_by_name(pinned, field, data):
    cert = json.loads(pinned["hitfreq"])
    plan, horizon = cert["inputs"]["plan"], len(cert["inputs"]["multipliers"])
    plan[field] = data.draw(st.integers(plan[field] + 1, TRILLION), label=field)
    failures, recounts = verified(cert, "_hitfreq_claims")
    if plan["c"] > horizon:
        assert failures[-1] == f"inputs.plan.c: exceeds len(multipliers) = {horizon}"
    elif plan["u"] > plan["c"] + 1:
        assert failures[-1] == f"inputs.plan.u: exceeds c + 1 = {plan['c'] + 1}"
    else:
        assert recounts == 1
        return
    assert recounts == 0


@pytest.mark.parametrize("field, value, last", [
    ("c", 17, "inputs.plan.c: exceeds len(multipliers) = 16"),
    ("c", TRILLION, "inputs.plan.c: exceeds len(multipliers) = 16"),
    ("u", 10, "inputs.plan.u: exceeds c + 1 = 9"),
    ("u", TRILLION, "inputs.plan.u: exceeds c + 1 = 9"),
])
def test_hitfreq_plan_past_any_build_is_refused_after_the_position_check(
        pinned, field, value, last):
    cert = json.loads(pinned["hitfreq"])
    cert["inputs"]["plan"][field] = value
    failures, recounts = verified(cert, "_hitfreq_claims")
    positions = ["inputs.forced_positions: not c*repeats .. 2*c*repeats step c"] * (field == "c")
    assert (failures, recounts) == ((*positions, last), 0)


def test_long_ratio_that_the_multipliers_fail_is_refused_before_any_power(pinned):
    # ratio = 3^100000, a 47,713-digit text: every step of the 16 multipliers
    # 2^k fails its growth, and no power of it is formed or written.
    cert = json.loads(pinned["hitfreq"])
    horizon = len(cert["inputs"]["multipliers"])
    with no_int_digit_limit():
        cert["inputs"]["ratio"] = f"{3**100_000}/1"
        failures, recounts = verified(cert, "_hitfreq_claims")
    assert failures == tuple(f"inputs.multipliers: growth fails at step {j}"
                             for j in range(1, horizon))
    assert recounts == 0


@pytest.mark.parametrize("numerator", ["near-one", "below-one"])
def test_long_ratio_whose_power_cannot_exceed_two_is_refused_before_any_power(pinned, numerator):
    # (10^50000 + 1)/10^50000 or 1/10^50000: the 16 multipliers 2^k grow by
    # either, but its 8th power stays below 2, so no build states it, and no
    # power of it is formed or written.
    cert = json.loads(pinned["hitfreq"])
    assert cert["inputs"]["plan"]["c"] == 8
    den = 10**50_000
    with no_int_digit_limit():
        cert["inputs"]["ratio"] = f"{den + 1 if numerator == 'near-one' else 1}/{den}"
        failures, recounts = verified(cert, "_hitfreq_claims")
    assert (failures, recounts) == (("inputs.ratio: ratio^c cannot exceed 2 for c = 8",), 0)


def test_long_ratio_with_a_term_above_the_multipliers_is_refused_before_any_power(pinned):
    # (2 * 10^50000 - 1)/10^50000: the 16 multipliers 2^k grow by it, and its
    # 8th power exceeds 2, but both its terms exceed the last multiplier 2^16,
    # so no build states it, and no power of it is formed or written.
    cert = json.loads(pinned["hitfreq"])
    den = 10**50_000
    with no_int_digit_limit():
        cert["inputs"]["ratio"] = f"{2 * den - 1}/{den}"
        failures, recounts = verified(cert, "_hitfreq_claims")
    assert (failures, recounts) == (("inputs.ratio: a term exceeds the largest multiplier",), 0)


@pytest.mark.parametrize("name", ["zeroblock", "zeroblock-windows"])
@given(data=st.data())
def test_raised_block_start_fails_by_name(pinned, name, data):
    cert = json.loads(pinned[name])
    starts = cert["inputs"]["block_starts"]
    i = data.draw(st.integers(0, len(starts) - 1), label="entry")
    starts[i] = data.draw(st.integers(max(starts) + 1, TRILLION), label="start")
    failures, recounts = verified(cert, "_zeroblock_claims")
    length = len(cert["inputs"]["digits"])
    assert failures == (f"inputs.digits: has {length} entries, not max(block_starts)^2 = "
                        f"{starts[i] ** 2}",)
    assert recounts == 0


@pytest.mark.parametrize("name", ["zeroblock", "zeroblock-windows"])
@given(data=st.data())
def test_flipped_digit_is_refused_before_any_recount(pinned, name, data):
    cert = json.loads(pinned[name])
    digits = cert["inputs"]["digits"]
    i = data.draw(st.integers(0, len(digits) - 1), label="place")
    cert["inputs"]["digits"] = digits[:i] + "10"[int(digits[i])] + digits[i + 1:]
    assert verified(cert, "_zeroblock_claims") == ((DIGITS_REFUSED,), 0)


def test_flipped_last_digit_with_a_window_of_a_quadrillion_is_refused(pinned):
    cert = json.loads(pinned["zeroblock"])
    cert["inputs"]["digits"] = cert["inputs"]["digits"][:-1] + "1"
    end = 10**15
    cert["claims"].append({"id": f"window-{end}", "kind": "window-density", "end": end,
                           "hits": end, "density": "1/1", "verdict": True})
    assert verified(cert, "_zeroblock_claims") == ((DIGITS_REFUSED,), 0)


def test_repeated_and_unsorted_block_starts_verify_as_once(pinned):
    # The blocks are zeroed from sorted distinct starts, each byte once.
    cert = json.loads(pinned["zeroblock-windows"])
    cert["inputs"]["block_starts"] = cert["inputs"]["block_starts"][::-1] * 30_000
    assert certs.verify_certificate(cert) == (True, ())
