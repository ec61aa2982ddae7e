"""Typed inputs: `verify` reads a certificate's echoed inputs through its
kind's declared fields before any checker runs.  Every input value of every
certificate, replaced by a value of another type or out of its range,
deleted, or joined by an unknown sibling, fails by the name of an input;
replaced by another valid value, it changes a recomputed claim or fails by
name.  No edit reaches a checker as an error."""

import copy
from fractions import Fraction as F

import pytest

from maldist import certificates as certs
from maldist.empirical import MeasureVector
from maldist.envelope import envelope_dominates
from maldist.exact import format_rational, parse_rational
from tests.oracles import point_mass
from tests.test_certificates_cli import all_certificates


def violating_envelope():
    """An envelope certificate whose domination fails by a margin that a
    wider tolerance closes, so that its `tol` changes the claim."""
    mu = MeasureVector((F(1, 2), F(1, 2)))
    lam = MeasureVector((F(1, 10), F(9, 10)))
    pi = point_mass(F(1, 2))
    result = envelope_dominates(mu, lam, pi)
    assert not result.ok
    return certs.envelope_certificate(mu, lam, pi, result, F(0))


CERTIFICATES = [*all_certificates(), ("envelope-violating", violating_envelope())]

# Values of another JSON type than any field's, or out of every range.
BAD = [None, "x", [], {}, -1, 0, True, 8.9]


def paths(value, path=()):
    """The path of `value` and of every value inside it."""
    yield path
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from paths(inner, path + (key,))
    elif isinstance(value, list):
        for i, inner in enumerate(value):
            yield from paths(inner, path + (i,))


def render(path) -> str:
    return "inputs" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def edited(cert, path, edit):
    """A copy of the certificate with edit(container, key) applied to the
    value at `path` below its inputs."""
    cert = copy.deepcopy(cert)
    container, key = cert, "inputs"
    for step in path:
        container, key = container[key], step
    edit(container, key)
    return cert


def value_at(cert, path):
    value = cert["inputs"]
    for step in path:
        value = value[step]
    return value


def failures_of(cert) -> tuple[str, ...]:
    """The failures of verify, each checked to name an input or a claim."""
    result = certs.verify_certificate(cert)
    ids = {claim["id"] for claim in cert["claims"]}
    for failure in result.failures:
        assert failure.startswith(("inputs", "claims: ")) or failure.split(":")[0] in ids, failure
    assert result.ok == (not result.failures)
    return result.failures


def other_values(value) -> list:
    """Valid values of the same type near `value`: a half and a seventh of a
    rational and its midpoint with 1, the next integer and the double, the
    other bool, a digit string with its last digit changed, and a list
    without its last entry or with its first entry again."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, 2 * value]
    if isinstance(value, str) and "/" in value:
        x = parse_rational(value)
        return [format_rational(x / 2), format_rational(x / 7), format_rational((x + 1) / 2)]
    if isinstance(value, str):
        return [value[:-1] + {"0": "1", "1": "2", "2": "1"}[value[-1]]]
    if isinstance(value, list):
        return [value[:-1], value + value[:1]]
    return []


@pytest.mark.parametrize("name,cert", CERTIFICATES, ids=[name for name, _ in CERTIFICATES])
def test_malformed_inputs_fail_by_name(name, cert):
    assert certs.verify_certificate(cert).ok
    for path in paths(cert["inputs"]):
        for bad in BAD:
            def replace(container, key, bad=bad):
                container[key] = copy.deepcopy(bad)

            failures = failures_of(edited(cert, path, replace))
            assert failures, (path, bad)
            # A failure names the edited field, except that a list emptied
            # may break the length of another list that follows it.
            if not (bad == [] and isinstance(value_at(cert, path), list)):
                assert any(f.startswith(render(path[:1])) for f in failures), (path, bad, failures)
        if path and isinstance(value_at(cert, path[:-1]), dict):
            def drop(container, key):
                del container[key]

            assert failures_of(edited(cert, path, drop)) == (f"{render(path)}: missing",)
        if isinstance(value_at(cert, path), dict):
            def widen(container, key):
                container[key]["unknown"] = 1

            assert failures_of(edited(cert, path, widen)) == (
                f"{render(path + ('unknown',))}: unknown field",)


def test_every_input_feeds_a_claim_or_a_named_check():
    """For each input of each kind (list entries taken together), some
    other valid value changes a recomputed claim or fails by name."""
    detected: dict[tuple, bool] = {}
    for _, cert in CERTIFICATES:
        for path in paths(cert["inputs"]):
            field = (cert["kind"], *("*" if isinstance(p, int) else p for p in path))
            for value in other_values(value_at(cert, path)):
                def replace(container, key, value=value):
                    container[key] = value

                if failures_of(edited(cert, path, replace)):
                    detected[field] = True
            if other_values(value_at(cert, path)):
                detected.setdefault(field, False)
    assert [field for field, seen in detected.items() if not seen] == []


def test_a_wrapping_interval_fails_alone_by_its_path():
    """`wraps` set true in any interval input fails alone, named by its path:
    format /1 keeps the field, but no interval wraps through 0."""
    wrapped = set()
    for _, cert in CERTIFICATES:
        for path in paths(cert["inputs"]):
            if path and path[-1] == "wraps":
                def wrap(container, key):
                    container[key] = True

                wrapped.add(cert["kind"])
                assert failures_of(edited(cert, path, wrap)) == (
                    f"{render(path)}: wrapping intervals are not supported",)
    assert wrapped == {"mixing", "hitfreq"}
