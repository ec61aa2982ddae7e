"""Complete claim sets: `verify` recomputes only the claims a certificate
lists, so each kind derives from its echoed inputs the claim ids it must
carry, each bound to its claim kind.  A missing, duplicated, unknown or
relabelled id is a failure named after the id, and `verify` exits 1."""

import copy
import json

import pytest

from maldist import certificates as certs
from maldist import cli
from tests.test_certificates_cli import all_certificates, run_cli

CERTIFICATES = dict(all_certificates())


def verify(tmp_path, cert) -> tuple[int, dict]:
    path, out = tmp_path / "cert.json", tmp_path / "verdict.json"
    path.write_text(json.dumps(cert))
    code = cli.main(["verify", str(path), "--out", str(out)])
    return code, json.loads(out.read_text())


def drop_first(claims):
    first = claims.pop(0)
    return f"claims: missing {first['id']}"


def duplicate_first(claims):
    claims.append(copy.deepcopy(claims[0]))
    return f"claims: duplicate {claims[0]['id']}"


def empty(claims):
    first = claims[0]["id"]
    claims.clear()
    return f"claims: missing {first}"


def relabel_first_kind(claims):
    claim = claims[0]
    was = claim["kind"]
    claim["kind"] = "interval-length" if was != "interval-length" else "point-in-interval"
    return f"claims: {claim['id']} has kind {claim['kind']!r}, expected {was!r}"


MUTATIONS = {
    "drop": drop_first,
    "duplicate": duplicate_first,
    "empty": empty,
    "relabel": relabel_first_kind,
}


@pytest.mark.parametrize("mutation", list(MUTATIONS))
@pytest.mark.parametrize("kind", list(CERTIFICATES))
def test_incomplete_claim_set_fails_verify(tmp_path, kind, mutation):
    cert = copy.deepcopy(CERTIFICATES[kind])
    assert verify(tmp_path, cert) == (0, {"ok": True, "failures": []})
    failure = MUTATIONS[mutation](cert["claims"])
    code, verdict = verify(tmp_path, cert)
    assert code == 1
    assert verdict["ok"] is False
    assert failure in verdict["failures"], verdict["failures"]


def test_avoid_with_no_claims_fails_from_the_command_line(tmp_path):
    out = tmp_path / "avoid.json"
    res = run_cli("witness", "--mode", "avoid", "--alpha", "5/17", "--eps", "1/5",
                  "--horizon", "50", "--out", str(out))
    assert res.returncode == 0, res.stderr
    cert = json.loads(out.read_text())
    cert["claims"] = []
    out.write_text(json.dumps(cert))
    check = run_cli("verify", str(out))
    assert check.returncode == 1
    assert json.loads(check.stdout) == {
        "ok": False,
        "failures": ["claims: missing gap-structure", "claims: missing zero-hits"],
    }


def test_required_ids_follow_the_echoed_inputs():
    # Three multipliers: alpha-in-start and containment/length/nesting 1..3.
    cert = copy.deepcopy(CERTIFICATES["mixing"])
    ids = [c["id"] for c in cert["claims"]]
    assert sorted(ids) == sorted(
        ["alpha-in-start"]
        + [f"{name}-{k}" for k in (1, 2, 3) for name in ("containment", "length", "nesting")]
    )
    cert["claims"] = [c for c in cert["claims"] if c["id"] != "nesting-3"]
    assert certs.verify_certificate(cert).failures == ("claims: missing nesting-3",)
    extra = copy.deepcopy(CERTIFICATES["mixing"])
    extra["claims"].append(dict(extra["claims"][-1], id="nesting-4"))
    assert "claims: unknown nesting-4" in certs.verify_certificate(extra).failures


def test_renamed_id_is_unknown_and_leaves_its_id_missing():
    cert = copy.deepcopy(CERTIFICATES["avoid"])
    for claim in cert["claims"]:
        if claim["id"] == "zero-hits":
            claim["id"] = "no-hits"
    failures = certs.verify_certificate(cert).failures
    assert failures[:2] == ("claims: unknown no-hits", "claims: missing zero-hits")


@pytest.mark.parametrize("claims", [{}, "[]", [["id", "zero-hits"]], None])
def test_claims_must_be_a_list_of_objects(claims):
    cert = copy.deepcopy(CERTIFICATES["fivesixth"])
    cert["claims"] = claims
    result = certs.verify_certificate(cert)
    assert not result.ok
    assert result.failures[0] == "claims: not a list of objects"


def test_optional_families_may_be_absent_but_bind_their_ids():
    avoid = copy.deepcopy(CERTIFICATES["avoid"])
    avoid["claims"] = [c for c in avoid["claims"] if c["id"] != "star-discrepancy-floor"]
    assert certs.verify_certificate(avoid).ok
    zeroblock = copy.deepcopy(CERTIFICATES["zeroblock"])
    windows = [c for c in zeroblock["claims"] if c["id"].startswith("window-")]
    assert [c["id"] for c in windows] == ["window-16", "window-100"]
    zeroblock["claims"] = [c for c in zeroblock["claims"] if c not in windows]
    assert certs.verify_certificate(zeroblock).ok
    # A window claim whose id names another end than the one it checks.
    moved = copy.deepcopy(CERTIFICATES["zeroblock"])
    moved["claims"][-1]["id"] = "window-99"
    assert "window-99: end is 100, recomputed 99" in certs.verify_certificate(moved).failures
    # A window id that is not window-<integer> is unknown.
    odd = copy.deepcopy(CERTIFICATES["zeroblock"])
    odd["claims"][-1]["id"] = "window-x"
    assert "claims: unknown window-x" in certs.verify_certificate(odd).failures


def test_histogram_cell_claim_checks_the_cell_its_id_names():
    cert = copy.deepcopy(CERTIFICATES["histogram"])
    cert["claims"][0]["cell"] = 1
    assert "cell-0: cell is 1, recomputed 0" in certs.verify_certificate(cert).failures


def other_value(value):
    """Another JSON value of the same type as `value`."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "0"
    if isinstance(value, list):
        return value + value[:1] if value else [0]
    key = next(iter(value))
    return {**value, key: other_value(value[key])}


@pytest.mark.parametrize("kind", list(CERTIFICATES))
def test_every_claim_field_is_recomputed(kind):
    """Each field of each claim, edited alone, fails verify by the claim's
    id.  The star-discrepancy floor is skipped: it is its claim's own
    input."""
    cert = CERTIFICATES[kind]
    escaped = []
    for index, stated in enumerate(cert["claims"]):
        for field in stated:
            if field in ("id", "kind") or (stated["id"], field) == ("star-discrepancy-floor",
                                                                    "floor"):
                continue
            edited = copy.deepcopy(cert)
            edited["claims"][index][field] = other_value(stated[field])
            result = certs.verify_certificate(edited)
            if result.ok or not any(f.startswith(f"{stated['id']}: ") for f in result.failures):
                escaped.append((stated["id"], field, result.failures))
    assert escaped == []


@pytest.mark.parametrize("floor,reason", [
    (None, 'expected a "p/q" string, got null'),
    ("x", "bad rational 'x' at position 0: expected 'p/q', integer or decimal"),
    (5, 'expected a "p/q" string, got an integer'),
    ("1/0", "bad rational '1/0' at position 2: zero denominator"),
    ("missing", 'expected a "p/q" string, got null'),
], ids=["null", "text", "integer", "zero-denominator", "missing"])
def test_malformed_discrepancy_floor_fails_by_name(floor, reason):
    """The floor is the star-discrepancy claim's own input; a floor that is
    no rational fails as that claim's, not as a fault of the verifier."""
    cert = copy.deepcopy(CERTIFICATES["avoid"])
    [claim] = [c for c in cert["claims"] if c["id"] == "star-discrepancy-floor"]
    if floor == "missing":
        del claim["floor"]
    else:
        claim["floor"] = floor
    assert certs.verify_certificate(cert).failures == (f"star-discrepancy-floor: floor: {reason}",)


def test_histogram_base_must_match_the_multiplier_count():
    cert = copy.deepcopy(CERTIFICATES["histogram"])
    cert["inputs"]["base"] = 3
    assert certs.verify_certificate(cert).failures == (
        "inputs.multipliers: has 64 entries, not base^2 = 9",
    )
