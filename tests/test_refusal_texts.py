"""Refusal texts pinned whole, one table per layer: what the library raises,
what the command line prints before it exits 2, and what `verify` reports
for a certificate it does not accept.  A change that moves a refusal to
other code keeps each text, and the first of several, as it was."""

import copy
import json
from fractions import Fraction as F

import pytest

from maldist import certificates as certs
from maldist import cli
from maldist.certificates import FORMAT, verify_certificate
from maldist.doubling import (
    BinaryPoint,
    doubling_orbit,
    five_sixth_check,
    invariance_defect,
    zero_block_alpha,
    zero_block_density,
)
from maldist.empirical import CellPartition, MeasureVector, Residues, star_discrepancy
from maldist.envelope import (
    BlockSpec,
    RatioMeasure,
    check_admissible,
    envelope_dominates,
    pi_measure,
)
from maldist.exact import binary_digits
from maldist.subspace import ExtensionTarget, greedy_extension, validate_membership
from maldist.torus import TorusInterval
from maldist.witness import (
    HistogramTarget,
    MixingConfig,
    Multipliers,
    auto_plan,
    avoidance_sequence,
    hit_frequency_witness,
    histogram_witness,
)

SPEC = BlockSpec([2, 2], [1, 1])
HALVES = MeasureVector((F(1, 2), F(1, 2)))
POINT = RatioMeasure([((1, 2), 1)], 1)
TENTH, HALF_ARC = TorusInterval(F(0), F(1, 10)), TorusInterval(F(0), F(1, 2))
GEOMETRIC = [4**k for k in range(1, 41)]
TWO_CELLS = CellPartition.uniform(2)
HALF_TARGET = ExtensionTarget(HALVES, F(1, 10), POINT)
START = TorusInterval(F(0), F(1, 2))

LIBRARY = {
    "auto-plan-ratio": (lambda: auto_plan(F(1), F(1, 10)), "ratio must exceed 1"),
    "auto-plan-eps": (lambda: auto_plan(F(3), F(1, 2)), "eps must lie in (0, 1/ratio)"),
    "hitfreq-length": (lambda: hit_frequency_witness(GEOMETRIC, HALF_ARC, F(4)),
                       "interval length must be below 1/ratio"),
    "hitfreq-multiplier": (lambda: hit_frequency_witness([0, *GEOMETRIC], TENTH, F(4)),
                           "multiplier must be a positive integer"),
    "hitfreq-growth": (lambda: hit_frequency_witness([4, 8, 64], TENTH, F(4)),
                       "growth fails at step 1: 8/4 < 4"),
    "hitfreq-count": (lambda: hit_frequency_witness(GEOMETRIC[:3], TENTH, F(4)),
                      "need at least 6 multipliers, got 3"),
    # 4^k grows by (4^41 - 1)/4^40, whose numerator exceeds the last term 4^40.
    "hitfreq-ratio-term": (lambda: hit_frequency_witness(GEOMETRIC, TENTH, F(4**41 - 1, 4**40)),
                           "ratio has a term above the largest multiplier"),
    "hitfreq-ratio-zero": (lambda: hit_frequency_witness(GEOMETRIC, TENTH, F(0)),
                           "ratio must exceed 1"),
    # A ratio below 1 whose denominator exceeds the last term 4^40 is refused
    # as a ratio at or below 1, not for its term.
    "hitfreq-ratio-below-one": (lambda: hit_frequency_witness(GEOMETRIC, TENTH, F(1, 4**41)),
                                "ratio must exceed 1"),
    "multipliers-ratios": (lambda: Multipliers((1, 2), (1,)), "need one ratio per multiplier"),
    "histogram-weights": (lambda: HistogramTarget((1, 0), F(1, 2)),
                          "weights must be positive integers"),
    "histogram-eta": (lambda: HistogramTarget((1, 1), F(0)), "eta must be positive"),
    "histogram-base": (lambda: histogram_witness(GEOMETRIC, HistogramTarget((1, 1), F(1, 2)), 1),
                       "base must be at least 2"),
    "histogram-divide": (lambda: histogram_witness(GEOMETRIC, HistogramTarget((1, 1), F(1, 2)), 3),
                         "weight total 2 must divide base 3"),
    "histogram-eta-small": (
        lambda: histogram_witness(GEOMETRIC, HistogramTarget((1, 3), F(1, 10)), 4),
        "eta too small: worst-case slack 3/4/4 >= 1/10"),
    "histogram-count": (
        lambda: histogram_witness(GEOMETRIC[:5], HistogramTarget((1, 1), F(1, 2)), 4),
        "need at least 16 multipliers, got 5"),
    "histogram-one-cell-multiplier": (
        lambda: histogram_witness([2, 3, 0, 4], HistogramTarget((1,), F(1, 10)), 2),
        "multiplier must be a positive integer"),
    "avoid-eps": (lambda: avoidance_sequence(F(5, 17), F(1), [1], 5), "eps must lie in (0, 1)"),
    "avoid-overlap": (lambda: avoidance_sequence(F(1, 17), F(1, 5), [1], 5),
                      "[0, 1/5) and [1/17, 22/85) overlap mod 1; pick a smaller eps"),
    "avoid-empty-prefix": (lambda: avoidance_sequence(F(5, 17), F(1, 5), [], 5),
                           "prefix must contain at least one index"),
    "avoid-prefix-gaps": (lambda: avoidance_sequence(F(5, 17), F(1, 5), [1, 4], 5),
                          "prefix gaps must lie in {1, 2}"),
    "avoid-prefix-horizon": (lambda: avoidance_sequence(F(5, 17), F(1, 5), [1, 2, 3], 2),
                             "prefix longer than the requested horizon"),
    "zeroblock-base": (lambda: zero_block_alpha(F(1, 4), [3]),
                       "base must lie strictly inside (1/2, 3/4)"),
    "zeroblock-no-start": (lambda: zero_block_alpha(F(2, 3), []), "need at least one block start"),
    "zeroblock-leading": (lambda: zero_block_alpha(F(2, 3), [2]),
                          "blocks must not overlap the two leading digits"),
    "zeroblock-pushed": (lambda: zero_block_alpha(F(65, 128), [3]),
                         "zeroing the blocks pushed the value out of (1/2, 3/4)"),
    "orbit-steps": (lambda: doubling_orbit(F(1, 7), -1), "steps must be nonnegative"),
    "invariance-steps": (lambda: invariance_defect(F(1, 7), -1, CellPartition.dyadic(1)),
                         "steps must be nonnegative"),
    "fivesixth-alpha": (lambda: five_sixth_check(F(1, 8), 5), "alpha must lie in (0, 1/16)"),
    "fivesixth-horizon": (lambda: five_sixth_check(F(1, 17), 0), "horizon must be positive"),
    "window-order": (lambda: zero_block_density(BinaryPoint(b"\1\0\1"), [3, 2]),
                     "window ends must be strictly increasing and nonempty"),
    "window-positive": (lambda: zero_block_density(BinaryPoint(b"\1\0\1"), [0, 2]),
                        "window ends must be positive"),
    "window-point": (lambda: zero_block_density(BinaryPoint(b"\1\1\1"), [2]),
                     "the point itself must lie in the target arc"),
    "partition-order": (lambda: CellPartition((F(0), F(1, 2), F(1, 2), F(1))),
                        "cuts must be strictly increasing"),
    "pi-horizon": (lambda: pi_measure(SPEC, 0), "horizon must be >= 1"),
    "admissible-horizon": (lambda: check_admissible(SPEC, 0), "horizon must be >= 1"),
    "dominates-cells": (lambda: envelope_dominates(HALVES, MeasureVector((F(1),)), POINT, F(0)),
                        "mu, lambda and partition disagree on the cell count"),
    "dominates-tol": (lambda: envelope_dominates(HALVES, HALVES, POINT, F(-1)),
                      "tol must be nonnegative"),
    "binary-digits": (lambda: binary_digits(F(1), 3), "binary_digits requires a value in [0, 1)"),
    "membership-order": (lambda: validate_membership([2, 1], SPEC, 2),
                         "indices must be strictly increasing"),
    "target-eps": (lambda: ExtensionTarget(HALVES, F(0), POINT), "eps must be positive"),
    "greedy-sizes": (
        lambda: greedy_extension([], SPEC, Residues([0, 1, 2, 3], 5), TWO_CELLS,
                                 ExtensionTarget(MeasureVector((F(1),)), F(1, 10), POINT), 2),
        "partition and target sizes disagree"),
    "greedy-points": (
        lambda: greedy_extension([], SPEC, Residues([0, 1, 2], 5), TWO_CELLS, HALF_TARGET, 2),
        "x lists 3 points, fewer than the 4 the blocks need"),
    "greedy-prefix": (
        lambda: greedy_extension([1, 2, 3], BlockSpec([2, 2], [1, 2]), Residues([0, 1, 2, 3], 5),
                                 TWO_CELLS, HALF_TARGET, 2),
        "prefix is not a valid member through its blocks"),
    "membership-positive": (lambda: validate_membership([0, 1], BlockSpec([2], [2]), 1),
                            "indices must be positive"),
    "discrepancy-empty": (lambda: star_discrepancy(Residues([], 5)),
                          "star discrepancy of an empty list is undefined"),
    "mixing-eps": (lambda: MixingConfig([4], F(2), F(1, 2), START, [START]).validate(),
                   "mixing hypothesis fails at k=0: eps and delta must lie in (0, 1)"),
    "mixing-targets": (lambda: MixingConfig([4], F(1, 10), F(1, 2), START, []).validate(),
                       "mixing hypothesis fails at k=0: need one target interval per multiplier"),
    "mixing-start": (lambda: MixingConfig([4], F(1, 10), F(3, 4), START, [START]).validate(),
                     "mixing hypothesis fails at k=0: start interval shorter than delta=3/4"),
}


@pytest.mark.parametrize("call, text", LIBRARY.values(), ids=LIBRARY.keys())
def test_library_refusal_texts(call, text):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == text


SALAT2 = ["witness", "--mode", "salat2", "--interval", "0,1/10", "--ratio", "4"]
ENVELOPE = ["envelope", "--blocks", "2", "--table-out", "t.csv"]

CLI = {
    "config-unreadable": (["scan", "--config", "missing.conf"], {},
                          "cannot read config file: [Errno 2] No such file or directory: "
                          "'missing.conf'"),
    "config-line": (["scan", "--config", "run.conf"], {"run.conf": "# note\n\ncells 3\n"},
                    "run.conf:3: expected key = value"),
    "spec-json": ([*ENVELOPE, "--spec", "{b: 2}"], {},
                  "--spec: invalid JSON (Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1))"),
    "spec-keys": ([*ENVELOPE, "--spec", '{"b": [2], "m": [1], "c": 1}'], {},
                  "--spec: expected an object with keys 'b' and 'm'"),
    "spec-side": ([*ENVELOPE, "--spec", '{"b": 2, "m": [1]}'], {},
                  "--spec: 'b' must be a list or generator name"),
    "spec-entry": ([*ENVELOPE, "--spec", '{"b": [2.0], "m": [1]}'], {},
                   "--spec: 'b' entries must be JSON integers, got 2.0"),
    "spec-const": ([*ENVELOPE, "--spec", '{"b": "const", "m": "halfceil"}'], {},
                   "--spec: const needs a value, e.g. const:4"),
    "spec-generator-b": ([*ENVELOPE, "--spec", '{"b": "halfceil", "m": "const:1"}'], {},
                         "--spec: unknown generator 'halfceil' (use linear[:o], log, const:c)"),
    "spec-generator-m": ([*ENVELOPE, "--spec", '{"b": "linear", "m": "cubic"}'], {},
                         "--spec: unknown generator 'cubic' (use linear[:o], log, const:c, "
                         "halfceil)"),
    "n-missing": (SALAT2, {}, "need --n or --n-kind"),
    "n-kind": ([*SALAT2, "--n-kind", "fib"], {},
               "--n-kind: unknown generator 'fib' (use pow:b or squarepow:b)"),
    "n-count": ([*SALAT2, "--n", "4,16,64"], {}, "--n: need at least 64 values"),
    "n-one-cell": (["witness", "--mode", "salat3", "--n", "0,2,3,4", "--weights", "1", "--eta",
                    "1/10", "--base", "2"], {}, "multiplier must be a positive integer"),
    "n-integers": ([*SALAT2, "--n", "4,x"], {}, "--n: expected comma-separated integers"),
    "interval-ends": (["witness", "--mode", "salat2", "--n-kind", "pow:4", "--ratio", "4",
                       "--interval", "0,1/10,1/5"], {}, "--interval: expected 'left,right'"),
    "x-kind": (["scan", "--x-kind", "tent", "--x-alpha", "1/3", "--checkpoints", "3"], {},
               "--x-kind: unknown kind 'tent' (use rotation or doubling)"),
    "prefix-order": (["subspace", "--spec", '{"b": "linear", "m": "halfceil"}', "--cuts", "0,1",
                      "--mu", "1", "--x-alpha", "1/3", "--prefix", "2,1"], {},
                     "prefix must be strictly increasing"),
    "doubling-mode": (["doubling", "--mode", "tent"], {}, "--mode: unknown doubling mode 'tent'"),
    "config-empty": (["scan", "--config", "", "--x-alpha", "1/3", "--checkpoints", "3",
                      "--out", ""], {}, "--config: expected a file path, got an empty value"),
    "out-empty": (["scan", "--x-alpha", "1/3", "--checkpoints", "3", "--out", ""], {},
                  "--out: expected a file path, got an empty value"),
    "out-empty-argparse": (["scan", "--x-alpha", "1/3", "--checkpoints", "3", "--out="], {},
                           "--out: expected a file path, got an empty value"),
    "out-empty-config": (["scan", "--config", "run.conf"],
                         {"run.conf": "x-alpha = 1/3\ncheckpoints = 3\nout =\n"},
                         "--out: expected a file path, got an empty value"),
    "table-out-empty": ([*ENVELOPE[:3], "--table-out", "", "--spec", '{"b": [2], "m": [1]}'],
                        {}, "--table-out: expected a file path, got an empty value"),
    "trace-out-empty": (["subspace", "--spec", '{"b": "linear", "m": "halfceil"}', "--cuts",
                         "0,1", "--mu", "1", "--x-alpha", "1/3", "--trace-out", ""], {},
                        "--trace-out: expected a file path, got an empty value"),
    "certificate-missing": (["verify", "missing.json"], {},
                            "cannot read certificate: [Errno 2] No such file or directory: "
                            "'missing.json'"),
    "certificate-json": (["verify", "bad.json"], {"bad.json": "{"},
                         "certificate is not valid JSON: Expecting property name enclosed in "
                         "double quotes: line 1 column 2 (char 1)"),
    "prefix-empty": (["witness", "--mode", "avoid", "--alpha", "5/17", "--eps", "1/5",
                      "--horizon", "5", "--prefix", ""], {},
                     "prefix must contain at least one index"),
    "windows-empty": (["doubling", "--mode", "zeroblock", "--base", "2/3", "--starts", "4",
                       "--windows", ""], {},
                      "window ends must be strictly increasing and nonempty"),
}


@pytest.mark.parametrize("argv, files, text", CLI.values(), ids=CLI.keys())
def test_cli_refusal_texts(tmp_path, monkeypatch, capsys, argv, files, text):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    assert cli.main(argv) == cli.USAGE_ERROR
    assert capsys.readouterr() == ("", f"maldist {argv[0]}: {text}\n")


def certificate(kind: str, inputs: dict, claims: list) -> dict:
    return {"format": FORMAT, "kind": kind, "inputs": inputs, "claims": claims}


ENVELOPE_CERT = certificate(
    "envelope",
    {"mu": ["1/2", "1/2"], "lambda": ["1/2", "1/2"], "pi": [["1/2", "1/3"], ["2/3", "2/3"]],
     "tol": "0/1"},
    [{"id": "domination", "kind": "envelope-domination", "verdict": True}])
INVARIANCE_CERT = certificate(
    "invariance", {"alpha": "1/7", "steps": 3, "cuts": ["0/1", "1/2", "1/1"]},
    [{"id": "invariance-defect", "kind": "invariance-defect-equals", "defect": "0/1",
      "verdict": True},
     {"id": "defect-bound", "kind": "defect-at-most", "defect": "0/1", "bound": "2/3",
      "verdict": True}])
HITFREQ_CERT = certificate(
    "hitfreq",
    {"alpha": "1301/81920", "multipliers": [4, 16, 64, 256, 1024, 4096],
     "interval": {"left": "0/1", "right": "1/10", "wraps": False}, "ratio": "4/1",
     "plan": {"u": 3, "c": 3, "repeats": 1}, "forced_positions": [3, 6]},
    [])
QUARTER = {"left": "1/4", "right": "1/2", "wraps": False}
HALF = {"left": "0/1", "right": "1/2", "wraps": False}
MIXING_CERT = certificate(
    "mixing",
    {"alpha": "1/2", "multipliers": [], "eps": "1/10", "delta": "1/2", "start": QUARTER,
     "targets": [], "intervals": [QUARTER]},
    [])
ZEROBLOCK_CERT = certificate(
    "zeroblock", {"base": "2/3", "block_starts": [3], "digits": "101010101"}, [])


def edited(cert: dict, **values) -> dict:
    """A copy of cert with the value at each path replaced: inputs__plan__c
    names cert["inputs"]["plan"]["c"]."""
    out = copy.deepcopy(cert)
    for path, value in values.items():
        *parents, last = path.split("__")
        node = out
        for key in parents:
            node = node[key]
        node[last] = value
    return out


def pi(*atoms) -> dict:
    return edited(ENVELOPE_CERT, inputs__pi=list(atoms))


VERIFY = {
    "format": (edited(ENVELOPE_CERT, format="maldist-certificate/0"),
               ["unknown certificate format 'maldist-certificate/0'"]),
    "claim-id": (edited(ENVELOPE_CERT, claims=[{"id": 3, "kind": "envelope-domination"}]),
                 ["claims: id 3 is not a string", "claims: missing domination"]),
    "mixing-delta": (MIXING_CERT, ["claims: missing alpha-in-start",
                                   "inputs.delta: 1/2 exceeds the start interval's length"]),
    "mixing-first-multiplier": (
        edited(MIXING_CERT, inputs__multipliers=[4], inputs__delta="1/5", inputs__targets=[HALF],
               inputs__intervals=[QUARTER, HALF]),
        ["claims: missing alpha-in-start", "claims: missing containment-1",
         "claims: missing length-1", "claims: missing nesting-1",
         "inputs.delta: n_1 = 4 does not exceed 2/delta"]),
    "hitfreq-positions": (edited(HITFREQ_CERT, inputs__forced_positions=[3, 7]),
                          ["inputs.forced_positions: positions must lie in 1..6"]),
    # A plan past what any build makes is refused after the position check.
    "hitfreq-plan-c": (edited(HITFREQ_CERT, inputs__plan__c=7),
                       ["inputs.forced_positions: not c*repeats .. 2*c*repeats step c",
                        "inputs.plan.c: exceeds len(multipliers) = 6"]),
    "hitfreq-plan-u": (edited(HITFREQ_CERT, inputs__plan__u=5),
                       ["inputs.plan.u: exceeds c + 1 = 4"]),
    # And a ratio whose c-th power cannot exceed 2, before any power of it.
    "hitfreq-ratio-near-one": (edited(HITFREQ_CERT, inputs__ratio="11/10"),
                               ["inputs.ratio: ratio^c cannot exceed 2 for c = 3"]),
    # So are multipliers that fail the ratio's growth, before any power of it.
    "hitfreq-growth": (edited(HITFREQ_CERT, inputs__multipliers=[4, 16, 48, 256, 1024, 4096]),
                       ["inputs.multipliers: growth fails at step 2"]),
    # And last a ratio with a term above the largest multiplier: 4^k grows by
    # 8191/2048, whose numerator exceeds 4096.
    "hitfreq-ratio-term": (edited(HITFREQ_CERT, inputs__ratio="8191/2048"),
                           ["inputs.ratio: a term exceeds the largest multiplier"]),
    "zeroblock-digits": (ZEROBLOCK_CERT, ["inputs.digits: not those of base with zeroed blocks"]),
    "invariance-dyadic": (edited(INVARIANCE_CERT, inputs__cuts=["0/1", "1/3", "1/1"]),
                          ["invariance-defect: partition cut points must be dyadic rationals"]),
    "cuts-order": (edited(INVARIANCE_CERT, inputs__cuts=["0/1", "1/2", "1/2", "1/1"]),
                   ["inputs.cuts: cuts must be strictly increasing"]),
    "positive-integer": (edited(HITFREQ_CERT, inputs__plan__c=0),
                         ["inputs.plan.c: 0 is outside [1, inf)"]),
    "nonempty-list": (edited(HITFREQ_CERT, inputs__multipliers=[]),
                      ["inputs.multipliers: expected at least one entry"]),
    # pi's atoms, plain and not: an entry's refusal comes before the set's,
    # and the order of the set's own rules is sorted first, then the sum.
    "pi-zero-weight": (pi(["1/2", "1/3"], ["2/3", "0/1"]),
                       ["inputs.pi[1]: expected a location and a positive weight"]),
    "pi-zero-weight-not-plain": (pi(["1/2", "1/3"], ["2/3", "0"]),
                                 ["inputs.pi[1]: expected a location and a positive weight"]),
    "pi-triple": (pi(["1/2", "1/3"], ["2/3", "2/3", "1/2"]),
                  ["inputs.pi[1]: expected a location and a positive weight"]),
    "pi-single": (pi(["1/2"], ["2/3", "2/3"]),
                  ["inputs.pi[0]: expected a location and a positive weight"]),
    "pi-not-a-pair": (pi(["1/2", "1/3"], "2/3"), ["inputs.pi[1]: expected a list, got a string"]),
    "pi-unsorted": (pi(["2/3", "1/3"], ["1/2", "2/3"]),
                    ["inputs.pi: atom locations must be sorted and distinct"]),
    "pi-repeated": (pi(["1/2", "1/3"], ["2/4", "2/3"]),
                    ["inputs.pi: atom locations must be sorted and distinct"]),
    "pi-unsorted-not-plain": (pi(["0.7", "1/3"], ["2/3", "2/3"]),
                              ["inputs.pi: atom locations must be sorted and distinct"]),
    "pi-sum": (pi(["1/2", "1/3"], ["2/3", "1/3"]),
               ["inputs.pi: atom weights must sum to exactly 1"]),
    "pi-sum-not-plain": (pi(["1/2", "1/3"], ["2/3", "0.5"]),
                         ["inputs.pi: atom weights must sum to exactly 1"]),
    "pi-empty": (pi(), ["inputs.pi: atom weights must sum to exactly 1"]),
    "pi-unsorted-and-sum": (pi(["2/3", "1/3"], ["1/2", "1/3"]),
                            ["inputs.pi: atom locations must be sorted and distinct"]),
    "pi-location-past-one": (pi(["1/2", "1/3"], ["4/3", "2/3"]),
                             ["inputs.pi[1][0]: 4/3 is outside [0, 1]"]),
    "pi-past-one-and-unsorted": (pi(["4/3", "1/3"], ["1/2", "2/3"]),
                                 ["inputs.pi[0][0]: 4/3 is outside [0, 1]"]),
    "pi-weight-past-one": (pi(["1/2", "4/3"], ["2/3", "1/3"]),
                           ["inputs.pi[0][1]: 4/3 is outside [0, 1]"]),
    "pi-weight-past-one-summing": (pi(["0/1", "3/2"], ["1/2", "1/2"], ["1/1", "0/1"]),
                                   ["inputs.pi[0][1]: 3/2 is outside [0, 1]"]),
    "pi-zero-weight-after-past-one": (pi(["1/2", "1/1"], ["3/2", "0/1"]),
                                      ["inputs.pi[1][0]: 3/2 is outside [0, 1]"]),
}


@pytest.mark.parametrize("cert, failures", VERIFY.values(), ids=VERIFY.keys())
def test_verifier_failure_texts(cert, failures):
    assert verify_certificate(json.loads(json.dumps(cert))) == (False, tuple(failures))


def test_checker_fault_is_one_named_failure(tmp_path, monkeypatch, capsys):
    """A checker that raises gives the one failure `verification error:
    <text>`, and `maldist verify` exits 1 on it."""
    def fault(inputs, stated):
        raise ArithmeticError("checker fault")

    monkeypatch.setitem(certs._CHECKERS, "envelope", fault)
    assert verify_certificate(copy.deepcopy(ENVELOPE_CERT)) == (
        False, ("verification error: checker fault",))
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(ENVELOPE_CERT), encoding="utf-8")
    assert cli.main(["verify", str(path)]) == cli.CLAIM_ERROR == 1
    assert json.loads(capsys.readouterr().out) == {
        "ok": False, "failures": ["verification error: checker fault"]}
