"""The claims ledger: each statement of the paper's abstract, the
certificate kinds that carry it at a finite scale, what the acceptance tests
only sample, and the ROADMAP items still open for it.

The rows are held here as data, and README's *What is certified* section
must list each: its statement, each kind with its case, the acceptance
criteria it samples and its open items.  Every kind the verifier checks has
a row, and each row's case builds a certificate of its kind that verifies
with exit 0.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

import maldist.cli
from maldist import certificates as certs
from tests.test_acceptance import C10_OPEN_FLOOR
from tests.test_certificates_cli import PINNED_CERTIFICATES

README = Path(__file__).resolve().parents[1] / "README.md"


def pinned(name: str) -> list[str]:
    argv, code, _ = PINNED_CERTIFICATES[name]
    assert code == 0
    return argv


LEDGER = [
    {
        "statement": "q_k >= 1 + eps: the alpha for which (n_k alpha) is u.d. are of first "
                     "category.",
        "cases": {"hitfreq": pinned("hitfreq")},
        "sampled": ["C02"],
        "open": ["29(a)", "29(c)", "10"],
    },
    {
        "statement": "q_k -> infinity: generic alpha is maldistributed.",
        "cases": {"mixing": pinned("mixing"), "histogram": pinned("histogram")},
        "sampled": ["C01", "C03"],
        "open": ["25", "10"],
    },
    {
        "statement": "n_k = 2^k: the limit measures of generic alpha form exactly M.",
        "cases": {"invariance": pinned("invariance")},
        "sampled": ["C05"],
        "open": ["11"],
    },
    {
        "statement": "n_k = 2^k + 1: no such M exists.",
        "cases": {"fivesixth": pinned("fivesixth"), "zeroblock": pinned("zeroblock-windows")},
        "sampled": ["C06", "C07"],
        "open": ["28"],
    },
    {
        "statement": "Generic (n_k) in S: the limit measures of (x_{n_k}) form exactly M.",
        "cases": {
            "envelope": ["envelope", "--spec", '{"b": [2, 2], "m": [1, 1]}', "--blocks", "2",
                         "--mu", "1/2,1/2", "--lam", "1/2,1/2"],
            "avoid": ["witness", "--mode", "avoid", "--alpha", "5/17", "--eps", "1/5",
                      "--horizon", "1000", "--discrepancy-floor", "19/100"],
        },
        "sampled": ["C04", "C09", "C10"],
        "open": ["9(a)", "18", "21", "22", "27"],
    },
]

CASES = [(kind, argv) for row in LEDGER for kind, argv in row["cases"].items()]


def ledger_items() -> list[str]:
    """The numbered items of README's *What is certified*, each with its
    whitespace collapsed to single spaces."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## What is certified\n", 1)[1].split("\n## ", 1)[0]
    items = re.split(r"\n(?=\d+\. )", section)[1:]
    return [" ".join(item.split()) for item in items]


def test_every_checked_kind_has_a_row():
    kinds = [kind for kind, _ in CASES]
    assert sorted(kinds) == sorted(certs._CHECKERS)


@pytest.mark.parametrize("kind,argv", CASES, ids=[kind for kind, _ in CASES])
def test_each_case_builds_and_verifies_its_kind(tmp_path, kind, argv):
    out, cert, report = tmp_path / "out.json", tmp_path / "cert.json", tmp_path / "verify.json"
    assert maldist.cli.main([*argv, "--out", str(out)]) == 0
    built = json.loads(out.read_text())
    built = built["certificate"] if argv[0] == "envelope" else built
    assert built["kind"] == kind
    cert.write_text(json.dumps(built))
    assert maldist.cli.main(["verify", str(cert), "--out", str(report)]) == 0
    assert json.loads(report.read_text()) == {"ok": True, "failures": []}


def test_readme_lists_each_row():
    items = ledger_items()
    assert len(items) == len(LEDGER)
    for item, row in zip(items, LEDGER):
        assert f"**{row['statement']}**" in item
        for kind, argv in row["cases"].items():
            assert f"`{kind}`: `maldist {shlex.join(argv)}`" in item
        sampled = item.split("Sampled: ", 1)[1].split(" - Not yet: ", 1)[0]
        assert re.findall(r"C\d\d", sampled) == row["sampled"]
        missing = item.split(" - Not yet: ", 1)[1]
        assert re.findall(r"\d+(?:\([a-z]\))?", missing) == row["open"]


def test_c10_row_states_the_horizon_of_each_bar():
    # C10's 95% is measured with the horizon fixed; the open horizon, the
    # one the CLI runs, has its own pinned floor.
    item = ledger_items()[-1]
    assert "at least 95% of 200 instances with the horizon fixed" in item
    assert f"at least {C10_OPEN_FLOOR} of them on the open horizon" in item
