"""Cold start: what `import maldist.cli` and each subcommand load, the lazy
re-exports of the `maldist` package, and the help and usage texts that sit
behind the CLI's per-subcommand imports."""

import hashlib
import importlib
import json
import subprocess
import sys

import pytest

import maldist

from tests.test_certificates_cli import PINNED_CERTIFICATES, cli_env, run_cli

# The package's re-exports, pinned here independently of its own table.
EXPORTS = [
    "AdmissibilityReport", "AvoidanceResult", "BinaryPoint", "BlockSpec",
    "CellPartition", "CheckpointScan", "DominationResult", "ExtensionResult",
    "ExtensionTarget", "HistogramTarget", "HistogramWitness",
    "HitFrequencyWitness", "MeasureVector", "MixingChain", "MixingConfig",
    "MixingConfigError", "OrbitHitReport", "RatioMeasure", "RationalParseError",
    "Residues", "TorusInterval", "WitnessPlan",
    "auto_plan", "avoidance_sequence", "check_admissible", "checkpoint_scan",
    "doubling_orbit", "doubling_period", "envelope_dominates",
    "five_sixth_check", "format_rational", "greedy_extension",
    "histogram_witness", "hit_frequency_witness", "invariance_defect", "mixing_chain", "mod1", "parse_rational",
    "pi_measure", "scan_to_csv", "star_discrepancy", "validate_membership",
    "zero_block_alpha", "zero_block_density",
]

AVOID = ["witness", "--mode", "avoid", "--alpha", "5/17", "--eps", "1/5", "--horizon", "200"]


def loaded_modules(code: str, package: str = "maldist") -> set[str]:
    """The modules of `package` a fresh interpreter holds after running `code`."""
    probe = (
        f"{code}\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))"
    )
    res = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=cli_env()
    )
    assert res.returncode == 0, res.stderr
    return set(json.loads(res.stdout.splitlines()[-1]))


def main_call(argv: list[str]) -> str:
    return f"import maldist.cli\nassert maldist.cli.main({argv!r}) == 0"


# --- import footprint ----------------------------------------------------------


def test_import_cli_loads_only_the_command_line():
    assert loaded_modules("import maldist.cli") == {"maldist", "maldist.cli", "maldist.exact"}


def test_argparse_loads_only_for_help(tmp_path):
    # A plain command line is read from the flag table.
    argv = ["scan", "--x-alpha", "1/3", "--checkpoints", "3", "--out", str(tmp_path / "scan.csv")]
    assert loaded_modules("import maldist.cli", "argparse") == set()
    assert loaded_modules(main_call(argv), "argparse") == set()
    help_call = ("import contextlib, maldist.cli\n"
                 "with contextlib.suppress(SystemExit): maldist.cli.main(['scan', '--help'])")
    assert loaded_modules(help_call, "argparse") == {"argparse"}


def test_import_package_loads_no_layer():
    assert loaded_modules("import maldist") == {"maldist"}


def test_verify_avoid_loads_no_construction_layer(tmp_path):
    cert = tmp_path / "avoid.json"
    assert run_cli(*AVOID, "--out", str(cert)).returncode == 0
    loaded = loaded_modules(main_call(["verify", str(cert), "--out", str(tmp_path / "v.json")]))
    assert "maldist.certificates" in loaded
    assert not loaded & {"maldist.subspace", "maldist.witness", "maldist.envelope",
                         "maldist.doubling"}
    assert json.loads((tmp_path / "v.json").read_text()) == {"ok": True, "failures": []}


@pytest.mark.parametrize("name", PINNED_CERTIFICATES)
def test_verify_loads_only_certificates_and_exact(tmp_path, name):
    # The verifiers recount on their own code: no construction layer, not
    # `torus` or `empirical`, and no `dataclasses`.
    argv, code, _ = PINNED_CERTIFICATES[name]
    cert, report = tmp_path / "cert.json", tmp_path / "report.json"
    assert run_cli(*argv, "--out", str(cert)).returncode == code
    if argv[0] == "envelope":  # the certificate sits inside the output
        cert.write_text(json.dumps(json.loads(cert.read_text())["certificate"]))
    call = ("import maldist.cli\n"
            f"assert maldist.cli.main(['verify', {str(cert)!r}, '--out', {str(report)!r}]) == {code}")
    assert loaded_modules(call) == {"maldist", "maldist.cli", "maldist.exact",
                                    "maldist.certificates"}
    assert loaded_modules(call, "dataclasses") == set()


def test_scan_rotation_loads_no_certificate_or_construction_layer(tmp_path):
    argv = ["scan", "--x-kind", "rotation", "--x-alpha", "1/3", "--cells", "3",
            "--checkpoints", "3,6,9", "--out", str(tmp_path / "scan.csv")]
    loaded = loaded_modules(main_call(argv))
    assert "maldist.empirical" in loaded
    assert not loaded & {"maldist.certificates", "maldist.witness", "maldist.subspace",
                         "maldist.envelope"}


def test_zero_block_loads_no_witness_layer_and_mixing_no_doubling(tmp_path):
    # Zero-block points are built in `doubling`, beside their window counts;
    # the chain witnesses need nothing of it.
    zeroblock = ["doubling", "--mode", "zeroblock", "--base", "2/3", "--starts", "4,10",
                 "--out", str(tmp_path / "zb.json")]
    loaded = loaded_modules(main_call(zeroblock))
    assert "maldist.doubling" in loaded
    assert not loaded & {"maldist.witness", "maldist.torus"}
    mixing = [*PINNED_CERTIFICATES["mixing"][0], "--out", str(tmp_path / "mixing.json")]
    loaded = loaded_modules(main_call(mixing))
    assert "maldist.witness" in loaded and "maldist.doubling" not in loaded


def test_json_writer_writes_plain_long_int_lists_without_the_witness_layer():
    # Only a sequence that carries its ratios is chained: a plain list of long
    # ints, here a chain 7^k past the chained and split bounds, is written
    # term by term with nothing of `witness`.
    code = ("import json\nimport maldist.cli as cli\n"
            "values = [7**k for k in range(1400, 1530)] + [3**5000]\n"
            "assert values[-2].bit_length() > cli._SPLIT_BITS\n"
            "assert cli._json_text(values) == json.dumps(values, sort_keys=True, indent=2)")
    assert loaded_modules(code) == {"maldist", "maldist.cli", "maldist.exact"}


# --- the lazy package API --------------------------------------------------------


def test_all_is_the_pinned_export_set():
    assert len(EXPORTS) == 44
    assert sorted(maldist.__all__) == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_the_defining_modules_object(name):
    obj = getattr(maldist, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("maldist.")
    assert getattr(home, name) is obj


def test_star_import_and_dir_list_every_export():
    namespace: dict = {}
    exec("from maldist import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)
    assert set(EXPORTS) <= set(dir(maldist))
    assert maldist.__version__ == "0.1.0"


def test_unknown_attribute_names_module_and_attribute():
    with pytest.raises(AttributeError, match=r"module 'maldist' has no attribute 'no_such_name'"):
        maldist.no_such_name


# --- help and usage texts ----------------------------------------------------------

# sha256 of each text as printed before the handlers imported their own
# layers (argparse at 80 columns, Python 3.11), `witness --help` since its
# three --plan-* flags went, `--help` and `verify --help` since the witness
# mode aliases and `verify --certificate` went, the help of every
# subcommand but `envelope` since its --seed went, and the help of
# `envelope`, `subspace`, `doubling` and `scan` since `subspace --pi` and
# their --digits went; (arguments, stream, exit code).
HELP_TEXTS = [
    (["--help"], "stdout", 0,
     "0eaa838ba2ba1ecd413463e92437aff38435a0d4ea261c63174420bf6b2f2254"),
    (["envelope", "--help"], "stdout", 0,
     "9eaad5ed51b071d12248b4fe73bd825cbc3d2a8574bfe073fc21676470b33568"),
    (["subspace", "--help"], "stdout", 0,
     "17d1767f4be6874eae90cbef6a3de688ac7ce5c4ccc0855dc2896a4af9f23e7c"),
    (["witness", "--help"], "stdout", 0,
     "138e89f58f607b2b748101a28b2938023328135e8feafc4238b1d0badd85df55"),
    (["doubling", "--help"], "stdout", 0,
     "0bd6df9674cc9192a30bc9c00a2def86f502100c44162f27a59cb069cc0b5e8f"),
    (["scan", "--help"], "stdout", 0,
     "d7848431420fad9cffcc8bf22dfecd9bbd68d18c7c3e5ba9b163d8abd72c97ec"),
    (["verify", "--help"], "stdout", 0,
     "4749d0c8f16cf7b4961aa3a1b48a10ed7ce2eee9327f42f292e9b023298b8ccf"),
    ([], "stderr", 2,
     "1980a3ae5a8cd40c704f1bd6491d32fcce78121e13aaf0c33348a7a2378956b5"),
]


@pytest.mark.parametrize(
    "args,stream,code,digest", HELP_TEXTS, ids=[" ".join(t[0]) or "bare" for t in HELP_TEXTS]
)
def test_help_and_usage_texts_are_pinned(args, stream, code, digest):
    res = run_cli(*args, COLUMNS="80")
    assert res.returncode == code
    assert getattr(res, "stderr" if stream == "stdout" else "stdout") == ""
    text = getattr(res, stream)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, text
