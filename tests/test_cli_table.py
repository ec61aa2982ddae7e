"""The subcommand table in `maldist.cli`: plain command lines read from the
flag table as argparse reads them, argparse built only for help, usage and
the command lines the table leaves to it, options that do not leak from one
`main` call to the next, config keys that are exactly a subcommand's flags,
and the README's documented commands."""

import io
import json
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maldist import cli

from tests.test_certificates_cli import cli_env

README = Path(__file__).resolve().parents[1] / "README.md"

AVOID = ["witness", "--mode", "avoid", "--alpha", "5/17", "--eps", "1/5"]
SALAT2 = ["witness", "--mode", "salat2", "--n-kind", "pow:4", "--interval", "0,1/10",
          "--ratio", "4"]


def test_parser_not_built_at_import():
    code = "import maldist.cli as c; print(c._build_parser.cache_info().misses)"
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env()
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "0"


def test_parser_built_once_per_process(tmp_path, capsys):
    # Plain command lines are read from the flag table; the first refused
    # one builds the parser, and the next reuses it.
    cli._build_parser.cache_clear()
    assert cli.main([*AVOID, "--horizon", "20", "--out", str(tmp_path / "a.json")]) == 0
    assert cli.main(["verify", str(tmp_path / "a.json"), "--out", str(tmp_path / "v.json")]) == 0
    assert cli.main(["scan", "--x-alpha", "1/3", "--checkpoints", "3",
                     "--out", str(tmp_path / "s.csv")]) == 0
    assert cli._build_parser.cache_info().misses == 0
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_:
            cli.main([*SUBSPACE, "--pi", "5"])
        assert exit_.value.code == cli.USAGE_ERROR
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --pi 5\n")
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


FLAGS = sorted({f"--{key}" for _, keys, _ in cli._SUBCOMMANDS.values() for key in keys}
               | {"--config"})
VALUES = ["a.json", "1/3", "0,1/2,1", "x=y", '{"b": [2], "m": [1]}', "verify", ""]
HOSTILE = ["-h", "--help", "--", "-", "-1/2", "-3", "--out=x", "--pi", "second.json", "nosuch"]


def parsed_by_argparse(argv: list[str]) -> tuple[str, dict] | None:
    """The subcommand and options argparse reads from argv, or None where it
    exits."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return cli._parsed_args(argv)
    except SystemExit:
        return None


@st.composite
def command_lines(draw) -> list[str]:
    """A subcommand, or a hostile first token, and whole pairs of its flags,
    with up to three hostile groups among them: a pair of any flag and any
    value, or a lone token."""
    first = draw(st.sampled_from([*cli._SUBCOMMANDS, "nosuch", "-h", "--help"]))
    keys = cli._SUBCOMMANDS[first][1] if first in cli._SUBCOMMANDS else ()
    own = [f"--{key}" for key in ("config", *keys)]
    groups = draw(st.lists(st.tuples(st.sampled_from(own), st.sampled_from(VALUES)), max_size=5))
    hostile = st.one_of(st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES + HOSTILE)),
                        st.tuples(st.sampled_from(FLAGS)), st.tuples(st.sampled_from(VALUES)),
                        st.tuples(st.sampled_from(HOSTILE)))
    for group in draw(st.lists(hostile, max_size=3)):
        groups.insert(draw(st.integers(0, len(groups))), group)
    return [first, *chain.from_iterable(groups)]


@settings(max_examples=1000, deadline=None)
@given(command_lines())
def test_table_reader_reads_as_argparse_or_defers(argv):
    # Either the reader leaves the command line to argparse, or argparse
    # accepts it and reads the same subcommand and options.
    plain = cli._plain_args(argv)
    assert plain is None or (argv[0], plain) == parsed_by_argparse(argv), argv


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_reader_reads_every_plain_command_line(data):
    # A subcommand and whole pairs of its flags, and verify's one path
    # between any two pairs, are read from the table.
    sub = data.draw(st.sampled_from(list(cli._SUBCOMMANDS)))
    flags = [f"--{key}" for key in ("config", *cli._SUBCOMMANDS[sub][1])]
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(flags), st.sampled_from(VALUES)),
                               max_size=6))
    if sub == "verify":
        pairs.insert(data.draw(st.integers(0, len(pairs))), (data.draw(st.sampled_from(VALUES)),))
    argv = [sub, *chain.from_iterable(pairs)]
    plain = cli._plain_args(argv)
    assert plain is not None and (sub, plain) == parsed_by_argparse(argv), argv


ENVELOPE = ["envelope", "--spec", '{"b": [2, 2], "m": [2, 2]}', "--blocks", "2"]


def test_no_options_leak_between_calls(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    table = ["--table-out", str(tmp_path / "t.csv")]

    def seeds(*extra):
        assert cli.main([*ENVELOPE, *table, *extra, "--out", str(first)]) == 0
        assert cli.main([*ENVELOPE, *table, "--out", str(second)]) == 0
        return [json.loads(path.read_text())["rng"]["seed"] for path in (first, second)]

    def avoid_inputs(*extra):
        assert cli.main([*AVOID, *extra, "--out", str(first)]) == 0
        assert cli.main([*AVOID, "--out", str(second)]) == 0
        return [(cert["inputs"]["horizon"], cert["inputs"]["prefix"], len(cert["claims"]))
                for cert in (json.loads(path.read_text()) for path in (first, second))]

    config = tmp_path / "run.conf"
    config.write_text("seed = 7\n")
    assert seeds("--seed", "5") == [5, 0]
    assert seeds("--config", str(config)) == [7, 0]
    config.write_text("horizon = 30\nprefix = 2,3\n")
    plain = (10_000, [1], 2)
    assert avoid_inputs("--horizon", "50", "--discrepancy-floor", "1/10") == [(50, [1], 3), plain]
    assert avoid_inputs("--config", str(config)) == [(30, [2, 3], 2), plain]


# verify's certificate path is positional and required, and no config key.
POSITIONAL = {"verify": {"certificate": "cert.json"}}


@pytest.mark.parametrize("sub", list(cli._SUBCOMMANDS))
def test_every_flag_is_a_config_key(tmp_path, sub):
    keys = cli._SUBCOMMANDS[sub][1]
    positional = POSITIONAL.get(sub, {})
    for key in keys:
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = zz\n")
        command, args = cli._parsed_args([sub, *positional.values(), "--config", str(config)])
        assert cli._merge_config(command, args, keys) == {key: "zz", **positional}


@pytest.mark.parametrize("sub", list(cli._SUBCOMMANDS))
def test_another_subcommands_key_rejected(tmp_path, capsys, sub):
    keys = cli._SUBCOMMANDS[sub][1]
    foreign = min({k for _, ks, _ in cli._SUBCOMMANDS.values() for k in ks} - set(keys))
    config = tmp_path / "run.conf"
    config.write_text(f"{foreign} = 1\n")
    argv = [sub, *POSITIONAL.get(sub, {}).values(), "--config", str(config)]
    assert cli.main(argv) == cli.USAGE_ERROR
    assert capsys.readouterr().err == (
        f"maldist {sub}: {config}:1: unknown key {foreign!r} for {sub!r}\n"
    )


def readme_commands() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("maldist "):
            commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(cli._SUBCOMMANDS)
    monkeypatch.chdir(tmp_path)
    # In order: `verify cert.json` reads the certificate salat2 writes.
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)


def test_readme_tolerance_example_holds_only_within_its_tolerance(tmp_path, monkeypatch):
    # Within --tol 1/10 cell 0's excess of 1/20 is allowed; without --tol
    # the run exits 1 on cell 0, mu = 1/2 against F(lambda) = 9/20, and
    # `verify` recomputes that false verdict: ok false with no failures.
    [argv] = [argv for argv in readme_commands() if "--tol" in argv]
    at = argv.index("--tol")
    violation = {"bound": "9/20", "union_mass": "1/2", "verdict": False, "violation": [0]}
    runs = [(argv, 0, "1/10", {"verdict": True}), (argv[:at] + argv[at + 2:], 1, "0/1", violation)]
    monkeypatch.chdir(tmp_path)
    for run, code, tol, claim in runs:
        assert cli.main(run) == code
        cert = json.loads(Path("verdict.json").read_text())["certificate"]
        assert cert["inputs"]["tol"] == tol
        assert cert["claims"] == [{"id": "domination", "kind": "envelope-domination", **claim}]
        Path("cert.json").write_text(json.dumps(cert))
        assert cli.main(["verify", "cert.json", "--out", "report.json"]) == code
        assert json.loads(Path("report.json").read_text()) == {"ok": code == 0, "failures": []}


def test_environment_seed_changes_no_output(tmp_path, monkeypatch, capsys):
    """An exported MALDIST_SEED, integer or not, changes no output byte and
    no exit code: every output comes from the command line."""
    commands = [*readme_commands(), [*ENVELOPE, "--seed", "3"],
                [*ENVELOPE, "--mu", "3/5,2/5", "--lam", "1/2,1/2"],
                [*AVOID, "--prefix", "0,1"]]

    def run_all(name):
        where = tmp_path / name
        where.mkdir()
        monkeypatch.chdir(where)
        codes = [cli.main(argv) for argv in commands]
        return codes, capsys.readouterr(), {p.name: p.read_bytes() for p in where.iterdir()}

    monkeypatch.delenv("MALDIST_SEED", raising=False)
    plain = run_all("unset")
    assert plain[0].count(0) == len(commands) - 2 and plain[0][-2:] == [1, 2]
    for value in ("7", "abc", ""):
        monkeypatch.setenv("MALDIST_SEED", value)
        assert run_all(f"set-{value}") == plain, value


@pytest.mark.parametrize("sub", [sub for sub in cli._SUBCOMMANDS if sub != "envelope"])
def test_seed_is_an_envelope_option_only(tmp_path, capsys, sub):
    positional = list(POSITIONAL.get(sub, {}).values())
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, *positional, "--seed", "0"])
    assert exc.value.code == cli.USAGE_ERROR
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
    config = tmp_path / "run.conf"
    config.write_text("seed = 0\n")
    assert cli.main([sub, *positional, "--config", str(config)]) == cli.USAGE_ERROR
    assert capsys.readouterr().err == (
        f"maldist {sub}: {config}:1: unknown key 'seed' for {sub!r}\n"
    )


@pytest.mark.parametrize("spec, lists, side", [
    ({"b": [3, 3, 3], "m": "halfceil"}, {"b": [3, 3, 3], "m": [2, 2, 2]}, "lengths"),
    ({"b": "linear:1", "m": [1, 1, 1]}, {"b": [2, 3, 4], "m": [1, 1, 1]}, "multiplicities"),
], ids=["list-b", "list-m"])
@pytest.mark.parametrize("argv", [
    ["envelope", "--table-out", "t.csv"],
    ["subspace", "--cuts", "0,1/2,1", "--mu", "1/2,1/2", "--x-alpha", "1/3", "--trace-out", "t.csv"],
], ids=["envelope", "subspace"])
def test_mixed_spec_names_the_block_it_runs_out_at(tmp_path, monkeypatch, capsys, spec, lists,
                                                   side, argv):
    """A list side of --spec next to a generator side reads as that list:
    through its blocks the spec matches the two lists, and past them it is
    a usage error that names the horizon's flag and the block asked for."""
    monkeypatch.chdir(tmp_path)
    outputs = []
    for given in (spec, lists):
        assert cli.main([*argv, "--spec", json.dumps(given), "--blocks", "3"]) == 0
        outputs.append((capsys.readouterr().out, (tmp_path / "t.csv").read_text()))
    assert outputs[0] == outputs[1]
    assert cli.main([*argv, "--spec", json.dumps(spec), "--blocks", "5"]) == cli.USAGE_ERROR
    assert capsys.readouterr() == (
        "", f"maldist {argv[0]}: --blocks: block 5 beyond the 3 given {side}\n")


ZERO_SPEC = ["--spec", '{"b": [2, 2], "m": [0, 0]}']


@pytest.mark.parametrize("argv", [
    ["envelope", "--table-out", "t.csv"],
    ["subspace", "--cuts", "0,1", "--mu", "1", "--x-alpha", "1/3", "--trace-out", "t.csv"],
], ids=["envelope", "subspace"])
def test_all_zero_multiplicities_are_refused_by_the_horizon_flag(tmp_path, monkeypatch, capsys,
                                                                 argv):
    # The ratio measure of blocks with no pick has no mass to spread.
    monkeypatch.chdir(tmp_path)
    argv = [*argv, *ZERO_SPEC, "--blocks", "2", "--out", "out.json"]
    assert cli.main(argv) == cli.USAGE_ERROR
    assert capsys.readouterr() == (
        "", f"maldist {argv[0]}: --blocks: all multiplicities are zero up to the horizon\n")
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("m, extra, error", [
    ([0, 0], ["--pi-blocks", "2"], "--pi-blocks: all multiplicities are zero up to the horizon"),
    ([1, 1], ["--pi-blocks", "5"], "--pi-blocks: block 5 beyond the 2 given lengths"),
    ([1, 1], ["--blocks", "5", "--pi-blocks", "1"], "--blocks: block 5 beyond the 2 given lengths"),
    ([1, 1], ["--blocks", "1", "--pi-blocks", "2", "--prefix", "1,3,5"],
     "--prefix: block 3 beyond the 2 given lengths"),
], ids=["zero", "pi-blocks-past-the-list", "blocks-past-the-list", "prefix-past-the-list"])
def test_subspace_horizon_refusals_name_the_flag_that_set_them(capsys, m, extra, error):
    # --pi-blocks sets the envelope's horizon, --blocks the greedy's, and
    # --prefix the blocks it must lie in.
    spec = json.dumps({"b": [2, 2], "m": m})
    argv = ["subspace", "--cuts", "0,1", "--mu", "1", "--x-alpha", "1/3", "--spec", spec, *extra]
    assert cli.main(argv) == cli.USAGE_ERROR
    assert capsys.readouterr() == ("", f"maldist subspace: {error}\n")


@pytest.mark.parametrize("checkpoints", [",", ", ,", ""])
def test_scan_rejects_empty_checkpoint_list(capsys, checkpoints):
    argv = ["scan", "--x-alpha", "1/3", "--checkpoints", checkpoints]
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "maldist scan: --checkpoints: expected at least one checkpoint\n"


@pytest.mark.parametrize("cells", ["0", "-2"])
@pytest.mark.parametrize("kind", ["rotation", "doubling"])
def test_scan_refuses_fewer_than_one_cell(capsys, kind, cells):
    argv = ["scan", "--x-kind", kind, "--x-alpha", "1/3", "--cells", cells, "--checkpoints", "3"]
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"maldist scan: --cells: expected a positive integer, got '{cells}'\n"


def test_subspace_prefix_runs_its_blocks_past_the_prefix(tmp_path, capsys):
    # The prefix [1] covers block 1, so --blocks 5 steers blocks 2..6 and
    # needs the points through block 6.
    out = tmp_path / "out.json"
    argv = ["subspace", "--spec", '{"b":"linear:1","m":"halfceil"}', "--cuts", "0,1/2,1",
            "--mu", "1/3,2/3", "--eps", "1/1000", "--blocks", "5", "--x-alpha", "1/3",
            "--prefix", "1", "--out", str(out)]
    assert cli.main(argv) == 0, capsys.readouterr().err
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["blocks"] == 6
    assert result["indices_runlength"][0] == [1, 1]
    # A prefix is checked before any point is listed: one index far out does
    # not list a billion points first.
    argv[argv.index("--prefix") + 1] = "1000000000"
    assert cli.main(argv) == cli.USAGE_ERROR
    assert capsys.readouterr().err == (
        "maldist subspace: prefix must cover blocks 1..44720 exactly\n"
    )


def test_empty_subspace_prefix_is_no_prefix(tmp_path, capsys):
    """subspace's prefix may be empty, so `--prefix ""` means no prefix
    (avoid's refusal of an empty prefix is pinned in the refusal table)."""
    argv = ["subspace", "--spec", '{"b":"linear:1","m":"halfceil"}', "--cuts", "0,1/2,1",
            "--mu", "1/3,2/3", "--blocks", "3", "--x-alpha", "1/3"]
    outs = []
    for extra in ([], ["--prefix", ""]):
        out = tmp_path / f"out{len(extra)}.json"
        assert cli.main([*argv, *extra, "--out", str(out)]) == 0, capsys.readouterr().err
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("count", [0, 1, 2, 7, 40])
@pytest.mark.parametrize("base", [-3, 0, 1, 2, 5, 12])
def test_chained_multipliers_match_direct_powers(base, count):
    pow_n = cli._multipliers({"n-kind": f"pow:{base}"}, count)
    assert list(pow_n) == [base**k for k in range(1, count + 1)]
    square_n = cli._multipliers({"n-kind": f"squarepow:{base}"}, count)
    assert list(square_n) == [base ** (k * k) for k in range(1, count + 1)]


@pytest.mark.parametrize("kind, want", [("pow", [2, 4, 8]), ("squarepow", [5, 625, 5**9])])
def test_multiplier_default_bases(kind, want):
    assert list(cli._multipliers({"n-kind": kind}, 3)) == want


def test_every_flag_is_used_by_some_test():
    """Each option of each subcommand appears in some test as `--<key>` (a
    flag) or `"<key>"` (a config or output key), so no flag goes untried."""
    text = "\n".join(path.read_text(encoding="utf-8")
                     for path in sorted(Path(__file__).parent.glob("test_*.py")))
    untested = sorted(
        {key for _, keys, _ in cli._SUBCOMMANDS.values() for key in keys
         if not re.search(rf'(?<![\w-])--{re.escape(key)}(?![\w-])|"{re.escape(key)}"', text)}
    )
    assert untested == []


def test_every_flag_is_named_in_the_readme():
    """Each option of each subcommand appears as `--<key>` in the README's
    Command line section."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("\n## ", 1)[0]
    unnamed = sorted(
        {key for _, keys, _ in cli._SUBCOMMANDS.values() for key in keys
         if not re.search(rf"(?<![\w-])--{re.escape(key)}(?![\w-])", section)}
    )
    assert unnamed == []


SUBSPACE = ["subspace", "--spec", '{"b":"linear","m":"halfceil"}', "--cuts", "0,1/2,1",
            "--mu", "2/3,1/3", "--x-alpha", "832040/1346269", "--blocks", "5"]


def test_pi_blocks_sets_the_envelope_the_target_must_obey(tmp_path, capsys):
    # Blocks 1..5 of b_j = j, m_j = ceil(j/2) give F(1/2) = 5/6 >= 2/3; block
    # 1 alone gives the point mass at 1, F(t) = t, which 2/3 exceeds at 1/2.
    out = tmp_path / "out.json"
    assert cli.main([*SUBSPACE, "--pi-blocks", "5", "--out", str(out)]) == 0
    assert cli.main([*SUBSPACE, "--out", str(tmp_path / "default.json")]) == 0
    assert out.read_bytes() == (tmp_path / "default.json").read_bytes()
    capsys.readouterr()
    assert cli.main([*SUBSPACE, "--pi-blocks", "1"]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err == "maldist subspace: target exceeds the envelope on cells (0,): 2/3 > 1/2\n"


@pytest.mark.parametrize("argv", [
    [*SUBSPACE, "--pi", '[["1/1", "1/1"]]'],
    [*SUBSPACE, "--pi", "5"],
    [*ENVELOPE, "--digits", "3"],
    ["scan", "--x-alpha", "1/3", "--checkpoints", "3", "--digits", "3"],
    ["doubling", "--mode", "orbit", "--alpha", "1/7", "--steps", "3", "--digits", "3"],
], ids=["subspace-pi", "subspace-pi-number", "envelope", "scan", "doubling-orbit"])
def test_the_pi_and_digits_flags_are_unrecognised(capsys, argv):
    # The target obeys the spec's own envelope, and decimal columns print 12
    # places; --pi is no abbreviation of --pi-blocks.
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")


def test_negative_block_budget_is_a_usage_error(capsys):
    # The flag is refused by name, with or without --pi-blocks or a prefix.
    argv = list(SUBSPACE)
    argv[argv.index("--blocks") + 1] = "-1"
    err = "maldist subspace: --blocks: expected a nonnegative integer, got '-1'\n"
    for extra in ([], ["--pi-blocks", "5"], ["--pi-blocks", "5", "--prefix", "1"]):
        assert cli.main([*argv, *extra]) == cli.USAGE_ERROR
        assert capsys.readouterr().err == err


def test_negative_level_is_refused_by_its_flag(tmp_path, capsys):
    # Not as the shift 1 << level of the dyadic partition would fail.
    out = tmp_path / "out.json"
    argv = ["doubling", "--mode", "invariance", "--alpha", "1/17", "--level", "-1",
            "--out", str(out)]
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.err == "maldist doubling: --level: expected a nonnegative integer, got '-1'\n"
    assert (captured.out, out.exists()) == ("", False)
    argv[argv.index("--level") + 1] = "0"
    assert cli.main(argv) == 0
    assert json.loads(out.read_text())["inputs"]["cuts"] == ["0/1", "1/1"]


def test_level_above_sixteen_is_refused_by_its_flag(tmp_path, capsys):
    # The certificate echoes all 2^level + 1 cuts, growing 4x per two levels.
    out = tmp_path / "out.json"
    argv = ["doubling", "--mode", "invariance", "--alpha", "1/17", "--level", "17",
            "--out", str(out)]
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.err == "maldist doubling: --level: expected an integer of at most 16, got '17'\n"
    assert (captured.out, out.exists()) == ("", False)
    argv[argv.index("--level") + 1] = "16"
    assert cli.main(argv) == 0
    assert len(json.loads(out.read_text())["inputs"]["cuts"]) == 2**16 + 1


@pytest.mark.parametrize("value", ["0", "-3"])
def test_nonpositive_invariance_steps_is_refused_by_its_flag(tmp_path, capsys, value):
    # Not as the library's empty orbit segment or negative step count.
    out = tmp_path / "out.json"
    argv = ["doubling", "--mode", "invariance", "--alpha", "1/17", "--out", str(out)]
    assert cli.main([*argv, "--steps", value]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.err == (
        f"maldist doubling: --steps: expected a positive integer, got '{value}'\n")
    assert (captured.out, out.exists()) == ("", False)
    # Without --steps, one preperiod and one period: 8 steps for 1/17.
    assert cli.main(argv) == 0
    assert json.loads(out.read_text())["inputs"]["steps"] == 8


@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_pi_blocks_is_refused_by_its_flag(tmp_path, capsys, value):
    out = tmp_path / "out.json"
    assert cli.main([*SUBSPACE, "--pi-blocks", value, "--out", str(out)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.err == (
        f"maldist subspace: --pi-blocks: expected a positive integer, got '{value}'\n")
    assert (captured.out, out.exists()) == ("", False)


def test_zero_blocks_is_refused_only_where_it_sets_pi_blocks(tmp_path, capsys):
    # --blocks 0 extends by no block; it fails only as the envelope's horizon.
    argv = list(SUBSPACE)
    argv[argv.index("--blocks") + 1] = "0"
    assert cli.main(argv) == cli.USAGE_ERROR
    assert capsys.readouterr().err == (
        "maldist subspace: --blocks: expected a positive integer when it sets --pi-blocks, "
        "got '0'\n")
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--pi-blocks", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["blocks"] == 0


@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_envelope_blocks_is_refused_by_its_flag(tmp_path, capsys, value):
    out = tmp_path / "out.json"
    argv = ["envelope", "--spec", '{"b": [6], "m": [5]}', "--blocks", value, "--out", str(out)]
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"maldist envelope: --blocks: expected a positive integer, got '{value}'\n"
    assert (captured.out, out.exists()) == ("", False)


@pytest.mark.parametrize(
    "argv, flag, value, expected",
    [
        (["doubling", "--mode", "orbit", "--alpha", "1/17"], "--steps", "-3",
         "a nonnegative integer"),
        (["doubling", "--mode", "fivesixth", "--alpha", "1/17"], "--horizon", "0",
         "a positive integer"),
        (["doubling", "--mode", "fivesixth", "--alpha", "1/17"], "--horizon", "-2",
         "a positive integer"),
        (AVOID, "--horizon", "0", "a positive integer"),
        (["witness", "--mode", "salat3", "--n-kind", "squarepow:3", "--weights", "1,1",
          "--eta", "1/2"], "--base", "1", "an integer of at least 2"),
        (SALAT2, "--count", "0", "a positive integer"),
        (SALAT2, "--count", "-1", "a positive integer"),
        (["envelope", "--spec", '{"b": [6], "m": [5]}', "--blocks", "1"], "--grid", "1",
         "an integer of at least 2"),
    ],
    ids=["orbit-steps", "fivesixth-horizon-0", "fivesixth-horizon-negative", "avoid-horizon",
         "salat3-base", "salat2-count-0", "salat2-count-negative", "envelope-grid"],
)
def test_out_of_range_values_are_refused_by_their_flag(tmp_path, capsys, argv, flag, value,
                                                       expected):
    # Not as the library's step count, horizon, prefix or base check would fail.
    out = tmp_path / "out"
    assert cli.main([*argv, flag, value, "--out", str(out)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"maldist {argv[0]}: {flag}: expected {expected}, got '{value}'\n"
    assert (captured.out, out.exists()) == ("", False)


@pytest.mark.parametrize("kind", ["pow:x", "squarepow:1.5", "pow:2/3"])
def test_malformed_n_kind_base_is_refused_by_its_flag(tmp_path, capsys, kind):
    # Not as int()'s own message.
    out = tmp_path / "out.json"
    argv = [*SALAT2, "--out", str(out)]
    argv[argv.index("--n-kind") + 1] = kind
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.err == (
        f"maldist witness: --n-kind: expected an integer base, got '{kind}'\n")
    assert (captured.out, out.exists()) == ("", False)


MIXING = ["witness", "--mode", "mixing", "--n", "100,10000", "--eps", "1/10", "--delta", "1/20",
          "--start", "3/10,9/25", "--targets", "9/20,11/20;9/20,11/20"]


@pytest.mark.parametrize("argv, flag", [(MIXING, "--start"), (MIXING, "--targets"),
                                        (SALAT2, "--interval")],
                         ids=["start", "targets", "interval"])
def test_reversed_interval_is_refused_by_its_flag(tmp_path, capsys, argv, flag):
    # An arc through 0 such as (9/10, 1/10) reads as a reversed pair.
    out = tmp_path / "out.json"
    argv = [*argv, "--out", str(out)]
    assert cli.main(argv) == 0
    argv[argv.index(flag) + 1] = "9/10,1/10"
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.err == (
        f"maldist witness: {flag}: interval needs 0 <= left < right <= 1, got (9/10, 1/10)\n")


@pytest.mark.parametrize("spec, error", [
    ('{"b": "linear:x", "m": "const:1"}', "expected an integer after 'linear:', got 'linear:x'"),
    ('{"b": "linear", "m": "const:y"}', "expected an integer after 'const:', got 'const:y'"),
    ('{"b": "linear", "m": "const:"}', "expected an integer after 'const:', got 'const:'"),
], ids=["linear-x", "const-y", "const-empty"])
def test_malformed_generator_argument_is_refused_by_spec(tmp_path, capsys, spec, error):
    # Not as int()'s own message.
    out = tmp_path / "out.json"
    assert cli.main(["envelope", "--spec", spec, "--blocks", "2", "--out", str(out)]) == (
        cli.USAGE_ERROR)
    captured = capsys.readouterr()
    assert captured.err == f"maldist envelope: --spec: {error}\n"
    assert (captured.out, out.exists()) == ("", False)


@pytest.mark.parametrize("spec, error", [
    ('{"b": "linear:-5", "m": "const:1"}', "block 1: length -4 must be >= 1"),
    ('{"b": "linear", "m": "const:-1"}', "block 1: multiplicity -1 violates 0 <= m <= b (1)"),
    ('{"b": [1, 0, 2], "m": [1, 0, 1]}', "block 2: length 0 must be >= 1"),
    ('{"b": [2, 2, 2], "m": [1, 3, 1]}', "block 2: multiplicity 3 violates 0 <= m <= b (2)"),
    ('{"b": "linear", "m": [1, -1, 1]}', "block 2: multiplicity -1 violates 0 <= m <= b (2)"),
    ('{"b": [1, 2], "m": [1]}', "lengths and multiplicities must have equal length"),
], ids=["generator-b", "generator-m", "list-b", "list-m", "mixed-m",
        "list-lengths"])
@pytest.mark.parametrize("argv", [
    ["envelope", "--table-out", "t.csv"],
    ["subspace", "--cuts", "0,1/2,1", "--mu", "1/2,1/2", "--x-alpha", "1/3", "--trace-out", "t.csv"],
], ids=["envelope", "subspace"])
def test_spec_refusals_name_the_flag(tmp_path, monkeypatch, capsys, spec, error, argv):
    """A block the spec refuses, from a list or as a generator gives it, is
    refused by --spec, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    argv = [*argv, "--spec", spec, "--blocks", "3", "--out", "out.json"]
    assert cli.main(argv) == cli.USAGE_ERROR
    assert capsys.readouterr() == ("", f"maldist {argv[0]}: --spec: {error}\n")
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_discrepancy_floor_is_refused_by_its_flag(tmp_path, capsys, source):
    # Not as a certificate with no floor claim; 0 keeps meaning no claim.
    out, config = tmp_path / "avoid.json", tmp_path / "run.conf"
    config.write_text("discrepancy-floor = -1/2\n")
    floor = ["--discrepancy-floor=-1/2"] if source == "flag" else ["--config", str(config)]
    assert cli.main([*AVOID, *floor, "--out", str(out)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.err == (
        "maldist witness: --discrepancy-floor: expected a nonnegative rational, got '-1/2'\n")
    assert (captured.out, out.exists()) == ("", False)
    assert cli.main([*AVOID, "--discrepancy-floor", "0", "--out", str(out)]) == 0
    ids = [c["id"] for c in json.loads(out.read_text())["claims"]]
    assert "star-discrepancy-floor" not in ids


@pytest.mark.parametrize("floor, code", [("1/5", 0), ("4/17", 0), ("1/4", cli.CLAIM_ERROR)])
def test_discrepancy_floor_claim_holds_up_to_the_discrepancy(tmp_path, floor, code):
    # The avoidance run below has star discrepancy 4/17 at its horizon.
    out = tmp_path / "avoid.json"
    argv = [*AVOID, "--horizon", "200", "--discrepancy-floor", floor, "--out", str(out)]
    assert cli.main(argv) == code
    claim = {c["id"]: c for c in json.loads(out.read_text())["claims"]}["star-discrepancy-floor"]
    assert (claim["value"], claim["floor"], claim["verdict"]) == ("4/17", floor, code == 0)


def test_windows_are_the_claimed_window_ends(tmp_path):
    out = tmp_path / "zb.json"
    argv = ["doubling", "--mode", "zeroblock", "--base", "2/3", "--starts", "4,10",
            "--windows", "5,20,50", "--out", str(out)]
    assert cli.main(argv) == 0
    ids = [c["id"] for c in json.loads(out.read_text())["claims"]]
    assert [i for i in ids if i.startswith("window-")] == ["window-5", "window-20", "window-50"]
    assert cli.main(["verify", str(out), "--out", str(tmp_path / "v.json")]) == 0
    assert json.loads((tmp_path / "v.json").read_text()) == {"ok": True, "failures": []}
