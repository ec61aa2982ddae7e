"""Command-line front end: reproducible experiments with exact outputs.

Subcommands: envelope, subspace, witness, doubling, scan, verify.  Each is
declared once, in the `_SUBCOMMANDS` table: its help text, its option names
and its handler.  A command line becomes one dict of the options it sets,
keyed by flag name (and `verify`'s certificate path under "certificate").
A plain command line, a subcommand and whole `--name value` pairs of its
flags (and that one path), is read into it from the flag table
(`_plain_args`).  argparse is imported, and its parser built, only for
`--help`, the usage text and any other command line, which argparse refuses
or reads into the same dict (`_parsed_args`); the parser is then reused for
the rest of the process.  Options may also come from a key=value config
file (--config) whose keys are exactly the subcommand's flags: its values
go under the command line's (`_merge_config`), so an explicit flag wins,
unknown keys are rejected, and every rational is parsed exactly ("p/q" or
decimal string).

At module level the CLI imports only the standard library and `exact`, which
option parsing needs.  Each `_cmd_*` handler imports the layers it calls when
it runs, a layer only one mode needs inside that mode's branch, and
`_interval`, `_block_spec` and `_points_source` do likewise.  A process
therefore loads only its own subcommand's layers: `verify` loads
`certificates` alone, whose verifiers recount on their own code with
`exact`, and a rotation `scan` loads `empirical` alone.

Outputs are JSON certificates (stable key order) and CSV tables; identical
configuration reproduces identical bytes: every output byte comes from the
command line and its config file, never from the environment.  No
subcommand draws a random number.  The `rng` field of every JSON output but
`verify`'s is a reserved echo (`_rng_echo`) of the pinned generator's name
(`maldist.rng.ALGORITHM`, SplitMix64) and a seed, which is `envelope --seed`
in an envelope output and 0 in every other, and changes nothing else.
Integer lists in --spec must hold JSON integers; `verify` reads a
certificate's inputs through its kind's declared fields, so a malformed
input exits 1 with a named failure.  The JSON text is joined once from its
fragments.  A witness's multipliers cross it as a chain, each long term
written from its predecessor's text and ratio (`_chained_int_texts`), as the
`certificates` module describes; any other long int is written by `exact`'s
split kernel.

Exit codes: 0 success, 1 a certificate claim failed (or verification found a
mismatch), 2 usage error.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from json.encoder import encode_basestring_ascii as _json_string
from operator import mul
from typing import TYPE_CHECKING

from .exact import (
    _SPLIT_BITS,
    RationalParseError,
    _int_text,
    csv_text,
    decimal_row,
    format_rational,
    parse_rational,
    ratio_row,
)

if TYPE_CHECKING:
    import argparse

    from .empirical import Residues
    from .envelope import BlockSpec
    from .torus import TorusInterval
    from .witness import Multipliers

USAGE_ERROR = 2
CLAIM_ERROR = 1


class CliError(Exception):
    """Usage-level error: reported on stderr, exit code 2."""


# ---------------------------------------------------------------------------
# option plumbing: flags + config file, flag wins, unknown keys rejected


# The flags whose value names a file: an empty one is refused, not read as
# an absent flag.
_PATH_FLAGS = ("config", "out", "table-out", "trace-out")


def _refuse_empty_paths(opts: dict[str, str]) -> None:
    for key in _PATH_FLAGS:
        if opts.get(key) == "":
            raise CliError(f"--{key}: expected a file path, got an empty value")


def _merge_config(command: str, args: dict[str, str],
                  keys: tuple[str, ...]) -> dict[str, str]:
    """The options of the command line `args` put over those of its --config
    file, whose keys must be the subcommand's flags.  An empty path, on the
    command line or in the file, is refused by its flag."""
    _refuse_empty_paths(args)
    path = args.pop("config", None)
    if path is None:
        return args
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in keys:
            raise CliError(f"{path}:{lineno}: unknown key {key!r} for {command!r}")
        values[key] = val
    _refuse_empty_paths(values)
    values.update(args)
    return values


def _require(opts: dict, key: str) -> str:
    if key not in opts:
        raise CliError(f"missing required option --{key}")
    return opts[key]


def _rational(opts: dict, key: str, default: str | None = None) -> Fraction:
    if key not in opts:
        if default is None:
            raise CliError(f"missing required option --{key}")
        return parse_rational(default)
    try:
        return parse_rational(opts[key])
    except RationalParseError as exc:
        raise CliError(f"--{key}: {exc}")


_AT_LEAST = {0: "a nonnegative integer", 1: "a positive integer"}


def _int(opts: dict, key: str, default: int | None = None, low: int | None = None,
         high: int | None = None) -> int:
    """The integer value of --key, else `default`; a value below `low` or
    above `high` is refused by its flag."""
    if key not in opts:
        if default is None:
            raise CliError(f"missing required option --{key}")
        return default
    try:
        value = int(opts[key])
    except ValueError:
        raise CliError(f"--{key}: expected an integer, got {opts[key]!r}")
    if low is not None and value < low:
        expected = _AT_LEAST.get(low, f"an integer of at least {low}")
        raise CliError(f"--{key}: expected {expected}, got {opts[key]!r}")
    if high is not None and value > high:
        raise CliError(f"--{key}: expected an integer of at most {high}, got {opts[key]!r}")
    return value


def _int_list(text: str, key: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise CliError(f"--{key}: expected comma-separated integers")


def _rational_list(text: str, key: str) -> list[Fraction]:
    out = []
    for part in text.split(","):
        try:
            out.append(parse_rational(part))
        except RationalParseError as exc:
            raise CliError(f"--{key}: {exc}")
    return out


def _interval(text: str, key: str) -> TorusInterval:
    from .torus import TorusInterval

    vals = _rational_list(text, key)
    if len(vals) != 2:
        raise CliError(f"--{key}: expected 'left,right'")
    try:
        return TorusInterval(vals[0], vals[1])
    except ValueError as exc:
        raise CliError(f"--{key}: {exc}")


def _rng_echo(seed: int = 0) -> dict:
    """The reserved `rng` field of a JSON output: the pinned generator's name
    and a seed that changes nothing else."""
    from .rng import ALGORITHM

    return {"algorithm": ALGORITHM, "seed": seed}


def _write_json(obj: dict, path: str | None) -> None:
    _write_text(_json_text(obj) + "\n", path)


def _json_text(value) -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` of a value whose objects
    have string keys, written here (with an indent, `json` falls back to its
    pure-Python encoder) as fragments appended to one list and joined once."""
    out: list[str] = []
    _json_parts(value, "\n", out)
    return "".join(out)


def _json_parts(value, pad: str, out: list[str]) -> None:
    """Append the fragments of value's text at indent `pad` to out.  Strings
    go through the C encoder `json` uses, and ints past `_SPLIT_BITS` bits
    through `exact`'s split kernel.  Plain ints and lists, most of the values
    written, are told by their exact type first; every other value goes down
    the isinstance chain, whose list and tuple cases join the plain lists at
    the end.  A sequence that carries its `ratios`, such as the multipliers
    n_k, is written by `_chained_int_texts`.  A list of pairs of plain ints,
    such as `subspace`'s runs [start, length], is written in one `%` format
    of all its terms, with no call per pair."""
    kind = type(value)
    if kind is int:
        out.append(int.__repr__(value) if value.bit_length() <= _SPLIT_BITS
                   else _int_text(value))
        return
    if kind is not list:
        if isinstance(value, str):
            out.append(_json_string(value))
            return
        if isinstance(value, dict):
            if not value:
                out.append("{}")
                return
            inner = pad + "  "
            sep = "{" + inner
            for key, item in sorted(value.items()):
                out.append(sep + _json_string(key) + ": ")
                _json_parts(item, inner, out)
                sep = "," + inner
            out.append(pad + "}")
            return
        if not isinstance(value, (list, tuple)):
            if value is None:
                out.append("null")
            elif value is True:
                out.append("true")
            elif value is False:
                out.append("false")
            elif isinstance(value, int):
                out.append(_int_text(value))
            else:  # a float, or the TypeError of a value JSON has no form for
                out.append(json.dumps(value))
            return
    if not value:
        out.append("[]")
        return
    inner = pad + "  "
    last = value[-1]
    if hasattr(value, "ratios"):
        out += ("[" + inner, ("," + inner).join(_chained_int_texts(value)), pad + "]")
    elif (type(last) is list and len(last) == 2 and type(last[0]) is int
          and set(map(type, value)) == {list} and set(map(len, value)) == {2}
          and set(map(type, flat := list(chain.from_iterable(value)))) == {int}):
        deep = inner + "  "
        pair = "[" + deep + "%d," + deep + "%d" + inner + "]"
        out.append("[" + inner + ("," + inner).join([pair] * len(value)) % tuple(flat) + pad + "]")
    else:
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _json_parts(item, inner, out)
            sep = "," + inner
        out.append(pad + "]")


# Above about this many bits, a term formed from its predecessor's text by a
# known ratio is written faster than by `int.__repr__` (CPython 3.11).
_CHAINED_BITS = 1000


def _chained_int_texts(terms: Multipliers) -> list[str]:
    """The decimal texts of ints that carry their `ratios` (terms[k] =
    ratios[k] * terms[k - 1], or ratios[k] = 0), decided term by term.  A
    term of more than `_CHAINED_BITS` bits whose positive predecessor times
    a nonzero ratio of at most a quarter of its bits gives it is their exact
    decimal product, in time linear in the digits; another long term is
    written by `exact`'s split kernel, and a short one by `int.__repr__`."""
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded

    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])
    texts, prev, dec = [], 0, None
    for v, q in zip(terms, terms.ratios):
        bits = v.bit_length()
        if bits <= _CHAINED_BITS:
            dec = None
            texts.append(int.__repr__(v))
        elif q and 0 < prev and bits - prev.bit_length() <= bits >> 2:
            # None after a term another path wrote, else the previous term (> 0).
            dec = ctx.multiply(dec or Decimal(texts[-1]), Decimal(q))
            texts.append(str(dec))
        else:
            dec = None
            texts.append(_int_text(v))
        prev = v
    return texts


def _write_text(text: str, path: str | None) -> None:
    """Write the text to the file at `path` as its UTF-8 bytes, with no
    newline translation on any platform, or to stdout when path is None."""
    if path is not None:
        with open(path, "wb") as fh:
            fh.write(text.encode())
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# generators for block specs and multiplier sequences


def _generator(desc: str, lengths=None):
    """The block function j -> value that a --spec generator name gives:
    linear[:o] (j + o), log (the bit length of j), const:c, and, for m given
    the lengths, halfceil (ceil(b_j/2))."""
    name, sep, arg = desc.partition(":")
    if name == "log":
        return int.bit_length
    if name == "const" and not sep:
        raise CliError("--spec: const needs a value, e.g. const:4")
    if name in ("linear", "const"):
        try:
            c = int(arg) if arg or name == "const" else 0
        except ValueError:
            raise CliError(f"--spec: expected an integer after '{name}:', got {desc!r}")
        return (lambda j: j + c) if name == "linear" else (lambda j: c)
    if name == "halfceil" and lengths is not None:
        return lambda j: (lengths(j) + 1) // 2
    names = "linear[:o], log, const:c" + ("" if lengths is None else ", halfceil")
    raise CliError(f"--spec: unknown generator {name!r} (use {names})")


def _block_side(value, key: str, lengths=None):
    """One side of --spec: a list of JSON integers (a float or a bool is
    refused, not truncated), or the function of the block index j >= 1 that
    a generator name gives."""
    if isinstance(value, str):
        return _generator(value, lengths)
    if not isinstance(value, list):
        raise CliError(f"--spec: '{key}' must be a list or generator name")
    for v in value:
        if type(v) is not int:
            raise CliError(f"--spec: '{key}' entries must be JSON integers, got {json.dumps(v)}")
    return value


@functools.cache
def _flag_spec() -> type:
    """The BlockSpec of --spec, defined once, when a spec is first read: a
    block it refuses, when a list is read or when a generator gives it, is
    refused by the flag.  (A block past a list's end keeps its own message,
    which names the block and side.)"""
    from .envelope import BlockSpec

    class FlagSpec(BlockSpec):
        def _form(self, j: int, first: int) -> None:
            try:
                super()._form(j, first)
            except ValueError as exc:
                raise CliError(f"--spec: {exc}") from None

    return FlagSpec


def _block_spec(opts: dict) -> BlockSpec:
    spec_text = _require(opts, "spec")
    try:
        obj = json.loads(spec_text)
    except json.JSONDecodeError as exc:
        raise CliError(f"--spec: invalid JSON ({exc})")
    if not isinstance(obj, dict) or set(obj) - {"b", "m"}:
        raise CliError("--spec: expected an object with keys 'b' and 'm'")
    # A list side stays a list, so that the spec names the block it runs out
    # at.  halfceil may read a list b by index: BlockSpec calls neither side
    # for a block past a list's end.
    b = _block_side(obj.get("b"), "b")
    m = _block_side(obj.get("m"), "m", b if callable(b) else lambda j: b[j - 1])
    try:
        return _flag_spec()(b, m)
    except ValueError as exc:
        raise CliError(f"--spec: {exc}")


def _multipliers(opts: dict, count: int) -> Multipliers:
    """The first `count` terms of --n, or of the --n-kind rule: pow:b gives
    n_k = b^k with each ratio b, squarepow:b gives n_k = b^(k^2) with ratio
    b^(2k-1).  A rule's terms carry the ratios it forms them with, and b as
    their cover (every prime factor of a term divides b); an explicit list's
    ratios come from one divmod per term, and it has no cover."""
    from .witness import Multipliers

    if "n" in opts:
        values = _int_list(opts["n"], "n")
        if len(values) < count:
            raise CliError(f"--n: need at least {count} values")
        return Multipliers(values[:count])
    kind = opts.get("n-kind")
    if kind is None:
        raise CliError("need --n or --n-kind")
    name, _, arg = kind.partition(":")
    default = {"pow": 2, "squarepow": 5}.get(name)
    if default is None:
        raise CliError(f"--n-kind: unknown generator {name!r} (use pow:b or squarepow:b)")
    try:
        base = int(arg) if arg else default
    except ValueError:
        raise CliError(f"--n-kind: expected an integer base, got {kind!r}")
    if name == "pow":
        ratios = [base] * count
    else:  # b^((k+1)^2) = b^(k^2) * b^(2k+1): each ratio is b^2 times the last
        ratios = list(islice(accumulate(repeat(base * base), mul, initial=base), count))
    return Multipliers(accumulate(ratios, mul), ratios, base)


class _OrbitResidues:
    """The residues over q of x_n, n = 1..count, for alpha = p/q: n*p mod q
    for a rotation, 2^n * p mod q for the doubling map.  Each is formed only
    when it is read, by index or by slice."""

    __slots__ = ("ns", "p", "q", "doubling")

    def __init__(self, doubling: bool, p: int, q: int, count: int):
        self.ns, self.p, self.q, self.doubling = range(1, count + 1), p, q, doubling

    def __len__(self) -> int:
        return len(self.ns)

    def __getitem__(self, key):
        n, p, q = self.ns[key], self.p, self.q
        if isinstance(n, int):
            return (pow(2, n, q) if self.doubling else n) * p % q
        if self.doubling:
            return [pow(2, k, q) * p % q for k in n]
        return [k * p % q for k in n]


def _x_kind(opts: dict) -> str:
    kind = opts.get("x-kind", "rotation")
    if kind not in ("rotation", "doubling"):
        raise CliError(f"--x-kind: unknown kind {kind!r} (use rotation or doubling)")
    return kind


def _points_source(opts: dict, count: int) -> Residues:
    """The first `count` points of the --x-kind orbit of --x-alpha, as
    residues, for the subspace greedy, which reads the cells of the indices
    its picks need.  Both kinds form a residue only when it is read
    (`_OrbitResidues`).  A scan reads neither: it counts a rotation by floor
    sums (`rotation_scan`) and a doubling orbit over one period
    (`doubling_scan`)."""
    from .empirical import Residues

    doubling = _x_kind(opts) == "doubling"
    alpha = _rational(opts, "x-alpha")
    q = alpha.denominator
    return Residues(_OrbitResidues(doubling, alpha.numerator, q, count), q)


# ---------------------------------------------------------------------------
# subcommands


def _to_horizon(flag: str, read, *args):
    """`read(*args)`, a read of the block spec up to a horizon, refused by
    `flag`, the flag that set the horizon, where the spec fails there: a
    list side it runs past, or multiplicities all zero up to it."""
    try:
        return read(*args)
    except (ValueError, IndexError) as exc:
        raise CliError(f"{flag}: {exc}") from None


def _cmd_envelope(opts: dict) -> int:
    from .empirical import MeasureVector
    from .envelope import check_admissible, envelope_dominates, pi_measure

    spec = _block_spec(opts)
    blocks = _int(opts, "blocks", low=1)
    grid = _int(opts, "grid", 101, low=2)
    pi = _to_horizon("--blocks", pi_measure, spec, blocks)
    report = _to_horizon("--blocks", check_admissible, spec, blocks)
    # Each column shares one denominator: t = i/steps, and F(t) over
    # `envelope_ratio`'s denominator for steps.
    steps = grid - 1
    f_nums = [pi.envelope_ratio(i, steps)[0] for i in range(grid)]
    f_den = pi.envelope_ratio(0, steps)[1]
    t_nums = range(grid)
    table = csv_text([("t", "F", "t_exact", "F_exact"),
                      *zip(decimal_row(t_nums, steps), decimal_row(f_nums, f_den),
                           ratio_row(t_nums, steps), ratio_row(f_nums, f_den))])
    _write_text(table, opts.get("table-out"))
    result = {
        "admissibility": {
            "horizon": report.horizon,
            "anchors": list(report.anchors),
            "b_tail_min": list(report.b_tail_min),
            "ratio_tail_max": [format_rational(r) for r in report.ratio_tail_max],
            "b_bounded_flag": report.b_bounded_flag,
            "ratio_stalled_flag": report.ratio_stalled_flag,
        },
        "rng": _rng_echo(_int(opts, "seed", 0)),
    }
    exit_code = 0
    if "mu" in opts:
        from . import certificates as certs

        mu = MeasureVector(tuple(_rational_list(_require(opts, "mu"), "mu")))
        lam = MeasureVector(tuple(_rational_list(_require(opts, "lam"), "lam")))
        tol = _rational(opts, "tol", "0/1")
        verdict = envelope_dominates(mu, lam, pi, tol=tol)
        cert = certs.envelope_certificate(mu, lam, pi, verdict, tol)
        # The certificate echoes pi's atoms: the top level writes that list.
        result["pi"], result["certificate"] = cert["inputs"]["pi"], cert
        if not certs.certificate_ok(cert):
            exit_code = CLAIM_ERROR
    else:
        result["pi"] = pi.to_json()
    _write_json(result, opts.get("out"))
    return exit_code


def _cmd_subspace(opts: dict) -> int:
    from .empirical import CellPartition, MeasureVector
    from .envelope import pi_measure
    from .subspace import ExtensionTarget, _prefix_blocks, greedy_extension

    spec = _block_spec(opts)
    cuts = _rational_list(_require(opts, "cuts"), "cuts")
    partition = CellPartition(tuple(cuts))
    mu = MeasureVector(tuple(_rational_list(_require(opts, "mu"), "mu")))
    eps = _rational(opts, "eps", "1/10")
    blocks = _int(opts, "blocks", 64, low=0)
    pi_blocks = _int(opts, "pi-blocks", blocks, low=1)
    if pi_blocks < 1:
        # Without --pi-blocks, the horizon is --blocks.
        raise CliError("--blocks: expected a positive integer when it sets --pi-blocks, "
                       f"got {opts['blocks']!r}")
    pi_flag = "--pi-blocks" if "pi-blocks" in opts else "--blocks"
    pi = _to_horizon(pi_flag, pi_measure, spec, pi_blocks)
    prefix = _int_list(opts["prefix"], "prefix") if opts.get("prefix") else []
    try:
        last = _prefix_blocks(prefix, spec)
    except IndexError as exc:  # an index past a list side's blocks
        raise CliError(f"--prefix: {exc}") from None
    # The greedy runs up to --blocks blocks past the prefix's last block.
    end = _to_horizon("--blocks", spec.a, last + blocks)
    x = _points_source(opts, end)
    target = ExtensionTarget(mu=mu, eps=eps, pi=pi)
    result = greedy_extension(prefix, spec, x, partition, target, blocks)
    runs: list[list[int]] = []
    for n in result.indices:
        if runs and runs[-1][0] + runs[-1][1] == n:
            runs[-1][1] += 1
        else:
            runs.append([n, 1])
    trace = csv_text([("block", "M", *(f"d_{i}" for i in range(partition.size))),
                      *([str(entry.block), str(entry.cumulative),
                         *ratio_row(entry.numerators, entry.denominator)]
                        for entry in result.trace)])
    _write_text(trace, opts.get("trace-out"))
    _write_json(
        {
            "indices_runlength": runs,
            "blocks": result.blocks,
            "achieved": result.achieved,
            "max_abs_deviation": format_rational(result.max_abs_dev),
            "total_abs_deviation": format_rational(result.total_abs_dev),
            "rng": _rng_echo(),
        },
        opts.get("out"),
    )
    return 0


def _zero_block_point(opts: dict):
    """The zero-block point of --base and --starts, with the two read."""
    from .doubling import zero_block_alpha

    base = _rational(opts, "base")
    starts = _int_list(_require(opts, "starts"), "starts")
    return zero_block_alpha(base, starts), base, starts


def _emit_certificate(cert: dict, opts: dict, multipliers: Multipliers | None = None) -> int:
    """Stamp the certificate's `rng` echo, write it to --out, and exit 1 if
    one of its claims fails.  The echoed multipliers are written from
    `multipliers`, the sequence the build read, so that the writer chains
    their texts by its ratios."""
    from . import certificates as certs

    cert["rng"] = _rng_echo()
    if multipliers is not None:
        inputs = cert["inputs"]
        inputs["multipliers"] = multipliers[: len(inputs["multipliers"])]
    _write_json(cert, opts.get("out"))
    return 0 if certs.certificate_ok(cert) else CLAIM_ERROR


def _cmd_witness(opts: dict) -> int:
    from . import certificates as certs
    from .witness import (
        HistogramTarget,
        MixingConfig,
        avoidance_sequence,
        histogram_witness,
        hit_frequency_witness,
        mixing_chain,
    )

    mode = _require(opts, "mode")
    n = None  # the multipliers of a chained mode
    if mode == "mixing":
        eps = _rational(opts, "eps")
        delta = _rational(opts, "delta")
        start = _interval(_require(opts, "start"), "start")
        targets = tuple(
            _interval(part, "targets") for part in _require(opts, "targets").split(";")
        )
        n = _multipliers(opts, len(targets))
        config = MixingConfig(
            multipliers=n, eps=eps, delta=delta, start=start, targets=targets
        )
        chain = mixing_chain(config)
        cert = certs.mixing_certificate(chain)
    elif mode == "salat2":
        interval = _interval(_require(opts, "interval"), "interval")
        ratio = _rational(opts, "ratio")
        count = _int(opts, "count", 64, low=1)
        n = _multipliers(opts, count)
        witness = hit_frequency_witness(n, interval, ratio)
        cert = certs.hitfreq_certificate(witness, n)
    elif mode == "salat3":
        weights = _int_list(_require(opts, "weights"), "weights")
        eta = _rational(opts, "eta")
        base = _int(opts, "base", low=2)
        n = _multipliers(opts, base * base)
        witness = histogram_witness(n, HistogramTarget(tuple(weights), eta), base)
        cert = certs.histogram_certificate(witness, n)
    elif mode == "avoid":
        alpha = _rational(opts, "alpha")
        eps = _rational(opts, "eps")
        horizon = _int(opts, "horizon", 10_000, low=1)
        prefix = _int_list(opts["prefix"], "prefix") if "prefix" in opts else [1]
        floor = _rational(opts, "discrepancy-floor", "0/1")
        if floor < 0:
            raise CliError("--discrepancy-floor: expected a nonnegative rational, "
                           f"got {opts['discrepancy-floor']!r}")
        result = avoidance_sequence(alpha, eps, prefix, horizon)
        cert = certs.avoidance_certificate(result, floor if floor > 0 else None)
    elif mode == "zeroblock":
        cert = certs.zeroblock_certificate(*_zero_block_point(opts))
    else:
        raise CliError(f"--mode: unknown witness mode {mode!r}")
    return _emit_certificate(cert, opts, n)


def _cmd_doubling(opts: dict) -> int:
    from . import certificates as certs
    from .doubling import (
        doubling_orbit,
        doubling_period,
        five_sixth_check,
        invariance_defect,
        zero_block_density,
    )
    from .empirical import CellPartition

    mode = _require(opts, "mode")
    if mode == "orbit":
        alpha = _rational(opts, "alpha")
        steps = _int(opts, "steps", low=0)
        orbit = doubling_orbit(alpha, steps)
        q = orbit.den
        table = csv_text([("k", "value", "value_exact"),
                          *zip(map(str, range(1, len(orbit) + 1)),
                               decimal_row(orbit.nums, q), ratio_row(orbit.nums, q))])
        _write_text(table, opts.get("out"))
        return 0
    if mode == "invariance":
        alpha = _rational(opts, "alpha")
        # By default one preperiod and one period, found only then.
        steps = _int(opts, "steps", low=1) if "steps" in opts else sum(doubling_period(alpha))
        # The certificate echoes all 2^level + 1 cuts: 1.34 MB at level 16.
        level = _int(opts, "level", 3, low=0, high=16)
        partition = CellPartition.dyadic(level)
        defect = invariance_defect(alpha, steps, partition)
        cert = certs.invariance_certificate(alpha, steps, partition, defect)
    elif mode == "fivesixth":
        alpha = _rational(opts, "alpha")
        horizon = _int(opts, "horizon", low=1) if "horizon" in opts else sum(doubling_period(alpha))
        report = five_sixth_check(alpha, horizon)
        cert = certs.fivesixth_certificate(report, alpha)
    elif mode == "zeroblock":
        point, base, starts = _zero_block_point(opts)
        windows = (
            _int_list(opts["windows"], "windows")
            if "windows" in opts
            else [j * j for j in sorted(set(starts))]
        )
        densities = zero_block_density(point, windows)
        cert = certs.zeroblock_certificate(point, base, starts, densities)
    else:
        raise CliError(f"--mode: unknown doubling mode {mode!r}")
    return _emit_certificate(cert, opts)


def _cmd_scan(opts: dict) -> int:
    from .empirical import CellPartition, rotation_scan, scan_to_csv

    checkpoints = _int_list(_require(opts, "checkpoints"), "checkpoints")
    if not checkpoints:
        raise CliError("--checkpoints: expected at least one checkpoint")
    if "cuts" in opts:
        partition = CellPartition(tuple(_rational_list(opts["cuts"], "cuts")))
    else:
        partition = CellPartition.uniform(_int(opts, "cells", 10, low=1))
    kind = _x_kind(opts)
    alpha = _rational(opts, "x-alpha")
    if kind == "rotation":
        scan = rotation_scan(alpha.numerator, alpha.denominator, partition, checkpoints)
    else:
        from .doubling import doubling_scan

        scan = doubling_scan(alpha, partition, checkpoints)
    _write_text(scan_to_csv(scan), opts.get("out"))
    return 0


def _cmd_verify(opts: dict) -> int:
    from . import certificates as certs

    try:
        with open(opts["certificate"], "r", encoding="utf-8") as fh:
            text = fh.read()
        cert = certs._read_certificate(text)
    except OSError as exc:
        raise CliError(f"cannot read certificate: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"certificate is not valid JSON: {exc}")
    result = certs.verify_certificate(cert)
    ok = result.ok and certs.certificate_ok(cert)
    _write_json(
        {"ok": ok, "failures": list(result.failures)},
        opts.get("out"),
    )
    return 0 if ok else CLAIM_ERROR


# ---------------------------------------------------------------------------
# the subcommand table: name -> (help text, option names, handler).  Each
# option name is both a flag --<name> and a config key; the handler receives
# the merged options.  Dict order is the order of `maldist --help`.


_SUBCOMMANDS = {
    "envelope": (
        "ratio measure, envelope table and domination verdict",
        ("spec", "blocks", "grid", "mu", "lam", "tol", "seed", "out", "table-out"),
        _cmd_envelope,
    ),
    "subspace": (
        "greedy extension toward a target measure",
        ("spec", "cuts", "mu", "eps", "pi-blocks", "blocks", "prefix",
         "x-kind", "x-alpha", "out", "trace-out"),
        _cmd_subspace,
    ),
    "witness": (
        "explicit irregularity witnesses (mixing|salat2|salat3|avoid|zeroblock)",
        ("mode", "n", "n-kind", "eps", "delta", "start", "targets", "interval",
         "ratio", "count", "weights", "eta", "base", "alpha", "horizon", "prefix",
         "discrepancy-floor", "starts", "out"),
        _cmd_witness,
    ),
    "doubling": (
        "doubling-map orbits and hit reports (orbit|invariance|fivesixth|zeroblock)",
        ("mode", "alpha", "steps", "level", "horizon", "base", "starts", "windows",
         "out"),
        _cmd_doubling,
    ),
    "scan": (
        "checkpoint scan of a point sequence as CSV",
        ("x-kind", "x-alpha", "cuts", "cells", "checkpoints", "out"),
        _cmd_scan,
    ),
    "verify": (
        "re-check a certificate from its echoed inputs",
        ("out",),
        _cmd_verify,
    ),
}


def _plain_args(argv: list[str]) -> dict[str, str] | None:
    """The options a plain argv sets, keyed by flag name, read from the flag
    table as `_parsed_args` reads them: a subcommand name, then whole
    `--name value` pairs of its flags or --config, no value starting with
    "-", the last of a repeated flag winning, and exactly one other token,
    the certificate path, for `verify` and none for the rest.  None for any
    other argv, which argparse reads, or refuses with its usage text."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    command = argv[0]
    flags = {"--" + key for key in ("config", *_SUBCOMMANDS[command][1])}
    options, bare = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            # A flag with no token after it reads as one with a "-" value.
            value = next(tokens, "-")
            if token not in flags or value.startswith("-"):
                return None
            options[token[2:]] = value
        else:
            bare.append(token)
    if len(bare) != (command == "verify"):
        return None
    if bare:
        options["certificate"] = bare[0]
    return options


def _parsed_args(argv: list[str]) -> tuple[str, dict[str, str]]:
    """The subcommand argparse reads from argv, and the options it sets, in
    `_plain_args`' dict."""
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    return command, {key.replace("_", "-"): value for key, value in args.items()
                     if value is not None}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="maldist",
        description="Exact witnesses and envelope bounds for irregular distribution mod 1.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, keys, _) in _SUBCOMMANDS.items():
        # A flag is its whole name, as a config key is: an abbreviation such as
        # --pi would pass for --pi-blocks.
        p = subs.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="key=value option file (flags win)")
        if name == "verify":
            p.add_argument("certificate", help="certificate JSON file")
        for key in keys:
            p.add_argument(f"--{key}")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    plain = _plain_args(argv)
    command, options = _parsed_args(argv) if plain is None else (argv[0], plain)
    # Integers in inputs, outputs and certificates may run past the default
    # limit on int<->str conversion digits (Python >= 3.10.7).  The limit stays
    # lifted after main returns, so that a caller in the same process can
    # read the JSON main wrote.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    _, keys, handler = _SUBCOMMANDS[command]
    try:
        return handler(_merge_config(command, options, keys))
    except (CliError, ValueError, IndexError) as exc:
        print(f"maldist {command}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
