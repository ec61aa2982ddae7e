"""Self-contained certificates for every construction, and their independent
re-verification.

The module holds both sides.  The builders (`mixing_certificate`, ...) read
the numbers a construction derived from its result objects, by attribute,
and write them as claims.  The verifier (`verify_certificate`) reads the
echoed inputs alone, recounts from them every number the claims state, and
compares.  So that "verified" means recomputed on other code than the
construction's, the module imports from the package only `exact`, whose
text forms ("p/q", digit strings) both sides must share, and otherwise only
the standard library: no construction layer, not `torus` or `empirical`,
and no `dataclasses`.  The builders' argument types are named for type
checkers only.  A `maldist verify` process therefore loads this module and
`exact`, and no float enters it.

Each kind's format is declared once, here: its input fields and their types
in `_INPUTS`, each claim kind's fields in `_CLAIM_FIELDS`, and its claims in
one writer (`_mixing_claims`, ...; `envelope` has a single claim).  Builders
write through all three.  `verify_certificate` reads the echoed inputs
through the same table into typed values: rationals, integers, intervals as
their ends (left, right), cuts as integer numerators over their lcm, digit
strings as bytes.  It recounts from them alone the numbers the claims state,
by modular arithmetic, interval membership by cross-multiplication and
direct counting, with its own D* sweep for `avoid`; has the same writer
turn them into the whole claims; and compares those with the stated claims
field by field, each difference naming its claim and field.  The builder and
the verifier thus derive each number on their own code and share only its
format.  Certificates therefore stay checkable long after the run that
produced them.

A list field of unbounded `_Ratio` entries (cuts) or of ones held to
[0, 1] (mu and lambda) whose texts are all plain "p/q" (ASCII digits, no
sign, space or leading zero), or of `_Positive` entries that are all JSON
integers of at least 1, is read in one pass (their `plain_list`,
`_plain_ints`).  So are `envelope`'s atoms (`_Atoms`) when every text is
plain, every weight positive and every text at most 1: as rows of four
integers, which `_ratio_atoms`, the one implementation of pi's set rules
(locations sorted and distinct, weights summing to 1), checks in map
passes for both reads.  Any other list, and a list of `_Ratio` entries
with other bounds, goes entry by entry through the one-value read, which
alone refuses an entry, so the values accepted, the typed values and every
refusal are the same either way.

`maldist verify` reads a certificate's text here too (`_read_certificate`),
so one module owns its path from text to verdict.  A text whose last
multiplier is long is read through a `parse_int` hook that takes each long
term as the previous long term times a small quotient q once their exact
decimal product is its text (`_chained_int_reader`).  The certificate keeps
each such proof, and `_chained_residues` steps r = q * r mod den by it when
the proof names two consecutive entries of the list, checked by identity.
Any other pair, and any dict a library caller builds, divides the two
multipliers.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, chain, repeat
from math import gcd, isqrt, lcm
from operator import floordiv, ge, lt, mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .exact import (
    _BIT_CHARS,
    _SPLIT_DIGITS,
    RationalParseError,
    _text_int,
    binary_digits,
    format_ratio,
    format_rational,
    mod1,
    parse_ratio,
)

if TYPE_CHECKING:  # builders' argument types, read by attribute; the verifiers use none
    from .doubling import BinaryPoint, OrbitHitReport, WindowDensity
    from .empirical import CellPartition, MeasureVector
    from .envelope import DominationResult, RatioMeasure
    from .witness import (
        AvoidanceResult,
        HistogramWitness,
        HitFrequencyWitness,
        MixingChain,
    )

__all__ = [
    "FORMAT",
    "VerificationResult",
    "certificate_ok",
    "verify_certificate",
    "mixing_certificate",
    "hitfreq_certificate",
    "histogram_certificate",
    "avoidance_certificate",
    "zeroblock_certificate",
    "fivesixth_certificate",
    "invariance_certificate",
    "envelope_certificate",
]

FORMAT = "maldist-certificate/1"

_fr = format_rational


class VerificationResult(NamedTuple):
    ok: bool
    failures: tuple[str, ...]


def certificate_ok(cert: dict) -> bool:
    """True iff every claim in the certificate carries verdict true."""
    return all(bool(c.get("verdict")) for c in cert.get("claims", []))


# ---------------------------------------------------------------------------
# the input field types: `parse` reads a field's JSON value into the typed
# value a checker receives, or raises `_Refused`; `emit` writes a builder's
# value as JSON


_JSON_TYPES = {type(None): "null", bool: "a bool", int: "an integer", float: "a number",
               str: "a string", list: "a list", dict: "an object"}


class _Refused(Exception):
    """An echoed input that does not fit its field: the failure reads
    `inputs<path>: <reason>`, the path locating the value (".plan.u")."""

    def __init__(self, reason: str, path: str = ""):
        super().__init__(reason)
        self.reason, self.path = reason, path


def _expect(value, kind: type, what: str) -> None:
    if type(value) is not kind:
        raise _Refused(f"expected {what}, got {_JSON_TYPES.get(type(value), 'an object')}")


class _Rational:
    """A "p/q" string (an integer or decimal string also reads exactly),
    held to a range such as "[0, 1)" or "(0, inf)" when one is given: a
    square bracket includes its end, a round one excludes it.  Read as a
    Fraction."""

    emit = staticmethod(format_rational)

    def __init__(self, bounds: str | None = None):
        self.bounds = bounds
        if bounds:
            lo, hi = (Fraction(end) for end in bounds[1:-1].replace("inf", "0").split(", "))
            self.ends = (lo.numerator, lo.denominator, bounds[0] == "[",
                         hi.numerator, hi.denominator, bounds[-1] == "]", "inf" in bounds)

    def parse(self, value) -> Fraction:
        return Fraction(*self.ratio(value))

    def ratio(self, value) -> tuple[int, int]:
        """The value's integers (p, q), q > 0, as written (not reduced)."""
        if type(value) is not str:
            _expect(value, str, 'a "p/q" string')
        try:
            p, q = parse_ratio(value)
        except RationalParseError as exc:
            raise _Refused(str(exc)) from None
        if self.bounds:
            # The signs of x - lo and hi - x, for x = p/q and the ends a/b, c/d.
            a, b, lo_in, c, d, hi_in, open_top = self.ends
            above, below = p * b - a * q, c * q - p * d
            if not ((above >= 0 if lo_in else above > 0)
                    and (open_top or (below >= 0 if hi_in else below > 0))):
                raise _Refused(f"{value} is outside {self.bounds}")
        return p, q


class _Ratio(_Rational):
    """A `_Rational` read as its integers (p, q), q > 0, as written: the
    envelope's checks add and compare them by cross-multiplication, and the
    histogram's recount reads residues mod q, so no gcd is run."""

    parse = _Rational.ratio

    def plain_list(self, texts: list) -> list | None:
        """The pairs (p, q) of a list of plain "p/q" texts, read in one pass
        (`_plain_ints`); None for a list the one-value read must see, one
        with an entry not plain or out of range."""
        ints = _plain_ints(texts)
        if ints is None or not self.within(ints):
            return None
        return list(zip(ints[::2], ints[1::2]))

    def within(self, ints: list[int]) -> bool:
        """Whether every p/q of the pairs p, q in `ints` lies in the bounds,
        which the one-pass read takes only unbounded (cuts) or "[0, 1]" (mu
        and lambda): a plain p is at least 0, so [0, 1] is p <= q, in one
        map pass.  Other bounds are left to the one-value read."""
        if not self.bounds:
            return True
        return self.bounds == "[0, 1]" and all(map(ge, ints[1::2], ints[::2]))


# Plain "p/q" texts joined by commas: ASCII digits, no sign, space or leading
# zero, and a nonzero denominator.
_PLAIN_RATIOS = re.compile(r"(?:0|[1-9][0-9]*)/[1-9][0-9]*(?:,(?:0|[1-9][0-9]*)/[1-9][0-9]*)*")


def _plain_ints(texts: list) -> list[int] | None:
    """p_1, q_1, p_2, q_2, ... of a nonempty list of plain "p/q" texts, one
    regular-expression test of their joined text and one `json.loads` of it;
    None when an entry is not such a text, or has more digits than the
    interpreter's int/str limit lets `int` convert."""
    if not texts or set(map(type, texts)) != {str}:
        return None
    joined = ",".join(texts)
    # An entry holding a comma would pass as two texts.
    if joined.count(",") != len(texts) - 1 or not _PLAIN_RATIOS.fullmatch(joined):
        return None
    try:
        return json.loads(f"[{joined.replace('/', ',')}]")
    except ValueError:  # past the limit: the one-value read raises int's error in its place
        return None


class _Positive:
    """A JSON integer of at least 1 (not a bool: type(True) is bool)."""

    emit = int

    def parse(self, value) -> int:
        if type(value) is not int:
            _expect(value, int, "an integer")
        if value < 1:
            raise _Refused(f"{value} is outside [1, inf)")
        return value

    def plain_list(self, values: list) -> list[int] | None:
        """A list of JSON integers of at least 1, read by one type test and
        `min`; None for a list the one-value read must see."""
        if values and set(map(type, values)) == {int} and min(values) >= 1:
            return list(values)
        return None


class _False:
    """A JSON bool that must be false: an interval's `wraps` in format /1."""

    def parse(self, value) -> bool:
        if type(value) is not bool:
            _expect(value, bool, "a bool")
        if value:
            raise _Refused("wrapping intervals are not supported")
        return value


class _Digits:
    """A string of the digits in `alphabet`, read as the bytes of their
    values by one translate; `length` as for `_List`."""

    def __init__(self, alphabet: str, length):
        self.alphabet, self.length, self.chars = alphabet, length, alphabet.encode()
        values = bytes(map(int, alphabet))
        self.read = bytes.maketrans(self.chars, values)
        self.write = bytes.maketrans(values, self.chars)

    def parse(self, value) -> bytes:
        _expect(value, str, f"a string of the digits {self.alphabet}")
        # An ASCII string encodes one byte per character; deleting the
        # alphabet's bytes leaves any other character.
        if not value.isascii() or (raw := value.encode()).translate(None, self.chars):
            raise _Refused(f"holds a character other than the digits {self.alphabet}")
        return raw.translate(self.read)

    def emit(self, digits: bytes) -> str:
        return digits.translate(self.write).decode()


class _List:
    """A JSON list of `item` fields.  `length` = (label, rule): the JSON
    entry count that `rule` reads from all the parsed fields.  `make` turns
    the parsed entries into the checker's value, refusing them with a
    ValueError.  An item with a `plain_list` reads a list of plain entries
    in one pass; any other list, and every refusal, is read entry by
    entry."""

    def __init__(self, item, length=None, nonempty: bool = False, make=None):
        self.item, self.length, self.nonempty, self.make = item, length, nonempty, make
        self.read_plain = getattr(item, "plain_list", None)

    def parse(self, value):
        if type(value) is not list:
            _expect(value, list, "a list")
        if self.nonempty and not value:
            raise _Refused("expected at least one entry")
        out = self.read_plain(value) if self.read_plain else None
        if out is None:
            parse, out = self.item.parse, []
            for i, v in enumerate(value):
                try:
                    out.append(parse(v))
                except _Refused as exc:
                    exc.path = f"[{i}]{exc.path}"
                    raise
        return out if self.make is None else _made(self.make, out)

    def emit(self, values) -> list:
        emit = self.item.emit
        return [emit(v) for v in values]


class _Record:
    """A JSON object with exactly the named fields, read as a dict or as
    make(dict) once every field parses and every list's length rule holds;
    a builder's value gives the fields as attributes, or `emit` writes it."""

    def __init__(self, fields: dict, make=None, emit=None):
        self.fields, self.make = fields, make
        if emit is not None:
            self.emit = emit
        self.lengths = [(name, *field.length) for name, field in fields.items()
                        if getattr(field, "length", None)]

    def parse(self, value):
        if type(value) is not dict:
            _expect(value, dict, "an object")
        values = {}
        for name, field in self.fields.items():
            if name not in value:
                raise _Refused("missing", f".{name}")
            try:
                values[name] = field.parse(value[name])
            except _Refused as exc:
                exc.path = f".{name}{exc.path}"
                raise
        if len(value) > len(values):
            raise _Refused("unknown field", f".{next(k for k in value if k not in values)}")
        for name, label, rule in self.lengths:
            have, want = len(value[name]), rule(values)
            if have != want:
                raise _Refused(f"has {have} entries, not {label} = {want}", f".{name}")
        return values if self.make is None else _made(self.make, values)

    def emit(self, value) -> dict:
        return {name: field.emit(getattr(value, name)) for name, field in self.fields.items()}


def _made(make, values):
    try:
        return make(values)
    except ValueError as exc:
        raise _Refused(str(exc)) from None


def _over_lcm(ratios: list[tuple[int, int]]) -> tuple[list[int], int]:
    """The numerators of the pairs (p, q), q > 0, over the lcm of their
    denominators."""
    den = lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def _masses(masses: list[tuple[int, int]]) -> tuple[list[int], int]:
    """The masses as integers over their lcm, which they must sum to."""
    nums, den = _over_lcm(masses)
    if sum(nums) != den:
        raise ValueError("masses must sum to exactly 1")
    return nums, den


def _atom(pair: list[tuple[int, int]]) -> tuple[int, int, int, int]:
    if len(pair) != 2 or pair[1][0] == 0:
        raise ValueError("expected a location and a positive weight")
    return (*pair[0], *pair[1])


def _ratio_atoms(rows: list[int]) -> tuple[list[tuple[int, int]], list[int], int]:
    """pi's atoms, a row a, b, c, d of `rows` for each location a/b and
    weight c/d, held to the rules of a ratio measure in map passes:
    locations sorted and distinct, weights summing to 1.  Returns the
    locations, and the weights as integers over their lcm."""
    lp, lq, wp, wq = rows[::4], rows[1::4], rows[2::4], rows[3::4]
    # a/b < c/d iff a*d < c*b, as b, d > 0.
    if not all(map(lt, map(mul, lp, lq[1:]), map(mul, lp[1:], lq))):
        raise ValueError("atom locations must be sorted and distinct")
    den = lcm(*wq)
    weights = list(map(mul, wp, map(floordiv, repeat(den), wq)))
    if sum(weights) != den:
        raise ValueError("atom weights must sum to exactly 1")
    return list(zip(lp, lq)), weights, den


class _Atoms:
    """pi's atoms, [location, weight] pairs of `_Ratio("[0, 1]")` texts,
    read into `_ratio_atoms`' value.  When every text is plain, every
    weight positive and every text at most 1 (`plain_atoms`), they are read
    in one pass as rows of four ints; any other list goes through `each`,
    the one-value read, which alone refuses an entry.  Both hand their rows
    to `_ratio_atoms`, whose refusals come after every entry has passed."""

    unit = _Ratio("[0, 1]")
    pair = _List(unit, make=_atom)
    each = _List(pair, make=lambda rows: _ratio_atoms(list(chain.from_iterable(rows))))

    @staticmethod
    def emit(pi) -> list:
        return pi.to_json()  # a ratio measure writes its atoms from integers

    def parse(self, value):
        rows = self.plain_atoms(value)
        return self.each.parse(value) if rows is None else _made(_ratio_atoms, rows)

    @classmethod
    def plain_atoms(cls, value) -> list[int] | None:
        if (type(value) is not list or set(map(type, value)) != {list}
                or set(map(len, value)) != {2}):
            return None
        rows = _plain_ints(list(chain.from_iterable(value)))
        if rows is None or not all(rows[2::4]) or not cls.unit.within(rows):
            return None
        return rows


def _interval(ends: dict) -> tuple[Fraction, Fraction]:
    """An interval's ends (left, right), held to 0 <= left < right <= 1 by
    cross-multiplication."""
    left, right = ends["left"], ends["right"]
    ln, ld, rn, rd = left.numerator, left.denominator, right.numerator, right.denominator
    if not (0 <= ln and ln * rd < rn * ld and rn <= rd):
        raise ValueError(f"interval needs 0 <= left < right <= 1, got ({left}, {right})")
    return left, right


def _interval_json(ends: tuple[Fraction, Fraction]) -> dict:
    # Format /1 keeps an always-false `wraps`.
    return {"left": _fr(ends[0]), "right": _fr(ends[1]), "wraps": False}


def _holds(ends: tuple[Fraction, Fraction], r: int, q: int) -> bool:
    """Whether the point r/q (q > 0, not reduced) lies in the open interval
    (left, right), by cross-multiplication: for huge q no gcd is run."""
    left, right = ends
    return left.numerator * q < r * left.denominator and r * right.denominator < right.numerator * q


def _nested(outer: tuple[Fraction, Fraction], inner: tuple[Fraction, Fraction]) -> bool:
    """Whether inner lies in outer: outer's left <= inner's left and inner's
    right <= outer's right, each by cross-multiplication."""
    (a, d), (b, c) = outer, inner
    return (a.numerator * b.denominator <= b.numerator * a.denominator
            and c.numerator * d.denominator <= d.numerator * c.denominator)


def _cuts(cuts: list[tuple[int, int]]) -> tuple[list[int], int]:
    """The cuts as integer numerators c_i over the lcm D of their reduced
    denominators, held to run strictly increasing from 0 to 1: the cut c/D
    lies at or below r/q iff r >= ceil(c*q/D), and the cuts are all dyadic
    iff D is a power of 2."""
    nums, den = _over_lcm([(p // g, q // g) for p, q in cuts for g in (gcd(p, q),)])
    if len(nums) < 2 or nums[0] != 0 or nums[-1] != den:
        raise ValueError("cuts must run from 0 to 1")
    if not all(map(lt, nums, nums[1:])):
        raise ValueError("cuts must be strictly increasing")
    return nums, den


_RATIONAL = _Rational()
_POSITIVE = _Positive()
_INTERVAL = _Record({"left": _RATIONAL, "right": _RATIONAL, "wraps": _False()}, _interval,
                    emit=_interval_json)

# kind -> its input fields, in the order a certificate echoes them
_INPUTS = {kind: _Record(fields) for kind, fields in {
    "mixing": {
        "alpha": _RATIONAL,
        "multipliers": _List(_POSITIVE),
        "eps": _RATIONAL,
        "delta": _Rational("(0, 1)"),
        "start": _INTERVAL,
        "targets": _List(_INTERVAL, length=("len(multipliers)", lambda v: len(v["multipliers"]))),
        "intervals": _List(_INTERVAL, length=("len(multipliers) + 1",
                                              lambda v: len(v["multipliers"]) + 1)),
    },
    "hitfreq": {
        "alpha": _RATIONAL,
        "multipliers": _List(_POSITIVE, nonempty=True),
        "interval": _INTERVAL,
        "ratio": _Rational("(0, inf)"),
        "plan": _Record({"u": _POSITIVE, "c": _POSITIVE, "repeats": _POSITIVE}),
        "forced_positions": _List(_POSITIVE),
    },
    "histogram": {
        "alpha": _Ratio(),
        "multipliers": _List(_POSITIVE, length=("base^2", lambda v: v["base"] ** 2)),
        "weights": _List(_POSITIVE, nonempty=True),
        "eta": _RATIONAL,
        "base": _POSITIVE,
    },
    "avoid": {
        "alpha": _RATIONAL,
        "eps": _RATIONAL,
        "prefix": _List(_POSITIVE, nonempty=True),
        "gaps": _Digits("0123456789", length=("horizon - len(prefix)",
                                              lambda v: v["horizon"] - len(v["prefix"]))),
        "horizon": _POSITIVE,
    },
    "zeroblock": {
        "base": _Rational("[0, 1)"),
        "block_starts": _List(_POSITIVE, nonempty=True),
        "digits": _Digits("01", length=("max(block_starts)^2",
                                        lambda v: max(v["block_starts"]) ** 2)),
    },
    "fivesixth": {"alpha": _Rational("(0, 1/16)"), "horizon": _POSITIVE},
    "invariance": {
        "alpha": _RATIONAL,
        "steps": _POSITIVE,
        "cuts": _List(_Ratio(), make=_cuts),
    },
    # mu and lambda read as (numerators, lcm); mu's count is len(numerators).
    "envelope": {
        "mu": _List(_Ratio("[0, 1]"), make=_masses),
        "lambda": _List(_Ratio("[0, 1]"), length=("len(mu)", lambda v: len(v["mu"][0])),
                        make=_masses),
        "pi": _Atoms(),
        "tol": _Ratio("[0, inf)"),
    },
}.items()}


# claim kind -> its fields between "kind" and "verdict"
_CLAIM_FIELDS = {
    "point-in-interval": ("multiplier", "alpha", "interval", "value"),
    "interval-length": ("interval", "length"),
    "interval-nested": ("outer", "inner"),
    "hit-count-frequency": ("count", "horizon", "threshold"),
    "rational-power-gt": ("statement", "lhs", "rhs"),
    "rational-power-lt": ("statement", "lhs", "rhs"),
    "cell-frequency-within": ("cell", "count", "horizon", "target", "eta"),
    "gaps-in-one-two": (),
    "orbit-avoids-interval": ("hits",),
    "star-discrepancy-at-least": ("value", "floor"),
    "digit-blocks-zero": (),
    "window-density": ("end", "hits", "density"),
    "widened-interval-hits": ("hits", "minus_hits", "plus_hits"),
    "density-at-most": ("density", "bound"),
    "hit-spacing": (),
    "invariance-defect-equals": ("defect",),
    "defect-at-most": ("defect", "bound"),
    "envelope-domination": ("violation", "union_mass", "bound"),
}

_CLAIM_KEYS = {kind: ("kind", *fields, "verdict") for kind, fields in _CLAIM_FIELDS.items()}


def _claim(kind: str, *values) -> dict:
    """The claim of `kind` with its declared fields' JSON values in order and
    the verdict last; a None value leaves its field out.  It computes
    nothing: builders and checkers each derive the values on their own."""
    claim = dict(zip(_CLAIM_KEYS[kind], (kind, *values), strict=True))
    return claim if None not in values else {k: v for k, v in claim.items() if v is not None}


# ---------------------------------------------------------------------------
# claim writers: a kind's claims (ids, claim kinds, texts and verdict rules)
# from the numbers they state.  A builder passes the numbers its construction
# found and a checker those it recounted from the echoed inputs, so only the
# format is shared; a writer calls no construction code.  An interval is the
# pair of its ends (left, right).


_BAND = (Fraction(1, 2), Fraction(3, 4))  # the zero-block target arc


def _mixing_claims(alpha: Fraction, multipliers: Sequence[int], eps: Fraction,
                   start: tuple, targets: Sequence[tuple],
                   intervals: Sequence[tuple]) -> dict[str, dict]:
    p, q = alpha.numerator, alpha.denominator
    a = _fr(alpha)
    spans = [_interval_json(iv) for iv in intervals]
    claims = {"alpha-in-start": _claim("point-in-interval", 1, a, _interval_json(start), a,
                                       _holds(start, p, q))}
    for k, (n, target) in enumerate(zip(multipliers, targets), start=1):
        r, length = n * p % q, eps / n
        left, right = intervals[k]
        claims[f"containment-{k}"] = _claim("point-in-interval", n, a, _interval_json(target),
                                            format_ratio(r, q), _holds(target, r, q))
        claims[f"length-{k}"] = _claim("interval-length", spans[k], _fr(length),
                                       right - left == length)
        claims[f"nesting-{k}"] = _claim("interval-nested", spans[k - 1], spans[k],
                                        _nested(intervals[k - 1], intervals[k]))
    return claims


def _hitfreq_claims(alpha: Fraction, multipliers: Sequence[int], interval: tuple,
                    ratio: Fraction, u: int, c: int, positions: Sequence[int], hits: int,
                    horizon: int) -> dict[str, dict]:
    p, q = alpha.numerator, alpha.denominator
    a, span, eps = _fr(alpha), _interval_json(interval), interval[1] - interval[0]
    claims = {}
    for pos in positions:
        n = multipliers[pos - 1]
        r = n * p % q
        claims[f"containment-{pos}"] = _claim("point-in-interval", n, a, span, format_ratio(r, q),
                                              _holds(interval, r, q))
    threshold = Fraction(1, 2 * c)
    quality, stride, gap = ratio ** (u - 2), ratio**c, ratio**c * eps**u
    claims["hit-frequency"] = _claim("hit-count-frequency", hits, horizon, _fr(threshold),
                                     Fraction(hits, horizon) > threshold)
    claims["plan-quality"] = _claim("rational-power-gt", "ratio^(u-2) > 2", _fr(quality), "2/1",
                                    quality > 2)
    claims["plan-stride-low"] = _claim("rational-power-gt", "ratio^c > 2/eps", _fr(stride),
                                       _fr(2 / eps), stride > 2 / eps)
    # Exact form of: 1/(2c) exceeds 2*quality / log_ratio(1/eps).
    claims["threshold-vs-quality"] = _claim("rational-power-lt", "ratio^c * eps^u < 1", _fr(gap),
                                            "1/1", gap < 1)
    return claims


def _histogram_claims(counts: Sequence[int], horizon: int, weights: Sequence[int],
                      eta: Fraction) -> dict[str, dict]:
    total, eta_text = sum(weights), _fr(eta)
    claims = {}
    for i, (count, w) in enumerate(zip(counts, weights)):
        share = Fraction(w, total)
        claims[f"cell-{i}"] = _claim("cell-frequency-within", i, count, horizon, _fr(share),
                                     eta_text, abs(Fraction(count, horizon) - share) < eta)
    return claims


def _avoid_claims(gaps_ok: bool, hits: int, disc: Fraction | None,
                  floor: Fraction | None) -> dict[str, dict]:
    """The floor claim is written when a floor is given, with the D* `disc`."""
    claims = {
        "gap-structure": _claim("gaps-in-one-two", gaps_ok),
        "zero-hits": _claim("orbit-avoids-interval", hits, hits == 0),
    }
    if floor is not None:
        claims["star-discrepancy-floor"] = _claim("star-discrepancy-at-least", _fr(disc),
                                                  _fr(floor), disc >= floor)
    return claims


def _zeroblock_claims(num: int, den: int, in_band: bool, zeroed: bool,
                      windows: list[tuple[int, int]]) -> dict[str, dict]:
    """The claims of the point num/den, with `windows` the (end, hits)
    pairs."""
    value = format_ratio(num, den)
    claims = {
        "value-in-band": _claim("point-in-interval", 1, value, _interval_json(_BAND), value,
                                in_band),
        "blocks-zeroed": _claim("digit-blocks-zero", zeroed),
    }
    for end, hits in windows:
        claims[f"window-{end}"] = _claim("window-density", end, hits, format_ratio(hits, end),
                                         True)
    return claims


def _fivesixth_claims(horizon: int, hits: int, minus: int, plus: int,
                      spacing_ok: bool) -> dict[str, dict]:
    density, bound = Fraction(hits, horizon), Fraction(5, 6) + Fraction(3, horizon)
    return {
        "hit-count": _claim("widened-interval-hits", hits, minus, plus, True),
        "density-bound": _claim("density-at-most", _fr(density), _fr(bound), density <= bound),
        "spacing": _claim("hit-spacing", spacing_ok),
    }


def _invariance_claims(defect: Fraction, steps: int) -> dict[str, dict]:
    bound = Fraction(2, steps)
    return {
        "invariance-defect": _claim("invariance-defect-equals", _fr(defect), True),
        "defect-bound": _claim("defect-at-most", _fr(defect), _fr(bound), defect <= bound),
    }


# ---------------------------------------------------------------------------
# builders: each reads the numbers its construction derived, by attribute, and
# passes them to the kind's claim writer


def _ends(interval) -> tuple[Fraction, Fraction]:
    return interval.left, interval.right


def _certificate(kind: str, claims: dict[str, dict], margins: dict | None = None,
                 **inputs) -> dict:
    fields = _INPUTS[kind].fields
    if inputs.keys() != fields.keys():
        raise TypeError(f"{kind} inputs are {list(fields)}, got {list(inputs)}")
    cert = {
        "format": FORMAT,
        "kind": kind,
        "inputs": {name: field.emit(inputs[name]) for name, field in fields.items()},
        "claims": [{"id": cid, **claim} for cid, claim in claims.items()],
    }
    if margins:
        cert["margins"] = margins
    return cert


def mixing_certificate(chain: MixingChain) -> dict:
    cfg, alpha = chain.config, chain.alpha
    start, targets = _ends(cfg.start), list(map(_ends, cfg.targets))
    intervals = list(map(_ends, chain.intervals))
    claims = _mixing_claims(alpha, cfg.multipliers, cfg.eps, start, targets, intervals)
    margins = {"witness_interval_radius": _fr(chain.intervals[-1].length / 2)}
    return _certificate("mixing", claims, margins, alpha=alpha, multipliers=cfg.multipliers,
                        eps=cfg.eps, delta=cfg.delta, start=start, targets=targets,
                        intervals=intervals)


def hitfreq_certificate(witness: HitFrequencyWitness, multipliers: Sequence[int]) -> dict:
    plan, alpha, interval = witness.plan, witness.alpha, _ends(witness.interval)
    claims = _hitfreq_claims(alpha, multipliers, interval, plan.ratio, plan.u, plan.c,
                             witness.forced_positions, witness.hit_count, witness.horizon)
    margins = {
        "frequency": _fr(witness.frequency),
        "frequency_margin": _fr(witness.frequency - witness.threshold),
    }
    return _certificate("hitfreq", claims, margins, alpha=alpha,
                        multipliers=multipliers[: witness.horizon], interval=interval,
                        ratio=plan.ratio, plan=plan, forced_positions=witness.forced_positions)


def histogram_certificate(witness: HistogramWitness, multipliers: Sequence[int]) -> dict:
    t = witness.target
    claims = _histogram_claims(witness.counts, witness.horizon, t.weights, t.eta)
    margins = {"max_cell_deviation": _fr(max(abs(d) for d in witness.deviations))}
    return _certificate("histogram", claims, margins, alpha=witness.alpha,
                        multipliers=multipliers[: witness.horizon], weights=t.weights,
                        eta=t.eta, base=witness.base)


def avoidance_certificate(result: AvoidanceResult, discrepancy_floor: Fraction | None) -> dict:
    disc, margins = None, {}
    if discrepancy_floor is not None:
        disc = result.star_discrepancy()
        margins["star_discrepancy"] = _fr(disc)
    # The run takes past its prefix only indices whose points avoid [0, eps):
    # it states no hits, and `verify` recounts them.
    claims = _avoid_claims(not result.gaps.translate(None, b"\1\2"), 0, disc, discrepancy_floor)
    return _certificate("avoid", claims, margins, alpha=result.alpha, eps=result.eps,
                        prefix=result.indices[: result.prefix_length],
                        gaps=result.gaps[result.prefix_length - 1 :],
                        horizon=len(result.indices))


def zeroblock_certificate(
    point: BinaryPoint,
    base: Fraction,
    starts: Sequence[int],
    windows: Sequence[WindowDensity] = (),
) -> dict:
    value = point.value
    zeroed = not any(point.digits.count(1, j - 1, j * j) for j in set(starts))
    claims = _zeroblock_claims(value.numerator, value.denominator,
                               Fraction(1, 2) < value < Fraction(3, 4), zeroed,
                               [(w.window_end, w.hits) for w in windows])
    return _certificate("zeroblock", claims, base=Fraction(base), block_starts=starts,
                        digits=point.digits)


def fivesixth_certificate(report: OrbitHitReport, alpha: Fraction) -> dict:
    claims = _fivesixth_claims(report.horizon, report.hits, report.minus_hits,
                               report.plus_hits, report.spacing_ok)
    margins = {"density_margin": _fr(report.density_bound - report.density)}
    return _certificate("fivesixth", claims, margins, alpha=Fraction(alpha),
                        horizon=report.horizon)


def invariance_certificate(
    alpha: Fraction, steps: int, partition: CellPartition, defect: Fraction
) -> dict:
    return _certificate("invariance", _invariance_claims(defect, steps), alpha=Fraction(alpha),
                        steps=steps, cuts=partition.cuts)


def envelope_certificate(
    mu: MeasureVector,
    lam: MeasureVector,
    pi: RatioMeasure,
    result: DominationResult,
    tol: Fraction,
) -> dict:
    if result.ok:
        claim = _claim("envelope-domination", None, None, None, True)
    else:
        claim = _claim("envelope-domination", list(result.violation), _fr(result.union_mass),
                       _fr(result.bound), False)
    return _certificate("envelope", {"domination": claim}, mu=mu.masses, pi=pi, tol=tol,
                        **{"lambda": lam.masses})


# ---------------------------------------------------------------------------
# reading a certificate's text


# `verify` reads a certificate whose longest integer text has more digits
# (`_long_ints`) through `_chained_int_reader`, whose hook call per int costs
# more below it.
_CHAINED_DIGITS = 900
_MULTIPLIERS = '"multipliers": ['


def _long_ints(text: str) -> bool:
    """Whether the certificate text's longest integer text, the last entry
    of its `multipliers` list (the only integers that grow long, and they
    grow), has more than `_CHAINED_DIGITS` characters.  Three searches find
    it, as a scan of every digit would cost what the reader saves."""
    at = text.find(_MULTIPLIERS)
    if at < 0:
        return False
    start = at + len(_MULTIPLIERS)
    end = text.find("]", start)
    last = max(text.rfind(",", start, end) + 1, start)
    return len(text[last:end].strip()) > _CHAINED_DIGITS


def _chained_int_reader(proofs: dict):
    """A `parse_int` hook for `json.loads` that reads what the CLI's writer
    of chained ints writes in time linear in the digits.  A positive text of
    more than `_CHAINED_DIGITS` digits, and at most a quarter more than the
    previous such text's, is read as that text's value P times q, where q is
    estimated from the leading digits of both and accepted only if the exact
    decimal product of the two is the text, character for character; the
    proof is kept in `proofs` as id(value) -> (value, P, q).  Every other
    text is read by `int`, or past `_SPLIT_DIGITS` digits by `exact`'s split
    kernel, and a long one restarts the chain.  Either way the value is
    `int(text)`."""
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])
    prev_text, prev, dec = "", 0, None

    def read(text: str) -> int:
        nonlocal prev_text, prev, dec
        digits = len(text)
        if digits <= _CHAINED_DIGITS:
            return int(text)
        extra = digits - len(prev_text)
        if prev > 0 and text[0] != "-" and 0 <= extra <= digits >> 2:
            # Leading digits at the same scale; q < 10^(extra + 1), so 12
            # more digits place text/prev_text within 10^-10 of q.
            head = int(prev_text[:extra + 12])
            q = (2 * int(text[:2 * extra + 12]) + head) // (2 * head)
            # None after a text `int` read, else the previous text's value.
            product = ctx.multiply(dec or Decimal(prev_text), q)
            if str(product) == text:
                value = prev * q
                proofs[id(value)] = (value, prev, q)
                prev_text, prev, dec = text, value, product
                return value
        to_int = int if digits <= _SPLIT_DIGITS else _text_int
        prev_text, prev, dec = text, -to_int(text[1:]) if text[0] == "-" else to_int(text), None
        return prev

    return read


class _Read(dict):
    """A certificate read from its text by `_read_certificate`, with the
    chained reader's proofs in `proofs`."""

    __slots__ = ("proofs",)


def _read_certificate(text: str):
    """The JSON value of a certificate's text, raising `json.JSONDecodeError`
    as `json.loads` does.  A text that passes `_long_ints` is read through
    `_chained_int_reader`, and an object read so keeps the reader's proofs,
    which `verify_certificate` steps the residue chain by."""
    if not _long_ints(text):
        return json.loads(text)
    proofs = {}
    cert = json.loads(text, parse_int=_chained_int_reader(proofs))
    if type(cert) is not dict:
        return cert
    cert = _Read(cert)
    cert.proofs = proofs
    return cert


# ---------------------------------------------------------------------------
# verification


def verify_certificate(cert: object) -> VerificationResult:
    """Recompute the claims a certificate's echoed inputs imply and compare
    them with the stated claims, field by field; report every difference.

    Any parsed JSON value is accepted: one that is not an object, has no
    kind, or names an unknown format or kind fails with a named error, as do
    claims that are not a list of objects.  The inputs are then read through
    the kind's declared fields before any checker runs: inputs that are
    missing or not an object, or the first field that is missing, unknown,
    not of its type or of a length that breaks its rule, fail alone as
    `"inputs.<field>: ..."`.  The kind's checker then returns the whole
    claims the typed inputs imply, keyed by id: every required id with its
    claim kind, and the ids of the optional families (`avoid`'s
    `star-discrepancy-floor`, `zeroblock`'s `window-N`) that the
    certificate states.  The failures
    come in this order: the claim set (a missing, duplicated, unknown or
    relabelled id, so a certificate cannot pass by leaving a claim out),
    then the checker's failures of the inputs taken together (each names
    an input), then one `"{id}: {field} is {stated!r}, recomputed
    {expected!r}"` per field that differs, a field absent on one side
    reading None.  Inputs a checker refuses outright give that failure
    alone, and no claim is recounted: `hitfreq` forced positions past the
    horizon, `zeroblock` digits that are not the base's with its blocks
    zeroed, `invariance` cuts that are not dyadic, and an `avoid` floor that
    does not read as a rational.  A `hitfreq` plan whose c exceeds the
    number of multipliers, or whose u exceeds c + 1, is refused outright
    after the growth and position failures, and so are multipliers that
    fail the growth its ratio states.  A verdict stated false that
    recomputes false is no failure: `certificate_ok` reads it.  `margins`
    are informational and not checked.

    A certificate `_read_certificate` read from text carries the chained
    reader's proofs, and the residues of a multiplier it proved its
    predecessor's product by a small q are stepped by q; any other value,
    such as a dict a library caller builds, has each quotient recomputed."""
    if not isinstance(cert, dict):
        return VerificationResult(False, ("certificate is not a JSON object",))
    if "kind" not in cert:
        return VerificationResult(False, ("certificate has no kind",))
    if cert.get("format") != FORMAT:
        return VerificationResult(False, (f"unknown certificate format {cert.get('format')!r}",))
    kind = cert["kind"]
    checker = _CHECKERS.get(kind) if isinstance(kind, str) else None
    if checker is None:
        return VerificationResult(False, (f"unknown certificate kind: {kind!r}",))
    claims = cert.get("claims")
    if not isinstance(claims, list) or not all(isinstance(c, dict) for c in claims):
        return VerificationResult(False, ("claims: not a list of objects",))
    if "inputs" not in cert:
        return VerificationResult(False, ("inputs: missing",))
    try:
        inputs = _INPUTS[kind].parse(cert["inputs"])
    except _Refused as exc:
        return VerificationResult(False, (f"inputs{exc.path}: {exc.reason}",))
    stated: dict[str, dict] = {}
    for claim in claims:
        if isinstance(claim.get("id"), str):
            stated.setdefault(claim["id"], claim)
    proofs = cert.proofs if type(cert) is _Read else {}
    try:
        input_failures, expected = checker(inputs, stated, proofs)
    except Exception as exc:  # a checker fault is still a named failure, not a crash
        return VerificationResult(False, (f"verification error: {exc}",))
    if expected is None:
        return VerificationResult(False, tuple(input_failures))
    failures, seen, compared = [], set(), []
    for claim in claims:
        cid = claim.get("id")
        if not isinstance(cid, str):
            failures.append(f"claims: id {cid!r} is not a string")
            continue
        want = expected.get(cid)
        if want is None:
            failures.append(f"claims: unknown {cid}")
        elif cid in seen:
            failures.append(f"claims: duplicate {cid}")
        elif claim.get("kind") != want["kind"]:
            failures.append(
                f"claims: {cid} has kind {claim.get('kind')!r}, expected {want['kind']!r}")
        else:
            compared.append((cid, claim, want))
        seen.add(cid)
    failures += [f"claims: missing {cid}" for cid in expected if cid not in seen]
    failures += input_failures
    for cid, claim, want in compared:
        for field in dict.fromkeys([*want, *claim]):
            have, value = claim.get(field), want.get(field)
            if field != "id" and (have != value or type(have) is not type(value)):
                failures.append(f"{cid}: {field} is {have!r}, recomputed {value!r}")
    return VerificationResult(not failures, tuple(failures))


# Each checker takes the typed inputs, the stated claims by id and the
# reader's proofs of chained terms (empty for a certificate not read from
# text), and returns the failures of the inputs taken together and the
# claims they imply by id, or None in their place when it refuses the inputs
# outright.


def _verify_mixing(inp: dict, stated: dict, proofs: dict):
    alpha, eps, delta, start = inp["alpha"], inp["eps"], inp["delta"], inp["start"]
    multipliers, targets, intervals = inp["multipliers"], inp["targets"], inp["intervals"]
    failures = [] if intervals[0] == start else ["inputs.intervals[0] is not the start interval"]
    # The chain's hypotheses on its start width (as `MixingConfig.validate`).
    if start[1] - start[0] < delta:
        failures.append(f"inputs.delta: {_fr(delta)} exceeds the start interval's length")
    if multipliers and multipliers[0] * delta.numerator <= 2 * delta.denominator:
        failures.append(f"inputs.delta: n_1 = {multipliers[0]} does not exceed 2/delta")
    return failures, _mixing_claims(alpha, multipliers, eps, start, targets, intervals)


def _chained_residues(multipliers: Sequence[int], p: int, q: int, proofs: dict):
    """n * p mod q for each multiplier n in order, chained as r = (n/n_prev)
    * r_prev mod q when the previous multiplier divides n (a small factor
    for geometric growth), else one product n * p mod q.  The factor of a
    term the reader proved n_prev times f is that f, with no division: its
    proof (n, n_prev, f) is keyed by id(n) and holds n, so the id names no
    other live int, and n_prev is the previous entry only if it is the
    same object."""
    prev, r = 1, p
    proof = proofs.get
    for n in multipliers:
        # A certificate with no proofs pays one truth test per term.
        if proofs and (known := proof(id(n))) and known[1] is prev:
            r = known[2] * r % q
        else:
            factor, rem = divmod(n, prev)
            r = n * p % q if rem else factor * r % q
        prev = n
        yield r


def _verify_hitfreq(inp: dict, stated: dict, proofs: dict):
    alpha, multipliers, interval, ratio = (inp["alpha"], inp["multipliers"], inp["interval"],
                                           inp["ratio"])
    u, c, repeats = inp["plan"]["u"], inp["plan"]["c"], inp["plan"]["repeats"]
    positions = inp["forced_positions"]
    horizon = len(multipliers)
    if max(positions, default=1) > horizon:
        return [f"inputs.forced_positions: positions must lie in 1..{horizon}"], None
    failures = [f"inputs.multipliers: growth fails at step {j + 1}" for j in range(horizon - 1)
                if multipliers[j + 1] * ratio.denominator < ratio.numerator * multipliers[j]]
    grows = not failures
    # Position i of the plan is c * (repeats + i), i = 0..repeats: compared
    # by length first, so no plan list is built from the echoed numbers.
    if len(positions) != repeats + 1 or any(
        pos != c * (repeats + i) for i, pos in enumerate(positions)
    ):
        failures.append("inputs.forced_positions: not c*repeats .. 2*c*repeats step c")
    # A build's horizon is 2c * repeats, and `auto_plan`'s minimal u and c
    # give ratio^(u-3) <= 2 < ratio^(c-1): a plan past either bound is no
    # build's, and is refused before any power of the ratio is formed.
    if c > horizon:
        return [*failures, f"inputs.plan.c: exceeds len(multipliers) = {horizon}"], None
    if u > c + 1:
        return [*failures, f"inputs.plan.u: exceeds c + 1 = {c + 1}"], None
    # Nor does a build's horizon fail the growth its ratio states: refused
    # before the claims raise a ratio of any length to u - 2 and c.
    if not grows:
        return failures, None
    p, q = alpha.numerator, alpha.denominator
    count = sum(_holds(interval, r, q) for r in _chained_residues(multipliers, p, q, proofs))
    return failures, _hitfreq_claims(alpha, multipliers, interval, ratio, u, c, positions,
                                     count, horizon)


def _verify_histogram(inp: dict, stated: dict, proofs: dict):
    (p, q), multipliers = inp["alpha"], inp["multipliers"]
    weights, eta = inp["weights"], inp["eta"]
    ell, horizon = len(weights), len(multipliers)
    # The cell of n*alpha mod 1 = r/q is r*ell // q, for alpha = p/q as written:
    # the number of the residues ceil(i*q/ell), i = 1..ell-1, at or below r,
    # found with no long division per term.
    cuts = [-(-i * q // ell) for i in range(1, ell)]
    counts = [0] * ell
    for r in _chained_residues(multipliers, p, q, proofs):
        counts[bisect_right(cuts, r)] += 1
    return [], _histogram_claims(counts, horizon, weights, eta)


def _verify_avoid(inp: dict, stated: dict, proofs: dict):
    alpha, eps, prefix, gaps = inp["alpha"], inp["eps"], inp["prefix"], inp["gaps"]
    # Each residue n*p mod q is formed once, and for an integer r,
    # r/q < eps iff r < ceil(eps*q); only the D* claim sorts them.
    p, q = alpha.numerator, alpha.denominator
    bound = -(-eps.numerator * q // eps.denominator)
    indices = chain(prefix[:-1], accumulate(gaps, initial=prefix[-1]))
    residues = [n * p % q for n in indices]
    hits = len([r for r in residues[len(prefix) :] if r < bound])
    # The gaps are bytes: deleting the values 1 and 2 leaves any other gap.
    gaps_ok = not gaps.translate(None, b"\1\2") and (
        {b - a for a, b in zip(prefix, prefix[1:])} <= {1, 2})
    disc = floor = None
    if "star-discrepancy-floor" in stated:
        # The floor is the claim's own input, typed as an echoed rational.
        try:
            floor = _RATIONAL.parse(stated["star-discrepancy-floor"].get("floor"))
        except _Refused as exc:
            return [f"star-discrepancy-floor: floor: {exc.reason}"], None
        disc = _star_discrepancy(residues, q)
    return [], _avoid_claims(gaps_ok, hits, disc, floor)


# The most ranks the D* sweep reads in one list pass.
_SWEEP_RUN = 4096


def _star_discrepancy(residues: list[int], q: int) -> Fraction:
    """D*_N = sup over t in (0, 1] of |#{i: r_i/q < t}/N - t| for the N >= 1
    points r_i/q, 0 <= r_i < q.

    The sup is reached at the points themselves: for the k-th smallest
    point s_k/q, N*q times k/N - s_k/q is h_k = k*q - N*s_k, and N*q times
    s_k/q - (k-1)/N is q - h_k, so D*_N = max(max h, q - min h)/(N*q).  As s
    does not decrease, h rises by at most q from one rank to the next: over
    the ranks a+1..b, h lies between (a+1)*q - N*s_b and h_{a+1} + (b-a-1)*q.
    The sweep forms h at the first rank of each block of B = max(32, sqrt N)
    ranks, and in full only in the blocks whose bounds (with b - a - 1 taken
    as B - 1) pass the extremes of those first values; consecutive such
    blocks are read in one list pass, in runs of at most `_SWEEP_RUN` ranks.
    """
    n, s = len(residues), sorted(residues)
    block = max(32, isqrt(n))
    heads = [kq - n * r for kq, r in zip(range(q, (n + 1) * q, block * q), s[::block])]
    top, low = max(heads), min(heads)
    cut, runs = top - (block - 1) * q, []
    for a, head, last in zip(range(0, n, block), heads, s[block - 1 :: block] + s[-1:]):
        if head > cut or (a + 1) * q - n * last < low:
            if runs and runs[-1][1] == a and a + block - runs[-1][0] <= _SWEEP_RUN:
                runs[-1][1] += block
            else:
                runs.append([a, a + block])
    for a, b in runs:
        h = [kq - n * r for kq, r in zip(range((a + 1) * q, (n + 1) * q, q), s[a:b])]
        top, low = max(top, max(h)), min(low, min(h))
    return Fraction(max(top, q - low), n * q)


_WINDOW_ID = re.compile(r"window-([1-9][0-9]*)")


def _verify_zeroblock(inp: dict, stated: dict, proofs: dict):
    base, starts, digits = inp["base"], inp["block_starts"], inp["digits"]
    length = len(digits)
    # Digit positions j..j^2 are the slice [j - 1, j^2) of the digit bytes.
    # The blocks end in the order they start, so each is zeroed from where
    # the one before ended: each byte once, however many starts repeat.
    want, end = bytearray(binary_digits(base, length)), 0
    for j in sorted(set(starts)):
        begin = max(j - 1, end)
        want[begin : j * j] = bytes(j * j - begin)
        end = j * j
    if want != digits:
        return ["inputs.digits: not those of base with zeroed blocks"], None
    # Step k's value (2^k + 1) * x mod 1 is s/2^L for s = ((num << k) + num)
    # mod 2^L, and s/2^L lies in the band iff 2^L/2 < s < 3 * 2^L/4.  The
    # last block zeroes every digit from the last start J = sqrt(L) on, so
    # from the last 1 digit on s = num and a step has the verdict of the
    # value itself: only the fewer than J steps before it are tested, and
    # `flips` keeps those whose verdict differs.
    num, scale = int(digits.translate(_BIT_CHARS), 2), 1 << length
    lo, hi, mask = scale >> 1, 3 * scale >> 2, scale - 1
    in_band = lo < num < hi
    ends = sorted({int(m[1]) for m in map(_WINDOW_ID.fullmatch, stated) if m})
    last = min(len(digits.rstrip(b"\0")), ends[-1] + 1) if ends else 1
    flips = [k for k in range(1, last) if (lo < ((num << k) + num) & mask < hi) != in_band]
    windows = [(end, end - flipped if in_band else flipped)
               for end in ends for flipped in (bisect_right(flips, end),)]
    return [], _zeroblock_claims(num, scale, in_band, True, windows)


_MINUS_TWO_APART = re.compile("1.1")


def _verify_fivesixth(inp: dict, stated: dict, proofs: dict):
    alpha, horizon = inp["alpha"], inp["horizon"]
    # Independent recount via modular arithmetic on (2^k + 1) * alpha = s/q:
    # s/q lies in I' = (1/2 - alpha/3, 3/4 + alpha/3) iff 6s > 3q - 2p and
    # 12s < 9q + 4p, and a hit is in I- iff (s - p) mod q <= q/2.  Here s =
    # (r + p) mod q for r = 2^k p mod q, doubled step by step, so (s - p) mod
    # q is r.  With q = 2^a q' (q' odd), r is on its cycle from k = max(a, 1)
    # on, so the walk stops when r first returns there: one code per step (0
    # a miss, 1 a hit in I-, 2 a hit in I+), over the preperiod and one
    # period at most.
    p, q = alpha.numerator, alpha.denominator
    cycle_from = max((q & -q).bit_length() - 1, 1)
    low, high = 3 * q - 2 * p, 9 * q + 4 * p
    steps = []
    r, start = p, None
    for k in range(1, horizon + 1):
        r = 2 * r % q
        if k == cycle_from:
            start = r
        elif r == start:
            break
        s = (r + p) % q
        if 6 * s > low and 12 * s < high:
            steps.append("1" if 2 * r <= q else "2")
        else:
            steps.append("0")
    codes = "".join(steps)
    window, minus, plus = codes, codes.count("1"), codes.count("2")
    if len(codes) < horizon:
        # Steps past the walk repeat its period: whole periods, then a part
        # of one; the spacing reads the walk and the period's first two
        # steps after it.
        pre = cycle_from - 1
        period = codes[pre:]
        whole, rest = divmod(horizon - pre, len(period))
        part = codes[:pre] + period[:rest]
        minus = part.count("1") + whole * period.count("1")
        plus = part.count("2") + whole * period.count("2")
        window = (codes + period + period)[:min(horizon, len(codes) + 2)]
    spacing_ok = not ("11" in window or "22" in window or _MINUS_TWO_APART.search(window))
    return [], _fivesixth_claims(horizon, minus + plus, minus, plus, spacing_ok)


def _verify_invariance(inp: dict, stated: dict, proofs: dict):
    alpha, steps, (cuts, den) = inp["alpha"], inp["steps"], inp["cuts"]
    if den & (den - 1):
        return ["invariance-defect: partition cut points must be dyadic rationals"], None
    # Along the residues r_k = 2^k p mod q, k = 1..steps, each point counts
    # +1 in its cell and -1 in the cell of its image r_{k+1}; the sum
    # telescopes to +1 in the cell of r_1 and -1 in that of r_{steps+1}.
    v = mod1(alpha)
    p, q = v.numerator, v.denominator
    bounds = [-(-c * q // den) for c in cuts[1:]]
    ends = bisect_right(bounds, 2 * p % q), bisect_right(bounds, pow(2, steps + 1, q) * p % q)
    return [], _invariance_claims(Fraction(int(ends[0] != ends[1]), steps), steps)


def _verify_envelope(inp: dict, stated: dict, proofs: dict):
    """Re-derive the domination claim in integers from the echoed strings,
    without the construction code.

    The input table hands over mu, lambda and the atom weights as integer
    numerators over the lcms of their denominators, and the atom locations
    and tol as integer pairs as written, not reduced.  F is read from
    integer prefix and suffix sums over the atoms.  Every union of cells
    lies on or under the polygon of the prefixes of the cells in decreasing
    mu/lambda order (zero-lambda cells first, ties by index), and the
    region on or under the concave F + tol is convex, so an ok verdict
    holds iff all s prefixes of that order pass.  Otherwise the first
    violation in pre-order of the subset tree is found by descent: child j
    of a node roots a subtree with a violation iff the node's union with j,
    or that union joined to a prefix of the cells after j, violates; so one
    pass over j = 0..s-1 either returns the child's union, descends into
    it, or moves on to its sibling.
    """
    (locs, weights, weight_den), (tol_num, tol_den) = inp["pi"], inp["tol"]
    (mu_num, mu_den), (lam_num, lam_den) = inp["mu"], inp["lambda"]
    s = len(mu_num)
    keys, key_den = _over_lcm(locs)
    h = lcm(*(p for p, _ in locs if p))
    # Over f_den, an atom q = p/r <= t = l/lam_den adds its weight
    # c/weight_den to F(t), and one above t adds t * c * r/(weight_den * p).
    # The atoms are sorted, so those at or below t come first: F sums the
    # first kind over a prefix of the atoms and the second over the rest.
    f_den = weight_den * h * lam_den
    below = list(accumulate((c * h * lam_den for c in weights), initial=0))
    above = list(accumulate(
        (c * r * (h // p) if p else 0 for (p, r), c in zip(reversed(locs), reversed(weights))),
        initial=0,
    ))[::-1]

    def bound_num(l: int) -> int:
        i = bisect_right(keys, l * key_den // lam_den)
        return below[i] + l * above[i]

    def exceeds(m: int, l: int) -> bool:
        # m/mu_den > bound_num(l)/f_den + tol
        return m * f_den * tol_den > (bound_num(l) * tol_den + tol_num * f_den) * mu_den

    def before(i: int, j: int) -> int:
        if (lam_num[i] == 0) != (lam_num[j] == 0):
            return -1 if lam_num[i] == 0 else 1
        return (mu_num[j] * lam_num[i] - mu_num[i] * lam_num[j]) or i - j

    order = sorted(range(s), key=cmp_to_key(before))

    def prefix_violates(m: int, l: int, after: int) -> bool:
        """Whether a density-order prefix of the cells after `after`, joined
        to the union with numerators (m, l), violates."""
        for i in order:
            if i > after:
                m, l = m + mu_num[i], l + lam_num[i]
                if exceeds(m, l):
                    return True
        return False

    claim = _claim("envelope-domination", None, None, None, True)
    if prefix_violates(0, 0, -1):
        cells, m, l = [], 0, 0
        for j in range(s):
            m_j, l_j = m + mu_num[j], l + lam_num[j]
            if exceeds(m_j, l_j):
                claim = _claim("envelope-domination", cells + [j], format_ratio(m_j, mu_den),
                               format_ratio(bound_num(l_j), f_den), False)
                break
            if prefix_violates(m_j, l_j, j):
                cells, m, l = cells + [j], m_j, l_j
    return [], {"domination": claim}


# kind -> its checker
_CHECKERS = {
    "mixing": _verify_mixing,
    "hitfreq": _verify_hitfreq,
    "histogram": _verify_histogram,
    "avoid": _verify_avoid,
    "zeroblock": _verify_zeroblock,
    "fivesixth": _verify_fivesixth,
    "invariance": _verify_invariance,
    "envelope": _verify_envelope,
}
