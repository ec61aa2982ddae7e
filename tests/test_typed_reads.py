"""Inputs read straight into the form their checks compute with: the one-pass
rational parser against the regular-expression parser it replaced, the JSON
writer against `json.dumps`, digit strings as bytes, envelope inputs and
cuts as integers over their lcm (cuts against `CellPartition`), one-pass
list reads against the one-value read, and a certificate read from text,
whose proved quotients step the residue chain, against its plain parse."""

import contextlib
import copy
import json
import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maldist import certificates as certs
from maldist import cli
from maldist.empirical import CellPartition
from maldist.exact import RationalParseError, parse_ratio, parse_rational
from tests.oracles import regex_parse_rational
from tests.test_input_sweep import CERTIFICATES

CERTS = dict(CERTIFICATES)


def outcome(parse, text):
    """The value `parse` reads, or its error's text, position and reason."""
    try:
        return parse(text)
    except RationalParseError as exc:
        return ("error", str(exc), exc.text, exc.position, exc.reason)


# ASCII digits, Unicode Nd digits, a superscript that passes `isdigit` but not
# `isdecimal`, the grammar's punctuation, the underscore `int` would accept,
# and whitespace, ASCII and not.
CHARS = [*"0123456789", "٣", "٤", "०", "²", *"+-./_", " ", "\n", " "]

structured = st.builds(
    lambda *parts: "".join(parts),
    st.sampled_from(["", " ", "\n", "  "]),
    st.sampled_from(["", "+", "-"]),
    st.text(st.sampled_from(CHARS[:13]), min_size=0, max_size=4),
    st.sampled_from(["", "/", "."]),
    st.text(st.sampled_from(CHARS[:13]), min_size=0, max_size=4),
    st.sampled_from(["", " ", "\n"]),
)


@settings(max_examples=3000)
@given(st.one_of(st.text(st.sampled_from(CHARS), max_size=10), structured))
def test_parser_matches_the_regex_parser(text):
    want = outcome(regex_parse_rational, text)
    assert outcome(parse_rational, text) == want
    if not isinstance(want, tuple):
        assert type(parse_rational(text)) is F
        p, q = parse_ratio(text)
        assert q > 0 and F(p, q) == want


@pytest.mark.parametrize("text", ["1/0", "0/0", " -3/4 ", "1_0/3", "1/2.5", ".", "",
                                  "٣/٤", "²", "+0.50", "-7", "3/ 4", None, 3, F(1, 2)])
def test_parser_pinned_cases(text):
    assert outcome(parse_rational, text) == outcome(regex_parse_rational, text)


def test_parser_pinned_outcomes():
    assert outcome(parse_rational, "1/0")[1:] == (
        "bad rational '1/0' at position 2: zero denominator", "1/0", 2, "zero denominator")
    assert outcome(parse_rational, " 0/0")[3] == 3
    assert parse_rational(" -3/4 ") == F(-3, 4)
    assert outcome(parse_rational, "1_0/3")[3] == 1
    assert outcome(parse_rational, "1/2.5")[3] == 0
    assert outcome(parse_rational, ".")[3] == 0
    assert outcome(parse_rational, "")[1] == (
        "bad rational '' at position 0: expected 'p/q', integer or decimal")
    assert parse_ratio("2/4") == (2, 4)
    assert parse_ratio("-0.25") == (-25, 100)
    assert parse_ratio("٣") == (3, 1)


# --- the JSON writer -------------------------------------------------------------

HUGE = st.integers(min_value=10**4300, max_value=10**4400) | st.integers(
    min_value=-(10**4400), max_value=-(10**4300))
TRICKY = st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "٣", " ",
                          "\ud800", "😀", "a/b"])


class Int(int):
    pass


class Str(str):
    pass


INTS = st.integers() | HUGE
scalars = (st.none() | st.booleans() | INTS | st.text() | TRICKY | st.floats()
           | st.builds(Int, INTS) | st.builds(Str, st.text() | TRICKY))


@st.composite
def chained_int_lists(draw):
    """Lists whose last term is a plain int past `cli._CHAINED_BITS` bits: the
    terms b^k or b^(k^2) of a stretch of k, or products of small factors of
    either sign, each term a multiple of the one before; then perhaps a term
    off the chain, a square (whose quotient is above the small-quotient
    bound), a prefix from 0 and negative values, all terms negated, or a
    bool, a nested list or an int subclass before the last term."""
    b = draw(st.integers(2, 1100))
    count = draw(st.integers(1, 24))
    need = cli._CHAINED_BITS // (b.bit_length() - 1) + 1  # b^need passes the bound
    shape = draw(st.sampled_from(["pow", "squarepow", "factors"]))
    if shape == "pow":
        k0 = need - draw(st.integers(0, count))
        values = [b ** k for k in range(k0, k0 + count + 1)]
    elif shape == "squarepow":
        k0 = max(1, math.isqrt(need) + 1 - draw(st.integers(0, count)))
        values = [b ** (k * k) for k in range(k0, k0 + count + 1)]
    else:
        values = [draw(st.integers(1, 2**64)) << cli._CHAINED_BITS]
        for f in draw(st.lists(st.integers(2, 2**64) | st.integers(-(2**64), -2),
                               min_size=1, max_size=count)):
            values.append(values[-1] * f)
    last = len(values) - 1
    if draw(st.booleans()):
        values[draw(st.integers(0, last))] += draw(st.integers(1, 10**6))
    if draw(st.booleans()):
        i = draw(st.integers(0, last))
        values.insert(i + 1, values[i] * values[i])
    values = draw(st.lists(st.integers(-(10**30), 0), max_size=2)) + values
    if draw(st.booleans()):
        values = [-v for v in values]
    if draw(st.booleans()):
        off_type = st.booleans() | st.lists(INTS, max_size=2) | st.builds(Int, INTS)
        values.insert(draw(st.integers(0, len(values) - 1)), draw(off_type))
    return values


@st.composite
def near_pairs(draw):
    """Lists of [int, int] pairs, the runs `subspace` writes, with perhaps
    one entry that is no such pair: a pair holding a bool, an int subclass,
    a string or a list, a tuple pair, or a list of one or three ints."""
    pairs = draw(st.lists(st.lists(INTS, min_size=2, max_size=2), min_size=1, max_size=10))
    if draw(st.booleans()):
        off = st.sampled_from([True, False, "7", []]) | st.builds(Int, INTS)
        entry = draw(st.lists(INTS, min_size=2, max_size=2))
        entry[draw(st.integers(0, 1))] = draw(off)
        entry = draw(st.sampled_from([entry, (1, 2), [3], [4, 5, 6]]))
        pairs.insert(draw(st.integers(0, len(pairs))), entry)
    return pairs


# The shapes the type-first path takes: flat int lists, bools among ints (a
# bool is an int that must print as true/false), runs of [n, len] pairs and
# lists that are almost such runs (one of them a one-list and a three-list,
# as many ints as two pairs), and lists of chained multipliers.
int_lists = (st.lists(INTS, max_size=30) | st.lists(INTS | st.booleans(), max_size=10)
             | st.lists(st.lists(INTS, min_size=2, max_size=2), max_size=10)
             | near_pairs() | st.just([[1], [2, 3, 4]]) | chained_int_lists())
json_values = st.recursive(
    scalars | int_lists,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=5) | TRICKY | st.builds(Str, st.text(max_size=5)),
                                     inner, max_size=4)),
    max_leaves=25,
)


@contextlib.contextmanager
def no_int_digit_limit():
    # Integers past 4,300 digits convert only with the int/str limit lifted.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@settings(max_examples=400)
@given(json_values)
def test_json_writer_matches_json_dumps(value):
    with no_int_digit_limit():
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_json_writer_matches_json_dumps_on_squarepow_multipliers():
    n = cli._multipliers({"n-kind": "squarepow:12"}, 64)
    assert n[-1].bit_length() > cli._CHAINED_BITS
    with no_int_digit_limit():
        assert cli._json_text(n) == json.dumps(n, sort_keys=True, indent=2)


@settings(max_examples=300)
@given(chained_int_lists().filter(lambda values: all(type(v) is int for v in values))
       | st.builds(lambda kind, b, count: cli._multipliers({"n-kind": f"{kind}:{b}"}, count),
                   st.sampled_from(["pow", "squarepow"]), st.integers(2, 1100),
                   st.integers(1, 48)))
def test_chained_writer_writes_each_term_as_int_repr(values):
    # Terms on either side of `_CHAINED_BITS`, chained, split or short.
    with no_int_digit_limit():
        assert cli._chained_int_texts(values) == [int.__repr__(v) for v in values]


def test_json_writer_writes_the_indented_text_and_a_newline(tmp_path):
    obj = {"b": [1, {"c": [], "a": {}}], "a": ["xé", None, True, False]}
    cli._write_json(obj, str(tmp_path / "out.json"))
    assert (tmp_path / "out.json").read_text(encoding="utf-8") == (
        json.dumps(obj, sort_keys=True, indent=2) + "\n")


# --- the JSON reader -------------------------------------------------------------


def near(x: int):
    """Ints whose text is close to that of a positive x: x +- 1, x with its
    middle or last digit changed, its text with a digit more or less, -x and
    0."""
    text = str(x)
    return st.builds(
        lambda digit, step: int(text[:digit] + str((int(text[digit]) + step) % 10)
                                + text[digit + 1:]),
        st.sampled_from([len(text) // 2, len(text) - 1]), st.integers(1, 9),
    ) | st.sampled_from([x + 1, x - 1, x * 10 + 7, x // 10, -x, 0])


@st.composite
def near_chains(draw):
    """Lists of long ints (past `certs._CHAINED_DIGITS` digits) that a reader
    of chained products could misread: a chain b^k or b^(k^2), where a term
    P*q may be replaced by an int `near` it, by one shorter than P, or by
    P^2 (whose quotient is above the quarter bound), or may follow an int
    near P, an unrelated long int, or an int near it and the product of that
    int and b."""
    b = draw(st.integers(2, 1100))
    need = certs._CHAINED_DIGITS * 10 // 3 // (b.bit_length() - 1) + 1  # b^need has enough digits
    if draw(st.booleans()):
        chain = [b ** k for k in range(need, need + draw(st.integers(2, 12)))]
    else:
        k0 = math.isqrt(need) + 1
        chain = [b ** (k * k) for k in range(k0, k0 + draw(st.integers(2, 8)))]
    values = chain[:1]
    for p, v in zip(chain, chain[1:]):
        how = draw(st.sampled_from(["keep", "replace", "after-near", "after-unrelated",
                                    "after-product"]))
        if how == "replace":
            values.append(draw(near(v) | st.sampled_from([p // 10**3, p * p])))
            continue
        if how == "after-near":
            values.append(draw(near(p)))
        elif how == "after-unrelated":
            digits = certs._CHAINED_DIGITS
            values.append(draw(st.integers(10**digits, 10 ** (2 * digits))))
        elif how == "after-product":
            m = draw(near(v))
            values += [m, m * b]
        values.append(v)
    return values


def int_types(value):
    """The types of the ints in a loaded JSON value, bools aside."""
    if isinstance(value, list):
        return [kind for item in value for kind in int_types(item)]
    if isinstance(value, dict):
        return int_types(list(value.values()))
    return [type(value)] if isinstance(value, int) and not isinstance(value, bool) else []


@settings(max_examples=400)
@given(json_values | near_chains())
# Terms of 19,995 digits that do not chain: read by the split kernel.
@example([3, 7**23_660])
@example([-(7**23_660), 7**23_660 + 1])
def test_chained_reader_matches_json_loads(value):
    with no_int_digit_limit():
        text = cli._json_text(value)
        loaded = json.loads(text, parse_int=certs._chained_int_reader({}))
        # In a list, as a NaN equals itself only as the same object.
        assert [loaded] == [json.loads(text)]
    assert set(int_types(loaded)) <= {int}


def test_chained_reader_reads_squarepow_multipliers_as_products(monkeypatch):
    # Of the 64 terms 12^(k^2), those past the digit bound are read by `int`
    # only at the first: each later one is its predecessor's product.
    n = cli._multipliers({"n-kind": "squarepow:12"}, 64)
    long_reads = []

    def counting_int(text):
        if len(text) > certs._CHAINED_DIGITS:
            long_reads.append(text)
        return int(text)

    with no_int_digit_limit():
        texts, text = [str(v) for v in n], cli._json_text(n)
        monkeypatch.setattr(certs, "int", counting_int, raising=False)
        assert json.loads(text, parse_int=certs._chained_int_reader({})) == list(n)
    long_texts = [text for text in texts if len(text) > certs._CHAINED_DIGITS]
    assert len(long_texts) > 30 and long_reads == long_texts[:1]


# --- the read's proofs in the residue chain --------------------------------------

# Makes every term of a chained list long enough for the reader, keeping its quotients.
LONG = 7**1100


@st.composite
def edited_chains(draw):
    """The positive terms of a `chained_int_lists` list times `LONG`, with
    one edit the reader must not misread: a term replaced by the text of
    prev*q +- 1, a term repeated (q = 1), an unchained long term or a short
    term put mid-list, or a term negated."""
    values = [v * LONG for v in draw(chained_int_lists()) if type(v) is int and v > 0] or [LONG]
    i = draw(st.integers(0, len(values) - 1))
    edit = draw(st.sampled_from(["none", "tamper", "repeat", "unchained", "short", "negate"]))
    if edit == "tamper":
        values[i] += draw(st.sampled_from([-1, 1]))
    elif edit == "repeat":
        values.insert(i, values[i])
    elif edit == "unchained":
        values.insert(i, draw(st.integers(10**certs._CHAINED_DIGITS, LONG)))
    elif edit == "short":
        values.insert(i, draw(st.integers(1, 10**6)))
    elif edit == "negate":
        values[i] = -values[i]
    return values


# A ratio every list of the edited chains grows by, so that each reaches the recount.
SLOW = "1/1" + "0" * 6000


def stated_claims(kind: str, inputs: dict) -> list:
    """The claims a plain read of the inputs implies, so that a verify that
    recounts otherwise fails by name; none for inputs the read refuses."""
    try:
        typed = certs._INPUTS[kind].parse(inputs)
    except certs._Refused:
        return []
    expected = certs._CHECKERS[kind](typed, {}, {})[1]
    return [] if expected is None else [{"id": cid, **claim} for cid, claim in expected.items()]


@settings(max_examples=300, deadline=None)
@given(edited_chains(), st.sampled_from(["histogram", "hitfreq"]),
       st.integers(1, 10**40), st.integers(2, 10**40), st.integers(1, 4))
def test_a_certificate_read_from_text_verifies_as_its_plain_parse(values, kind, p, q, cells):
    if kind == "histogram":
        side = math.isqrt(len(values))
        inputs = {"alpha": f"{p}/{q}", "multipliers": values[len(values) - side * side:],
                  "weights": [1] * cells, "eta": "1/10", "base": side}
    else:
        inputs = {"alpha": f"{p}/{q}", "multipliers": values,
                  "interval": {"left": "1/3", "right": "2/3", "wraps": False}, "ratio": SLOW,
                  "plan": {"u": 2, "c": 1, "repeats": 1}, "forced_positions": [1, 2]}
    with no_int_digit_limit():
        cert = {"format": certs.FORMAT, "kind": kind, "inputs": inputs,
                "claims": stated_claims(kind, copy.deepcopy(inputs))}
        text = cli._json_text(cert)
        read = certs._read_certificate(text)
        assert certs.verify_certificate(read) == certs.verify_certificate(json.loads(text))


def test_a_proof_steps_the_residue_only_from_the_entry_it_names():
    # The reader proves the third term 3 times the first, across the short
    # second term: its residue is 3 times the first's, not the second's.
    values, proofs = [LONG, 5, 3 * LONG], {}
    with no_int_digit_limit():
        read = json.loads(cli._json_text(values), parse_int=certs._chained_int_reader(proofs))
    assert read == values and list(proofs.values()) == [(read[2], read[0], 3)]
    q = 10**6 + 3
    assert list(certs._chained_residues(read, 1, q, proofs)) == [n % q for n in values]


def test_proved_terms_step_the_residue_chain_with_no_division(monkeypatch):
    # Of the 64 terms 12^(k^2), every one past the digit bound but the first
    # is proved its predecessor's product, and only the others divide.
    n = cli._multipliers({"n-kind": "squarepow:12"}, 64)
    with no_int_digit_limit():
        cert = certs._read_certificate(cli._json_text({"multipliers": n}))
        long_terms = [v for v in n if len(str(v)) > certs._CHAINED_DIGITS]
    read, divisions = cert["multipliers"], []
    monkeypatch.setattr(certs, "divmod", lambda a, b: divisions.append(a) or divmod(a, b),
                        raising=False)
    p, q = 1, 2**127 - 1
    assert list(certs._chained_residues(read, p, q, cert.proofs)) == [v % q for v in n]
    assert len(cert.proofs) == len(long_terms) - 1 > 30
    assert divisions == read[:len(n) - len(cert.proofs)]


# --- digit strings as bytes ------------------------------------------------------

DIGIT_FIELDS = {"gaps": certs._INPUTS["avoid"].fields["gaps"],
                "digits": certs._INPUTS["zeroblock"].fields["digits"]}


@pytest.mark.parametrize("name", DIGIT_FIELDS)
@given(data=st.data())
def test_digits_survive_emit_then_parse(name, data):
    field = DIGIT_FIELDS[name]
    digits = bytes(data.draw(st.lists(st.integers(0, len(field.alphabet) - 1), max_size=40)))
    text = field.emit(digits)
    assert text == "".join(map(str, digits))
    assert field.parse(text) == digits


@pytest.mark.parametrize("name", DIGIT_FIELDS)
def test_empty_digit_string_survives(name):
    field = DIGIT_FIELDS[name]
    assert field.emit(b"") == ""
    assert field.parse("") == b""


@pytest.mark.parametrize("kind,field,bad", [
    ("zeroblock", "digits", "2"), ("zeroblock", "digits", "٣"), ("zeroblock", "digits", "\ud800"),
    ("avoid", "gaps", "a"), ("avoid", "gaps", "٣"), ("avoid", "gaps", "²"),
])
def test_digit_outside_the_alphabet_fails_by_name(kind, field, bad):
    cert = copy.deepcopy(CERTS[kind])
    text = cert["inputs"][field]
    cert["inputs"][field] = text[:-1] + bad
    alphabet = DIGIT_FIELDS[field].alphabet
    assert certs.verify_certificate(cert).failures == (
        f"inputs.{field}: holds a character other than the digits {alphabet}",)


# --- envelope inputs in integers -------------------------------------------------


def envelope():
    return copy.deepcopy(CERTS["envelope"])


def test_atom_locations_equal_after_reduction_fail():
    cert = envelope()
    cert["inputs"]["pi"] = [["1/2", "1/2"], ["2/4", "1/2"]]
    assert certs.verify_certificate(cert).failures == (
        "inputs.pi: atom locations must be sorted and distinct",)


@pytest.mark.parametrize("field,values", [
    ("mu", ["6/10", "4/10"]), ("mu", ["0.6", "2/5"]), ("lambda", ["2/4", "3/6"]),
])
def test_masses_summing_to_one_after_reduction_pass(field, values):
    cert = envelope()
    cert["inputs"][field] = values
    assert certs.verify_certificate(cert).ok


def scaled(value, k: int):
    """Every "p/q" string inside `value` written as "kp/kq"."""
    if isinstance(value, list):
        return [scaled(v, k) for v in value]
    p, q = parse_ratio(value)
    return f"{k * p}/{k * q}"


@pytest.mark.parametrize("name", ["envelope", "envelope-violating"])
def test_unreduced_envelope_inputs_recompute_the_same_claim(name):
    """Unreduced masses, weights, locations and tol give the claim that the
    reduced ones do, the violating union's rationals included."""
    cert = copy.deepcopy(CERTS[name])
    for k, field in zip((3, 5, 7, 11), ("mu", "lambda", "pi", "tol")):
        cert["inputs"][field] = scaled(cert["inputs"][field], k)
    assert certs.verify_certificate(cert) == certs.VerificationResult(True, ())


def test_lambda_length_follows_the_entry_count_of_mu():
    cert = envelope()
    cert["inputs"]["lambda"] = ["1/3", "1/3", "1/3"]
    assert certs.verify_certificate(cert).failures == (
        "inputs.lambda: has 3 entries, not len(mu) = 2",)


# --- one-pass list reads ---------------------------------------------------------


def entry_by_entry(field):
    slow = copy.copy(field)
    slow.read_plain = None
    return slow


def one_value(field):
    """The field's read with every list read entry by entry: for pi, its
    list of pairs and each pair."""
    if isinstance(field, certs._Atoms):
        each = copy.copy(field.each)
        each.item = entry_by_entry(field.pair)
        return each.parse
    return entry_by_entry(field).parse


def read(parse, value):
    """What `parse` reads (by repr, so that types count), or its refusal's
    path and reason, or the text of another ValueError."""
    try:
        got = parse(value)
    except certs._Refused as exc:
        return ("refused", exc.path, exc.reason)
    except ValueError as exc:
        return ("error", str(exc))
    return ("value", repr(got))


def variants(text: str):
    """JSON values for a "p/q" text, half of them near the plain form: a
    plain text of another value (0, 1, past 1), texts with a leading zero, a
    zero denominator, a second slash or a comma; the others with a sign, a
    space, a decimal point, no slash or Unicode digits, and values of other
    JSON types."""
    p, q = text.split("/")
    near = [text, "0/1", "1/1", f"{int(p) + int(q)}/{q}", f"{p}/{q}0", f"0{p}/{q}", f"{p}/0{q}",
            f"{p}/0", f"{text}/3", f"{text},{text}", f"{text},"]
    other = [f"+{text}", f"-{text}", f" {text}", f"{text}\n", f"{p}.5", p, "٣/٤", "",
             int(p), float(p), None, True, [text], {"p": text}]
    return st.sampled_from(near) | st.sampled_from(other)


@st.composite
def ratio_texts(draw, pairs, edits: int = 2):
    """The "p/q" texts of `pairs`, each scaled by a drawn factor, with up to
    `edits` entries replaced by one of their variants."""
    texts = [f"{p * k}/{q * k}" for (p, q), k in zip(pairs, draw(st.lists(
        st.sampled_from([1, 1, 2, 3, 10]), min_size=len(pairs), max_size=len(pairs))))]
    for i in draw(st.lists(st.integers(0, len(texts) - 1), max_size=edits, unique=True)):
        texts[i] = draw(variants(texts[i]))
    return texts


@st.composite
def masses(draw):
    """Texts of masses summing to 1 over a drawn total, some then edited."""
    counts = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12))
    counts[0] += not any(counts)
    return draw(ratio_texts([(c, sum(counts)) for c in counts]))


@st.composite
def cuts(draw):
    """Texts of cuts from 0 to 1 on a drawn grid, some then edited."""
    den = draw(st.integers(1, 64))
    inner = draw(st.lists(st.integers(1, den), unique=True, max_size=10)) if den > 1 else []
    return draw(ratio_texts([(k, den) for k in [0, *sorted(inner), den]]))


@st.composite
def atoms(draw):
    """pi's atoms: sorted distinct locations with positive weights summing
    to 1, some texts edited, then perhaps two atoms out of order, an atom
    that is not a pair, a location past 1 or a weight of 0."""
    den = draw(st.integers(1, 40))
    spots = sorted(draw(st.lists(st.integers(0, den), min_size=1, max_size=10, unique=True)))
    counts = draw(st.lists(st.integers(1, 9), min_size=len(spots), max_size=len(spots)))
    flat = draw(ratio_texts([pair for k, c in zip(spots, counts)
                             for pair in ((k, den), (c, sum(counts)))], edits=1))
    value = [flat[i:i + 2] for i in range(0, len(flat), 2)]
    edit = draw(st.sampled_from(["none", "none", "swap", "triple", "single", "flat",
                                 "past-one", "zero-weight", "zero-weight-atom"]))
    if edit == "swap" and len(value) > 1:
        i = draw(st.integers(0, len(value) - 2))
        value[i], value[i + 1] = value[i + 1], value[i]
    elif edit == "triple":
        value[-1] = [*value[-1], "1/2"]
    elif edit == "single":
        value[0] = value[0][:1]
    elif edit == "flat":
        value[0] = value[0][0]
    elif edit == "past-one":
        value[-1][0] = f"{den + 1}/{den}"
    elif edit == "zero-weight":
        value[0][1] = "0/1"
    elif edit == "zero-weight-atom" and spots[-1] < den:  # the weights still sum to 1
        value.append([f"{den + 1}/{den + 1}", "0/1"])
    elif edit == "zero-weight-atom" and spots[0] > 0:
        value.insert(0, [f"0/{den}", "0/1"])
    return value


positives = st.lists(st.integers(1, 10**30) | st.sampled_from(
    [0, -1, True, False, 1.0, "1", None, [1], Int(3)]), max_size=12)

LIST_FIELDS = {
    f"{kind}.{name}": (certs._INPUTS[kind].fields[name], values)
    for kind, name, values in [("envelope", "mu", masses()), ("envelope", "pi", atoms()),
                               ("invariance", "cuts", cuts()),
                               ("hitfreq", "multipliers", positives),
                               ("mixing", "multipliers", positives)]
}


@settings(max_examples=2000)
@given(st.data())
def test_one_pass_list_reads_match_the_one_value_read(data):
    """The one-pass read gives the typed value the one-value read gives, or
    the same first refusal with its path: what it cannot read is left to
    the one-value read."""
    field, values = LIST_FIELDS[data.draw(st.sampled_from(sorted(LIST_FIELDS)))]
    value = data.draw(values)
    assert read(field.parse, value) == read(one_value(field), value)


@pytest.mark.parametrize("name,value", [
    ("envelope.mu", ["1/4", "3/4"]), ("envelope.mu", ["0/5", "10/10"]),
    ("envelope.pi", [["0/1", "1/3"], ["1/2", "2/3"]]), ("envelope.pi", [["1/1", "1/1"]]),
    ("invariance.cuts", ["0/1", "1/3", "1/1"]), ("hitfreq.multipliers", [1, 2, 10**40]),
])
def test_plain_lists_take_the_one_pass_read(name, value):
    field = LIST_FIELDS[name][0]
    plain = field.plain_atoms if isinstance(field, certs._Atoms) else field.read_plain
    assert plain(value) is not None
    assert read(field.parse, value) == read(one_value(field), value)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str limit")
@pytest.mark.parametrize("name,value", [
    ("envelope.mu", [f"1{'0' * 5000}/1{'0' * 5000}"]),
    ("envelope.mu", ["2/1", f"1/1{'0' * 5000}"]),
    ("envelope.pi", [["1/2", f"1{'0' * 5000}/1{'0' * 5000}"]]),
    ("invariance.cuts", ["0/1", f"1/1{'0' * 5000}", "1/1"]),
])
def test_over_limit_digits_read_alike_under_the_default_limit(name, value):
    """A library caller that has not lifted the int/str limit gets `int`'s
    error, or the refusal of an entry before it, from both reads."""
    field = LIST_FIELDS[name][0]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        want = read(one_value(field), value)
        assert read(field.parse, value) == want
    finally:
        sys.set_int_max_str_digits(limit)
    assert want[0] in ("error", "refused")


@settings(max_examples=500)
@given(cuts(), st.integers(1, 10**6))
def test_cuts_read_as_a_cell_partition_reads_them(texts, q):
    """The verifier reads cuts into integers over their lcm D with the
    refusals of `CellPartition`, and its thresholds ceil(c*q/D) and its
    dyadic test (D a power of 2) agree with the partition's."""
    field = certs._INPUTS["invariance"].fields["cuts"]
    try:
        points = [parse_rational(text) for text in texts]
    except (RationalParseError, TypeError):
        return
    try:
        partition = CellPartition(points)
    except ValueError as exc:
        assert read(field.parse, texts) == ("refused", "", str(exc))
        return
    nums, den = field.parse(texts)
    assert [-(-c * q // den) for c in nums] == list(partition.thresholds(q))
    assert (den & (den - 1) == 0) is partition.is_dyadic()
