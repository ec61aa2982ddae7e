"""Self-contained certificates for every construction, and their independent
re-verification.

A certificate echoes its inputs exactly (rationals as "p/q" strings, integer
sequences verbatim) and lists claims with the exact values the construction
computed.  `verify_certificate` recomputes from the echoed inputs alone the
whole claims they imply, through the primitive operations (modular
arithmetic, interval membership, direct counting) rather than the
construction code, and compares them with the stated claims field by field;
each difference names its claim and field.  Certificates therefore stay
checkable long after the run that produced them.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate
from math import lcm
from typing import TYPE_CHECKING, Sequence

from .empirical import CellPartition, MeasureVector, Residues, star_discrepancy
from .exact import (
    binary_digits,
    format_ratio,
    format_rational,
    mod1,
    over_lcm,
    parse_rational,
)
from .torus import TorusInterval, interval_contains_interval, mul_mod1

if TYPE_CHECKING:  # builders' argument types; the verifiers re-derive without them
    from .doubling import BinaryPoint, OrbitHitReport, WindowDensity
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


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failures: tuple[str, ...]


def certificate_ok(cert: dict) -> bool:
    """True iff every claim in the certificate carries verdict true."""
    return all(bool(c.get("verdict")) for c in cert.get("claims", []))


# ---------------------------------------------------------------------------
# builders


def _base(kind: str, inputs: dict, claims: list[dict], margins: dict | None = None) -> dict:
    cert = {"format": FORMAT, "kind": kind, "inputs": inputs, "claims": claims}
    if margins:
        cert["margins"] = margins
    return cert


def mixing_certificate(chain: MixingChain) -> dict:
    cfg = chain.config
    inputs = {
        "multipliers": list(cfg.multipliers),
        "eps": _fr(cfg.eps),
        "delta": _fr(cfg.delta),
        "start": cfg.start.to_json(),
        "targets": [t.to_json() for t in cfg.targets],
        "intervals": [iv.to_json() for iv in chain.intervals],
    }
    alpha = chain.alpha
    claims = [
        {
            "id": "alpha-in-start",
            "kind": "point-in-interval",
            "multiplier": 1,
            "alpha": _fr(alpha),
            "interval": cfg.start.to_json(),
            "value": _fr(alpha),
            "verdict": cfg.start.contains(alpha),
        }
    ]
    for k, (n_k, target) in enumerate(zip(cfg.multipliers, cfg.targets), start=1):
        value = mul_mod1(n_k, alpha)
        claims.append(
            {
                "id": f"containment-{k}",
                "kind": "point-in-interval",
                "multiplier": n_k,
                "alpha": _fr(alpha),
                "interval": target.to_json(),
                "value": _fr(value),
                "verdict": target.contains(value),
            }
        )
        claims.append(
            {
                "id": f"length-{k}",
                "kind": "interval-length",
                "interval": chain.intervals[k].to_json(),
                "length": _fr(cfg.eps / n_k),
                "verdict": chain.intervals[k].length == cfg.eps / n_k,
            }
        )
        claims.append(
            {
                "id": f"nesting-{k}",
                "kind": "interval-nested",
                "outer": chain.intervals[k - 1].to_json(),
                "inner": chain.intervals[k].to_json(),
                "verdict": interval_contains_interval(
                    chain.intervals[k - 1], chain.intervals[k]
                ),
            }
        )
    margins = {}
    if chain.intervals:
        last = chain.intervals[-1]
        margins["witness_interval_radius"] = _fr(last.length / 2)
    return _base("mixing", {"alpha": _fr(alpha), **inputs}, claims, margins)


def hitfreq_certificate(witness: HitFrequencyWitness, multipliers: Sequence[int]) -> dict:
    plan = witness.plan
    horizon = witness.horizon
    inputs = {
        "alpha": _fr(witness.alpha),
        "multipliers": [int(v) for v in multipliers[:horizon]],
        "interval": witness.interval.to_json(),
        "ratio": _fr(plan.ratio),
        "plan": {"u": plan.u, "c": plan.c, "repeats": plan.repeats},
        "forced_positions": list(witness.forced_positions),
    }
    eps = witness.interval.length
    q, u, c = plan.ratio, plan.u, plan.c
    claims = []
    for p in witness.forced_positions:
        n_p = int(multipliers[p - 1])
        value = mul_mod1(n_p, witness.alpha)
        claims.append(
            {
                "id": f"containment-{p}",
                "kind": "point-in-interval",
                "multiplier": n_p,
                "alpha": _fr(witness.alpha),
                "interval": witness.interval.to_json(),
                "value": _fr(value),
                "verdict": witness.interval.contains(value),
            }
        )
    claims.append(
        {
            "id": "hit-frequency",
            "kind": "hit-count-frequency",
            "count": witness.hit_count,
            "horizon": horizon,
            "threshold": _fr(witness.threshold),
            "verdict": witness.frequency > witness.threshold,
        }
    )
    claims.append(
        {
            "id": "plan-quality",
            "kind": "rational-power-gt",
            "statement": "ratio^(u-2) > 2",
            "lhs": _fr(q ** (u - 2)),
            "rhs": "2/1",
            "verdict": q ** (u - 2) > 2,
        }
    )
    claims.append(
        {
            "id": "plan-stride-low",
            "kind": "rational-power-gt",
            "statement": "ratio^c > 2/eps",
            "lhs": _fr(q**c),
            "rhs": _fr(2 / eps),
            "verdict": q**c > 2 / eps,
        }
    )
    # Exact form of: 1/(2c) exceeds 2*quality / log_ratio(1/eps).
    claims.append(
        {
            "id": "threshold-vs-quality",
            "kind": "rational-power-lt",
            "statement": "ratio^c * eps^u < 1",
            "lhs": _fr(q**c * eps**u),
            "rhs": "1/1",
            "verdict": q**c * eps**u < 1,
        }
    )
    margins = {
        "frequency": _fr(witness.frequency),
        "frequency_margin": _fr(witness.frequency - witness.threshold),
    }
    return _base("hitfreq", inputs, claims, margins)


def histogram_certificate(witness: HistogramWitness, multipliers: Sequence[int]) -> dict:
    t = witness.target
    inputs = {
        "alpha": _fr(witness.alpha),
        "multipliers": [int(v) for v in multipliers[: witness.horizon]],
        "weights": list(t.weights),
        "eta": _fr(t.eta),
        "base": witness.base,
    }
    claims = []
    for i, (count, dev) in enumerate(zip(witness.counts, witness.deviations)):
        claims.append(
            {
                "id": f"cell-{i}",
                "kind": "cell-frequency-within",
                "cell": i,
                "count": count,
                "horizon": witness.horizon,
                "target": _fr(Fraction(t.weights[i], t.total)),
                "eta": _fr(t.eta),
                "verdict": abs(dev) < t.eta,
            }
        )
    margins = {"max_cell_deviation": _fr(max(abs(d) for d in witness.deviations))}
    return _base("histogram", inputs, claims, margins)


def avoidance_certificate(result: AvoidanceResult, discrepancy_floor: Fraction | None = None) -> dict:
    inputs = {
        "alpha": _fr(result.alpha),
        "eps": _fr(result.eps),
        "prefix": list(result.indices[: result.prefix_length]),
        "gaps": "".join(str(g) for g in result.gaps[result.prefix_length - 1 :]),
        "horizon": len(result.indices),
    }
    claims = [
        {
            "id": "gap-structure",
            "kind": "gaps-in-one-two",
            "verdict": all(g in (1, 2) for g in result.gaps),
        },
        {
            "id": "zero-hits",
            "kind": "orbit-avoids-interval",
            "hits": result.hits_after_prefix,
            "verdict": result.hits_after_prefix == 0,
        },
    ]
    margins = {}
    if discrepancy_floor is not None:
        p, q = result.alpha.numerator, result.alpha.denominator
        disc = star_discrepancy(Residues([n * p % q for n in result.indices], q))
        claims.append(
            {
                "id": "star-discrepancy-floor",
                "kind": "star-discrepancy-at-least",
                "value": _fr(disc),
                "floor": _fr(discrepancy_floor),
                "verdict": disc >= discrepancy_floor,
            }
        )
        margins["star_discrepancy"] = _fr(disc)
    return _base("avoid", inputs, claims, margins)


def zeroblock_certificate(
    point: BinaryPoint,
    base: Fraction,
    starts: Sequence[int],
    windows: Sequence[WindowDensity] = (),
) -> dict:
    inputs = {
        "base": _fr(Fraction(base)),
        "block_starts": [int(j) for j in starts],
        "digits": "".join(str(d) for d in point.digits),
    }
    half, three_q = Fraction(1, 2), Fraction(3, 4)
    zeroed_ok = all(
        all(point.digits[pos - 1] == 0 for pos in range(j, j * j + 1))
        for j in starts
    )
    claims = [
        {
            "id": "value-in-band",
            "kind": "point-in-interval",
            "multiplier": 1,
            "alpha": _fr(point.value),
            "interval": TorusInterval(half, three_q).to_json(),
            "value": _fr(point.value),
            "verdict": half < point.value < three_q,
        },
        {
            "id": "blocks-zeroed",
            "kind": "digit-blocks-zero",
            "verdict": zeroed_ok,
        },
    ]
    for w in windows:
        claims.append(
            {
                "id": f"window-{w.window_end}",
                "kind": "window-density",
                "end": w.window_end,
                "hits": w.hits,
                "density": _fr(w.density),
                "verdict": True,
            }
        )
    return _base("zeroblock", inputs, claims)


def fivesixth_certificate(report: OrbitHitReport, alpha: Fraction) -> dict:
    inputs = {"alpha": _fr(Fraction(alpha)), "horizon": report.horizon}
    claims = [
        {
            "id": "hit-count",
            "kind": "widened-interval-hits",
            "hits": report.hits,
            "minus_hits": report.minus_hits,
            "plus_hits": report.plus_hits,
            "verdict": True,
        },
        {
            "id": "density-bound",
            "kind": "density-at-most",
            "density": _fr(report.density),
            "bound": _fr(report.density_bound),
            "verdict": report.bound_ok,
        },
        {
            "id": "spacing",
            "kind": "hit-spacing",
            "verdict": report.spacing_ok,
        },
    ]
    margins = {"density_margin": _fr(report.density_bound - report.density)}
    return _base("fivesixth", inputs, claims, margins)


def invariance_certificate(
    alpha: Fraction, steps: int, partition: CellPartition, defect: Fraction
) -> dict:
    inputs = {
        "alpha": _fr(Fraction(alpha)),
        "steps": steps,
        "cuts": [_fr(t) for t in partition.cuts],
    }
    claims = [
        {
            "id": "invariance-defect",
            "kind": "invariance-defect-equals",
            "defect": _fr(defect),
            "verdict": True,
        },
        {
            "id": "defect-bound",
            "kind": "defect-at-most",
            "defect": _fr(defect),
            "bound": _fr(Fraction(2, steps)),
            "verdict": defect <= Fraction(2, steps),
        },
    ]
    return _base("invariance", inputs, claims)


def envelope_certificate(
    mu: MeasureVector,
    lam: MeasureVector,
    pi: RatioMeasure,
    result: DominationResult,
    tol: Fraction = Fraction(0),
) -> dict:
    inputs = {
        "mu": [_fr(m) for m in mu.masses],
        "lambda": [_fr(m) for m in lam.masses],
        "pi": pi.to_json(),
        "tol": _fr(tol),
    }
    claim = {
        "id": "domination",
        "kind": "envelope-domination",
        "verdict": result.ok,
    }
    if not result.ok:
        claim["violation"] = list(result.violation)
        claim["union_mass"] = _fr(result.union_mass)
        claim["bound"] = _fr(result.bound)
    return _base("envelope", inputs, claims=[claim])


# ---------------------------------------------------------------------------
# verification


def verify_certificate(cert: object) -> VerificationResult:
    """Recompute the claims a certificate's echoed inputs imply and compare
    them with the stated claims, field by field; report every difference.

    Any parsed JSON value is accepted: one that is not an object, has no
    kind, or names an unknown format or kind fails with a named error.  Each
    kind's checker reads the echoed inputs alone and returns the whole
    claims they imply, keyed by id: every required id with its claim kind,
    and the ids of the optional families (`avoid`'s `star-discrepancy-floor`,
    `zeroblock`'s `window-N`) that the certificate states.  The failures
    come in this order: the claim set (a missing, duplicated, unknown or
    relabelled id, so a certificate cannot pass by leaving a claim out),
    then the checker's failures of the inputs themselves, then one
    `"{id}: {field} is {stated!r}, recomputed {expected!r}"` per field that
    differs, a field absent on one side reading None.  Inputs a checker
    refuses outright (a chain or digit string of the wrong length, say) give
    that failure alone.  A verdict stated false that recomputes false is no
    failure: `certificate_ok` reads it.  `margins` are informational and not
    checked."""
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
    stated: dict[str, dict] = {}
    for claim in claims:
        if isinstance(claim.get("id"), str):
            stated.setdefault(claim["id"], claim)
    try:
        input_failures, expected = checker(cert["inputs"], stated)
    except Exception as exc:  # malformed inputs are verification failures
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


def _point_claim(multiplier: int, alpha: str, interval: dict, value: str, verdict: bool) -> dict:
    return {"kind": "point-in-interval", "multiplier": multiplier, "alpha": alpha,
            "interval": interval, "value": value, "verdict": verdict}


def _verify_mixing(inp: dict, stated: dict):
    alpha = parse_rational(inp["alpha"])
    eps = parse_rational(inp["eps"])
    multipliers = [int(v) for v in inp["multipliers"]]
    targets = [TorusInterval.from_json(t) for t in inp["targets"]]
    intervals = [TorusInterval.from_json(t) for t in inp["intervals"]]
    start = TorusInterval.from_json(inp["start"])
    if len(intervals) != len(multipliers) + 1:
        return ["interval chain length mismatch"], None
    if any(n < 1 for n in multipliers):
        raise ValueError("multiplier must be a positive integer")
    failures = [] if intervals[0] == start else ["inputs.intervals[0] is not the start interval"]
    p, q = alpha.numerator, alpha.denominator
    a = _fr(alpha)
    spans = [iv.to_json() for iv in intervals]
    claims = {"alpha-in-start": _point_claim(1, a, start.to_json(), a, start.contains(alpha))}
    for k, (n, target) in enumerate(zip(multipliers, targets, strict=True), start=1):
        r = n * p % q
        length = eps / n
        claims[f"containment-{k}"] = _point_claim(
            n, a, target.to_json(), format_ratio(r, q), target.contains_residue(r, q))
        claims[f"length-{k}"] = {"kind": "interval-length", "interval": spans[k],
                                 "length": _fr(length), "verdict": intervals[k].length == length}
        claims[f"nesting-{k}"] = {
            "kind": "interval-nested", "outer": spans[k - 1], "inner": spans[k],
            "verdict": interval_contains_interval(intervals[k - 1], intervals[k]),
        }
    return failures, claims


def _chained_residues(multipliers: Sequence[int], p: int, q: int):
    """n * p mod q for each multiplier n in order, chained as r = (n/n_prev)
    * r_prev mod q when the previous multiplier divides n (a small factor
    for geometric growth), else one product n * p mod q."""
    prev, r = 1, p
    for n in multipliers:
        factor, rem = divmod(n, prev)
        r = n * p % q if rem else factor * r % q
        prev = n
        yield r


def _verify_hitfreq(inp: dict, stated: dict):
    alpha = parse_rational(inp["alpha"])
    multipliers = [int(v) for v in inp["multipliers"]]
    interval = TorusInterval.from_json(inp["interval"])
    ratio = parse_rational(inp["ratio"])
    plan = inp["plan"]
    u, c, repeats = int(plan["u"]), int(plan["c"]), int(plan["repeats"])
    positions = [int(v) for v in inp["forced_positions"]]
    eps = interval.length
    horizon = len(multipliers)
    if any(n < 1 for n in multipliers):
        raise ValueError("multiplier must be a positive integer")
    if u < 1 or c < 1 or repeats < 1:
        raise ValueError("u, c and repeats must be positive")
    if not all(1 <= pos <= horizon for pos in positions):
        raise ValueError(f"forced positions must lie in 1..{horizon}")
    failures = [f"growth fails at step {j + 1}" for j in range(horizon - 1)
                if multipliers[j + 1] * ratio.denominator < ratio.numerator * multipliers[j]]
    if positions != list(range(c * repeats, 2 * c * repeats + 1, c)):
        failures.append("forced_positions are not c*repeats .. 2*c*repeats step c")
    p, q = alpha.numerator, alpha.denominator
    a, span = _fr(alpha), interval.to_json()
    claims = {}
    for pos in positions:
        n = multipliers[pos - 1]
        r = n * p % q
        claims[f"containment-{pos}"] = _point_claim(
            n, a, span, format_ratio(r, q), interval.contains_residue(r, q))
    count = sum(interval.contains_residue(r, q) for r in _chained_residues(multipliers, p, q))
    threshold = Fraction(1, 2 * c)
    quality, stride, gap = ratio ** (u - 2), ratio**c, ratio**c * eps**u
    claims["hit-frequency"] = {
        "kind": "hit-count-frequency", "count": count, "horizon": horizon,
        "threshold": _fr(threshold), "verdict": Fraction(count, horizon) > threshold,
    }
    claims["plan-quality"] = {
        "kind": "rational-power-gt", "statement": "ratio^(u-2) > 2",
        "lhs": _fr(quality), "rhs": "2/1", "verdict": quality > 2,
    }
    claims["plan-stride-low"] = {
        "kind": "rational-power-gt", "statement": "ratio^c > 2/eps",
        "lhs": _fr(stride), "rhs": _fr(2 / eps), "verdict": stride > 2 / eps,
    }
    claims["threshold-vs-quality"] = {
        "kind": "rational-power-lt", "statement": "ratio^c * eps^u < 1",
        "lhs": _fr(gap), "rhs": "1/1", "verdict": gap < 1,
    }
    return failures, claims


def _verify_histogram(inp: dict, stated: dict):
    alpha = parse_rational(inp["alpha"])
    multipliers = [int(v) for v in inp["multipliers"]]
    weights = [int(w) for w in inp["weights"]]
    eta = parse_rational(inp["eta"])
    base = int(inp["base"])
    ell, total, horizon = len(weights), sum(weights), len(multipliers)
    if any(n < 1 for n in multipliers):
        raise ValueError("multiplier must be a positive integer")
    failures = []
    if horizon != base * base:
        failures.append(f"inputs.multipliers has {horizon} entries, not base^2 = {base * base}")
    # The cell of n*alpha mod 1 = r/q is r*ell // q.
    p, q = alpha.numerator, alpha.denominator
    counts = [0] * ell
    for r in _chained_residues(multipliers, p, q):
        counts[r * ell // q] += 1
    eta_text = _fr(eta)
    claims = {}
    for i, (count, w) in enumerate(zip(counts, weights)):
        share = Fraction(w, total)
        claims[f"cell-{i}"] = {
            "kind": "cell-frequency-within", "cell": i, "count": count, "horizon": horizon,
            "target": _fr(share), "eta": eta_text,
            "verdict": abs(Fraction(count, horizon) - share) < eta,
        }
    return failures, claims


def _verify_avoid(inp: dict, stated: dict):
    alpha = parse_rational(inp["alpha"])
    eps = parse_rational(inp["eps"])
    prefix = [int(v) for v in inp["prefix"]]
    gaps = [int(ch) for ch in inp["gaps"]]
    indices = list(prefix)
    for g in gaps:
        indices.append(indices[-1] + g)
    if len(indices) != int(inp["horizon"]):
        return ["horizon does not match prefix + gaps"], None
    # n*alpha mod 1 = (n*p mod q)/q, and r/q < eps iff
    # r * eps.denominator < eps.numerator * q.
    p, q = alpha.numerator, alpha.denominator
    hits = sum(
        1 for n in indices[len(prefix) :] if n * p % q * eps.denominator < eps.numerator * q
    )
    gaps_ok = all(g in (1, 2) for g in gaps) and all(
        b - a in (1, 2) for a, b in zip(prefix, prefix[1:])
    )
    claims = {
        "gap-structure": {"kind": "gaps-in-one-two", "verdict": gaps_ok},
        "zero-hits": {"kind": "orbit-avoids-interval", "hits": hits, "verdict": hits == 0},
    }
    if "star-discrepancy-floor" in stated:
        floor = parse_rational(stated["star-discrepancy-floor"].get("floor"))
        disc = star_discrepancy(Residues([n * p % q for n in indices], q))
        claims["star-discrepancy-floor"] = {"kind": "star-discrepancy-at-least",
                                            "value": _fr(disc), "floor": _fr(floor),
                                            "verdict": disc >= floor}
    return [], claims


_WINDOW_ID = re.compile(r"window-([1-9][0-9]*)")


def _verify_zeroblock(inp: dict, stated: dict):
    base = parse_rational(inp["base"])
    starts = [int(j) for j in inp["block_starts"]]
    digits = [int(ch) for ch in inp["digits"]]
    length = max(j * j for j in starts)
    if len(digits) != length:
        return [f"digit string length {len(digits)} != {length}"], None
    want = list(binary_digits(base, length))
    for j in starts:
        for pos in range(j, j * j + 1):
            want[pos - 1] = 0
    failures = [] if want == digits else ["digit string does not match base with zeroed blocks"]
    text = "".join(str(d) for d in digits)
    num, scale = int(text, 2), 1 << length
    value = format_ratio(num, scale)
    band = TorusInterval(Fraction(1, 2), Fraction(3, 4))
    claims = {
        "value-in-band": _point_claim(1, value, band.to_json(), value,
                                      band.contains_residue(num, scale)),
        "blocks-zeroed": {
            "kind": "digit-blocks-zero",
            "verdict": all(digits[pos - 1] == 0 for j in starts for pos in range(j, j * j + 1)),
        },
    }
    ends = {int(m[1]) for m in map(_WINDOW_ID.fullmatch, stated) if m}
    hits = 0
    for k in range(1, max(ends, default=0) + 1):
        # 2^k * value mod 1 is the digit string after its first k digits (0
        # once k >= L, as the expansion is exact), so (2^k + 1) * value mod 1
        # = s/2^L with s below; it lies in (1/2, 3/4) iff 2s > 2^L and
        # 4s < 3 * 2^L.
        s = (int(text[k:] or "0", 2) << k) + num
        if s >= scale:
            s -= scale
        if 2 * s > scale and 4 * s < 3 * scale:
            hits += 1
        if k in ends:
            claims[f"window-{k}"] = {"kind": "window-density", "end": k, "hits": hits,
                                     "density": format_ratio(hits, k), "verdict": True}
    return failures, claims


def _verify_fivesixth(inp: dict, stated: dict):
    alpha = parse_rational(inp["alpha"])
    horizon = int(inp["horizon"])
    if not 0 < alpha < Fraction(1, 16):
        return ["alpha outside (0, 1/16)"], None
    # Independent recount via modular arithmetic on (2^k + 1) * alpha = s/q:
    # s/q lies in I' = (1/2 - alpha/3, 3/4 + alpha/3) iff 6s > 3q - 2p and
    # 12s < 9q + 4p, and a hit is in I- iff (s - p) mod q <= q/2.
    p, q = alpha.numerator, alpha.denominator
    hits = minus = plus = 0
    minus_flags = []
    plus_flags = []
    for k in range(1, horizon + 1):
        s = (pow(2, k, q) + 1) * p % q
        hit = 6 * s > 3 * q - 2 * p and 12 * s < 9 * q + 4 * p
        in_minus = in_plus = False
        if hit:
            hits += 1
            in_minus = 2 * ((s - p) % q) <= q
            in_plus = not in_minus
            minus += in_minus
            plus += in_plus
        minus_flags.append(in_minus)
        plus_flags.append(in_plus)
    spacing_ok = True
    for k in range(horizon):
        if minus_flags[k] and (
            (k + 1 < horizon and minus_flags[k + 1]) or (k + 2 < horizon and minus_flags[k + 2])
        ):
            spacing_ok = False
        if plus_flags[k] and k + 1 < horizon and plus_flags[k + 1]:
            spacing_ok = False
    density, bound = Fraction(hits, horizon), Fraction(5, 6) + Fraction(3, horizon)
    return [], {
        "hit-count": {"kind": "widened-interval-hits", "hits": hits, "minus_hits": minus,
                      "plus_hits": plus, "verdict": True},
        "density-bound": {"kind": "density-at-most", "density": _fr(density),
                          "bound": _fr(bound), "verdict": density <= bound},
        "spacing": {"kind": "hit-spacing", "verdict": spacing_ok},
    }


def _verify_invariance(inp: dict, stated: dict):
    alpha = parse_rational(inp["alpha"])
    steps = int(inp["steps"])
    partition = CellPartition(tuple(parse_rational(t) for t in inp["cuts"]))
    if not partition.is_dyadic():
        return ["invariance-defect: partition cut points must be dyadic rationals"], None
    if steps < 1:
        return ["invariance-defect: steps must be positive"], None
    # Recount along the residues r = 2^k p mod q of the orbit: each point r/q
    # counts +1 in its cell and -1 in the cell of its image 2r/q mod 1.
    v = mod1(alpha)
    r, q = v.numerator, v.denominator
    counts = [0] * partition.size
    for _ in range(steps):
        r = 2 * r % q
        counts[partition.cell_of(r, q)] += 1
        counts[partition.cell_of(2 * r % q, q)] -= 1
    defect = Fraction(max(abs(c) for c in counts), steps)
    bound = Fraction(2, steps)
    return [], {
        "invariance-defect": {"kind": "invariance-defect-equals", "defect": _fr(defect),
                              "verdict": True},
        "defect-bound": {"kind": "defect-at-most", "defect": _fr(defect), "bound": _fr(bound),
                         "verdict": defect <= bound},
    }


def _ratio_atoms(pairs: list) -> tuple[list[Fraction], list[int], int]:
    """The echoed atoms of pi, held to the rules of a ratio measure:
    locations in [0, 1], sorted and distinct, positive weights summing to 1.
    Returns the locations and the weights as integers over their lcm."""
    atoms = [(parse_rational(q), parse_rational(w)) for q, w in pairs]
    if any(not 0 <= q <= 1 for q, _ in atoms):
        raise ValueError("atom locations must lie in [0, 1]")
    if any(w <= 0 for _, w in atoms):
        raise ValueError("atom weights must be positive")
    if any(a >= b for (a, _), (b, _) in zip(atoms, atoms[1:])):
        raise ValueError("atom locations must be sorted and distinct")
    weights, weight_den = over_lcm([w for _, w in atoms])
    if sum(weights) != weight_den:
        raise ValueError("atom weights must sum to exactly 1")
    return [q for q, _ in atoms], weights, weight_den


def _verify_envelope(inp: dict, stated: dict):
    """Re-derive the domination claim in integers from the echoed strings,
    without the construction code.

    mu, lambda and the atom weights become integer numerators over the lcms
    of their denominators, and F is read from integer prefix and suffix
    sums over the atoms.  Every union of cells lies on or under the polygon
    of the prefixes of the cells in decreasing mu/lambda order (zero-lambda
    cells first, ties by index), and the region on or under the concave
    F + tol is convex, so an ok verdict holds iff all s prefixes of that
    order pass.  Otherwise the first violation in pre-order of the subset
    tree is found by descent: child j of a node roots a subtree with a
    violation iff the node's union with j, or that union joined to a prefix
    of the cells after j, violates; so one pass over j = 0..s-1 either
    returns the child's union, descends into it, or moves on to its sibling.
    """
    mu = MeasureVector(tuple(parse_rational(v) for v in inp["mu"])).masses
    lam = MeasureVector(tuple(parse_rational(v) for v in inp["lambda"])).masses
    locs, weights, weight_den = _ratio_atoms(inp["pi"])
    tol = parse_rational(inp["tol"])
    s = len(mu)
    if len(lam) != s:
        raise ValueError("mu, lambda and partition disagree on the cell count")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    mu_num, mu_den = over_lcm(mu)
    lam_num, lam_den = over_lcm(lam)
    keys, key_den = over_lcm(locs)
    h = lcm(*(q.numerator for q in locs if q))
    # Over f_den, an atom q = p/r <= t = l/lam_den adds its weight
    # c/weight_den to F(t), and one above t adds t * c * r/(weight_den * p).
    # The atoms are sorted, so those at or below t come first: F sums the
    # first kind over a prefix of the atoms and the second over the rest.
    f_den = weight_den * h * lam_den
    below = list(accumulate((c * h * lam_den for c in weights), initial=0))
    above = list(accumulate(
        (c * q.denominator * (h // q.numerator) if q else 0
         for q, c in zip(reversed(locs), reversed(weights))),
        initial=0,
    ))[::-1]

    def bound_num(l: int) -> int:
        i = bisect_right(keys, l * key_den // lam_den)
        return below[i] + l * above[i]

    def exceeds(m: int, l: int) -> bool:
        # m/mu_den > bound_num(l)/f_den + tol
        return (m * f_den * tol.denominator
                > (bound_num(l) * tol.denominator + tol.numerator * f_den) * mu_den)

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

    claim = {"kind": "envelope-domination", "verdict": True}
    if prefix_violates(0, 0, -1):
        cells, m, l = [], 0, 0
        for j in range(s):
            m_j, l_j = m + mu_num[j], l + lam_num[j]
            if exceeds(m_j, l_j):
                claim.update(verdict=False, violation=cells + [j],
                             union_mass=format_ratio(m_j, mu_den),
                             bound=format_ratio(bound_num(l_j), f_den))
                break
            if prefix_violates(m_j, l_j, j):
                cells, m, l = cells + [j], m_j, l_j
    return [], {"domination": claim}


# kind -> its checker: (echoed inputs, the stated claims by id) -> (failures
# of the inputs, and the claims they imply by id, or None when the inputs
# are refused outright)
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
