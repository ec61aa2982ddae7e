"""Span tracing of the maldist layers from outside the package.

`Tracer.install()` wraps the public functions of every layer (the names in
each module's `__all__`) plus a few methods the counters need, by rebinding
them in every loaded maldist module that holds them, so calls made through
`from .x import name` are caught as well.  Nothing under src/ changes.

Each wrapped call records a span (name, start, end, parent span, job id) in
flat arrays kept in memory and written out by `write()`.  A layer's self time
is the time of its spans minus the time their direct child spans cover.  A
name that no longer exists is skipped and listed in the trace output, so
removing a function from the program does not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "certificates", "witness", "doubling", "subspace", "envelope",
          "empirical", "torus", "exact", "rng")

# Methods and functions outside `__all__` that a counter needs.
EXTRA = ("cli.main", "empirical.CellPartition.cell_index", "rng.SplitMix64.next_u64")


def _envelope_dominates(c, args, kwargs, result):
    if kwargs.get("mode", "exhaustive") != "exhaustive":
        return
    if getattr(result, "exhaustive", True):
        c["envelope.unions_visited"] += result.unions_checked
        c["envelope.unions_in_lattice"] += 2 ** args[0].size - 1
    else:
        c["envelope.sampled_checks"] += result.unions_checked


def _greedy_extension(c, args, kwargs, result):
    spec = args[1]
    for entry in result.trace:
        b, m = spec.b(entry.block), len(entry.chosen)
        c["subspace.blocks"] += 1
        c["subspace.picks"] += m
        # Pick r of a block scans the b - r indices still in its pool.
        c["subspace.pool_scans"] += m * b - m * (m - 1) // 2


def _verify_certificate(c, args, kwargs, result):
    claims = args[0].get("claims") if isinstance(args[0], dict) else None
    c["certificates.claims_checked"] += len(claims) if isinstance(claims, list) else 0
    c["certificates.verify_failures"] += len(result.failures)


def _format_rational(c, args, kwargs, result):
    x = args[0]
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
    if bits > c["exact.max_bits"]:
        c["exact.max_bits"] = bits


def _add(key, value):
    def hook(c, args, kwargs, result):
        c[key] += value(args, result)
    return hook


HOOKS = {
    "envelope.F_pi_eval": _add("envelope.F_evals", lambda a, r: 1),
    "envelope.envelope_dominates": _envelope_dominates,
    "empirical.CellPartition.cell_index": _add("empirical.cell_lookups", lambda a, r: 1),
    "empirical.star_discrepancy": _add("empirical.sorted_points", lambda a, r: len(a[0])),
    "subspace.greedy_extension": _greedy_extension,
    "witness.mixing_chain": _add("witness.chain_steps", lambda a, r: len(a[0].multipliers)),
    "doubling.doubling_orbit": _add("doubling.orbit_steps", lambda a, r: a[1]),
    "doubling.five_sixth_check": _add("doubling.orbit_steps", lambda a, r: a[1]),
    "doubling.zero_block_density": _add("doubling.orbit_steps", lambda a, r: a[1][-1]),
    "doubling.doubling_period": _add("doubling.orbit_steps", lambda a, r: sum(r)),
    "torus.mul_mod1": _add("torus.mul_mod1_calls", lambda a, r: 1),
    "exact.format_rational": _format_rational,
    "certificates.verify_certificate": _verify_certificate,
    "rng.SplitMix64.next_u64": _add("rng.draws", lambda a, r: 1),
    "cli.main": _add("cli.errors", lambda a, r: r == 2),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.job_id = -1
        self.counters: Counter = Counter()
        self.wrapped: list[str] = []
        self.skipped: list[str] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"maldist.{layer}") for layer in LAYERS}
        targets = []
        for layer, mod in modules.items():
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if obj is None:
                    self.skipped.append(f"{layer}.{name}")
                elif inspect.isfunction(obj):
                    targets.append((f"{layer}.{name}", mod, name))
        for qual in EXTRA:
            layer, *path = qual.split(".")
            owner = modules[layer]
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            if owner is None or not inspect.isfunction(getattr(owner, path[-1], None)):
                self.skipped.append(qual)
            else:
                targets.append((qual, owner, path[-1]))
        self.skipped += [q for q in HOOKS if q not in {t[0] for t in targets}]
        self.skipped = sorted(set(self.skipped))
        loaded = [*modules.values(), importlib.import_module("maldist")]
        for qual, owner, attr in targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(qual, original, HOOKS.get(qual))
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        self.wrapped = sorted(qual for qual, _, _ in targets)

    def _wrap(self, qual: str, fn, hook):
        nid = len(self.names)
        self.names.append(qual)
        name_id, parent, job, start, end = self.name_id, self.parent, self.job, self.start, self.end
        stack, counters, clock = self.stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(counters, args, kwargs, result)
                except Exception:  # a counter must never change the program's result
                    counters["trace.hook_errors"] += 1
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus direct children's durations."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: Counter = Counter()
        for i in range(n):
            out[self.names[self.name_id[i]]] += end[i] - start[i] - child[i]
        return dict(out)

    def write(self, directory: Path, summary: dict) -> None:
        """spans.bin holds the arrays name_id, parent, job (int32) then start,
        end (float64), each with `spans` entries; trace.json names the ids."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "spans.bin", "wb") as fh:
            for arr in (self.name_id, self.parent, self.job, self.start, self.end):
                arr.tofile(fh)
        meta = {
            "spans": len(self.start),
            "layout": ["name_id:i4", "parent:i4", "job:i4", "start:f8", "end:f8"],
            "names": self.names,
            "wrapped": self.wrapped,
            "skipped": self.skipped,
            "counters": dict(self.counters),
            **summary,
        }
        with open(directory / "trace.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)
