"""maldist benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works in the checkout that holds it, imports the
program from its src/ and writes only under .perfbench/ there.  The jobs run
in this process through `maldist.cli.main(argv)`, one at a time (a closed
loop with one client, no threads or worker processes, `--workers` never
passed).  Every output is checked against perfbench/reference/.

--trace 0 measures the end-to-end metrics: rounds of jobs until at least
100 jobs and S seconds have passed.  --trace 1 runs the seed's first round
twice, untraced and then with every layer wrapped (see tracer.py), and
reports the per-layer metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from harness import BenchError, percentile, run_job  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

TRACE_DIR = Path(".perfbench/trace")


def measure(cli, reference: dict, seed: int, seconds: float) -> tuple[dict, list[str], dict]:
    setup_s, setup_wall_s, spawns = harness.setup_seconds()
    gen = harness.rounds(reference, seed)
    first = next(gen)
    run_job(cli, first[0])  # warm-up, untimed
    scale = harness.SpeedScale()
    jobs, results = [], []
    t0 = time.perf_counter()
    for batch in itertools.islice(itertools.chain([first], gen), harness.round_count(reference, seconds)):
        for job in batch:
            jobs.append(job)
            results.append(run_job(cli, job, scale))
    wall = time.perf_counter() - t0
    # A job that did not complete ranks slower than every completed one.
    slowest = wall * max(scale.factors)
    job_s = [r.job_s if r.completed else slowest for r in results]
    verify_s = [r.verify_s if r.completed else slowest
                for job, r in zip(jobs, results) if job["verifies"]]
    done = sum(r.completed for r in results)
    defects = sum(job["known_defect"] and not r.completed for job, r in zip(jobs, results))
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_s.p50": (percentile(job_s, 0.5), "s"),
        "job_s.p90": (percentile(job_s, 0.9), "s"),
        "verify_s.p50": (percentile(verify_s, 0.5), "s"),
        "verify_s.p90": (percentile(verify_s, 0.9), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (done / len(results), "ratio"),
    }
    def beyond_p90(n: int) -> str:
        return f"n={n}, {n - int(0.9 * (n - 1)) - 1} beyond"

    notes = {
        "setup_s": f"median of {spawns} spawns ({setup_wall_s:.4f} s wall)",
        "job_s.p50": f"n={len(job_s)}",
        "job_s.p90": beyond_p90(len(job_s)),
        "verify_s.p50": f"n={len(verify_s)}",
        "verify_s.p90": beyond_p90(len(verify_s)),
        "peak_rss_mb": "ru_maxrss of this process",
        "ok_ratio": f"{done}/{len(results)} jobs completed",
    }
    lines = [f"{len(results)} jobs in {wall:.2f} s; fail_ratio "
             f"{(len(results) - done) / len(results):.4f} "
             f"({len(results) - done} failed, {defects} of them the known digit-limit defect)",
             f"times in reference seconds: wall time x {harness.PROBE_REF_S} s / probe time;"
             f" median factor {statistics.median(scale.factors):.3f}"]
    lines += [f"{k:14s} {v:12.6f} {u:6s} {notes[k]}" for k, (v, u) in metrics.items()]
    return metrics, lines, _status(jobs, results)


def _status(jobs, results) -> dict:
    bad = [(job, r) for job, r in zip(jobs, results) if r.mismatch]
    for job, r in bad[:5]:
        print(f"mismatch in {r.mismatch}: maldist {' '.join(job['argv'])[:200]}", file=sys.stderr)
    return {"correct": not bad, "attempted": len(results), "failed": len(bad)}


def trace(cli, reference: dict, seed: int, workload: str) -> tuple[dict, list[str], dict]:
    jobs = next(harness.rounds(reference, seed))
    run_job(cli, jobs[0])  # warm-up, untimed
    t0 = time.perf_counter()
    plain = [run_job(cli, job) for job in jobs]
    untraced = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    traced_results = []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        tracer.job_id = i
        traced_results.append(run_job(cli, job))
    traced = time.perf_counter() - t0
    tracer.job_id = -1

    c = tracer.counters
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    by_name = tracer.self_times()
    for name, seconds in by_name.items():
        self_s[name.split(".")[0]] += seconds
    for nid in tracer.name_id:
        calls[tracer.names[nid].split(".")[0]] += 1
    verify_self = by_name.get("certificates.verify_certificate", 0.0)
    c["cli.out_bytes"] = sum(r.out_bytes for r in traced_results)

    def ratio(num, base):
        return c[num] / c[base] if c[base] else 0.0

    metrics = {
        "cli.self_s": (self_s["cli"], "s"),
        "cli.out_bytes": (c["cli.out_bytes"], "bytes"),
        "cli.errors": (c["cli.errors"], "count"),
        "certificates.build_self_s": (self_s["certificates"] - verify_self, "s"),
        "certificates.verify_self_s": (verify_self, "s"),
        "certificates.claims_checked": (c["certificates.claims_checked"], "count"),
        "certificates.verify_failures": (c["certificates.verify_failures"], "count"),
        "witness.self_s": (self_s["witness"], "s"),
        "witness.chain_steps": (c["witness.chain_steps"], "count"),
        "doubling.self_s": (self_s["doubling"], "s"),
        "doubling.orbit_steps": (c["doubling.orbit_steps"], "count"),
        "subspace.self_s": (self_s["subspace"], "s"),
        "subspace.blocks": (c["subspace.blocks"], "count"),
        "subspace.picks": (c["subspace.picks"], "count"),
        "subspace.pool_scans": (c["subspace.pool_scans"], "count"),
        "subspace.useful_pick_ratio": (ratio("subspace.picks", "subspace.pool_scans"), "ratio"),
        "envelope.self_s": (self_s["envelope"], "s"),
        "envelope.unions_visited": (c["envelope.unions_visited"], "count"),
        "envelope.unions_in_lattice": (c["envelope.unions_in_lattice"], "count"),
        "envelope.visit_ratio": (
            ratio("envelope.unions_visited", "envelope.unions_in_lattice"), "ratio"),
        "envelope.F_evals": (c["envelope.F_evals"], "count"),
        "envelope.sampled_checks": (c["envelope.sampled_checks"], "count"),
        "empirical.self_s": (self_s["empirical"], "s"),
        "empirical.cell_lookups": (c["empirical.cell_lookups"], "count"),
        "empirical.sorted_points": (c["empirical.sorted_points"], "count"),
        "torus.self_s": (self_s["torus"], "s"),
        "torus.mul_mod1_calls": (c["torus.mul_mod1_calls"], "count"),
        "exact.self_s": (self_s["exact"], "s"),
        "exact.calls": (calls["exact"], "count"),
        "exact.max_bits": (c["exact.max_bits"], "bits"),
        "rng.self_s": (self_s["rng"], "s"),
        "rng.draws": (c["rng.draws"], "count"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.spans": (len(tracer.start), "count"),
        "trace.skipped_names": (len(tracer.skipped), "count"),
    }
    span_total = sum(self_s.values())
    split = {layer: self_s[layer] / span_total if span_total else 0.0 for layer in LAYERS}
    tracer.write(TRACE_DIR / workload, {
        "workload": workload, "seed": seed, "jobs": [j["argv"] for j in jobs],
        "untraced_s": untraced, "traced_s": traced, "self_s": self_s, "calls": calls,
        "self_share": split, "metrics": {k: v for k, (v, _) in metrics.items()},
    })
    lines = [f"{len(jobs)} jobs; untraced {untraced:.3f} s, traced {traced:.3f} s, "
             f"{len(tracer.start)} spans; trace in {TRACE_DIR / workload}",
             "self-time share: " + ", ".join(
                 f"{layer} {split[layer]:.1%}" for layer in sorted(LAYERS, key=split.get,
                                                                    reverse=True)),
             f"visit ratio {c['envelope.unions_visited']}/{c['envelope.unions_in_lattice']}"
             " (base: unions in the lattices of the exhaustive checks); useful-pick ratio "
             f"{c['subspace.picks']}/{c['subspace.pool_scans']}"
             " (base: pool scans, computed from the spec)",
             f"skipped names: {', '.join(tracer.skipped) or 'none'}"]
    lines += [f"{k:30s} {v:14.6f} {u}" if isinstance(v, float) else f"{k:30s} {v:14d} {u}"
              for k, (v, u) in metrics.items()]
    status = _status(jobs + jobs, plain + traced_results)
    status["attempted"] = len(traced_results)
    return metrics, lines, status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        os.chdir(harness.ROOT)
        cli = harness.import_cli()
        reference = harness.load_reference(args.workload)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(harness.WORK, exist_ok=True)
    if args.trace:
        metrics, lines, status = trace(cli, reference, args.seed, args.workload)
    else:
        metrics, lines, status = measure(cli, reference, args.seed, args.seconds)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("\n".join(lines))
    status["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(status))
    return 0


if __name__ == "__main__":
    sys.exit(main())
