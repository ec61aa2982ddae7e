"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Checks, for each workload:
- the same seed gives the same job argv lists and reference records;
- another seed gives other inputs;
- two traced runs (`run.py --trace 1`) report the same value for every
  per-layer metric that is not a time.
Exits 1 on the first failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def job_list(workload: str, seed: int, rounds: int) -> list[dict]:
    reference = harness.load_reference(workload)
    return [job for batch in itertools.islice(harness.rounds(reference, seed), rounds)
            for job in batch]


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: traced run output mismatch")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    workloads = args.workload or sorted(p.stem for p in harness.REFERENCE.glob("*.json"))
    failures = 0
    for workload in workloads:
        first = job_list(workload, args.seed, 7)
        again = job_list(workload, args.seed, 7)
        other = job_list(workload, args.seed + 1, 7)
        checks = {
            "same seed, same argv and references": first == again,
            "other seed, other inputs": [j["argv"] for j in first] != [j["argv"] for j in other],
        }
        a, b = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        differ = {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}
        checks["counts repeat across traced runs"] = not differ
        for name, ok in checks.items():
            print(f"{workload:15s} {name:40s} {'ok' if ok else 'FAIL'}")
            failures += not ok
        if differ:
            print(f"  differing counts: {differ}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
