"""Build the job catalogue and its reference outcomes.

    python3 perfbench/make_reference.py [--workload NAME ...]

For every stratum of every workload (see catalogue.py) this draws VARIANTS
jobs, runs each through the program once and stores the argv lists with the
exit codes and sha256 digests of every output in
`perfbench/reference/<workload>.json`.  `run.py` then checks every job it
runs against these records.

Run it only when the catalogue changes, on the commit whose outputs are the
reference: regenerating the reference after a program change would accept
whatever that change produces.  It refuses to store a job whose exit code
differs from the one its generator expects.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalogue  # noqa: E402
import harness  # noqa: E402


def build(cli, workload: str) -> dict:
    strata = []
    round_s = 0.0
    for name, make in catalogue.WORKLOADS[workload]:
        variants = []
        times = []
        for index in range(catalogue.VARIANTS):
            job = catalogue.variant(workload, name, index, make)
            calls = harness.job_calls(cli, job)
            build_call = calls["build"]
            if build_call.exit != job["expect_exit"]:
                raise SystemExit(
                    f"{workload}/{name}/{index}: exit {build_call.exit}, expected "
                    f"{job['expect_exit']}: {build_call.stderr.strip()}\n{job['argv']}"
                )
            if job["known_defect"] and "Exceeds the limit" not in build_call.stderr:
                raise SystemExit(f"{workload}/{name}/{index}: not the digit-limit failure")
            if "verify" in calls and calls["verify"].exit != job["expect_exit"]:
                raise SystemExit(f"{workload}/{name}/{index}: verify exit {calls['verify'].exit}")
            job["expect"] = {step: c.outcome() for step, c in calls.items()}
            variants.append(job)
            times.append(sum(c.seconds for c in calls.values()))
        strata.append({"name": name, "variants": variants})
        round_s += sum(times) / len(times)
        print(f"{workload:15s} {name:22s} mean {sum(times) / len(times):7.3f} s"
              f"  max {max(times):7.3f} s", flush=True)
    return {
        "workload": workload,
        "python": platform.python_version(),
        "round_seconds": round_s,
        "strata": strata,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(catalogue.WORKLOADS))
    args = parser.parse_args()
    os.chdir(harness.ROOT)
    os.makedirs(harness.WORK, exist_ok=True)
    cli = harness.import_cli()
    for workload in args.workload or sorted(catalogue.WORKLOADS):
        t0 = time.perf_counter()
        ref = build(cli, workload)
        path = harness.REFERENCE / f"{workload}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path.name} in {time.perf_counter() - t0:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
