"""Running catalogue jobs in-process through `maldist.cli.main` and checking
their outputs against the stored reference.

A job is one timed build call (`envelope`, `subspace`, `witness`, `doubling`
or `scan`) and, when it yields a certificate, one timed `verify` call.  The
process state a job sees is the state a fresh `maldist` process would have:
stdout and stderr are captured and restored around every call, the int
string-conversion limit is left at its default and MALDIST_SEED is never set.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"
WORK = ".perfbench/work"
CERT_JSON = f"{WORK}/cert.json"
VERIFY_JSON = f"{WORK}/verify.json"

MIN_JOBS = 100
SETUP_SPAWNS = 21
# probe() wall time on the reference host (2-core x86 VM, Python 3.11) when
# its CPU runs at full speed.
PROBE_REF_S = 0.0015


class BenchError(Exception):
    """The benchmark cannot run here (missing program, unknown workload)."""


def import_cli():
    """Import maldist.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "maldist" / "cli.py").is_file():
        raise BenchError(f"no program at {SRC / 'maldist'}")
    sys.path.insert(0, str(SRC))
    import maldist.cli

    if Path(maldist.cli.__file__).resolve().parent != (SRC / "maldist").resolve():
        raise BenchError(f"imported maldist from {maldist.cli.__file__}, not {SRC}")
    return maldist.cli


def load_reference(workload: str) -> dict:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"unknown workload {workload!r} (no {path.name})")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def rounds(reference: dict, seed: int):
    """Endless rounds of jobs for `seed`: one variant of every stratum per
    round, in a seeded order.  The same seed gives the same sequence."""
    rng = random.Random(f"{reference['workload']}:{seed}")
    strata = reference["strata"]
    while True:
        picks = [s["variants"][rng.randrange(len(s["variants"]))] for s in strata]
        rng.shuffle(picks)
        yield picks


def round_count(reference: dict, seconds: float) -> int:
    """Rounds of a run: about `seconds` of jobs on the reference host, and
    at least MIN_JOBS jobs and verifications so that each p90 has ten samples
    beyond it.  A fixed count (not a deadline) gives every run of a seed the
    same jobs, whatever the host's speed."""
    per_round = [len(reference["strata"])]
    verifies = sum(s["variants"][0]["verifies"] for s in reference["strata"])
    if verifies:
        per_round.append(verifies)
    least = -(-MIN_JOBS // min(per_round))
    return max(least, round(seconds / reference["round_seconds"]))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Call:
    """Exit code and output digests of one CLI call."""

    exit: int
    digests: dict
    out_bytes: int
    seconds: float
    stderr: str

    def outcome(self) -> dict:
        return {"exit": self.exit, "digests": self.digests}


def output_paths(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in ("--out", "--table-out", "--trace-out")]


def call(cli, argv: list[str], scale=None) -> Call:
    """Run `maldist <argv>` in this process and digest everything it wrote.

    `cli.main` is looked up at every call, so a traced run sees its wrapper.
    With a SpeedScale, `seconds` is in reference seconds."""
    paths = output_paths(argv)
    for p in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(p)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an escaped exception is a result to check, not a crash
        code = -1
        err.write(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    if scale is not None:
        seconds = scale(seconds)
    digests = {}
    size = 0
    for p in paths:
        try:
            data = Path(p).read_bytes()
        except FileNotFoundError:
            digests[p] = None
            continue
        digests[p] = sha256(data)
        size += len(data)
    for name, stream in (("<stdout>", out), ("<stderr>", err)):
        data = stream.getvalue().encode()
        digests[name] = sha256(data)
        size += len(data)
    return Call(code, digests, size, seconds, err.getvalue())


def extract_certificate(path: str) -> str | None:
    """Path of a certificate file for `verify`: the output itself, or its
    nested "certificate" written out in the CLI's own JSON format."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (FileNotFoundError, ValueError):
        return None
    if "certificate" in obj:
        with open(CERT_JSON, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj["certificate"], sort_keys=True, indent=2) + "\n")
        return CERT_JSON
    return path if "kind" in obj else None


def job_calls(cli, job: dict, scale=None) -> dict[str, Call]:
    """Run a catalogue job's steps: the untimed certificate call if it has
    one, the build, and `verify` on the certificate, if there is one."""
    calls = {}
    if job["cert_argv"]:
        calls["cert"] = call(cli, job["cert_argv"])
    calls["build"] = call(cli, job["argv"], scale)
    if job["verifies"]:
        cert = extract_certificate(output_paths(job["cert_argv"] or job["argv"])[-1])
        if cert is not None:
            calls["verify"] = call(cli, ["verify", cert, "--out", VERIFY_JSON], scale)
    return calls


@dataclass
class JobResult:
    job_s: float
    verify_s: float | None
    completed: bool  # exited as the program promises, outputs verified
    mismatch: list[str]  # steps whose outcome differs from the reference
    out_bytes: int


def run_job(cli, job: dict, scale=None) -> JobResult:
    """Run one catalogue job and compare every step with its reference.

    A known-defect job that reproduces its recorded failure matches but is
    not completed.  One that now exits 0 with a certificate `verify` accepts
    is completed: the defect was fixed."""
    calls = job_calls(cli, job, scale)
    got = {step: c.outcome() for step, c in calls.items()}
    expect = job["expect"]
    fixed = job["known_defect"] and calls["build"].exit == 0
    if fixed:
        # The recorded failure is gone.  The new outputs have no reference,
        # so their certificate must pass `verify` instead.
        passed = "verify" in calls and calls["verify"].exit == 0
        expect = {**expect, "build": got["build"], "verify": got["verify"] if passed else "exit 0"}
    mismatch = [step for step in {*got, *expect} if got.get(step) != expect.get(step)]
    verify = calls.get("verify")
    return JobResult(
        job_s=calls["build"].seconds,
        verify_s=verify.seconds if verify else None,
        completed=not mismatch and (fixed or not job["known_defect"]),
        mismatch=mismatch,
        out_bytes=sum(c.out_bytes for c in calls.values()),
    )


def _probe_work() -> None:
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 13, i % 97 + 1)
    x = 0
    for i in range(6000):
        x += i * i % 7


def probe() -> float:
    """Wall time of a fixed pure-Python workload of Fraction and int
    arithmetic, the program's own kind of work.  The untimed first pass
    warms the caches, which a just-finished call or child process evicted."""
    _probe_work()
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


class SpeedScale:
    """Converts wall seconds of a call to reference seconds.

    The host's CPU speed changes by up to 2x within seconds (shared cores),
    which moves every wall time with it.  A probe runs before and after each
    timed call; the call's time is scaled by PROBE_REF_S over the mean of the
    two probe times, so a change in the program shows at full size and a
    change in host speed mostly cancels.  Call it right after each timed call."""

    def __init__(self):
        self.last = probe()
        self.factors: list[float] = []

    def __call__(self, seconds: float) -> float:
        after = probe()
        self.factors.append(PROBE_REF_S * 2 / (self.last + after))
        self.last = after
        return seconds * self.factors[-1]


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile of a sorted copy (p in [0, 1])."""
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def setup_seconds(spawns: int = SETUP_SPAWNS) -> tuple[float, float, int]:
    """Median time of a fresh interpreter importing maldist.cli, in reference
    seconds (see SpeedScale) and in wall seconds.

    PYTHONPATH carries this checkout's src/, since the package need not be
    installed.  One untimed spawn first warms the OS file cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import maldist.cli"]
    times, wall = [], []
    scale = SpeedScale()
    for i in range(spawns + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        elapsed = time.perf_counter() - t0
        scaled = scale(elapsed)
        if proc.returncode != 0:
            raise BenchError(f"import maldist.cli failed: {proc.stderr.decode()[-500:]}")
        if i:
            times.append(scaled)
            wall.append(elapsed)
    return statistics.median(times), statistics.median(wall), len(times)
