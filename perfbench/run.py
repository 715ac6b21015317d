"""msfusion benchmark: one workload per process, result as the last stdout line.

Usage, from the repository root:

    python3 perfbench/run.py --workload kaist_corpus --seed 1 --seconds 30 --trace 0

Inputs are generated from ``--seed`` before timing starts. A warm-up runs
first; then ops repeat until ``--seconds`` have passed (at least one).
With ``--trace 0`` steps are calibrated against host speed (timing.py) and
the result holds the end-to-end metrics; with ``--trace 1`` half the time
runs untraced and half traced, and the result holds the per-layer metrics.
The line before the result is a JSON report with every step timing, sample
counts, checks and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; must run
    before numpy is imported. Returns the cap."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return min(int(os.environ[v]) for v in THREAD_VARS)


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that start and import the library."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import msfusion, msfusion.cli"],
            env=env, cwd=ROOT, check=True, timeout=60,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of a few percentiles with at least ten samples beyond it,
    as (percentile, nearest-rank value); None when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.0, 95.0, 90.0, 75.0, 50.0):
        rank = -(-n * pct // 100)  # nearest rank, 1-based
        if n - rank >= 10:
            return pct, ordered[int(rank) - 1]
    return None


@dataclass
class OpRecord:
    wall: float  # the op's own seconds: its steps, without calibration
    normalized: float  # the same, rescaled to the reference host speed
    steps: dict | None
    error: str | None
    digests: dict | None = None
    nonfinite: int = 0
    summary: dict | None = None


def run_ops(workload, seconds, calibrated=False, recorder=None) -> list[OpRecord]:
    """Repeat the op for about ``seconds``: the first op always runs, and
    another starts only if it is expected to end within 10% of the budget,
    judged by the op before it. Output checks run between ops, untimed."""
    from spans import op_summary, self_times
    from timing import StepTimer

    records: list[OpRecord] = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start + records[-1].wall <= 1.1 * seconds:
        first_span = len(recorder.spans) if recorder else 0
        if recorder:
            recorder.op += 1
        timer = StepTimer(calibrated)
        try:
            arrays, error = workload.op(timer), None
        except Exception as err:  # an op that raises counts as failed
            arrays, error = {}, f"{type(err).__name__}: {err}"
        record = OpRecord(timer.total, timer.normalized, dict(timer.steps), error)
        if error is None:
            record.digests = workload.digests(arrays)
            record.nonfinite = workload.nonfinite(arrays)
            if record.nonfinite:
                record.error = f"{record.nonfinite} non-finite values in fusion outputs"
        # Free this op's outputs before the next op, so peak memory is one op's.
        del arrays
        if recorder:
            spans = recorder.spans[first_span:]
            if sum(self_times(spans, first_span)) > timer.total * 1e9:
                record.error = record.error or "span self times exceed the op's time"
            record.summary = op_summary(spans, first_span)
        records.append(record)
    return records


def summarize(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "min": min(values), "n": len(values)}
    tail = tail_percentile(values)
    if tail:
        out[f"p{tail[0]:g}"] = tail[1]
    out["samples"] = values
    return out


def main(argv=None) -> int:
    if not (SRC / "msfusion" / "cli.py").is_file() or not (TESTS / "oracles.py").is_file():
        print(f"error: {ROOT} holds no msfusion sources and oracles to benchmark", file=sys.stderr)
        return 2
    thread_cap = cap_threads()
    sys.path[:0] = [str(SRC), str(TESTS), str(Path(__file__).parent)]
    import numpy
    import scipy

    import msfusion
    import oracles
    from generate import generate
    from spans import Recorder, layer_metrics, median_metrics
    from workloads import WORKLOADS

    if Path(msfusion.__file__).resolve().parent != SRC / "msfusion":
        print(f"error: imported msfusion from {msfusion.__file__}, not {SRC}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        files = generate(args.workload, args.seed, workdir)
        setup = measure_setup()
        workload = WORKLOADS[args.workload](files, args.seed)

        check_errors = []
        try:
            workload.warm_up()
        except Exception as err:
            check_errors.append(f"warm-up raised {type(err).__name__}: {err}")

        budget = args.seconds / 2 if args.trace else args.seconds
        records = run_ops(workload, budget, calibrated=not args.trace)
        traced: list[OpRecord] = []
        if args.trace:
            with Recorder() as recorder:
                traced = run_ops(workload, budget, recorder=recorder)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        every = records + traced
        reference = next((r.digests for r in every if r.digests), None)
        for r in every:
            if r.digests is not None and r.digests != reference:
                r.error = "outputs differ from the first op on the same input"
        try:
            check_errors += workload.check(oracles)
        except Exception as err:  # a crashing check is a failed check
            check_errors.append(f"check raised {type(err).__name__}: {err}")

        attempted = len(every)
        failed = attempted if check_errors else sum(r.error is not None for r in every)
        walls = [r.wall for r in records]
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "frames_per_op": workload.frames_per_op,
            "op_s": summarize(walls),
            "frames_per_s": workload.frames_per_op / statistics.median(walls),
            "steps": {
                step: summarize([r.steps.get(step, 0.0) for r in records])
                for step in workload.steps
            },
            "setup_runs_s": setup,
            "fail_ratio": failed / attempted,
            "op_errors": sorted({r.error for r in every if r.error}),
            "check_errors": check_errors,
            "environment": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "nproc": len(os.sched_getaffinity(0)),
                "blas_thread_cap": thread_cap,
            },
        }
        if args.trace:
            metrics = median_metrics([layer_metrics(r.summary, r.nonfinite) for r in traced])
            overhead = statistics.median(r.wall for r in traced) / statistics.median(walls)
            metrics["trace.overhead_ratio"] = (overhead, "ratio")
            report["traced_op_s"] = summarize([r.wall for r in traced])
            report["untraced_targets"] = recorder.missing
            recorder.write(WORK / f"trace-{args.workload}.jsonl")
        else:
            normalized = [r.normalized for r in records]
            report["normalized_op_s"] = summarize(normalized)
            # Throughput at the reference host speed (see timing.py); the
            # raw throughput and every step timing are in the report line.
            metrics = {
                "norm_frames_per_s": (workload.frames_per_op / statistics.median(normalized), "1/s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
