"""jetcontact benchmark: seeded known-answer jobs through the CLI entry point.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload alongz-grid --seed 1 --seconds 50 --trace 0

Load model: a closed loop with one client in one process; each job runs to
its report before the next starts.  BLAS runs on one thread in every
process the benchmark starts.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones (per-job latency, throughput in evaluation points,
peak memory, set-up time).  With ``--trace 1`` they are the per-layer ones
from an out-of-program tracer.  Every job's report is checked against the
answer known from its construction (see ``jobs.py`` and ``check.py``); the
line carries ``attempted`` and ``failed`` job counts.  Generated configs,
reports and the span trace are kept under ``.perfbench-out/`` for replay.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("alongz-grid", "curvature-towers", "quotient-decide")
# set-up is measured in this many fresh processes per run (the measuring
# process is one of them) and reported as their median
SETUP_SAMPLES = 3
# whole-run budget: every process started is killed and waited for by then
DEADLINE_S = 170.0
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(mode: str, args, out_dir: str, deadline: float, *extra) -> dict:
    env = dict(os.environ, **BLAS_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--out-dir", out_dir, *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd += ["--t0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish in {timeout:.0f} s") from exc
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _tail(times: list) -> tuple[float, float]:
    """Highest percentile with at least ten jobs beyond it: (value, percentile).
    With ten jobs or fewer it falls back to the largest."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _end_to_end(setups: list, measured: dict) -> dict:
    times = [j["seconds"] for j in measured["jobs"]]
    points = sum(j["points"] for j in measured["jobs"])
    tail, pct = _tail(times)
    print(f"jobs timed: {len(times)}; job_tail_s is p{pct:.0f} of {len(times)} jobs")
    return {
        "job_p50_s": {"value": statistics.median(times), "unit": "s"},
        "job_tail_s": {"value": tail, "unit": "s"},
        "points_per_s": {"value": points / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
    }


_LAYER_UNITS = {
    "calls": "count",
    "self_s": "s",
    "memo_hit_ratio": "1",
    "inv_per_point": "count",
    "mul_per_point": "count",
    "flops": "flop-computed",
    "system_bytes": "B-computed",
    "overhead_frac": "1",
}


def _per_layer(measured: dict) -> dict:
    for kind, counts in measured["call_counts"].items():
        print(f"call counts per {kind} job: {json.dumps(counts, sort_keys=True)}")
    return {name: {"value": value, "unit": _LAYER_UNITS[name.rsplit(".", 1)[1]]}
            for name, value in sorted(measured["layers"].items())}


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(ROOT, ".perfbench-out", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    setups = []
    if not args.trace:
        for k in range(1, SETUP_SAMPLES):
            setups.append(_worker("setup", args, out_dir, deadline, f"--tag=-setup{k}"))
    measured = _worker("measure", args, out_dir, deadline, "--seconds", str(args.seconds),
                       "--trace", str(args.trace))
    setups.append(measured)

    # every execution is checked: the warm-ups, the timed jobs and the repeat
    executions = []
    for k, s in enumerate(setups):
        errors = list(s["warmup_errors"])
        if s["warmup_sha256"] != setups[0]["warmup_sha256"]:
            errors.append("report differs byte for byte from the one of process 0")
        executions.append((f"warm-up job in process {k}", errors))
    executions += [(f"job {j['index']}", j["errors"]) for j in measured["jobs"]]
    executions.append(("repeat of job 1", measured["repeat_errors"]))
    failed = [(label, errors) for label, errors in executions if errors]
    for label, errors in failed[:20]:
        print(f"FAILED {label}: {'; '.join(errors[:3])}")
    attempted = len(executions)
    print(f"failed_frac: {len(failed) / attempted:.4f} ({len(failed)} of {attempted} jobs)")

    metrics = _per_layer(measured) if args.trace else _end_to_end(setups, measured)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            raise BenchError("a metric is not finite")
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="jetcontact benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "jetcontact", "cli.py")):
        print(f"jetcontact sources not found under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
