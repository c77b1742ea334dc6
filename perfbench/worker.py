"""One benchmark process: set up, run jobs back to back, check every report.

Started by ``run.py`` (never imported); prints one JSON line on stdout.

* ``setup`` mode imports jetcontact, generates job 0 and runs it once,
  untimed, to fill the lazy plan caches; it reports the seconds since
  ``--t0`` (taken by the parent just before starting this process).
* ``measure`` mode does the same set-up, then runs jobs 1, 2, ... for
  ``--seconds`` seconds in a closed loop with one client, timing each job
  from config to report through the CLI entry point.  With ``--trace 1``
  job pairs alternate between untraced and traced, so the tracer's overhead
  is measured on the same mix of jobs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import jetcontact  # noqa: E402
from check import check_report  # noqa: E402
from jetcontact import cli  # noqa: E402
from jobs import make_job  # noqa: E402
from layertrace import Tracer  # noqa: E402

# per job, the calls of these spans are reported as "<span>.calls" ...
_CALL_SPANS = ("jetcore.inv", "jetcore.mul", "kernelexpr.gram_jet", "geometry.cov_deriv",
               "simeq.unitary_intertwiner")
# ... and the self time of these as "<span>.self_s"
_SELF_SPANS = (
    "jetcore.inv", "jetcore.mul", "jetcore.series", "jetcore.holo",
    "kernelexpr.parse", "kernelexpr.gram_jet", "kernelexpr.validate",
    "contact.point", "contact.analytic", "contact.geometric", "contact.spot_check",
    "contact.decide", "geometry.curvature", "geometry.cov_deriv", "geometry.recursions",
    "geometry.normalize_frame", "simeq.unitary_intertwiner", "rkhs.quotient_model",
    "rkhs.direct_equiv_check", "cli.load_config", "cli.run", "cli.emit", "pascal",
)


def run_job(args, index: int, tag: str = "", tracer=None) -> tuple:
    """Generate and record job `index`, run it through ``cli.main`` and check
    its report.  Only the CLI call is timed, and traced when a tracer is
    given.  Returns (job, seconds, report bytes, reasons it failed)."""
    job = make_job(args.workload, args.seed, index)
    stem = os.path.join(args.out_dir, f"job-{index:05d}{tag}")
    cfg, out = stem + ".yaml", stem + ".json"
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(job.yaml_text())
    if os.path.exists(out):
        os.remove(out)
    errors = []
    if tracer is not None:
        tracer.job = index
        tracer.install()
    try:
        start = time.perf_counter()
        try:
            code = cli.main(["--config", cfg, "--out", out])
        except Exception:  # a job that raises is a failed job, not a crash
            code = None
            errors.append("raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
        seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = b""
    if os.path.exists(out):
        with open(out, "rb") as fh:
            report = fh.read()
    return job, seconds, report, errors or check_report(job, code, report)


def _setup(args, tag: str) -> dict:
    """Run job 0 once, untimed, and report the seconds since process start."""
    if not os.path.abspath(jetcontact.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"jetcontact imported from {jetcontact.__file__}, not {SRC}")
    _, _, report, errors = run_job(args, 0, tag)
    return {"setup_s": time.time() - args.t0,
            "warmup_sha256": hashlib.sha256(report).hexdigest(),
            "warmup_errors": errors}


def _whole_pairs(jobs: list) -> list:
    """Jobs of whole (twin, pair) pairs, so medians see both kinds equally."""
    return jobs[: len(jobs) - len(jobs) % 2]


def _layer_metrics(tracer, jobs: list) -> dict:
    """Per-layer metrics: the median over traced jobs of each per-job value."""
    per_job = tracer.per_job()
    traced = _whole_pairs([rec for rec in jobs if rec["traced"]])
    untraced = _whole_pairs([rec for rec in jobs if not rec["traced"]])
    rows = []
    for rec in traced:
        layers = per_job.get(rec["index"], {})
        counts = tracer.counts.get(rec["index"], {})
        row = {f"{span}.calls": layers.get(span, [0, 0.0])[0] for span in _CALL_SPANS}
        row.update({f"{span}.self_s": layers.get(span, [0, 0.0])[1] for span in _SELF_SPANS})
        inv_calls, mul_calls = row["jetcore.inv.calls"], row["jetcore.mul.calls"]
        row["jetcore.inv.memo_hit_ratio"] = (
            counts.get("jetcore.inv.memo_hits", 0) / inv_calls if inv_calls else 0.0)
        row["contact.inv_per_point"] = inv_calls / rec["points"]
        row["contact.mul_per_point"] = mul_calls / rec["points"]
        row["jetcore.mul.flops"] = counts.get("jetcore.mul.flops", 0)
        row["simeq.system_bytes"] = counts.get("simeq.system_bytes.max", 0)
        rows.append(row)
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    metrics["trace.overhead_frac"] = (statistics.median(r["seconds"] for r in traced)
                                      / statistics.median(r["seconds"] for r in untraced))
    return metrics


def _call_counts(tracer, jobs: list) -> dict:
    """Calls per span name and per jet shape, for the first traced job of
    each expected verdict; these repeat exactly for the same seed."""
    per_job = tracer.per_job()
    out = {}
    for rec in jobs:
        if rec["traced"] and rec["expect"] not in out:
            counts = {name: calls for name, (calls, _) in per_job.get(rec["index"], {}).items()}
            counts.update({k: v for k, v in tracer.counts.get(rec["index"], {}).items() if "[" in k})
            out[rec["expect"]] = dict(sorted(counts.items()))
    return out


def _measure(args) -> dict:
    result = _setup(args, "")
    tracer = Tracer() if args.trace else None
    jobs = []
    start = time.perf_counter()
    # at least two whole pairs, so a traced run has a traced and an untraced one
    while time.perf_counter() - start < args.seconds or len(jobs) < 4:
        index = len(jobs) + 1
        # pairs of jobs (a twin, then a pair) alternate traced / untraced
        traced = tracer is not None and ((index - 1) // 2) % 2 == 0
        job, seconds, report, errors = run_job(args, index, tracer=tracer if traced else None)
        if index == 1:
            first_report = report
        jobs.append({"index": index, "seconds": seconds, "points": job.points,
                     "expect": job.expect_verdict, "traced": traced, "errors": errors})
    # repeat the first timed job: its report must be byte-identical
    _, _, report, errors = run_job(args, 1, "-repeat")
    if report != first_report:
        errors = errors + ["report differs byte for byte from the first run of job 1"]
    result.update({
        "jobs": jobs,
        "repeat_errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        tracer.dump(os.path.join(args.out_dir, "trace.json"))
        result["layers"] = _layer_metrics(tracer, jobs)
        result["call_counts"] = _call_counts(tracer, jobs)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--tag", default="")
    args = parser.parse_args()
    if args.mode == "setup":
        result = _setup(args, args.tag)
    else:
        result = _measure(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
