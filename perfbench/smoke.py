"""Smoke test of the benchmark itself (not of jetcontact).

Checks, in a few minutes on two cores:

1. the metrics each workload prints, with their units, are exactly the ones
   ``BENCHMARK.json`` declares, for ``--trace 0`` and ``--trace 1``;
2. the same seed generates the same jobs and another seed different ones;
3. call counts repeat exactly across two traced runs with the same seed;
4. the benchmark refuses, without printing a result, to run where the
   jetcontact sources are missing.

Run from the root of a source checkout::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from jobs import WORKLOADS, make_job  # noqa: E402

SECONDS = "1"
# per-layer metrics that are counts, which must repeat exactly
COUNT_SUFFIXES = (".calls", "_per_point", ".flops", ".system_bytes", ".memo_hit_ratio")


class SmokeFailure(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def bench(root: str, workload: str, seed: int, trace: int) -> tuple[int, list]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, timeout=600, check=False)
    return proc.returncode, proc.stdout.decode().strip().splitlines()


def result_of(lines: list) -> dict:
    return json.loads(lines[-1])


def call_count_lines(lines: list) -> list:
    return [line for line in lines if line.startswith("call counts per ")]


def check_jobs_are_seeded() -> None:
    for workload in WORKLOADS:
        a = [make_job(workload, 5, i).yaml_text() for i in range(4)]
        b = [make_job(workload, 5, i).yaml_text() for i in range(4)]
        c = [make_job(workload, 6, i).yaml_text() for i in range(4)]
        expect(a == b, f"{workload}: seed 5 generated different jobs twice")
        expect(all(x != y for x, y in zip(a, c)), f"{workload}: seeds 5 and 6 share a job")
        expect(len(set(a)) == len(a), f"{workload}: jobs repeat within one seed")


def check_metrics_and_counts(spec: dict) -> None:
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
           "BENCHMARK.json names a workload the generator does not know")
    for workload in WORKLOADS:
        code, lines = bench(ROOT, workload, 7, 0)
        expect(code == 0, f"{workload}: exit {code}")
        res = result_of(lines)
        expect(res["correct"] and res["failed"] == 0, f"{workload}: failed jobs: {lines[-5:]}")
        printed = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(printed == declared[0], f"{workload}: end-to-end metrics {printed}")

        traced = []
        for _ in range(2):
            code, lines = bench(ROOT, workload, 7, 1)
            expect(code == 0, f"{workload} traced: exit {code}")
            traced.append(lines)
        for lines in traced:
            printed = {k: v["unit"] for k, v in result_of(lines)["metrics"].items()}
            expect(printed == declared[1], f"{workload}: per-layer metrics {printed}")
        counts = [
            (call_count_lines(lines),
             {k: v["value"] for k, v in result_of(lines)["metrics"].items()
              if k.endswith(COUNT_SUFFIXES)})
            for lines in traced
        ]
        expect(counts[0][0], f"{workload}: no call counts printed")
        expect(counts[0] == counts[1], f"{workload}: call counts differ between traced runs")
        print(f"ok {workload}")


def check_refuses_without_sources(spec: dict) -> None:
    bare = os.path.join(ROOT, ".perfbench-out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench(bare, spec["workloads"][0]["name"], 1, 0)
    shutil.rmtree(bare)
    expect(code != 0, "benchmark succeeded without the jetcontact sources")
    expect(not any(line.startswith("{") for line in lines), "a result was printed")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        check_jobs_are_seeded()
        check_refuses_without_sources(spec)
        check_metrics_and_counts(spec)
    except SmokeFailure as exc:
        print(f"SMOKE FAILED: {exc}")
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
