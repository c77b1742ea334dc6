"""Independent checker for jetcontact reports.

It judges a report against the job's known answer with its own arithmetic,
and never trusts the program's summaries: every residual must be a finite
number, the worst residual is taken NaN-aware (Python's ``max`` drops a NaN
that follows a finite value, and a maximum seeded with ``0.0`` drops them
all), and that worst residual must agree with the verdict the job must get.
"""

from __future__ import annotations

import json
import math

from jobs import Job

VERIFIED, REFUTED = "verified", "refuted"


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def worst(values) -> float:
    """Largest value, or NaN when any value is not a finite number."""
    out = -math.inf
    for v in values:
        if not _finite(v):
            return math.nan
        out = max(out, float(v))
    return out


def _judge(where: str, residuals: dict, expect: str, tol: float) -> list[str]:
    """Residuals of one route (or point) against the verdict it must give."""
    w = worst(residuals.values())
    if not residuals:
        return [f"{where}: no residuals"]
    if math.isnan(w):
        bad = sorted(k for k, v in residuals.items() if not _finite(v))
        return [f"{where}: non-finite residual(s) {bad}"]
    if expect == VERIFIED and not w < tol:
        return [f"{where}: worst residual {w:.3e} is not below tolerance {tol:g}"]
    if expect == REFUTED and not w > 10.0 * tol:
        return [f"{where}: worst residual {w:.3e} does not exceed 10x tolerance"]
    return []


def _check_alongz(job: Job, results: dict, tol: float) -> list[str]:
    errors = []
    expect = job.expect_verdict
    if len(results.get("points", [])) != job.points:
        return [f"expected {job.points} points, got {len(results.get('points', []))}"]
    if results.get("route_agreement") is not True:
        errors.append("report-level route_agreement is not true")
    for k, point in enumerate(results["points"]):
        where = f"point {k}"
        res = point.get("residuals", {})
        errors += _judge(where, res, expect, tol)
        routes = point.get("route_verdicts", {})
        for route in ("analytic", "geometric"):
            if routes.get(route) != expect:
                errors.append(f"{where}: {route} route says {routes.get(route)!r}")
        if expect == VERIFIED and routes.get("pointwise-spot-check") != VERIFIED:
            errors.append(f"{where}: spot check says {routes.get('pointwise-spot-check')!r}")
        if point.get("route_agreement") is not True:
            errors.append(f"{where}: routes disagree")
        if point.get("verdict") != expect:
            errors.append(f"{where}: verdict {point.get('verdict')!r}")
        if abs(complex(*point["point"][0])) > 1e-12:
            errors.append(f"{where}: not on Z")
    return errors


def _check_recursions(job: Job, results: dict, tol: float) -> list[str]:
    points = results.get("points", [])
    if len(points) != job.points:
        return [f"expected {job.points} points, got {len(points)}"]
    errors = []
    all_res = []
    for k, point in enumerate(points):
        res = point.get("residuals", {})
        errors += _judge(f"point {k}", res, job.expect_verdict, tol)
        all_res += list(res.values())
    reported = results.get("max_residual")
    w = worst(all_res)
    if not (isinstance(reported, float) and reported == w):
        errors.append(f"max_residual {reported!r} differs from the worst residual {w!r}")
    return errors


def _check_quotient(job: Job, results: dict, tol: float) -> list[str]:
    expect = job.expect_verdict
    res = results.get("residuals", {})
    errors = []
    # each route must reach the verdict on its own residual
    contact = {k: v for k, v in res.items() if k != "shift-intertwiner"}
    errors += _judge("contact route", contact, expect, tol)
    errors += _judge("direct route", {"shift-intertwiner": res.get("shift-intertwiner")}, expect, tol)
    for key in ("contact_verdict", "direct_verdict"):
        if results.get(key) != expect:
            errors.append(f"{key} is {results.get(key)!r}")
    if results.get("agreement") is not True:
        errors.append("contact and direct verdicts disagree")
    if results.get("equivalent") is not (expect == VERIFIED):
        errors.append(f"equivalent is {results.get('equivalent')!r}")
    return errors


_CHECKS = {
    "alongz-grid": _check_alongz,
    "curvature-towers": _check_recursions,
    "quotient-decide": _check_quotient,
}


def check_report(job: Job, exit_code: int, report: bytes) -> list[str]:
    """Reasons the job failed; empty when it gave the known answer."""
    if exit_code != job.expect_exit:
        return [f"exit code {exit_code}, expected {job.expect_exit}"]
    try:
        doc = json.loads(report)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    errors = []
    if doc.get("verdict") != job.expect_verdict:
        errors.append(f"verdict {doc.get('verdict')!r}, expected {job.expect_verdict!r}")
    if doc.get("exit_code") != exit_code:
        errors.append(f"report exit_code {doc.get('exit_code')!r} != process exit {exit_code}")
    if doc.get("task") != job.config["task"]:
        errors.append(f"task {doc.get('task')!r}")
    tol = float(job.config["tolerance"])
    errors += _CHECKS[job.workload](job, doc.get("results", {}), tol)
    return errors
