"""Configuration ingestion, orchestration, and report emission.

Configs are YAML trees (documented in the README); expressions inside them
use the kernel grammar.  Reports are schema-versioned JSON, deterministic for
a fixed config and seed.  Exit codes: 0 verified/completed, 1 refuted,
2 inconclusive, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import __version__
from .contact import (
    ContactProblem,
    _adjoint,
    _rel,
    check_problem,
    classify,
    combine_verdicts,
    run_in_slices,
    worst_residual,
    INCONCLUSIVE,
    REFUTED,
    VERIFIED,
)
from .geometry import (
    K1j_tower,
    L_tensor,
    Q_recursion,
    cov_step,
    curvature_table,
    map_adjoint_jet,
    transverse_tower,
)
from .kernelexpr import BundleSpec
from .rkhs import check_direct_size, quotient_models, unitary_equiv_check
from .wordcalc import verify_appendix

SCHEMA_VERSION = "1"
TOLERANCE_ENV = "JETCONTACT_TOLERANCE"

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3


class ConfigError(ValueError):
    """Malformed run configuration."""


@dataclass
class RunConfig:
    task: str
    order: int = 1
    tolerance: float = 1e-8
    seed: int = 0
    bundles: list = field(default_factory=list)
    points: list = field(default_factory=list)
    candidate: object = None
    out: str = None
    appendix_bound: int = None


def _finite(value, where: str, read=float):
    """`read(value)`, a finite real (or, with `read=complex`, complex) number
    from a number or a numeric string (not a bool)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        x = read(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: cannot read {value!r} as a number") from None
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise ConfigError(f"{where} must be finite; got {value!r}")
    return x


def _integer(value, where: str, least: int = None) -> int:
    """`value`, an integer (not a bool or a float) of at least `least`, 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer; got {value!r}")
    if least is not None and value < least:
        kind = "a positive" if least == 1 else "a non-negative"
        raise ConfigError(f"{where} must be {kind} integer; got {value}")
    return value


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string; got {value!r}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list; got {value!r}")
    return value


def _optional(raw: dict, key: str, read):
    """`read` of the value at `key`, or None where it is absent or null."""
    value = raw.get(key)
    return None if value is None else read(value, key)


def _known(node: dict, keys, where: str) -> None:
    """Refuse any key of the mapping `node` that is not among `keys`."""
    for key in node:
        if key not in keys:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _parse_scalar(value, where: str) -> complex:
    if isinstance(value, str):
        return _finite(value, where, lambda s: complex(s.replace(" ", "").replace("i", "j")))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_finite(value[0], where), _finite(value[1], where))
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _finite(value, where, complex)
    raise ConfigError(f"{where}: expected a number, 'a+bi' string, or [re, im] pair")


def _parse_point(value, dim: int, where: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != dim:
        raise ConfigError(f"{where}: expected {dim} coordinates")
    return tuple(_parse_scalar(c, where) for c in value)


def _expression_grid(value, where: str) -> list:
    """A matrix (list of rows) of expression strings; one string is a 1 x 1 matrix."""
    grid = [[value]] if isinstance(value, str) else value
    if not (isinstance(grid, list) and all(
            isinstance(row, list) and all(isinstance(e, str) for e in row) for row in grid)):
        raise ConfigError(f"{where} must be an expression or a matrix (list of rows) of them")
    return grid


def _parse_bundle(node, where: str) -> BundleSpec:
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected a mapping with label/dimension/gram")
    _known(node, ("label", "dimension", "rank", "gram"), where)
    for key in ("dimension", "gram"):
        if key not in node:
            raise ConfigError(f"{where}: missing key {key!r}")
    label = _text(node.get("label", where), f"{where}.label")
    dim = _integer(node["dimension"], f"{where}.dimension", 1)
    gram = _expression_grid(node["gram"], f"{where}: gram")
    try:
        spec = BundleSpec(label, dim, gram)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    # the config echo writes the rank, so it is read back as a check
    if "rank" in node and _integer(node["rank"], f"{where}.rank") != spec.rank:
        raise ConfigError(f"{where}.rank must be {spec.rank}, the size of its gram; "
                          f"got {node['rank']}")
    return spec


def _expand_grid(node, dim: int) -> list:
    """Rectangular grid on Z: per-coordinate ranges for z2..zm (z1 stays 0)."""
    if not isinstance(node, dict):
        raise ConfigError("grid must be a mapping from z2..zm to ranges")
    _known(node, [f"z{j}" for j in range(2, dim + 1)], "grid")
    axes = []
    for j in range(2, dim + 1):
        key = f"z{j}"
        spec = node.get(key)
        if spec is None:
            axes.append([0.0 + 0.0j])
            continue
        where = f"grid.{key}"
        if not isinstance(spec, dict):
            raise ConfigError(f"{where} must be a mapping with re, im, count_re, count_im")
        _known(spec, ("re", "im", "count_re", "count_im"), where)
        (re_lo, re_hi), (im_lo, im_hi) = (_range(spec, k, where) for k in ("re", "im"))
        n_re, n_im = (_integer(spec.get(k, 1), f"{where}.{k}", 1)
                      for k in ("count_re", "count_im"))
        res = np.linspace(re_lo, re_hi, n_re)
        ims = np.linspace(im_lo, im_hi, n_im)
        axes.append([complex(r, i) for r in res for i in ims])
    points = [(0.0 + 0.0j,)]
    for axis in axes:
        points = [p + (c,) for p in points for c in axis]
    return points


def _range(spec: dict, key: str, where: str) -> list:
    """The [low, high] pair of finite numbers at `key`, [0, 0] if absent."""
    value = spec.get(key, [0.0, 0.0])
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{where}.{key}: expected a [low, high] pair; got {value!r}")
    return [_finite(v, f"{where}.{key}") for v in value]


def load_config(path: str, overrides: dict = None) -> RunConfig:
    """The validated config at `path`, the non-None `overrides` replacing its keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # libyaml's parser when present; both use the same SafeConstructor
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path!r} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    raw.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    return build_config(raw)


def _tolerance(raw: dict) -> float:
    """The tolerance from the config (or its override), else from the
    environment, else 1e-8: a finite positive number wherever it comes from."""
    if "tolerance" in raw:
        value, key = raw["tolerance"], "tolerance"
    else:
        value, key = os.environ.get(TOLERANCE_ENV, 1e-8), f"tolerance (from {TOLERANCE_ENV})"
    tol = _finite(value, key)
    if tol <= 0:
        raise ConfigError(f"{key} must be positive and finite; got {tol!r}")
    return tol


def build_config(raw: dict) -> RunConfig:
    _known(raw, ("task", "order", "tolerance", "seed", "bundles", "points", "grid",
                 "candidate", "out", "appendix_bound"), "config")
    task = raw.get("task")
    if not (isinstance(task, str) and task in TASKS):
        raise ConfigError(f"task must be one of {', '.join(TASKS)}; got {task!r}")
    needed = TASKS[task][0]
    cfg = RunConfig(
        task=task,
        # verify-appendix reads the order only as the default of its bound
        order=_integer(raw.get("order", 1), "order", 1 if needed else None),
        tolerance=_tolerance(raw),
        seed=_integer(raw.get("seed", 0), "seed", 0),
        out=_optional(raw, "out", _text),
        appendix_bound=_optional(raw, "appendix_bound", _integer),
        bundles=[_parse_bundle(node, f"bundles[{k}]")
                 for k, node in enumerate(_list(raw.get("bundles", []), "bundles"))],
        candidate=_optional(raw, "candidate", _expression_grid),
    )
    if len(cfg.bundles) < needed:
        raise ConfigError(f"task {task!r} needs {needed} bundle(s)")
    for a in cfg.bundles[1:]:
        if a.dimension != cfg.bundles[0].dimension or a.rank != cfg.bundles[0].rank:
            raise ConfigError("bundles must share dimension and rank")
    if "grid" in raw and task != "along-z":
        raise ConfigError("grid specifications only apply to along-z")
    points = _list(raw.get("points", []), "points")
    if needed:
        dim = cfg.bundles[0].dimension
        cfg.points = [_parse_point(p, dim, f"points[{k}]") for k, p in enumerate(points)]
        if "grid" in raw:
            cfg.points.extend(_expand_grid(raw["grid"], dim))
        if not cfg.points:
            raise ConfigError("no evaluation points given (points or grid)")
    return cfg


# ---------------------------------------------------------------------------
# task runners


def _cnum(value: complex) -> list:
    return [float(np.real(value)), float(np.imag(value))]


def _cmat(mat: np.ndarray) -> list:
    return [[_cnum(v) for v in row] for row in np.atleast_2d(mat)]


def _run_contact(cfg: RunConfig) -> tuple[dict, str]:
    problem = ContactProblem(
        bundle_a=cfg.bundles[0],
        bundle_b=cfg.bundles[1],
        order=cfg.order,
        mode=cfg.task,
        points=cfg.points,
        candidate=cfg.candidate,
        tolerance=cfg.tolerance,
        seed=cfg.seed,
    )
    report = check_problem(problem)
    return report.as_dict(), report.verdict


def _run_curvature(cfg: RunConfig) -> tuple[dict, str]:
    points = run_in_slices(cfg.points, lambda part: _curvature_at(cfg, part))
    return {"points": points}, "completed"


def _curvature_at(cfg: RunConfig, points) -> list:
    """The curvature values and towers at every point of `points`; one entry
    per point."""
    spec, n = cfg.bundles[0], cfg.order
    dims = range(1, spec.dimension + 1)
    # the towers read derivatives of orders <= n in z and in zbar
    h = spec.gram_jet(points, n, n)
    _, K = curvature_table(h, dims)
    curv = {f"K({i},{j}bar)": K[i][j].value() for i in dims for j in dims}
    cov = {f"K(1,1bar)_z1^{r}_zb1^{t}": value
           for r, row in enumerate(transverse_tower(h, n)) for t, value in enumerate(row)}
    for j in dims[1:]:
        mixed = K1j_tower(h, [L_tensor(h, j, l) for l in range(1, n + 1)])
        cov.update((f"K(1,{j}bar)_z1^{r}", value) for r, value in enumerate(mixed))
    return [{"point": [_cnum(c) for c in point],
             "curvature": {name: _cmat(value[k]) for name, value in curv.items()},
             "covariant": {name: _cmat(value[k]) for name, value in cov.items()}}
            for k, point in enumerate(points)]


def _run_recursions(cfg: RunConfig) -> tuple[dict, str]:
    results = run_in_slices(cfg.points, lambda part: _recursions_at(cfg, part))
    worst = worst_residual(r for e in results for r in e["residuals"].values())
    return {"points": results, "max_residual": worst}, classify(worst, cfg.tolerance)


def _recursions_at(cfg: RunConfig, points) -> list:
    """The recursions against the direct jets of one table of connection and
    curvature jets, at every point of `points`; one entry per point."""
    spec, n = cfg.bundles[0], cfg.order
    dims = range(1, spec.dimension + 1)
    # orders (n+1, n+1): the adjoint-derivative check takes a z-derivative
    # of the curvature, which is one order short of the jet
    h = spec.gram_jet(points, n + 1, n + 1)
    conn, K = curvature_table(h, dims)
    residuals = {}
    for j in dims:
        tower = K1j_tower(h, [L_tensor(h, j, l) for l in range(1, n + 1)])
        iterated = K[1][j]
        for order in range(1, n + 1):
            rec, direct = tower[order - 1], iterated.value()
            residuals[f"curvature-tower(j={j},n={order})"] = _rel(rec - direct, rec, direct)
            if order < n:
                iterated = cov_step(iterated, conn[1], 1)
        conjugate = K[j][1]  # the jet of Q_j, then its zbar1-derivatives
        for order in range(n):
            rec, direct = Q_recursion(h, j, order), conjugate.value()
            residuals[f"conjugate-tower(j={j},n={order})"] = _rel(rec - direct, rec, direct)
            conjugate = conjugate.deriv(0, conjugate=True)
    h0 = h.value()
    h0inv = np.linalg.inv(h0)
    for i in dims:
        for j in dims:
            kij, kji = K[i][j].value(), K[j][i].value()
            residuals[f"adjoint-symmetry(i={i},j={j})"] = _rel(
                kij - h0 @ _adjoint(kji) @ h0inv, kij, kji)
    phi = K[1][1]
    phi_adjoint = map_adjoint_jet(phi, h)
    for i in dims:
        lhs = map_adjoint_jet(cov_step(phi, conn[i], i), h).value()
        rhs = phi_adjoint.deriv(i - 1, conjugate=True).value()
        residuals[f"adjoint-derivative(i={i})"] = _rel(lhs - rhs, lhs, rhs)
    return [{"point": [_cnum(c) for c in point],
             "residuals": {name: float(value[k]) for name, value in residuals.items()}}
            for k, point in enumerate(points)]


def _run_appendix(cfg: RunConfig) -> tuple[dict, str]:
    bound = cfg.appendix_bound if cfg.appendix_bound is not None else min(cfg.order + 3, 6)
    report = verify_appendix(n_max=bound, seed=cfg.seed, tol=cfg.tolerance)
    return report.as_dict(), VERIFIED if report.passed else REFUTED


def _run_rkhs(cfg: RunConfig) -> tuple[dict, str]:
    if len(cfg.points) != 1:
        raise ConfigError("rkhs-quotient expects exactly one base point")
    check_direct_size(cfg.bundles[0], cfg.order)
    z0 = cfg.points[0]
    a, b = quotient_models(cfg.bundles[0], cfg.bundles[1], z0, cfg.order)
    rep = unitary_equiv_check(a, b, cfg.tolerance, cfg.seed)
    body = rep.as_dict()
    body["point"] = [_cnum(c) for c in z0]
    verdict = combine_verdicts([rep.contact_verdict, rep.direct_verdict])
    return body, verdict


# every task: the bundles it reads (with none, no points) and its runner
TASKS = {
    "pointwise": (2, _run_contact),
    "along-z": (2, _run_contact),
    "curvature": (1, _run_curvature),
    "verify-recursions": (1, _run_recursions),
    "verify-appendix": (0, _run_appendix),
    "rkhs-quotient": (2, _run_rkhs),
}


def run(cfg: RunConfig) -> dict:
    """Dispatch a validated config; returns the report document."""
    results, verdict = TASKS[cfg.task][1](cfg)
    exit_code = {
        VERIFIED: EXIT_VERIFIED,
        "completed": EXIT_VERIFIED,
        REFUTED: EXIT_REFUTED,
        INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[verdict]
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "jetcontact", "version": __version__},
        "task": cfg.task,
        "config": _config_echo(cfg),
        "seed": cfg.seed,
        "results": results,
        "verdict": verdict,
        "exit_code": exit_code,
    }


def _config_echo(cfg: RunConfig) -> dict:
    echo = {
        "task": cfg.task,
        "order": cfg.order,
        "tolerance": cfg.tolerance,
        "seed": cfg.seed,
        "bundles": [
            {
                "label": b.label,
                "dimension": b.dimension,
                "rank": b.rank,
                "gram": [[e.text() for e in row] for row in b.entries],
            }
            for b in cfg.bundles
        ],
        "points": [[_cnum(c) for c in p] for p in cfg.points],
    }
    if cfg.candidate is not None:
        echo["candidate"] = cfg.candidate
    if cfg.appendix_bound is not None:
        echo["appendix_bound"] = cfg.appendix_bound
    return echo


def _strict_json(value):
    """The document with every non-finite float written as the string "nan",
    "inf" or "-inf": strict JSON has no token for them."""
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    return value


def _emit(document: dict, out_path) -> None:
    text = json.dumps(_strict_json(document), indent=2, sort_keys=True,
                      allow_nan=False)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write report {out_path!r}: {exc}") from exc
    else:
        print(text)


# built once at import, not per call: building it takes about ten times as
# long as parsing a command line with it
_PARSER = argparse.ArgumentParser(
    prog="jetcontact",
    description="Decide and verify order-n contact between Hermitian "
    "holomorphic vector bundles given by Gram expressions.",
)
_PARSER.add_argument("--config", required=True, help="YAML run configuration")
_PARSER.add_argument("--task", choices=TASKS, help="override the config task")
_PARSER.add_argument("--order", type=int, help="override the jet order")
_PARSER.add_argument("--tolerance", type=float, help="override the tolerance")
_PARSER.add_argument("--seed", type=int, help="override the random seed")
_PARSER.add_argument("--out", help="write the JSON report here (default stdout)")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        cfg = load_config(args.config, {
            "task": args.task, "order": args.order, "tolerance": args.tolerance,
            "seed": args.seed, "out": args.out,
        })
        document = run(cfg)
        _emit(document, cfg.out)
    except (ValueError, ArithmeticError) as exc:  # ConfigError, ParseError, LinAlgError too
        print(f"jetcontact: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return document["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
