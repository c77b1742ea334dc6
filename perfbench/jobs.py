"""Seeded, known-answer job generator for the jetcontact benchmark.

Every job is a run configuration for the ``jetcontact`` CLI plus the answer
it must produce.  Answers come from the construction, never from the program
under test:

* Gram matrices are built as ``G D G^*`` with ``D`` a diagonal of positive
  definite scalar kernels (Fock-type ``exp`` and Bergman-type ``pow``) and
  ``G`` a holomorphic polynomial matrix, so every Gram is Hermitian-symmetric
  and positive definite by construction.
* ``alongz-grid`` pairs ``H = F D F^*`` with ``Ht = A^-1 H A^-*`` for a seeded
  holomorphic unitriangular ``A``: ``A`` is an isometry of the two bundles,
  so contact along ``Z`` holds at every order and the candidate ``A`` is
  correct.  The twin multiplies the diagonal of ``Ht`` by ``1 + c z1 zb1``,
  which shifts the transverse curvature at ``Z`` and must be refuted.
* ``quotient-decide`` pairs a kernel ``K`` with ``A K A^*`` (unitarily
  equivalent quotient models) and with the same perturbed twin (refuted).
* ``curvature-towers`` checks the curvature recursions, which are identities,
  so the answer is always ``verified``.

Jobs are a deterministic stream: job ``i`` of workload ``w`` under seed ``s``
depends only on ``(w, s, i)``.  Run this file to write one job's config for
replay through the CLI::

    python3 perfbench/jobs.py --workload alongz-grid --seed 3 --index 5 > job.yaml
    PYTHONPATH=src python3 -m jetcontact.cli --config job.yaml
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from decimal import Decimal

import yaml

WORKLOADS = ("alongz-grid", "curvature-towers", "quotient-decide")


@dataclass(frozen=True)
class Job:
    """One generated configuration and the answer the program must give."""

    workload: str
    index: int
    config: dict
    expect_verdict: str  # "verified" or "refuted"
    points: int  # evaluation points decided by the job

    @property
    def expect_exit(self) -> int:
        return {"verified": 0, "refuted": 1}[self.expect_verdict]

    def yaml_text(self) -> str:
        return yaml.safe_dump(self.config, sort_keys=True, default_flow_style=None)


# ---------------------------------------------------------------------------
# holomorphic polynomials as {exponent tuple: complex coefficient}


def _dec(x: float) -> str:
    """Shortest exact decimal of a float, without exponent notation (the
    grammar has none), so the program reads back the same double."""
    return format(Decimal(repr(float(x))), "f")


def _lit(c: complex) -> str:
    """Complex literal in the kernel grammar."""
    if c.imag == 0.0:
        return f"({_dec(c.real)})"
    return f"({_dec(c.real)}{'-' if c.imag < 0 else '+'}{_dec(abs(c.imag))}i)"


def _poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for mono, c in q.items():
        out[mono] = out.get(mono, 0.0) + c
    return {m: c for m, c in out.items() if c != 0.0}


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            out[mono] = out.get(mono, 0.0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0.0}


def _poly_text(p: dict, conjugate: bool) -> str:
    """Expression of p(z), or of conj(p(z)) in the zb variables."""
    terms = []
    for mono, c in sorted(p.items()):
        coef = c.conjugate() if conjugate else c
        factors = [_lit(coef)]
        for k, e in enumerate(mono):
            if e:
                var = f"{'zb' if conjugate else 'z'}{k + 1}"
                factors.append(var if e == 1 else f"{var}^{e}")
        terms.append("*".join(factors))
    return " + ".join(terms) if terms else "0"


def _const(dim: int, c: complex) -> dict:
    return {(0,) * dim: complex(c)}


def _linear(dim: int, coefs) -> dict:
    return {tuple(int(k == j) for k in range(dim)): complex(c) for j, c in enumerate(coefs)}


def _mat_mul(a, b):
    return [
        [_poly_add(_poly_mul(a[i][0], b[0][j]), _poly_mul(a[i][1], b[1][j])) for j in range(2)]
        for i in range(2)
    ]


# ---------------------------------------------------------------------------
# seeded ingredients


def _real(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _cplx(rng: random.Random, radius: float) -> complex:
    return complex(_real(rng, -radius, radius), _real(rng, -radius, radius))


def _diagonal_kernels(rng: random.Random, dim: int) -> tuple[str, str]:
    """Fock-type and Bergman-type positive definite scalar kernels."""
    fock = " + ".join(f"{_dec(_real(rng, 0.5, 1.5))}*z{k}*zb{k}" for k in range(1, dim + 1))
    berg = " - ".join(f"{_dec(_real(rng, 0.5, 1.0))}*z{k}*zb{k}" for k in range(1, dim + 1))
    return f"exp({fock})", f"pow(1 - {berg}, -{_dec(_real(rng, 1.0, 3.0))})"


def _frame(rng: random.Random, dim: int):
    """Holomorphic mixing frame F = [[1, s], [v, 1]] with s(0) = 0."""
    s = _linear(dim, [_cplx(rng, 0.4) for _ in range(dim)])
    v = _poly_add(_const(dim, _cplx(rng, 0.4)), _linear(dim, [_cplx(rng, 0.4) for _ in range(dim)]))
    return [[_const(dim, 1.0), s], [v, _const(dim, 1.0)]]


def _shear(dim: int, u: dict, sign: float):
    """Unitriangular [[1, sign * u], [0, 1]]; the signs +1 and -1 are inverses."""
    return [[_const(dim, 1.0), {m: sign * c for m, c in u.items()}], [{}, _const(dim, 1.0)]]


def _gram(g, d: tuple[str, str], twin_factor: str | None = None) -> list:
    """Entries of G diag(d) G^*; the twin multiplies the diagonal by a factor."""
    rows = []
    for p in range(2):
        row = []
        for q in range(2):
            text = " + ".join(
                f"({_poly_text(g[p][k], False)})*{d[k]}*({_poly_text(g[q][k], True)})"
                for k in range(2)
            )
            if twin_factor is not None and p == q:
                text = f"({text})*({twin_factor})"
            row.append(text)
        rows.append(row)
    return rows


def _point(rng: random.Random, dim: int, radius: float) -> list:
    return [[_real(rng, -radius, radius), _real(rng, -radius, radius)] for _ in range(dim)]


# ---------------------------------------------------------------------------
# workloads


def _alongz_grid(rng: random.Random, twin: bool) -> tuple[dict, int]:
    dim = 2
    d = _diagonal_kernels(rng, dim)
    f = _frame(rng, dim)
    u = _linear(dim, [_cplx(rng, 0.6) for _ in range(dim)])
    twin_factor = f"1 + {_dec(_real(rng, 0.3, 0.8))}*z1*zb1" if twin else None
    re0 = _real(rng, -0.25, 0.0)
    im0 = _real(rng, -0.2, 0.0)
    config = {
        "task": "along-z",
        "order": 3,
        "tolerance": 1.0e-8,
        "bundles": [
            {"label": "H", "dimension": dim, "gram": _gram(f, d)},
            {"label": "Ht", "dimension": dim,
             "gram": _gram(_mat_mul(_shear(dim, u, -1.0), f), d, twin_factor)},
        ],
        "grid": {"z2": {"re": [re0, round(re0 + 0.25, 6)], "count_re": 4,
                        "im": [im0, round(im0 + 0.2, 6)], "count_im": 2}},
        "candidate": [["1", _poly_text(u, False)], ["0", "1"]],
    }
    return config, 8


def _curvature_towers(rng: random.Random, twin: bool) -> tuple[dict, int]:
    dim = 3
    config = {
        "task": "verify-recursions",
        "order": 2,
        "tolerance": 1.0e-8,
        "bundles": [{"label": "H", "dimension": dim,
                     "gram": _gram(_frame(rng, dim), _diagonal_kernels(rng, dim))}],
        "points": [_point(rng, dim, 0.25)],
    }
    return config, 1


def _quotient_decide(rng: random.Random, twin: bool) -> tuple[dict, int]:
    dim = 2
    d = _diagonal_kernels(rng, dim)
    f = _frame(rng, dim)
    a = _shear(dim, _linear(dim, [_cplx(rng, 0.6) for _ in range(dim)]), 1.0)
    twin_factor = f"1 + {_dec(_real(rng, 0.3, 0.8))}*z1*zb1" if twin else None
    config = {
        "task": "rkhs-quotient",
        "order": 3,
        "tolerance": 1.0e-8,
        "bundles": [
            {"label": "K", "dimension": dim, "gram": _gram(f, d)},
            {"label": "AKA*", "dimension": dim, "gram": _gram(_mat_mul(a, f), d, twin_factor)},
        ],
        "points": [_point(rng, dim, 0.2)],
    }
    return config, 1


_BUILDERS = {
    "alongz-grid": (_alongz_grid, True),
    "curvature-towers": (_curvature_towers, False),
    "quotient-decide": (_quotient_decide, True),
}


def make_job(workload: str, seed: int, index: int) -> Job:
    """Job `index` of the workload's stream for `seed`; odd indices are the
    perturbed twins on workloads that have them."""
    builder, has_twins = _BUILDERS[workload]
    rng = random.Random(f"jetcontact-bench/{workload}/{seed}/{index}")
    twin = has_twins and index % 2 == 1
    config, points = builder(rng, twin)
    config["seed"] = seed
    return Job(workload, index, config, "refuted" if twin else "verified", points)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one benchmark job's config.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    args = parser.parse_args(argv)
    job = make_job(args.workload, args.seed, args.index)
    sys.stdout.write(f"# expect: {job.expect_verdict} (exit {job.expect_exit})\n")
    sys.stdout.write(job.yaml_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
