"""Shared construction helpers for the test suite."""

from __future__ import annotations

import re
from math import comb

import numpy as np
import pytest

from jetcontact import simeq
from jetcontact.geometry import cov_deriv
from jetcontact.jetcore import DimensionError, HermJet, HoloJet, table_size
from jetcontact.kernelexpr import Expr, JetProgram, ParseError, check_holomorphic, parse_kernel
from jetcontact.pascal import multi_pascal_generator, pascal_expand


def random_herm_jet(dim, rank, holo_order, anti_order, rng, scale=0.2):
    """Random polynomial Gram jet: Hermitian-symmetric with c00 near I."""
    big = max(holo_order, anti_order)
    size = table_size(dim, big)
    c = (rng.standard_normal((size, size, rank, rank))
         + 1j * rng.standard_normal((size, size, rank, rank))) * scale
    jet = HermJet((0.0,) * dim, big, big, rank, c)
    jet = (jet + jet.adjoint()).scale(0.5)
    cc = np.array(jet.coeffs)
    cc[0, 0] = np.eye(rank) + 0.05 * (cc[0, 0] + np.conj(cc[0, 0].T))
    return HermJet((0.0,) * dim, big, big, rank, cc).truncate(holo_order, anti_order)


def random_holo_jet(dim, rank, order, rng, scale=0.3):
    """Random holomorphic jet with a well-conditioned constant term."""
    na = table_size(dim, order)
    c = (rng.standard_normal((na, rank, rank))
         + 1j * rng.standard_normal((na, rank, rank))) * scale
    c[0] = np.eye(rank) + 0.2 * c[0]
    return HoloJet((0.0,) * dim, order, rank, c[:, None])


# -- reference evaluation of single expressions ------------------------------


# in canonical text: a variable's letters, or an imaginary literal
_CONJUGATED = re.compile(r"(zb|z)(?=\d)|([\d.]+i)")


def conjugate_expr(expr: Expr) -> Expr:
    """The expression of the complex conjugate: z <-> zb, imaginary literals
    negated, on the canonical text.

    Only valid structurally (exp/log/pow commute with conjugation on the
    principal branch for the positive-real constant terms this grammar
    enforces at evaluation time).
    """
    def conjugate(match):
        if match.group(2):
            return f"(-{match.group(2)})"
        return "z" if match.group(1) == "zb" else "zb"

    return parse_kernel(_CONJUGATED.sub(conjugate, expr.text()))


def eval_herm_jet(expr: Expr, center, holo_order: int, anti_order: int, dim=None) -> HermJet:
    """Jet of the expression at `center` in (z - z0, conj(z) - conj(z0))."""
    dim = len(center) if dim is None else dim
    if expr.max_var > dim:
        raise ParseError(f"variable index exceeds dimension {dim}", 0)
    return JetProgram([expr]).matrix_jet(1, center, holo_order, anti_order)


def eval_holo_jet(expr: Expr, center, order: int, dim=None) -> HoloJet:
    """Jet of a purely holomorphic expression (no zb variables allowed)."""
    dim = len(center) if dim is None else dim
    check_holomorphic(expr, dim)
    return JetProgram([expr]).matrix_jet(1, center, order, 0).holo_part()


def holo_from_entries(entries) -> HoloJet:
    """The matrix jet whose (p, q) entry is the scalar jet entries[p][q];
    the entries must share center and order."""
    rows = len(entries)
    first = entries[0][0]
    coeffs = np.zeros(first.coeffs.shape[:-2] + (rows, rows), dtype=np.complex128)
    for p in range(rows):
        for q in range(rows):
            e = entries[p][q]
            if e.holo_order != first.holo_order or e.center != first.center:
                raise DimensionError("entry jets must share center and order")
            coeffs[..., p, q] = e.coeffs[..., 0, 0]
    return HoloJet(first.center, first.holo_order, rows, coeffs)


# -- references: the one-variable Pascal algebra, mixed covariant steps -----


def pascal_generator(n, l=1):
    """Weighted shift with blocks I, 2I, ..., nI; its commutant is the Pascal algebra."""
    return multi_pascal_generator(1, n, 1, l)


def pascal_multiply(x, y):
    """Product in the Pascal algebra: binomial convolution of first columns."""
    col = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.complex128)
    for k in range(col.shape[-3]):
        for i in range(k + 1):
            col[..., k, :, :] += comb(k, i) * (x[..., i, :, :] @ y[..., k - i, :, :])
    return col


def lambda_from_jet(jet: HoloJet) -> np.ndarray:
    """First column A, A', ..., A^(n) (z1 derivatives at the center) of the
    jet transition matrix of a holomorphic frame change."""
    return np.stack([jet.extract((k,) + (0,) * (jet.dim - 1))
                     for k in range(jet.holo_order + 1)])


def commutant_basis(n: int, l: int = 1, tol: float = 1e-10) -> list[np.ndarray]:
    """Basis of {Q : PQ = QP}: the null space of the normalized system (SVD)."""
    gen = pascal_generator(n, l)
    size = gen.shape[0]
    # row-major vec: vec(PQ - QP) = (P kron I - I kron P^T) vec(Q)
    system = np.kron(gen, np.eye(size)) - np.kron(np.eye(size), gen.T)
    _, svals, vh = np.linalg.svd(system / max(1.0, np.linalg.norm(system, ord=np.inf)))
    return [v.conj().reshape(size, size) for v in vh[np.count_nonzero(svals > tol):]]


def pascal_pattern_defect(matrix: np.ndarray, n: int, l: int = 1) -> float:
    """Max deviation of a matrix from the Pascal pattern of its first column."""
    col = np.stack([matrix[i * l : (i + 1) * l, 0:l] for i in range(n + 1)])
    return float(np.max(np.abs(matrix - pascal_expand(col))))


def cov_deriv_mixed(Phi: HermJet, H: HermJet, i: int, r: int, j: int, t: int) -> HermJet:
    """(Phi)_{z_i^r zbar_j^t}: r holomorphic steps first, then t conjugate steps."""
    out = Phi
    for _ in range(r):
        out = cov_deriv(out, H, i)
    for _ in range(t):
        out = cov_deriv(out, H, j, conjugate=True)
    return out


# -- expression-level matrix algebra for building verified pairs ------------


# Canonical texts are atoms (a name, a number, a call or a parenthesized
# operation), so they combine by plain juxtaposition with an operator.


def parse_grid(rows):
    return [[parse_kernel(e) if isinstance(e, str) else e for e in row] for row in rows]


def expr_matmul(a, b):
    a, b = parse_grid(a), parse_grid(b)
    size = len(a)
    return [
        [parse_kernel(" + ".join(f"{a[i][k].text()} * {b[k][j].text()}" for k in range(size)))
         for j in range(size)]
        for i in range(size)
    ]


def expr_conj_transpose(a):
    a = parse_grid(a)
    size = len(a)
    return [[conjugate_expr(a[j][i]) for j in range(size)] for i in range(size)]


def conjugated_gram(h_entries, a_inv_entries):
    """Entries of A^-1 H (A^-1)^* for expression grids."""
    return expr_matmul(expr_matmul(a_inv_entries, h_entries), expr_conj_transpose(a_inv_entries))


def unitriangular_pair(corner: str):
    """A = [[1, corner], [0, 1]] and its inverse, as expression grids."""
    a = parse_grid([["1", corner], ["0", "1"]])
    a_inv = [[a[0][0], parse_kernel(f"-{a[0][1].text()}")], [a[1][0], a[1][1]]]
    return a, a_inv


PAIR_GRAMS_M2 = [
    # positive-definite rank-2 Gram grids on a neighbourhood of the test grid
    [
        ["exp(z1*zb1 + z2*zb2)", "0.2*z1*zb2"],
        ["0.2*z2*zb1", "pow(1 - 0.25*(z1*zb1 + z2*zb2), -2)"],
    ],
    [
        ["pow(1 - 0.5*z1*zb1 - 0.5*z2*zb2, -1)", "0.1*(z1 + z2)*zb2"],
        ["0.1*z2*(zb1 + zb2)", "exp(0.5*z1*zb1 + z2*zb2) + 0.3*z1*z2*zb1*zb2"],
    ],
]

PAIR_CORNERS_M2 = [
    "0.3*z1 + 0.1*z2 + 0.2*z1*z2",
    "0.25*z2 - 0.15*z1*z1",
    "0.2*z1 - 0.1*z2 + 0.05*z2*z2",
    "0.4*z1*z2 + 0.1*z1",
    "0.35*z2 + 0.2*z1*z1*z2",
]

SCALAR_GRAMS_M2 = [
    "exp(z1*zb1 + z2*zb2)",
    "pow(1 - 0.5*z1*zb1 - 0.4*z2*zb2, -1)",
    "pow(1 - 0.3*(z1*zb1 + z2*zb2), -2)",
    "exp(0.7*z1*zb1 + 0.2*(z1*zb2 + z2*zb1) + 0.8*z2*zb2)",
    "exp(z1*zb1) * pow(1 - 0.4*z2*zb2, -1)",
]

SCALAR_FACTORS_M2 = [
    "exp(0.3*z1 + 0.2*z2)",
    "1 + 0.2*z1 + 0.1*z2*z2",
    "exp(0.1*z1*z2)",
    "1 + 0.15*z1*z2 - 0.1*z2",
    "exp(-0.2*z2 + 0.1*z1)",
]


def constructed_scalar_pair(gram: str, factor: str):
    """Rank-1 pair (H, Ht) with Ht = |factor|^-2 * H, plus the factor as the
    corner candidate (so H = factor * Ht * conj(factor))."""
    h = parse_grid([[gram]])
    inv = parse_kernel(f"pow({factor}, -1)")
    ht = [[parse_kernel(f"{inv.text()} * {conjugate_expr(inv).text()} * {h[0][0].text()}")]]
    return h, ht, [[parse_kernel(factor)]]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def simeq_draws(monkeypatch):
    """The draws of every similarity solve in the test: each builds one
    normal matrix."""
    draws = []
    normal_matrix = simeq._normal_matrix

    def spy(*args):
        draws.append(None)
        return normal_matrix(*args)

    monkeypatch.setattr(simeq, "_normal_matrix", spy)
    return draws
