"""Shared construction helpers for the test suite."""

from __future__ import annotations

import re
from math import comb

import numpy as np
import pytest

from jetcontact import simeq
from jetcontact.geometry import cov_deriv
from jetcontact.jetcore import (
    DimensionError,
    HermJet,
    HoloJet,
    _product,
    index_positions,
    index_table,
    multi_index_binom,
    point_axis,
    table_size,
    unit_index,
)
from jetcontact.kernelexpr import Expr, JetProgram, parse_kernel, read_grid
from jetcontact.pascal import pascal_expand


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


def random_holo_jet(dim, rank, order, rng, scale=0.3, points=None):
    """Random holomorphic jet with a well-conditioned constant term; at
    `points` centers on the diagonal when given."""
    shape = (() if points is None else (points,)) + (table_size(dim, order), rank, rank)
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    c[..., 0, :, :] = np.eye(rank) + 0.2 * c[..., 0, :, :]
    center = (0.0,) * dim if points is None else tuple((0.1 * p,) * dim for p in range(points))
    return HoloJet(center, order, rank, c[..., None, :, :])


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


def _point_values(center, var: int):
    """Coordinate z_var of the center, or per point as a (P, 1, 1) array."""
    if point_axis(center):
        return np.array([point[var] for point in center]).reshape(-1, 1, 1)
    return center[var]


def coordinate(var: int, center, holo_order: int, anti_order: int) -> HermJet:
    """Scalar jet of the coordinate function z_var (0-based)."""
    jet = HermJet.constant(_point_values(center, var), center, holo_order, anti_order)
    if holo_order >= 1:
        c = np.array(jet.coeffs)
        c[..., index_positions(jet.dim, holo_order)[unit_index(jet.dim, var)], 0, 0, 0] = 1.0
        return HermJet(jet.center, holo_order, anti_order, 1, c)
    return jet


def conj_coordinate(var: int, center, holo_order: int, anti_order: int) -> HermJet:
    """Scalar jet of conj(z_var)."""
    value = np.conj(_point_values(center, var))
    jet = HermJet.constant(value, center, holo_order, anti_order)
    if anti_order >= 1:
        c = np.array(jet.coeffs)
        c[..., 0, index_positions(jet.dim, anti_order)[unit_index(jet.dim, var)], 0, 0] = 1.0
        return HermJet(jet.center, holo_order, anti_order, 1, c)
    return jet


def shift(jet: HermJet, scalar) -> HermJet:
    """Jet of f + scalar * I: only the constant term changes."""
    coeffs = np.array(jet.coeffs)
    coeffs[..., 0, 0, :, :] += complex(scalar) * np.eye(jet.rank)
    return HermJet(jet.center, jet.holo_order, jet.anti_order, jet.rank, coeffs)


def reference_run(program: JetProgram, center, holo_order: int, anti_order: int) -> list:
    """The value of every op of `program` at `center`, evaluated one op at a
    time in op order -- the runner the level schedule replaced: a scalar
    HermJet per op, by the HermJet methods or the helpers above, and a
    product by jetcore's product kernel with its factors' degree bounds from
    ``program.degrees``."""
    jets, degrees = [], program.degrees
    for code, a, b in program.ops:
        if code == "var":
            make = conj_coordinate if b else coordinate
            jet = make(a, center, holo_order, anti_order)
        elif code == "shift":
            jet = shift(jets[a], b)
        elif code == "const":
            jet = HermJet.constant(a, center, holo_order, anti_order)
        elif code == "__mul__":
            x, y = jets[a], jets[b]
            coeffs = _product(x.coeffs, y.coeffs, x.dim, holo_order, anti_order, degrees[a],
                              degrees[b])
            jet = HermJet(x.center, holo_order, anti_order, 1, coeffs)
        elif code in ("__add__", "__sub__"):
            jet = getattr(jets[a], code)(jets[b])
        else:
            method = getattr(jets[a], code)
            jet = method() if b is None else method(b)
        jets.append(jet)
    return jets


def eval_herm_jet(expr: Expr, center, holo_order: int, anti_order: int, dim=None) -> HermJet:
    """Jet of the expression at `center` in (z - z0, conj(z) - conj(z0))."""
    dim = len(center) if dim is None else dim
    [[expr]] = read_grid([[expr]], dim, "expression")
    return JetProgram([expr]).matrix_jet(1, center, holo_order, anti_order)


def eval_holo_jet(expr: Expr, center, order: int, dim=None) -> HoloJet:
    """Jet of a purely holomorphic expression (no zb variables allowed)."""
    dim = len(center) if dim is None else dim
    [[expr]] = read_grid([[expr]], dim, "expression", holomorphic=True)
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


# -- references: the Pascal map by its block rules, mixed covariant steps ---


def reference_generator(dim, n, direction, l=1):
    """The shift lowering the `direction`-th index (1-based), one block per
    multi-index I with I_d >= 1: block (I, I - e_d) = I_d * I_l."""
    table, pos = index_table(dim, n), index_positions(dim, n)
    out = np.zeros((len(table) * l, len(table) * l), dtype=np.complex128)
    d = direction - 1
    for row, idx in enumerate(table):
        if idx[d] >= 1:
            lowered = tuple(c - 1 if k == d else c for k, c in enumerate(idx))
            col = pos[lowered]
            out[row * l : (row + 1) * l, col * l : (col + 1) * l] = idx[d] * np.eye(l)
    return out


def reference_lambda(jet: HoloJet, n: int) -> np.ndarray:
    """The jet transition matrix block by block: block (I, J) is
    multi_index_binom(I, J) * jet.extract(I - J) for J <= I."""
    table, l = index_table(jet.dim, n), jet.rank
    out = np.zeros(jet.points + (len(table) * l, len(table) * l), dtype=np.complex128)
    for row, bigidx in enumerate(table):
        for col, smallidx in enumerate(table):
            weight = multi_index_binom(bigidx, smallidx)
            if weight:
                diff = tuple(a - b for a, b in zip(bigidx, smallidx))
                out[..., row * l : (row + 1) * l, col * l : (col + 1) * l] = (
                    weight * jet.extract(diff)
                )
    return out


def pascal_generator(n, l=1):
    """Weighted shift with blocks I, 2I, ..., nI; its commutant is the Pascal algebra."""
    return reference_generator(1, n, 1, l)


def pascal_multiply(x, y):
    """Product in the Pascal algebra: binomial convolution of first columns."""
    col = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.complex128)
    for k in range(col.shape[-3]):
        for i in range(k + 1):
            col[..., k, :, :] += comb(k, i) * (x[..., i, :, :] @ y[..., k - i, :, :])
    return col


def lambda_from_jet(jet: HoloJet) -> np.ndarray:
    """First column A, A', ..., A^(n) (z1 derivatives at the center) of the
    jet transition matrix of a holomorphic frame change, (*P, n+1, l, l)."""
    return np.stack([jet.extract((k,) + (0,) * (jet.dim - 1))
                     for k in range(jet.holo_order + 1)], axis=-3)


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
