"""The Pascal matrix algebra, its generator, and jet transition matrices.

A block Pascal matrix of order n and block size l is the lower triangular
(n+1) x (n+1) block matrix whose (i, j) block is binom(i, j) * A[i-j]
(0-based), so it is determined by its first block column A[0..n].  The jet of
a holomorphic frame change A(z) produces exactly such a matrix, and the whole
family is the commutant of the weighted shift generator with subdiagonal
blocks I, 2I, ..., nI.  Division in the algebra by an element with identity
leading block is the forward substitution :func:`binomial_solve`, which every
"X_l = B_l - sum binom(l, i) ..." recursion of the package runs through.

Binomials are exact Python ints, but scaling a complex128 block rounds them to
double precision.  binom(n, n/2) exceeds 2^53 from n = 57 on (binom(60, 30) is
about 1.18e17), and 24 of the binomials with n <= 60, the first binom(57, 25),
are not doubles, so they round.  Orders are guarded at n <= 60.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .jetcore import (
    HoloJet,
    index_positions,
    index_table,
    multi_index_binom,
)

__all__ = [
    "PascalBlock",
    "pascal_generator",
    "pascal_expand",
    "pascal_multiply",
    "binomial_solve",
    "lambda_from_jet",
    "pascal_from_column",
    "commutant_basis",
    "pascal_pattern_defect",
    "multi_pascal_generator",
    "multi_lambda_from_jet",
]

_MAX_ORDER = 60


def _check_order(n: int) -> None:
    if not 1 <= n <= _MAX_ORDER:
        raise ValueError(f"jet order {n} outside supported range 1..{_MAX_ORDER}")


@dataclass(frozen=True)
class PascalBlock:
    """Element of the block Pascal algebra, stored by its first block column;
    a leading point axis holds one element per point of a grid."""

    order: int
    block_size: int
    first_column: np.ndarray  # (*P, order+1, block_size, block_size)

    def __post_init__(self):
        col = np.asarray(self.first_column, dtype=np.complex128)
        expected = col.shape[:-3] + (self.order + 1, self.block_size, self.block_size)
        if col.shape != expected:
            raise ValueError(f"first column has shape {col.shape}, expected {expected}")
        object.__setattr__(self, "first_column", col)


def pascal_generator(n: int, l: int = 1) -> np.ndarray:
    """Weighted shift with subdiagonal blocks I, 2I, ..., nI; its commutant
    is the block Pascal algebra."""
    _check_order(n)
    gen = np.zeros(((n + 1) * l, (n + 1) * l), dtype=np.complex128)
    for k in range(1, n + 1):
        gen[k * l : (k + 1) * l, (k - 1) * l : k * l] = k * np.eye(l)
    return gen


def pascal_expand(block: PascalBlock) -> np.ndarray:
    """Dense (n+1)l x (n+1)l expansion: block (i, j) = binom(i, j) A[i-j]."""
    n, l = block.order, block.block_size
    col = block.first_column
    out = np.zeros(col.shape[:-3] + ((n + 1) * l, (n + 1) * l), dtype=np.complex128)
    for i in range(n + 1):
        for j in range(i + 1):
            out[..., i * l : (i + 1) * l, j * l : (j + 1) * l] = comb(i, j) * col[..., i - j, :, :]
    return out


def pascal_multiply(a: PascalBlock, b: PascalBlock) -> PascalBlock:
    """Product inside the algebra: binomial convolution of first columns."""
    if (a.order, a.block_size) != (b.order, b.block_size):
        raise ValueError("Pascal blocks differ in order or block size")
    n = a.order
    x, y = a.first_column, b.first_column
    col = np.zeros_like(x)
    for k in range(n + 1):
        for i in range(k + 1):
            col[..., k, :, :] += comb(k, i) * (x[..., i, :, :] @ y[..., k - i, :, :])
    return PascalBlock(n, a.block_size, col)


def binomial_solve(b, g, mul, x0=None, left=False) -> list:
    """Forward substitution in the Pascal algebra: x_1..x_n from

        x_l = b_l - sum_i binom(l, i) x_{l-i} g_i     (g_i x_{l-i} if left)

    with b[l-1] = b_l and g[i-1] = g_i.  The sum runs over i = 1..l with
    x_0 = x0, or over i = 1..l-1 when x0 is None (x_0 = 0).  In first
    columns this solves X G = B (G X = B if left) for G = (1, g_1, ...) and
    B = (x_0, b_1, ...).  The terms need only `-`, integer scaling and the
    product `mul`: arrays, jets and polynomials all qualify.
    """
    x = [x0]
    for l in range(1, len(b) + 1):
        acc = b[l - 1]
        for i in range(1, l if x0 is None else l + 1):
            term = mul(g[i - 1], x[l - i]) if left else mul(x[l - i], g[i - 1])
            acc = acc - comb(l, i) * term
        x.append(acc)
    return x[1:]


def pascal_from_column(column) -> PascalBlock:
    """The element with first column A[0..n], (n+1, l, l) or scalars (n+1,),
    or one per point, (P, n+1, l, l)."""
    column = np.asarray(column, dtype=np.complex128)
    if column.ndim == 1:
        column = column[:, None, None]
    return PascalBlock(column.shape[-3] - 1, column.shape[-1], column)


def lambda_from_jet(jet: HoloJet, order=None) -> PascalBlock:
    """Transition matrix of the 1-variable jet frame induced by a holomorphic
    frame change: first column A(z0), A'(z0), ..., A^(n)(z0).

    For an ambient dimension > 1 the derivatives are taken in z1.
    """
    n = jet.order if order is None else order
    _check_order(n)
    e1 = tuple(1 if k == 0 else 0 for k in range(jet.dim))
    col = np.empty((n + 1, jet.rank, jet.rank), dtype=np.complex128)
    for k in range(n + 1):
        col[k] = jet.extract(tuple(k * c for c in e1))
    return PascalBlock(n, jet.rank, col)


def commutant_basis(n: int, l: int = 1, tol: float = 1e-10) -> list[np.ndarray]:
    """Basis of {Q : PQ = QP} via dense nullspace extraction (SVD threshold
    on the normalized system)."""
    _check_order(n)
    gen = pascal_generator(n, l)
    size = gen.shape[0]
    # row-major vec: vec(PQ - QP) = (P kron I - I kron P^T) vec(Q)
    system = np.kron(gen, np.eye(size)) - np.kron(np.eye(size), gen.T)
    system = system / max(1.0, np.linalg.norm(system, ord=np.inf))
    _, svals, vh = np.linalg.svd(system)
    null_mask = np.concatenate(
        [svals <= tol, np.ones(vh.shape[0] - len(svals), dtype=bool)]
    )
    return [vh[k].conj().reshape(size, size) for k in np.nonzero(null_mask)[0]]


def pascal_pattern_defect(matrix: np.ndarray, n: int, l: int = 1) -> float:
    """Max deviation of a matrix from the Pascal pattern of its first column."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    col = np.stack([matrix[i * l : (i + 1) * l, 0:l] for i in range(n + 1)])
    model = pascal_expand(PascalBlock(n, l, col))
    return float(np.max(np.abs(matrix - model)))


# ---------------------------------------------------------------------------
# several-variable jet frames


def multi_pascal_generator(dim: int, n: int, direction: int, l: int = 1) -> np.ndarray:
    """Generator for the `direction`-th derivative-lowering map (1-based) on
    the full multi-index jet basis of total order <= n."""
    _check_order(n)
    if not 1 <= direction <= dim:
        raise ValueError(f"direction {direction} outside 1..{dim}")
    table = index_table(dim, n)
    pos = index_positions(dim, n)
    size = len(table)
    out = np.zeros((size * l, size * l), dtype=np.complex128)
    d = direction - 1
    for row, idx in enumerate(table):
        if idx[d] >= 1:
            lowered = tuple(c - 1 if k == d else c for k, c in enumerate(idx))
            col = pos[lowered]
            out[row * l : (row + 1) * l, col * l : (col + 1) * l] = idx[d] * np.eye(l)
    return out


def multi_lambda_from_jet(jet: HoloJet, n=None) -> np.ndarray:
    """Full multi-index jet transition matrix of a holomorphic frame change:
    block (I, J) = prod_k binom(I_k, J_k) * d^(I-J) A(z0) for J <= I (one
    per point for a jet at P centers)."""
    n = jet.order if n is None else n
    table = index_table(jet.dim, n)
    size = len(table)
    l = jet.rank
    out = np.zeros(jet.points + (size * l, size * l), dtype=np.complex128)
    for row, bigidx in enumerate(table):
        for col, smallidx in enumerate(table):
            weight = multi_index_binom(bigidx, smallidx)
            if weight:
                diff = tuple(a - b for a, b in zip(bigidx, smallidx))
                out[..., row * l : (row + 1) * l, col * l : (col + 1) * l] = (
                    weight * jet.extract(diff)
                )
    return out
