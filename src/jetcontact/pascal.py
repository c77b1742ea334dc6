"""The Pascal matrix algebra and jet transition matrices.

A block Pascal matrix of order n and block size l is the lower triangular
(n+1) x (n+1) block matrix whose (i, j) block is binom(i, j) * A[i-j]
(0-based).  It is stored by its first block column A[0..n], a complex array
(n+1, l, l), or (*P, n+1, l, l) with one element per point.  The jet of a
holomorphic frame change produces such a matrix, and the family is the
commutant of the weighted shift with subdiagonal blocks I, 2I, ..., nI (that
generator and the commutant live in the tests, as references).  Product is
binomial convolution of first columns, :func:`binomial_sums`; division by an
element with identity leading block is the forward substitution
:func:`binomial_solve`, which every "X_l = B_l - sum binom(l, i) ..."
recursion of the package runs through.

Binomials are exact Python ints, but scaling a complex128 block rounds them to
double precision.  binom(n, n/2) exceeds 2^53 from n = 57 on (binom(60, 30) is
about 1.18e17), and 24 of the binomials with n <= 60, the first binom(57, 25),
are not doubles, so they round.  Orders are guarded at n <= 60.
"""

from __future__ import annotations

from functools import reduce
from math import comb
from operator import add

import numpy as np

from .jetcore import (
    HoloJet,
    index_positions,
    index_table,
    multi_index_binom,
)

__all__ = [
    "pascal_expand",
    "binomial_sums",
    "binomial_solve",
    "pascal_from_column",
    "multi_pascal_generator",
    "multi_lambda_from_jet",
]

_MAX_ORDER = 60


def pascal_expand(col: np.ndarray) -> np.ndarray:
    """Dense (n+1)l x (n+1)l expansion of a first column (*P, n+1, l, l):
    block (i, j) = binom(i, j) A[i-j]."""
    n, l = col.shape[-3] - 1, col.shape[-1]
    out = np.zeros(col.shape[:-3] + ((n + 1) * l, (n + 1) * l), dtype=np.complex128)
    for i in range(n + 1):
        for j in range(i + 1):
            out[..., i * l : (i + 1) * l, j * l : (j + 1) * l] = comb(i, j) * col[..., i - j, :, :]
    return out


def binomial_sums(x, g, mul) -> list:
    """Convolution in the Pascal algebra: s_l = sum_{i=1}^{l} binom(l, i)
    x_{l-i} g_i for l = 1..len(g), with x[k] = x_k and g[i-1] = g_i, so that
    X G = (x_0, x_l + s_l) for G = (1, g_1, ...).  The terms are added in the
    order of i, from the first, so on arrays the sums equal that in-order loop
    bit for bit."""
    return [reduce(add, (comb(l, i) * mul(x[l - i], g[i - 1]) for i in range(1, l + 1)))
            for l in range(1, len(g) + 1)]


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


def pascal_from_column(column) -> np.ndarray:
    """The first column A[0..n] as a complex array (*P, n+1, l, l); scalars
    (n+1,) become 1 x 1 blocks."""
    column = np.asarray(column, dtype=np.complex128)
    if column.ndim == 1:
        column = column[:, None, None]
    return column


# ---------------------------------------------------------------------------
# several-variable jet frames


def multi_pascal_generator(dim: int, n: int, direction: int, l: int = 1) -> np.ndarray:
    """Generator for the `direction`-th derivative-lowering map (1-based) on
    the full multi-index jet basis of total order <= n."""
    if not 1 <= n <= _MAX_ORDER:
        raise ValueError(f"jet order {n} outside supported range 1..{_MAX_ORDER}")
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
    n = jet.holo_order if n is None else n
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
