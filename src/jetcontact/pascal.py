"""The Pascal map: jet transition matrices, shifts and the Pascal algebra.

The Pascal map sends derivative values D[K] = d^K A(z0) of a holomorphic
frame change, over the multi-indices K of total order <= n, to the block
matrix on jets with (I, J) block binom(I, J) * D[I - J] for J <= I, where
binom(I, J) = prod_k binom(I_k, J_k).  One index plan per (dim, n), cached,
and one gather over blocks and points build its three uses: the transition
matrix of a jet, the one-variable expansion of a first column and the shifts
(the images of z_d - z0_d), whose joint commutant the transition matrices
form.  In one variable a first column A[0..n] is a complex array (n+1, l, l),
or (*P, n+1, l, l) with one per point; product is binomial convolution of
first columns, :func:`binomial_sums`, and division by an element with
identity leading block is the forward substitution :func:`binomial_solve`,
which every "X_l = B_l - sum binom(l, i) ..." recursion of the package runs
through.

Binomials are exact Python ints, but scaling a complex128 block rounds them to
double precision.  binom(n, n/2) exceeds 2^53 from n = 57 on (binom(60, 30) is
about 1.18e17), and 24 of the binomials with n <= 60, the first binom(57, 25),
are not doubles, so they round.  The plan guards orders at n <= 60, and so
all three builders do.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import comb
from operator import add

import numpy as np

from .jetcore import (
    HoloJet,
    OrderError,
    index_positions,
    index_table,
    multi_index_binom,
    multi_index_factorial,
    table_size,
    unit_index,
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


@lru_cache(maxsize=None)
def _pascal_plan(dim: int, n: int) -> tuple:
    """Index plan of the Pascal map on the (dim, n) table: the block
    positions (I, J) with J <= I, the table position of I - J and the weight
    binom(I, J) of each, and the factorials I!, both as doubles."""
    if not 0 <= n <= _MAX_ORDER:
        raise ValueError(f"jet order {n} outside supported range 0..{_MAX_ORDER}")
    table, pos = index_table(dim, n), index_positions(dim, n)
    blocks = [(pos[big], pos[small], pos[tuple(a - b for a, b in zip(big, small))],
               float(multi_index_binom(big, small)))
              for big in table for small in table if all(b <= a for a, b in zip(big, small))]
    rows, cols, diff, weight = (np.array(column) for column in zip(*blocks))
    return rows, cols, diff, weight, np.array([float(multi_index_factorial(i)) for i in table])


def _pascal(D: np.ndarray, dim: int, n: int) -> np.ndarray:
    """The Pascal matrix (*P, N l, N l) of derivative values D (*P, N, l, l)
    at the N positions of the (dim, n) table: block (I, J) is
    binom(I, J) * D[I - J] for J <= I, in one gather over blocks and points."""
    rows, cols, diff, weight, _ = _pascal_plan(dim, n)
    size, l = D.shape[-3], D.shape[-1]
    blocks = np.zeros(D.shape[:-3] + (size, size, l, l), dtype=np.complex128)
    blocks[..., rows, cols, :, :] = weight[:, None, None] * D[..., diff, :, :]
    return np.swapaxes(blocks, -3, -2).reshape(D.shape[:-3] + (size * l, size * l))


def pascal_expand(col: np.ndarray) -> np.ndarray:
    """Dense (n+1)l x (n+1)l expansion of a first column (*P, n+1, l, l):
    block (i, j) = binom(i, j) A[i-j]."""
    return _pascal(col, 1, col.shape[-3] - 1)


def multi_pascal_generator(dim: int, n: int, direction: int, l: int = 1) -> np.ndarray:
    """Generator for the `direction`-th derivative-lowering map (1-based) on
    the full multi-index jet basis of total order <= n: block (I, I - e_d) is
    I_d, the Pascal matrix of z_d - z0_d."""
    if n < 1:
        raise ValueError(f"jet order {n} outside supported range 1..{_MAX_ORDER}")
    if not 1 <= direction <= dim:
        raise ValueError(f"direction {direction} outside 1..{dim}")
    unit = np.zeros((table_size(dim, n), l, l), dtype=np.complex128)
    unit[index_positions(dim, n)[unit_index(dim, direction - 1)]] = np.eye(l)
    return _pascal(unit, dim, n)


def multi_lambda_from_jet(jet: HoloJet, n=None) -> np.ndarray:
    """Full multi-index jet transition matrix of a holomorphic frame change:
    block (I, J) = prod_k binom(I_k, J_k) * d^(I-J) A(z0) for J <= I (one
    per point for a jet at P centers)."""
    n = jet.holo_order if n is None else n
    if n > jet.holo_order:
        raise OrderError(f"transition matrix of order {n} beyond jet order {jet.holo_order}")
    factorials = _pascal_plan(jet.dim, n)[-1]
    values = jet.coeffs[..., : len(factorials), 0, :, :] * factorials[:, None, None]
    return _pascal(values, jet.dim, n)
