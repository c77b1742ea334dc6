"""Canonical-connection geometry of a bundle given by a Gram jet.

With respect to a holomorphic frame with Gram matrix H, the canonical
(metric-compatible, holomorphy-compatible) connection has matrix
``dH * H^-1`` per holomorphic direction, the curvature components are

    K_{i jbar} = (d_i dbar_j H - d_i H * H^-1 * dbar_j H) * H^-1,

and covariant derivatives of a bundle map with representing matrix Phi are

    (Phi_{z_i})    = d_i Phi - d_i H * H^-1 * Phi + Phi * d_i H * H^-1
    (Phi_{zbar_i}) = dbar_i Phi.

Representing matrices act from the left; mixed covariant derivatives are
evaluated in the fixed order "all z_i first, then all zbar_j" (the order
matters and no symmetrization is performed).

Direction arguments are 1-based throughout, matching the z1..zm naming of
the expression grammar.  Everything here runs on jets at one point or, with
a leading point axis, at a grid of points; values then carry the point axis
too.
"""

from __future__ import annotations

from operator import matmul

import numpy as np

from .jetcore import (HermJet, HoloJet, OrderError, index_table, multi_index_factorial,
                      unit_index)
from .pascal import binomial_solve

__all__ = [
    "connection",
    "curvature",
    "curvature_table",
    "cov_deriv",
    "cov_step",
    "map_adjoint_jet",
    "L_tensor",
    "K1j_recursion",
    "K1j_tower",
    "transverse_tower",
    "Q_value",
    "Q_jet",
    "Q_recursion",
    "normalize_frame",
    "normalized_defect",
    "hermitian_sqrt",
]


def connection(H: HermJet, i: int) -> HermJet:
    """Jet of the connection matrix in direction z_i: d_i H * H^-1."""
    return H.deriv(i - 1) * H.inv()


def _check_curvature_orders(H: HermJet) -> None:
    if H.holo_order < 1 or H.anti_order < 1:
        raise OrderError("curvature needs jet orders >= (1, 1)")


def curvature(H: HermJet, i: int, j: int) -> HermJet:
    """Jet of the curvature component K_{i jbar} = dbar_j(d_i H * H^-1)."""
    _check_curvature_orders(H)
    return connection(H, i).deriv(j - 1, conjugate=True)


def curvature_table(H: HermJet, directions) -> tuple[dict, dict]:
    """The jets conn[i] = connection(H, i) and K[i][j] = K_{i jbar} =
    dbar_j conn[i] for i, j in `directions`, each connection formed once."""
    _check_curvature_orders(H)
    conn = {i: connection(H, i) for i in directions}
    return conn, {i: {j: c.deriv(j - 1, conjugate=True) for j in directions}
                  for i, c in conn.items()}


def cov_deriv(Phi: HermJet, H: HermJet, direction: int, conjugate: bool = False) -> HermJet:
    """Covariant derivative of the bundle map represented by Phi."""
    if conjugate:
        return Phi.deriv(direction - 1, conjugate=True)
    return cov_step(Phi, connection(H, direction), direction)


def cov_step(Phi: HermJet, conn: HermJet, direction: int) -> HermJet:
    """Holomorphic covariant derivative of Phi given the connection jet
    `conn` in that direction, ``connection(H, direction)``."""
    return Phi.deriv(direction - 1) - conn * Phi + Phi * conn


def transverse_tower(H: HermJet, n: int) -> list:
    """Values of (K_{1 1bar})_{z1^r zbar1^t} for r, t = 0..n-1, as rows r of
    columns t; each covariant step is taken once, from the previous one, and
    the connection is formed once for the curvature and every step.

    The tower reads only z1 and zbar1 derivatives, so it runs on the jet of
    H restricted to the z1-line through the center (:meth:`HermJet.restrict`):
    at dim 2, orders (3, 3), a table of 16 coefficients instead of 100."""
    H = H.restrict((0,))
    conn, K = curvature_table(H, (1,))
    rows = []
    step = K[1][1]
    for r in range(n):
        if r:
            step = cov_step(step, conn[1], 1)
        col = step
        row = [col.value()]
        for _ in range(1, n):
            col = cov_deriv(col, H, 1, conjugate=True)
            row.append(col.value())
        rows.append(row)
    return rows


def map_adjoint_jet(Phi: HermJet, H: HermJet) -> HermJet:
    """Jet of z -> H(z) Phi(z)^* H(z)^-1, the adjoint map's matrix."""
    return H * Phi.adjoint() * H.inv()


def _mixed_tensor(H: HermJet, alpha: tuple, beta: tuple) -> np.ndarray:
    """Value at the center of
    (d^alpha dbar^beta H - d^alpha H * H^-1 * dbar^beta H) * H^-1."""
    zero = unit_index(H.dim, 0, 0)
    h0inv = np.linalg.inv(H.value())
    mixed = H.extract(alpha, beta)
    return (mixed - H.extract(alpha, zero) @ h0inv @ H.extract(zero, beta)) @ h0inv


def L_tensor(H: HermJet, j: int, l: int) -> np.ndarray:
    """Value at the center of
    (d_{z1}^l dbar_j H - d_{z1}^l H * H^-1 * dbar_j H) * H^-1."""
    return _mixed_tensor(H, unit_index(H.dim, 0, l), unit_index(H.dim, j - 1))


def K1j_recursion(H: HermJet, j: int, n: int) -> np.ndarray:
    """Value of the matrix representing (K_{1 jbar})_{z_1^(n-1)} at the center,
    by the recursion J_1 = L_j^1, J_n = L_j^n - sum binom(n,i) d^i H H^-1 J_{n-i}."""
    if n < 1:
        raise ValueError("recursion order must be >= 1")
    return K1j_tower(H, [L_tensor(H, j, k) for k in range(1, n + 1)])[-1]


def K1j_tower(H: HermJet, ls: list) -> list:
    """Values of (K_{1 jbar})_{z_1^r} for r = 0..n-1 from ls = [L_j^1, ..., L_j^n]
    by one binomial solve of the recursion of :func:`K1j_recursion`."""
    h0inv = np.linalg.inv(H.value())
    g = [H.extract(unit_index(H.dim, 0, i)) @ h0inv for i in range(1, len(ls))]
    return binomial_solve(ls, g, matmul, left=True)


def Q_value(H: HermJet, j: int, n: int = 1) -> np.ndarray:
    """Value of (dbar_{z1}^n d_j H - d_j H * H^-1 * dbar_{z1}^n H) * H^-1."""
    return _mixed_tensor(H, unit_index(H.dim, j - 1), unit_index(H.dim, 0, n))


def Q_jet(H: HermJet, j: int) -> HermJet:
    """Jet of dbar_{z1}(d_j H * H^-1), the matrix of the (j, 1bar) curvature."""
    return connection(H, j).deriv(0, conjugate=True)


def Q_recursion(H: HermJet, j: int, n: int) -> np.ndarray:
    """Value of dbar_{z1}^n applied to dbar_{z1}(d_j H * H^-1) at the center,
    computed from lower orders:

        dbar^n Q = Q^(n+1) - sum_{i=1}^n binom(n+1, i) (dbar^{n-i} Q) dbar^i H H^-1
    """
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    h0inv = np.linalg.inv(H.value())
    hbar = [H.extract(unit_index(H.dim, 0, 0), unit_index(H.dim, 0, i)) @ h0inv
            for i in range(1, n + 1)]
    b = [Q_value(H, j, k) for k in range(1, n + 2)]
    return binomial_solve(b, hbar, matmul)[n]


def hermitian_sqrt(M: np.ndarray) -> np.ndarray:
    """Positive square root of a Hermitian positive-definite matrix (of each
    matrix of a stack)."""
    w, v = np.linalg.eigh(M)
    if w.min() <= 0.0:
        raise ValueError(f"matrix not positive definite (min eigenvalue {w.min():.2e})")
    return (v * np.sqrt(w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def normalize_frame(H: HermJet, n: int) -> tuple[HoloJet, HermJet]:
    """Holomorphic frame change A with A(z0) H A(z0)^* normalized at the center.

    The normalized Gram satisfies Hnorm(z0) = I and vanishing pure-holomorphic
    derivatives d^a Hnorm(z0) = 0 for 1 <= |a| <= n (conjugates vanish by
    symmetry).  A is built as H(z0)^{1/2} * [H(z, zbar frozen)]^{-1}; the
    post-condition is verified, not assumed.
    """
    if H.holo_order < n or H.anti_order < n:
        raise OrderError(f"normalization to order {n} needs jet orders >= ({n},{n})")
    root = hermitian_sqrt(H.value())
    frozen = H.holo_part()  # H(z, zbar0) as a holomorphic jet
    A = HoloJet.constant(root, H.center, frozen.holo_order) * frozen.inv()
    Hnorm = A.as_herm(H.anti_order) * H * A.adjoint_as_herm(H.holo_order)
    defect = normalized_defect(Hnorm, n)
    scale = 1.0 + np.max(np.abs(H.coeffs), axis=(-4, -3, -2, -1))
    if not (defect <= 1e-8 * scale).all():  # a NaN defect fails
        raise ArithmeticError(
            f"frame normalization failed (defect {np.max(defect):.2e}); "
            "Gram jet is likely ill-conditioned"
        )
    return A, Hnorm


def normalized_defect(Hnorm: HermJet, n: int) -> float:
    """Max violation of the normalized-frame conditions up to order n (one
    per point at P centers): of Hnorm(z0) = I and of d^a Hnorm(z0) = 0 for
    1 <= |a| <= n.  A NaN in any of them is the result."""
    table = index_table(Hnorm.dim, min(n, Hnorm.holo_order))
    # the derivatives of orders 1..n are the holomorphic positions after the
    # value, in graded order
    weights = np.array([multi_index_factorial(alpha) for alpha in table[1:]], dtype=float)
    holo = Hnorm.coeffs[..., 1:len(table), 0, :, :] * weights[:, None, None]
    parts = (Hnorm.value() - np.eye(Hnorm.rank), holo)
    return np.max(np.concatenate([np.abs(x).reshape(Hnorm.points + (-1,)) for x in parts],
                                 axis=-1), axis=-1)
