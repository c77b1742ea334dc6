"""Simultaneous unitary similarity of matrix tuples.

Decides whether a unitary U exists with A_k U = U B_k for all k.  The
adjoint equations are appended, so the intertwiners form a *-bimodule and
the polar factor of an invertible intertwiner is a unitary intertwiner.

The solve splits by the spectrum of one random self-adjoint element (the
random-element step of numerical *-algebra block-diagonalization; Murota,
Kanno, Kojima & Kojima, Japan J. Indust. Appl. Math. 27, 2010): with seeded
complex weights c, H_A = sum c_k A_k + h.c., and H_B likewise.  An
intertwiner X has H_A X = X H_B, so Y = P_A^* X P_B in the two eigenbases
obeys (lambda_i(H_A) - lambda_i(H_B)) Y_ij = 0; for similar families the
ascending spectra agree and Y is block diagonal over their clusters.  Only
those sum m_i^2 unknowns of the stacked Sylvester system S, not all s^2, go
into the solve, and S itself is never built: its normal matrix N = S^* S
has a closed form in the two rotated stacks (see _normal_matrix), O(k s^3 +
(sum m_i^2)^2) to form.  N squares the condition number (Golub & Van Loan,
Matrix Computations, 4th ed., 5.3.7), so its eigenvalues only pick the
near-null subspace Q (eigenvalues up to NULL_TOL, singular values of S up
to NULL_TOL^(1/2)), and the null test is read on S itself by the
Rayleigh-Ritz step (ibid., 8.1): a thin SVD of S Q, which has len(Q)
columns.  A bare threshold on the eigenvalues fails both ways: relative to
the largest one it loses null vectors when the whole system is null (the
largest eigenvalue is then itself rounding), and an absolute one cannot
separate a singular value of 1e-7 (eigenvalue 1e-14) from rounding-level
null eigenvalues.

A cluster ends where both spectra rise by more than NULL_TOL^(1/4) of the
spectral radius.  The gap is generous because merging clusters only adds
unknowns while a wrong cut can lose the intertwiner; a spectrum that is one
cluster gives the full system, so degenerate families take the same code.  Candidates are mapped back and
their polar factors scored on the original equations, so every residual is
the misfit of an actual unitary, whatever the split.

By Weyl's inequality (Horn & Johnson, Matrix Analysis, Thm 4.3.1), for
any weights c and unitary U, scale * 2 sum |c_k| * s times the residual of U
is at least max_i |lambda_i(H_A) - lambda_i(H_B)|, a bound continuous in the
input.  Each draw therefore certifies, less a rounding slack, a lower bound
on the residual of every unitary.  A caller that reads any residual above a
threshold as a refutation passes it as refuted_above: draws stop at the
first one whose certificate exceeds it, since no later draw can change that
verdict.  The residual is then the best misfit of the draws made so far, an
upper bound on the minimum over all draws and above the threshold with it.
A pair with some residual at or below the threshold has no certificate above
it, so its draws, unitary and residual do not depend on the threshold.
"""

from __future__ import annotations

import numpy as np

__all__ = ["unitary_intertwiner"]

TRIES = 6  # seeded draws, and random null-space combinations per draw
# singular-value bound of the null space, eigenvalue bound of the near-null
# subspace of the normal matrix, and the stopping score
NULL_TOL = 1e-10


def _first_finite_min(scores: np.ndarray) -> int | None:
    """Index of the first smallest finite score, None if none is finite."""
    finite = np.isfinite(scores)
    if not finite.any():
        return None
    return int(np.argmin(np.where(finite, scores, np.inf)))


def _weyl_bound(h_a, h_b, eig_a, eig_b, weights, scale: float) -> float:
    """Lower bound on the residual of every unitary from one draw's ascending
    spectra: max_i |lambda_i(H_A) - lambda_i(H_B)| less a rounding slack of
    1e-12 (1 + max|H_A| + max|H_B|), over scale * sum |weights| * s."""
    slack = 1e-12 * (1.0 + np.max(np.abs(h_a)) + np.max(np.abs(h_b)))
    distance = np.max(np.abs(eig_a - eig_b)) - slack
    return float(distance / (scale * np.sum(np.abs(weights)) * len(eig_a)))


def _block_unknowns(eig_a: np.ndarray, eig_b: np.ndarray):
    """Row and column indices of the block-diagonal unknowns over the
    clusters of two ascending spectra; a cluster ends where both rise by
    more than the gap."""
    radius = float(np.max(np.abs(np.concatenate([eig_a, eig_b]))))
    gaps = np.minimum(np.diff(eig_a), np.diff(eig_b))
    labels = np.concatenate([[0], np.cumsum(gaps > radius * NULL_TOL ** 0.25)])
    return np.nonzero(labels[:, None] == labels[None, :])


def _normal_matrix(rot_a, rot_b, rows, cols, scale: float) -> np.ndarray:
    """N = S^* S for the columns S of the unknowns Y[rows[j], cols[j]] in the
    stacked rows (A_m kron I - I kron B_m^T) / scale, from the rotated stacks
    of shape (2k, s, s), without forming S.

    Column j of S is the misfit A_m E - E B_m of the matrix unit E at
    (r, c) = (rows[j], cols[j]), so with j' at (r', c'), summed over m,

        N[j, j'] = delta(c, c') (A^* A)[r, r'] + delta(r, r') (B B^*)[c', c]
                   - conj(A[r', r]) B[c', c] - A[r, r'] conj(B[c, c']),

    all over scale^2; the last two terms are a matrix and its adjoint.
    """
    blocks, size = rot_a.shape[:2]
    tall = rot_a.reshape(blocks * size, size)
    wide = _wide(rot_b)
    aa = np.conj(tall.T) @ tall
    bb = wide @ np.conj(wide.T)
    cross = np.einsum("mij,mij->ij", rot_a[:, rows[:, None], rows],
                      np.conj(rot_b[:, cols[:, None], cols]))
    normal = (np.where(cols[:, None] == cols, aa[rows[:, None], rows], 0.0)
              + np.where(rows[:, None] == rows, bb[cols, cols[:, None]], 0.0)
              - cross - np.conj(cross.T))
    return normal / scale ** 2


def _wide(stack: np.ndarray) -> np.ndarray:
    """The (m, s, s) stack side by side, as one s x m s matrix."""
    blocks, size = stack.shape[:2]
    return stack.transpose(1, 0, 2).reshape(size, blocks * size)


def _rotated(stack: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """(vec^* M) vec for every M of an (m, s, s) stack, as two matrix
    products over the whole stack rather than two per block."""
    blocks, size = stack.shape[:2]
    left = (np.conj(vec.T) @ _wide(stack)).reshape(size, blocks, size)
    return (left.transpose(1, 0, 2).reshape(blocks * size, size) @ vec).reshape(stack.shape)


def _misfits(a: np.ndarray, b: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """A_k X - X B_k for every X of the (c, s, s) stack xs and every block of
    the (m, s, s) stacks a and b, shape (c, m, s, s): one matrix product for
    all A_k X and one for all X B_k."""
    blocks, size = a.shape[:2]
    count = len(xs)
    ax = (a.reshape(blocks * size, size) @ _wide(xs)).reshape(blocks, size, count, size)
    xb = (xs.reshape(count * size, size) @ _wide(b)).reshape(count, size, blocks, size)
    return ax.transpose(2, 0, 1, 3) - xb.transpose(0, 2, 1, 3)


def _null_space(rot_a, rot_b, rows, cols, scale: float):
    """Null vectors of the block system S, as rows from the largest singular
    value down, and its least-violating unit vector, as a row.

    The eigenvectors of N = S^* S with eigenvalue at most NULL_TOL span the
    near-null subspace Q (singular values up to NULL_TOL^(1/2)).  N squares
    the condition number, so the null test is read on S itself: a thin SVD
    of S Q (Rayleigh-Ritz), whose singular values at most NULL_TOL give the
    null vectors Q W.  With none, the eigenvector of the smallest eigenvalue
    of N is the least-violating vector.
    """
    lams, vecs = np.linalg.eigh(_normal_matrix(rot_a, rot_b, rows, cols, scale))
    near = vecs[:, lams <= NULL_TOL]
    if near.shape[1]:
        size = rot_a.shape[1]
        xs = np.zeros((near.shape[1], size, size), dtype=np.complex128)
        xs[:, rows, cols] = near.T
        images = _misfits(rot_a, rot_b, xs).reshape(len(xs), -1).T / scale
        _, svals, wh = np.linalg.svd(images, full_matrices=False)
        null = np.conj(wh[svals <= NULL_TOL]) @ near.T
    else:
        null = near.T
    return null, vecs[:, :1].T


def unitary_intertwiner(mats_a, mats_b, seed: int = 0, refuted_above: float = np.inf):
    """Best unitary U for the system {A_k U = U B_k} and its residual.

    Returns (U, residual); the residual is relative to the matrix scale.  The
    adjoint equations A_k^* U = U B_k^* are appended automatically so that the
    intertwiner space is a *-bimodule and polar decomposition stays inside it.
    Up to TRIES seeded draws of the self-adjoint element are made; each
    draw's candidates are its null vectors and TRIES random combinations of
    them, or else its least-violating vector.  A one-dimensional null space
    gives one candidate, the null vector: its combinations are phase
    multiples of it with the same polar factor.  Their weights are drawn all
    the same, so later draws see the same seeded stream.  Draws stop at the
    first whose best score is at most NULL_TOL or whose eigenvalue-distance certificate
    (a lower bound on every unitary's residual) exceeds refuted_above; a NaN
    certificate never stops them.  Candidates are scored in order and the
    first smallest finite score wins; when no score is finite the result is
    (None, inf).
    """
    a = np.asarray(mats_a, dtype=np.complex128)
    b = np.asarray(mats_b, dtype=np.complex128)
    count = a.shape[0]
    a = np.concatenate([a, np.conj(a.transpose(0, 2, 1))])
    b = np.concatenate([b, np.conj(b.transpose(0, 2, 1))])
    size = a.shape[1]
    scale = 1.0 + float(np.max(np.max(np.abs(a), axis=(1, 2))
                               + np.max(np.abs(b), axis=(1, 2))))

    rng = np.random.default_rng(seed)
    unitaries, scores = [], []
    for _ in range(TRIES):
        c = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        weights = np.concatenate([c, np.conj(c)])
        h_a = np.tensordot(weights, a, axes=1)
        h_b = np.tensordot(weights, b, axes=1)
        eig_a, vec_a = np.linalg.eigh(h_a)
        eig_b, vec_b = np.linalg.eigh(h_b)
        rows, cols = _block_unknowns(eig_a, eig_b)
        null, lowest = _null_space(_rotated(a, vec_a), _rotated(b, vec_b), rows, cols, scale)
        if len(null):
            w = rng.standard_normal((TRIES, len(null))) + 1j * rng.standard_normal(
                (TRIES, len(null))
            )
            vectors = null if len(null) == 1 else np.concatenate([null, w @ null])
        else:
            # no intertwiner subspace: the least-violating unitary
            vectors = lowest
        blocks = np.zeros((len(vectors), size, size), dtype=np.complex128)
        blocks[:, rows, cols] = vectors
        u, _, wh = np.linalg.svd(vec_a @ blocks @ np.conj(vec_b.T))
        draw = u @ wh
        unitaries.append(draw)
        scores.append(np.max(np.abs(_misfits(a, b, draw)), axis=(1, 2, 3)) / scale)
        if np.any(scores[-1] <= NULL_TOL):
            break
        if _weyl_bound(h_a, h_b, eig_a, eig_b, weights, scale) > refuted_above:
            break

    scores = np.concatenate(scores)
    best = _first_finite_min(scores)
    if best is None:
        return None, np.inf
    return np.concatenate(unitaries)[best], float(scores[best])
