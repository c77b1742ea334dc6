"""Simultaneous unitary similarity of matrix tuples.

Decides whether a unitary U exists with A_k U = U B_k for all k, by computing
the nullspace of the stacked Sylvester system and extracting a unitary from
the polar factor of an invertible intertwiner.  For *-closed families (the
caller passes adjoint pairs along, or the family is already closed under
conjugate transpose in the matching order) the polar factor of any invertible
intertwiner is itself an intertwiner, so a small number of randomized
combinations decides the question at these sizes.

The null space comes from the triangular factor alone (Chan's R-SVD): the
tall system S (2k s^2 rows, s^2 columns) has the same singular values and
right singular vectors as R in S = QR, so only R (s^2 x s^2) goes through
an SVD.  Neither Q nor the left singular vectors of S are ever formed; LAPACK
takes the same QR-first path inside its own SVD of a tall matrix, so the
singular values and right vectors are those of a thin SVD of S.  The system
is built once, in place.  Peak memory is about three times the system (it,
numpy's working copy for the QR and LAPACK's column-major buffer) instead
of about six times with Kronecker blocks, their stack, a scaled copy and
the left vectors of a thin SVD.
"""

from __future__ import annotations

import numpy as np

__all__ = ["unitary_intertwiner"]


def _sylvester_system(mats_a: np.ndarray, mats_b: np.ndarray, scale: float) -> np.ndarray:
    """The stacked rows (A_m kron I - I kron B_m^T) / scale, as a
    (2k s^2, s^2) array, for stacks of shape (2k, s, s).

    Entry ((m, i, j), (p, l)) is A_m[i, p] delta_jl - delta_ip B_m[l, j], so
    row-major vec(X) solves A_m X = X B_m.
    """
    blocks, size = mats_a.shape[0], mats_a.shape[1]
    system = np.zeros((blocks, size, size, size, size), dtype=np.complex128)
    # writeable diagonal views: [m, i, j, p, j] and [m, i, j, i, l]
    np.einsum("mijpj->mijp", system)[...] += mats_a[:, :, None, :]
    np.einsum("mijil->mijl", system)[...] -= mats_b.transpose(0, 2, 1)[:, None, :, :]
    system /= scale
    return system.reshape(blocks * size * size, size * size)


def _first_finite_min(scores: np.ndarray) -> int | None:
    """Index of the first smallest finite score, None if none is finite."""
    finite = np.isfinite(scores)
    if not finite.any():
        return None
    return int(np.argmin(np.where(finite, scores, np.inf)))


def unitary_intertwiner(
    mats_a, mats_b, seed: int = 0, tries: int = 6, null_tol: float = 1e-10
):
    """Best unitary U for the system {A_k U = U B_k} and its residual.

    Returns (U, residual); the residual is relative to the matrix scale.  The
    adjoint equations A_k^* U = U B_k^* are appended automatically so that the
    intertwiner space is a *-bimodule and polar decomposition stays inside it.
    Candidates are scored in order and the first smallest finite score wins;
    when no score is finite the result is (None, inf).
    """
    a = np.asarray(mats_a, dtype=np.complex128)
    b = np.asarray(mats_b, dtype=np.complex128)
    a = np.concatenate([a, np.conj(a.transpose(0, 2, 1))])
    b = np.concatenate([b, np.conj(b.transpose(0, 2, 1))])
    size = a.shape[1]
    scale = 1.0 + float(np.max(np.max(np.abs(a), axis=(1, 2))
                               + np.max(np.abs(b), axis=(1, 2))))

    r = np.linalg.qr(_sylvester_system(a, b, scale), mode="r")
    _, svals, vh = np.linalg.svd(r)
    null_vectors = [vh[k].conj().reshape(size, size)
                    for k in range(vh.shape[0]) if svals[k] <= null_tol]

    candidates = []
    if null_vectors:
        candidates.extend(null_vectors)
        rng = np.random.default_rng(seed)
        basis = np.stack(null_vectors)
        for _ in range(tries):
            w = rng.standard_normal(len(null_vectors)) + 1j * rng.standard_normal(
                len(null_vectors)
            )
            candidates.append(np.tensordot(w, basis, axes=1))
    else:
        # no intertwiner subspace: report the least-violating unitary
        candidates.append(vh[-1].conj().reshape(size, size))

    u, _, wh = np.linalg.svd(np.stack(candidates))
    unitaries = (u @ wh)[:, None]
    diffs = a @ unitaries
    diffs -= unitaries @ b
    scores = np.max(np.abs(diffs), axis=(1, 2, 3)) / scale
    best = _first_finite_min(scores)
    if best is None:
        return None, np.inf
    return unitaries[best, 0], float(scores[best])
