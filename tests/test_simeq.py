"""Simultaneous unitary similarity: the stacked system, its null space and
the unitary the solver picks."""

import numpy as np
import pytest

from jetcontact.simeq import _first_finite_min, _sylvester_system, unitary_intertwiner


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, size):
    q, _ = np.linalg.qr(random_complex(rng, size, size))
    return q


def kron_system(mats_a, mats_b, scale):
    """The stacked Sylvester system built block by block from Kronecker
    products: the reference for the in-place build."""
    eye = np.eye(mats_a.shape[1])
    rows = [np.kron(a, eye) - np.kron(eye, b.T) for a, b in zip(mats_a, mats_b)]
    return np.vstack(rows) / scale


def assert_unitary(u, size):
    np.testing.assert_allclose(np.conj(u.T) @ u, np.eye(size), atol=1e-12)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_system_equals_kron_stack(size):
    rng = np.random.default_rng(size)
    for blocks in (1, 2, 4):
        a = random_complex(rng, blocks, size, size)
        b = random_complex(rng, blocks, size, size)
        scale = 1.0 + float(rng.uniform(1, 5))
        got = _sylvester_system(a, b, scale)
        want = kron_system(a, b, scale)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("size", [2, 3, 5])
def test_triangular_factor_keeps_singular_values(size):
    rng = np.random.default_rng(10 + size)
    a = random_complex(rng, 4, size, size)
    w = random_unitary(rng, size)
    b = np.conj(w.T) @ a @ w  # a genuine null space among the small values
    system = _sylvester_system(a, b, 3.0)
    r = np.linalg.qr(system, mode="r")
    want = np.linalg.svd(system, compute_uv=False)
    got = np.linalg.svd(r, compute_uv=False)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * want[0])


@pytest.mark.parametrize("size,k", [(1, 1), (2, 2), (4, 3), (6, 2)])
def test_similar_family_gives_its_intertwiner(size, k):
    rng = np.random.default_rng(20 + size)
    mats_a = list(random_complex(rng, k, size, size))
    w = random_unitary(rng, size)
    mats_b = [np.conj(w.T) @ a @ w for a in mats_a]
    u, resid = unitary_intertwiner(mats_a, mats_b, seed=1)
    assert resid < 1e-12
    assert_unitary(u, size)
    for a, b in zip(mats_a, mats_b):
        np.testing.assert_allclose(a @ u, u @ b, atol=1e-11)


def test_degenerate_null_space():
    rng = np.random.default_rng(30)
    # equal diagonal entries at the same places in every A_k: the
    # commutant, and with it the null space, has dimension 2^2 + 1 = 5
    mats_a = [np.diag([d, d, e]) for d, e in random_complex(rng, 3, 2)]
    w = random_unitary(rng, 3)
    mats_b = [np.conj(w.T) @ a @ w for a in mats_a]
    system = _sylvester_system(np.array(mats_a), np.array(mats_b), 1.0)
    assert np.sum(np.linalg.svd(system, compute_uv=False) <= 1e-10) == 5
    u, resid = unitary_intertwiner(mats_a, mats_b, seed=2)
    assert resid < 1e-12
    assert_unitary(u, 3)


@pytest.mark.parametrize("size", [2, 4])
def test_unrelated_families_are_far_apart(size):
    rng = np.random.default_rng(40 + size)
    mats_a = list(random_complex(rng, 2, size, size))
    mats_b = list(random_complex(rng, 2, size, size))
    u, resid = unitary_intertwiner(mats_a, mats_b)
    assert resid > 1e-6
    assert_unitary(u, size)


def test_same_seed_same_unitary():
    rng = np.random.default_rng(50)
    mats_a = [np.diag([d, d, d, e]) for d, e in random_complex(rng, 2, 2)]
    w = random_unitary(rng, 4)
    mats_b = [np.conj(w.T) @ a @ w for a in mats_a]
    u1, r1 = unitary_intertwiner(mats_a, mats_b, seed=7)
    u2, r2 = unitary_intertwiner(mats_a, mats_b, seed=7)
    assert u1.tobytes() == u2.tobytes()
    assert r1 == r2


@pytest.mark.parametrize(
    "scores,want",
    [
        ([0.3, 0.1, 0.1, 0.2], 1),  # the first of equal minima
        ([np.nan, 0.5, np.inf, 0.4], 3),  # non-finite scores never win
        ([np.nan, np.inf], None),
    ],
)
def test_winner_is_first_finite_minimum(scores, want):
    assert _first_finite_min(np.array(scores)) == want


def loop_reference(mats_a, mats_b, seed=0, tries=6, null_tol=1e-10):
    """One thin SVD of the Kronecker stack, then one candidate at a time."""
    pairs = [(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
             for a, b in zip(mats_a, mats_b)]
    pairs += [(np.conj(a.T), np.conj(b.T)) for a, b in pairs]
    size = pairs[0][0].shape[0]
    scale = 1.0 + max(np.max(np.abs(a)) + np.max(np.abs(b)) for a, b in pairs)
    system = kron_system(*map(np.array, zip(*pairs)), scale)
    _, svals, vh = np.linalg.svd(system, full_matrices=False)
    null = [vh[k].conj().reshape(size, size)
            for k in range(len(svals)) if svals[k] <= null_tol]
    candidates = list(null)
    if null:
        rng = np.random.default_rng(seed)
        for _ in range(tries):
            w = rng.standard_normal(len(null)) + 1j * rng.standard_normal(len(null))
            candidates.append(np.tensordot(w, np.stack(null), axes=1))
    else:
        candidates.append(vh[-1].conj().reshape(size, size))
    best = np.inf
    for x in candidates:
        u, _, v = np.linalg.svd(x)
        r = max(np.max(np.abs(a @ (u @ v) - (u @ v) @ b)) for a, b in pairs) / scale
        best = min(best, r)
    return best


@pytest.mark.parametrize("size", [2, 3, 5])
def test_residual_matches_loop_reference(size):
    rng = np.random.default_rng(60 + size)
    mats_a = list(random_complex(rng, 2, size, size))
    w = random_unitary(rng, size)
    similar = [np.conj(w.T) @ a @ w for a in mats_a]
    unrelated = list(random_complex(rng, 2, size, size))
    for mats_b in (similar, unrelated):
        _, resid = unitary_intertwiner(mats_a, mats_b, seed=3)
        assert resid == pytest.approx(loop_reference(mats_a, mats_b, seed=3),
                                      rel=1e-10, abs=1e-12)
