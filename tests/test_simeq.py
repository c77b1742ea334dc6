"""Simultaneous unitary similarity: the solver against the full stacked
system, the block-diagonal split, the normal matrix and its null space, and
the unitary the solver picks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcontact import simeq
from jetcontact.contact import REFUTE_FACTOR, classify
from jetcontact.kernelexpr import BundleSpec
from jetcontact.rkhs import direct_equiv_check, quotient_model
from jetcontact.simeq import _first_finite_min, unitary_intertwiner


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


def sylvester_system(mats_a: np.ndarray, mats_b: np.ndarray, scale: float) -> np.ndarray:
    """The stacked rows (A_m kron I - I kron B_m^T) / scale, as a
    (2k s^2, s^2) array, for stacks of shape (2k, s, s), built in place.

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


def rsvd_reference(mats_a, mats_b, seed=0, tries=6, null_tol=1e-10):
    """The reference solver on the full system: the null space from an SVD
    of the triangular factor R of the stacked Sylvester system (Chan's
    R-SVD), all candidates scored at once; returns (U, residual)."""
    a = np.asarray(mats_a, dtype=np.complex128)
    b = np.asarray(mats_b, dtype=np.complex128)
    a = np.concatenate([a, np.conj(a.transpose(0, 2, 1))])
    b = np.concatenate([b, np.conj(b.transpose(0, 2, 1))])
    size = a.shape[1]
    scale = 1.0 + float(np.max(np.max(np.abs(a), axis=(1, 2))
                               + np.max(np.abs(b), axis=(1, 2))))
    r = np.linalg.qr(sylvester_system(a, b, scale), mode="r")
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


def scale_of(mats_a, mats_b):
    """The solver's matrix scale (an adjoint has the same largest entry)."""
    return 1.0 + max(np.max(np.abs(a)) + np.max(np.abs(b))
                     for a, b in zip(mats_a, mats_b))


def assert_unitary(u, size):
    np.testing.assert_allclose(np.conj(u.T) @ u, np.eye(size), atol=1e-12)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_system_equals_kron_stack(size):
    rng = np.random.default_rng(size)
    for blocks in (1, 2, 4):
        a = random_complex(rng, blocks, size, size)
        b = random_complex(rng, blocks, size, size)
        scale = 1.0 + float(rng.uniform(1, 5))
        got = sylvester_system(a, b, scale)
        want = kron_system(a, b, scale)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("size", [2, 3, 5])
def test_triangular_factor_keeps_singular_values(size):
    rng = np.random.default_rng(10 + size)
    a = random_complex(rng, 4, size, size)
    w = random_unitary(rng, size)
    b = np.conj(w.T) @ a @ w  # a genuine null space among the small values
    system = sylvester_system(a, b, 3.0)
    r = np.linalg.qr(system, mode="r")
    want = np.linalg.svd(system, compute_uv=False)
    got = np.linalg.svd(r, compute_uv=False)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * want[0])


@pytest.mark.parametrize("size,k", [(1, 1), (2, 2), (4, 3), (6, 2), (4, 1)])
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
    system = sylvester_system(np.array(mats_a), np.array(mats_b), 1.0)
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
    # the split solver picks a different unitary than the full-system
    # references, so refuted residuals differ in value; verdicts must agree
    rng = np.random.default_rng(60 + size)
    mats_a = list(random_complex(rng, 2, size, size))
    w = random_unitary(rng, size)
    similar = [np.conj(w.T) @ a @ w for a in mats_a]
    unrelated = list(random_complex(rng, 2, size, size))
    for mats_b, similar_pair in ((similar, True), (unrelated, False)):
        _, resid = unitary_intertwiner(mats_a, mats_b, seed=3)
        want = loop_reference(mats_a, mats_b, seed=3)
        assert rsvd_reference(mats_a, mats_b, seed=3)[1] == pytest.approx(
            want, rel=1e-10, abs=1e-12)
        if similar_pair:
            assert resid < 1e-12 and want < 1e-12
        else:
            assert resid > 1e-6 and want > 1e-6


def direct_sum(*mats):
    out = np.zeros((sum(m.shape[0] for m in mats),) * 2, dtype=np.complex128)
    at = 0
    for m in mats:
        out[at:at + m.shape[0], at:at + m.shape[0]] = m
        at += m.shape[0]
    return out


@pytest.mark.parametrize("seed", range(20))
def test_reducible_similar_families(seed):
    # repeated summands make every eigenvalue of H_A a cluster of two
    rng = np.random.default_rng(100 + seed)
    fam_a = random_complex(rng, 2, 3, 3)
    fam_b = random_complex(rng, 2, 2, 2)
    for family in ([direct_sum(a, a) for a in fam_a],
                   [direct_sum(a, a, b) for a, b in zip(fam_a, fam_b)]):
        size = family[0].shape[0]
        w = random_unitary(rng, size)
        conjugated = [np.conj(w.T) @ a @ w for a in family]
        u, resid = unitary_intertwiner(family, conjugated, seed=seed)
        assert resid < 1e-12
        assert_unitary(u, size)
        assert rsvd_reference(family, conjugated, seed=seed)[1] < 1e-12


def test_one_unrelated_matrix():
    rng = np.random.default_rng(70)
    u, resid = unitary_intertwiner(random_complex(rng, 1, 4, 4),
                                   random_complex(rng, 1, 4, 4))
    assert resid > 1e-6
    assert_unitary(u, 4)


def test_scalars():
    a, b = np.array([[[2.0 - 1.0j]]]), np.array([[[0.5 + 0.25j]]])
    u, resid = unitary_intertwiner(a, a)
    assert resid == 0.0
    assert_unitary(u, 1)
    # every unitary of size one misses by |a - b| exactly
    _, resid = unitary_intertwiner(a, b)
    assert resid == pytest.approx(abs(a - b).item() / scale_of(a, b), rel=1e-14)


@pytest.mark.parametrize("split", [1e-12, 1e-8, 1e-4, 3e-3, 1e-2])
def test_near_degenerate_spectra(split):
    # two eigenvalues of every combination lie about `split` apart, below,
    # near or above the cluster gap: the intertwiner is found either way
    rng = np.random.default_rng(80)
    size = 5
    base = random_unitary(rng, size)
    diags = rng.uniform(-1, 1, (2, size)) + 1j * rng.uniform(-1, 1, (2, size))
    diags[:, 1] = diags[:, 0] + split
    family = [base @ np.diag(d) @ np.conj(base.T) for d in diags]
    w = random_unitary(rng, size)
    u, resid = unitary_intertwiner(family, [np.conj(w.T) @ a @ w for a in family])
    assert resid < 1e-12
    assert_unitary(u, size)


complex_weights = st.lists(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=2,
)


@given(seed=st.integers(0, 2**31 - 1), size=st.integers(1, 5),
       noise=st.sampled_from([0.0, 1e-6, 1e-2, 1.0]), c=complex_weights)
@settings(max_examples=40, deadline=None)
def test_residual_bounds_eigenvalue_distance(seed, size, noise, c):
    # Weyl: max_i |lambda_i(H_A) - lambda_i(H_B)| <= ||H_A U - U H_B||_2
    # <= s * max|H_A U - U H_B| <= s * 2 sum|c_k| * residual * scale
    rng = np.random.default_rng(seed)
    mats_a = random_complex(rng, 2, size, size)
    w = random_unitary(rng, size)
    mats_b = np.conj(w.T) @ mats_a @ w + noise * random_complex(rng, 2, size, size)
    u, resid = unitary_intertwiner(mats_a, mats_b, seed=seed)
    assert_unitary(u, size)

    def hermitian(mats):
        h = np.tensordot(c, mats, axes=1)
        return h + np.conj(h.T)

    h_a, h_b = hermitian(mats_a), hermitian(mats_b)
    distance = np.max(np.abs(np.linalg.eigvalsh(h_a) - np.linalg.eigvalsh(h_b)))
    bound = resid * scale_of(mats_a, mats_b) * 2 * np.sum(np.abs(c)) * size
    rounding = 1e-12 * (1.0 + np.max(np.abs(h_a)) + np.max(np.abs(h_b)))
    assert bound >= distance - rounding


def refuted_quotient_pair():
    rank2 = [["exp(z1*zb1 + 0.5*z2*zb2)", "0.1*z1*exp(z1*zb1 + 0.5*z2*zb2)"],
             ["0.1*zb1*exp(z1*zb1 + 0.5*z2*zb2)",
              "pow(1 - 0.5*z1*zb1 - 0.3*z2*zb2, -1)"]]
    twin = [row[:] for row in rank2]
    twin[1][1] = "pow(1 - 0.6*z1*zb1 - 0.3*z2*zb2, -1)"
    z0 = (0.1, -0.05j)
    return (quotient_model(BundleSpec("a", 2, rank2), z0, 2),
            quotient_model(BundleSpec("b", 2, twin), z0, 2))


def test_perturbed_refuted_pair_stays_refuted():
    a, b = refuted_quotient_pair()
    assert direct_equiv_check(a, b, 1e-8)[0] == "refuted"
    rng = np.random.default_rng(90)
    for _ in range(6):
        shifts = tuple(s + 1e-14 * random_complex(rng, *s.shape) for s in a.shifts)
        perturbed = dataclasses.replace(a, shifts=shifts)
        assert direct_equiv_check(perturbed, b, 1e-8)[0] == "refuted"


@given(seed=st.integers(0, 2**31 - 1), size=st.integers(1, 5), k=st.integers(1, 3),
       noise=st.sampled_from([0.0, 1e-13, 1e-10, 1e-8, 1e-6, 1e-2, 1.0]),
       tol=st.sampled_from([1e-10, 1e-8, 1e-6]))
@settings(max_examples=60, deadline=None)
def test_certified_stop_keeps_verdict(seed, size, k, noise, tol):
    rng = np.random.default_rng(seed)
    mats_a = random_complex(rng, k, size, size)
    w = random_unitary(rng, size)
    mats_b = np.conj(w.T) @ mats_a @ w + noise * random_complex(rng, k, size, size)
    u_all, r_all = unitary_intertwiner(mats_a, mats_b, seed=seed)
    u, resid = unitary_intertwiner(mats_a, mats_b, seed=seed,
                                   refuted_above=REFUTE_FACTOR * tol)
    assert classify(resid, tol) == classify(r_all, tol)
    # the stop keeps a prefix of the draws, so its minimum is no smaller
    assert resid >= r_all
    if r_all <= REFUTE_FACTOR * tol:
        # no certificate exceeds a residual that is reached: same draws
        assert resid == r_all
        assert u.tobytes() == u_all.tobytes()


def test_refuted_pair_stops_after_one_draw(simeq_draws):
    draws = simeq_draws
    rng = np.random.default_rng(110)
    mats_a = random_complex(rng, 2, 4, 4)
    mats_b = random_complex(rng, 2, 4, 4)
    _, certified = unitary_intertwiner(mats_a, mats_b, refuted_above=1e-7)
    assert len(draws) == 1
    draws.clear()
    _, resid = unitary_intertwiner(mats_a, mats_b)
    assert len(draws) == 6
    assert certified >= resid > 1e-7


def test_nan_certificate_never_stops(simeq_draws, monkeypatch):
    rng = np.random.default_rng(120)
    mats_a = random_complex(rng, 2, 3, 3)
    mats_b = random_complex(rng, 2, 3, 3)
    monkeypatch.setattr(simeq, "_weyl_bound", lambda *args: np.nan)
    unitary_intertwiner(mats_a, mats_b, refuted_above=1e-7)
    assert len(simeq_draws) == 6


def test_direct_check_stops_at_certified_refutation(simeq_draws):
    a, b = refuted_quotient_pair()
    assert direct_equiv_check(a, b, 1e-8)[0] == "refuted"
    assert len(simeq_draws) == 1


def commutant_family():
    """The family of test_degenerate_null_space: its Sylvester system has a
    5-dimensional null space."""
    rng = np.random.default_rng(30)
    mats_a = [np.diag([d, d, e]) for d, e in random_complex(rng, 3, 2)]
    w = random_unitary(rng, 3)
    return np.array(mats_a), np.array([np.conj(w.T) @ a @ w for a in mats_a])


def cluster_unknowns(labels):
    """The block-diagonal unknowns of clusters given by their labels, in the
    row-major order of the columns of sylvester_system (all of them for one
    cluster)."""
    labels = np.asarray(labels)
    return np.nonzero(labels[:, None] == labels[None, :])


def test_normal_route_null_space_equals_thin_svd():
    mats_a, mats_b = commutant_family()
    system = sylvester_system(mats_a, mats_b, 1.0)
    _, thin_svals, thin_vh = np.linalg.svd(system, full_matrices=False)
    null, _ = simeq._null_space(mats_a, mats_b, *cluster_unknowns(np.zeros(3)), 1.0)
    thin_null = thin_vh[thin_svals <= simeq.NULL_TOL]
    null = np.conj(null)  # rows v^* as in vh
    assert len(null) == len(thin_null) == 5
    # the same subspace, through its orthogonal projector
    np.testing.assert_allclose(np.conj(null.T) @ null,
                               np.conj(thin_null.T) @ thin_null, rtol=0, atol=1e-12)


@pytest.mark.parametrize("size", [1, 2, 5, 20])
@pytest.mark.parametrize("clusters", ["one", "several"])
def test_normal_matrix_equals_reference(size, clusters):
    rng = np.random.default_rng(150 + size)
    mats_a = random_complex(rng, 4, size, size)
    mats_b = random_complex(rng, 4, size, size)
    scale = 1.0 + float(rng.uniform(1, 5))
    labels = np.zeros(size) if clusters == "one" else np.sort(rng.integers(0, 4, size))
    rows, cols = cluster_unknowns(labels)
    columns = sylvester_system(mats_a, mats_b, scale)[:, rows * size + cols]
    want = np.conj(columns.T) @ columns
    got = simeq._normal_matrix(mats_a, mats_b, rows, cols, scale)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


def test_planted_singular_values():
    # diagonal families: the column of unknown (r, c) is the misfit of a
    # matrix unit, |A_m[r, r] - B_m[c, c]| in norm, so S has orthogonal
    # columns.  The first block separates the off-diagonal unknowns, the
    # second plants 0, 1e-12 and 1e-7 on the diagonal ones
    mats_a = np.array([np.diag([1.0, 2.0, 3.0]), np.zeros((3, 3))])
    mats_b = np.array([np.diag([1.0, 2.0, 3.0]), np.diag([0.0, 1e-12, 1e-7])])
    rows, cols = cluster_unknowns(np.zeros(3))
    svals = np.linalg.svd(sylvester_system(mats_a, mats_b, 1.0), compute_uv=False)
    np.testing.assert_allclose(svals[-3:], [1e-7, 1e-12, 0.0], rtol=1e-12, atol=0)
    assert np.sum(np.linalg.eigvalsh(
        simeq._normal_matrix(mats_a, mats_b, rows, cols, 1.0)) <= simeq.NULL_TOL) == 3
    null, _ = simeq._null_space(mats_a, mats_b, rows, cols, 1.0)
    # 1e-12 stays in the null space with the exact null vector, 1e-7 does not
    assert len(null) == 2
    unit = np.eye(9)[[0, 4]]  # the unknowns (0, 0) and (1, 1)
    np.testing.assert_allclose(null.T @ np.conj(null), unit.T @ unit, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_fully_null_system_keeps_its_null_dimension(seed, monkeypatch):
    # a similar pair of commuting normal 2 x 2 families with simple spectra:
    # the intertwiners are the two spectral projections, the split keeps
    # just those two unknowns, and the normal matrix is rounding throughout
    rng = np.random.default_rng(160 + seed)
    base = random_unitary(rng, 2)
    mats_a = base @ (random_complex(rng, 3, 2)[:, :, None] * np.conj(base.T))
    w = random_unitary(rng, 2)
    mats_b = np.conj(w.T) @ mats_a @ w
    found = []
    null_space = simeq._null_space

    def spy(rot_a, rot_b, rows, cols, scale):
        null, lowest = null_space(rot_a, rot_b, rows, cols, scale)
        found.append((len(null), len(rows)))
        return null, lowest

    monkeypatch.setattr(simeq, "_null_space", spy)
    _, resid = unitary_intertwiner(mats_a, mats_b, seed=seed)
    assert resid < 1e-12
    assert found == [(2, 2)]


@pytest.mark.parametrize("size", [1, 2, 20])
def test_stacked_products_match_per_block(size):
    rng = np.random.default_rng(130 + size)
    a = random_complex(rng, 4, size, size)
    b = random_complex(rng, 4, size, size)
    vec = random_unitary(rng, size)
    xs = random_complex(rng, 3, size, size)
    rotated = np.conj(vec.T) @ a @ vec
    np.testing.assert_allclose(simeq._rotated(a, vec), rotated,
                               rtol=0, atol=1e-14 * np.max(np.abs(rotated)))
    misfits = a @ xs[:, None] - xs[:, None] @ b
    np.testing.assert_allclose(simeq._misfits(a, b, xs), misfits,
                               rtol=0, atol=1e-14 * np.max(np.abs(misfits)))


def test_one_dimensional_null_space_scores_the_null_vector(monkeypatch):
    # C + D against C + E with E a 1e-6 perturbation of D: the intertwiners
    # are the multiples of the identity on C, and no polar factor of one
    # reaches NULL_TOL on D against E, so all TRIES draws run
    rng = np.random.default_rng(140)
    shared, kept = random_complex(rng, 2, 2, 2), random_complex(rng, 2, 2, 2)
    moved = kept + 1e-6 * random_complex(rng, 2, 2, 2)
    mats_a = [direct_sum(c, d) for c, d in zip(shared, kept)]
    mats_b = [direct_sum(c, e) for c, e in zip(shared, moved)]
    polar, weights = [], []
    svd, weyl_bound = np.linalg.svd, simeq._weyl_bound

    def svd_spy(x, *args, **kwargs):
        if np.ndim(x) == 3:
            polar.append(np.shape(x))
        return svd(x, *args, **kwargs)

    def weyl_spy(*args):
        weights.append(args[4])
        return weyl_bound(*args)

    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setattr(simeq, "_weyl_bound", weyl_spy)
    _, resid = unitary_intertwiner(mats_a, mats_b, seed=3)
    assert resid > simeq.NULL_TOL
    # one polar SVD of one candidate per draw
    assert polar == [(1, 4, 4)] * simeq.TRIES
    # the seeded stream: each draw's weights, then the combinations of its
    # one null vector, drawn though unused
    stream = np.random.default_rng(3)
    for drawn in weights:
        c = stream.standard_normal(2) + 1j * stream.standard_normal(2)
        stream.standard_normal((simeq.TRIES, 1))
        stream.standard_normal((simeq.TRIES, 1))
        np.testing.assert_array_equal(drawn, np.concatenate([c, np.conj(c)]))
