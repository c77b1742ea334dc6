"""Curvature, covariant derivatives, recursions, and frame normalization."""

from math import factorial

import numpy as np
import pytest
import sympy as sp

import jetcontact.geometry as geometry
from jetcontact.geometry import (
    K1j_recursion,
    L_tensor,
    Q_jet,
    Q_recursion,
    connection,
    cov_deriv,
    cov_step,
    curvature,
    curvature_table,
    map_adjoint_jet,
    normalize_frame,
    normalized_defect,
    transverse_tower,
)
from jetcontact.jetcore import HermJet, OrderError
from jetcontact.kernelexpr import BundleSpec, parse_kernel

from conftest import cov_deriv_mixed, eval_herm_jet, random_herm_jet


def bergman(alpha, orders=4):
    spec = BundleSpec(f"bergman{alpha}", 1, [[f"pow(1 - z1*zb1, -{alpha})"]])
    return spec.gram_jet((0.0,), orders, orders)


def fock(orders=4):
    return BundleSpec("fock", 1, [["exp(z1*zb1)"]]).gram_jet((0.0,), orders, orders)


class SympyOracle:
    """Independent symbolic implementation of the same formulas on scalar H."""

    def __init__(self, h_expr, symbols):
        self.h = h_expr
        self.z, self.zb = symbols

    def curvature(self):
        dh = sp.diff(self.h, self.z)
        return sp.simplify(sp.diff(dh / self.h, self.zb))

    def cov_z(self, phi):
        return sp.diff(phi, self.z)  # scalar connection terms commute and cancel

    def cov_zb(self, phi):
        return sp.diff(phi, self.zb)

    def at_origin(self, expr):
        return complex(expr.subs({self.z: 0, self.zb: 0}))


class TestCurvature:
    def test_fock_flat_tower(self):
        h = fock()
        k = curvature(h, 1, 1)
        assert k.value()[0, 0] == pytest.approx(1.0)
        flat = np.zeros_like(k.coeffs)
        flat[0, 0, 0, 0] = 1.0
        np.testing.assert_allclose(k.coeffs, flat, atol=1e-12)
        for r, t in [(1, 0), (0, 1), (1, 1), (2, 1)]:
            val = cov_deriv_mixed(k, h, 1, r, 1, t).value()[0, 0]
            assert val == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_bergman_values(self, alpha):
        h = bergman(alpha)
        k = curvature(h, 1, 1)
        assert k.value()[0, 0] == pytest.approx(alpha, abs=1e-12)
        assert cov_deriv_mixed(k, h, 1, 1, 1, 0).value()[0, 0] == pytest.approx(
            0.0, abs=1e-12
        )
        assert cov_deriv_mixed(k, h, 1, 1, 1, 1).value()[0, 0] == pytest.approx(
            2 * alpha, abs=1e-11
        )

    def test_constant_gram_is_flat(self):
        h = HermJet.constant(np.array([[2.0, 0.5j], [-0.5j, 1.0]]), (0.0,), 3, 3)
        assert np.max(np.abs(curvature(h, 1, 1).coeffs)) == 0.0

    def test_against_sympy_off_center(self):
        z, zb = sp.symbols("z zb")
        oracle = SympyOracle((1 + z * zb / 2) ** -3 * sp.exp(z * zb / 5), (z, zb))
        center = 0.25 - 0.15j
        shifted = sp.simplify(
            oracle.h.subs({z: z + center, zb: zb + np.conj(center)})
        )
        local = SympyOracle(shifted, (z, zb))
        h = eval_herm_jet(
            parse_kernel("pow(1 + 0.5*z1*zb1, -3) * exp(0.2*z1*zb1)"), (center,), 4, 4
        )
        k = curvature(h, 1, 1)
        ksym = local.curvature()
        assert k.value()[0, 0] == pytest.approx(local.at_origin(ksym), rel=1e-10)
        assert cov_deriv(k, h, 1).value()[0, 0] == pytest.approx(
            local.at_origin(local.cov_z(ksym)), rel=1e-9
        )
        kzzb = local.cov_zb(local.cov_z(ksym))
        assert cov_deriv_mixed(k, h, 1, 1, 1, 1).value()[0, 0] == pytest.approx(
            local.at_origin(kzzb), rel=1e-9
        )

    def test_matrix_case_against_sympy(self):
        # rank-2 curvature and one covariant derivative, validated against a
        # symbolic matrix implementation of the same formulas (adjugate
        # inverse keeps the expression tree tractable)
        z, zb = sp.symbols("z zb")
        center = 0.2 + 0.1j
        cbar = np.conj(center)
        a = sp.exp((z + center) * (zb + cbar))
        b = sp.Rational(3, 10) * (z + center) * (zb + cbar)
        d = (1 - (z + center) * (zb + cbar) / 2) ** -1
        hm = sp.Matrix([[a, b], [b, d]])
        hinv = sp.Matrix([[d, -b], [-b, a]]) / (a * d - b * b)
        conn = hm.diff(z) * hinv
        ksym = conn.diff(zb)
        kz_sym = ksym.diff(z) - conn * ksym + ksym * conn
        want_k, want_kz = (
            np.array(m, dtype=complex)
            for m in sp.lambdify((z, zb), [ksym, kz_sym], "numpy")(0.0, 0.0)
        )
        spec = BundleSpec(
            "m2",
            1,
            [
                ["exp(z1*zb1)", "0.3*z1*zb1"],
                ["0.3*z1*zb1", "pow(1 - 0.5*z1*zb1, -1)"],
            ],
        )
        h = spec.gram_jet((center,), 3, 3)
        got_k = curvature(h, 1, 1).value()
        got_kz = cov_deriv(curvature(h, 1, 1), h, 1).value()
        np.testing.assert_allclose(got_k, want_k, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(got_kz, want_kz, rtol=1e-8, atol=1e-10)


class TestCovDeriv:
    def test_identity_map_is_parallel(self, rng):
        h = random_herm_jet(2, 3, 3, 3, rng)
        ident = HermJet.constant(np.eye(3), (0.0, 0.0), 3, 3)
        for i in (1, 2):
            assert np.max(np.abs(cov_deriv(ident, h, i).coeffs)) < 1e-12
            assert np.max(np.abs(cov_deriv(ident, h, i, conjugate=True).coeffs)) == 0.0

    def test_order_sensitivity_matches_formula(self, rng):
        # (Phi_z)_zb - (Phi_zb)_z equals the curvature commutator [Phi, K]
        h = random_herm_jet(1, 2, 4, 4, rng)
        phi = random_herm_jet(1, 2, 4, 4, rng)
        zb_then_z = cov_deriv(cov_deriv(phi, h, 1, conjugate=True), h, 1)
        z_then_zb = cov_deriv(cov_deriv(phi, h, 1), h, 1, conjugate=True)
        k = curvature(h, 1, 1)
        commutator = phi * k - k * phi
        diff = z_then_zb - zb_then_z - commutator
        assert np.max(np.abs(diff.coeffs)) < 1e-10


class TestCurvatureTable:
    def test_table_holds_the_direct_jets(self, rng):
        # one connection per direction, and every jet formed from the table
        # is bit for bit the one the direct function forms
        h = random_herm_jet(3, 2, 3, 3, rng)
        dims = (1, 2, 3)
        conn, K = curvature_table(h, dims)
        for i in dims:
            assert conn[i].coeffs.tobytes() == connection(h, i).coeffs.tobytes()
            assert K[i][1].coeffs.tobytes() == Q_jet(h, i).coeffs.tobytes()
            stepped = cov_step(K[1][1], conn[i], i)
            assert stepped.coeffs.tobytes() == cov_deriv(K[1][1], h, i).coeffs.tobytes()
            for j in dims:
                assert K[i][j].coeffs.tobytes() == curvature(h, i, j).coeffs.tobytes()
        with pytest.raises(OrderError):
            curvature_table(h.truncate(1, 0), dims)


class TestAdjoint:
    def test_identity_metric(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        phi = HermJet.constant(m, (0.0,), 1, 1)
        ident = HermJet.constant(np.eye(2), (0.0,), 1, 1)
        np.testing.assert_array_equal(map_adjoint_jet(phi, ident).value(), m.T.conj())

    def test_curvature_adjoint_symmetry(self, rng):
        for dim, l in [(2, 2), (3, 3)]:
            h = random_herm_jet(dim, l, 3, 3, rng)
            h0 = h.value()
            h0i = np.linalg.inv(h0)
            for i in range(1, dim + 1):
                for j in range(1, dim + 1):
                    kij = curvature(h, i, j).value()
                    kji = curvature(h, j, i).value()
                    resid = np.max(np.abs(kij - h0 @ np.conj(kji.T) @ h0i))
                    assert resid < 1e-10 * (1 + np.max(np.abs(kij)))

    def test_derivative_adjoint_duality(self, rng):
        # adjoint of (Phi_{z_i}) equals ((Phi^*)_{zbar_i})
        h = random_herm_jet(2, 2, 4, 4, rng)
        phi = random_herm_jet(2, 2, 4, 4, rng)
        for i in (1, 2):
            lhs = map_adjoint_jet(cov_deriv(phi, h, i), h)
            rhs = cov_deriv(map_adjoint_jet(phi, h), h, i, conjugate=True)
            diff = (lhs - rhs).coeffs
            assert np.max(np.abs(diff)) < 1e-10


class TestLTensor:
    def test_l1_is_curvature(self, rng):
        h = random_herm_jet(2, 2, 3, 3, rng)
        for j in (1, 2):
            np.testing.assert_allclose(
                L_tensor(h, j, 1), curvature(h, 1, j).value(), atol=1e-12
            )

    def test_constant_gram(self):
        h = HermJet.constant(np.eye(2) * 2.0, (0.0, 0.0), 3, 3)
        assert np.max(np.abs(L_tensor(h, 2, 2))) == 0.0

    def test_coupled_fock_value(self):
        spec = BundleSpec("cf", 2, [["exp(z1*zb1 + z1*zb2 + z2*zb1 + z2*zb2)"]])
        h = spec.gram_jet((0.0, 0.0), 3, 3)
        # at 0 the connection term vanishes; d_z1 dbar_z2 H(0) = 1
        assert L_tensor(h, 2, 1)[0, 0] == pytest.approx(1.0)
        # the formula applies entrywise even without Hermitian symmetry
        raw = eval_herm_jet(parse_kernel("exp(z1*zb1 + z1*zb2)"), (0.0, 0.0), 3, 3)
        assert L_tensor(raw, 2, 1)[0, 0] == pytest.approx(1.0)


class TestRecursions:
    def test_base_case(self, rng):
        h = random_herm_jet(2, 2, 3, 3, rng)
        np.testing.assert_allclose(K1j_recursion(h, 2, 1), L_tensor(h, 2, 1), atol=1e-13)

    def test_fock_j2_vanishes_at_origin(self):
        h = fock()
        j2 = K1j_recursion(h, 1, 2)
        assert abs(j2[0, 0]) < 1e-12

    def test_tower_matches_iterated_cov_deriv(self, rng):
        for dim, l, n in [(1, 1, 4), (2, 2, 3), (3, 2, 4)]:
            h = random_herm_jet(dim, l, n + 1, n + 1, rng)
            for j in range(1, dim + 1):
                iterated = curvature(h, 1, j)
                for order in range(1, n + 1):
                    rec = K1j_recursion(h, j, order)
                    direct = iterated.value()
                    assert np.max(np.abs(rec - direct)) < 1e-9 * (
                        1 + np.max(np.abs(rec))
                    )
                    if order < n:
                        iterated = cov_deriv(iterated, h, 1)

    def test_transverse_tower_forms_one_connection(self, rng, monkeypatch):
        h = random_herm_jet(2, 2, 4, 4, rng)
        want = [[cov_deriv_mixed(curvature(h, 1, 1), h, 1, r, 1, t).value()
                 for t in range(3)] for r in range(3)]
        calls = []
        connection = geometry.connection

        def spy(H, i):
            calls.append(i)
            return connection(H, i)

        monkeypatch.setattr(geometry, "connection", spy)
        got = transverse_tower(h, 3)
        assert calls == [1]
        for got_row, want_row in zip(got, want):
            for value, expected in zip(got_row, want_row):
                np.testing.assert_array_equal(value, expected)
        with pytest.raises(OrderError):
            transverse_tower(h.truncate(1, 0), 1)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_transverse_tower_on_the_line_equals_full_jet_tower(self, rng, dim, rank):
        n = 3 if dim < 3 else 2
        full = random_herm_jet(dim, rank, n, n, rng)
        h = HermJet(tuple(0.1j * k - 0.05 * k for k in range(dim)), n, n, rank, full.coeffs)
        for r, row in enumerate(transverse_tower(h, n)):
            for t, value in enumerate(row):
                want = cov_deriv_mixed(curvature(h, 1, 1), h, 1, r, 1, t).value()
                np.testing.assert_allclose(value, want, rtol=0,
                                           atol=1e-13 * (1 + np.max(np.abs(want))))

    def test_q_recursion_matches_jet_derivative(self, rng):
        for dim, l, n in [(1, 2, 3), (2, 3, 3)]:
            h = random_herm_jet(dim, l, n + 1, n + 1, rng)
            for j in range(1, dim + 1):
                qjet = Q_jet(h, j)
                for order in range(n):
                    direct = qjet
                    for _ in range(order):
                        direct = direct.deriv(0, conjugate=True)
                    rec = Q_recursion(h, j, order)
                    assert np.max(np.abs(rec - direct.value())) < 1e-9 * (
                        1 + np.max(np.abs(rec))
                    )

    def test_adjoint_duality_between_towers(self, rng):
        h = random_herm_jet(2, 2, 4, 4, rng)
        h0 = h.value()
        h0i = np.linalg.inv(h0)
        for j in (1, 2):
            for order in range(1, 4):
                jn = K1j_recursion(h, j, order)
                qd = Q_recursion(h, j, order - 1)
                assert np.max(np.abs(jn - h0 @ np.conj(qd.T) @ h0i)) < 1e-9 * (
                    1 + np.max(np.abs(jn))
                )


class TestNormalizeFrame:
    def test_already_normalized(self):
        h = fock()
        a, hn = normalize_frame(h, 3)
        np.testing.assert_allclose(a.coeffs[0, 0], np.eye(1), atol=1e-13)
        assert np.max(np.abs(a.coeffs[1:])) < 1e-13
        assert normalized_defect(hn, 3) < 1e-13

    def test_hardy_already_normalized(self):
        h = bergman(1)
        a, hn = normalize_frame(h, 3)
        assert np.max(np.abs(a.coeffs[1:])) < 1e-13
        np.testing.assert_allclose(hn.coeffs, h.coeffs, atol=1e-12)

    def test_exponential_example(self):
        spec = BundleSpec("e", 1, [["exp(z1 + zb1 + z1*zb1)"]])
        h = spec.gram_jet((0.0,), 4, 4)
        a, hn = normalize_frame(h, 4)
        expect_a = [(-1.0) ** k / factorial(k) for k in range(5)]
        np.testing.assert_allclose(a.coeffs[:, 0, 0, 0], expect_a, atol=1e-12)
        np.testing.assert_allclose(hn.coeffs, fock().coeffs, atol=1e-12)

    def test_postcondition_on_random_grams(self, rng):
        for dim, l in [(1, 1), (2, 2), (3, 2)]:
            h = random_herm_jet(dim, l, 3, 3, rng)
            _, hn = normalize_frame(h, 3)
            assert normalized_defect(hn, 3) < 1e-10

    def test_normalized_curvature_is_plain_derivative(self, rng):
        # in a normalized frame the connection term of the curvature vanishes
        # at the center
        h = random_herm_jet(2, 2, 3, 3, rng)
        _, hn = normalize_frame(h, 3)
        for i, j in [(1, 1), (1, 2), (2, 2)]:
            k = curvature(hn, i, j).value()
            plain = hn.deriv(i - 1).deriv(j - 1, conjugate=True).value()
            assert np.max(np.abs(k - plain)) < 1e-10

    def test_nan_in_the_gram_jet_fails_normalization(self):
        # NaN coefficients at (2, 0) and (0, 2) reach the pure-holomorphic
        # coefficients of the normalized Gram, and a NaN defect is a failure
        spec = BundleSpec("n", 1, [["exp(z1*zb1) + 0.1*z1*z1*zb1*zb1"]])
        h = spec.gram_jet((0.1,), 3, 3)
        c = np.array(h.coeffs)
        c[2, 0] = c[0, 2] = np.nan
        h = HermJet(h.center, 3, 3, 1, c)
        with pytest.raises(ArithmeticError, match="frame normalization failed"):
            normalize_frame(h, 3)

    def test_off_center_normalization(self):
        spec = BundleSpec("b2", 1, [["pow(1 - z1*zb1, -2)"]])
        h = spec.gram_jet((0.4 - 0.2j,), 3, 3)
        _, hn = normalize_frame(h, 3)
        assert normalized_defect(hn, 3) < 1e-12
        # curvature is frame-invariant for line bundles
        np.testing.assert_allclose(
            curvature(hn, 1, 1).value(), curvature(h, 1, 1).value(), atol=1e-10
        )
