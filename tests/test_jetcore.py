"""Jet arithmetic: spec examples and ring invariants."""

import numpy as np
from math import factorial
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcontact import jetcore
from jetcontact.jetcore import (
    DimensionError,
    HermJet,
    HoloJet,
    OrderError,
    SingularityError,
    index_positions,
    index_table,
    table_size,
)

from conftest import random_herm_jet


def random_jet(dim, rank, p, q, rng, scale=0.3):
    """Random (not Hermitian) jet with constant term near the identity."""
    shape = (table_size(dim, p), table_size(dim, q), rank, rank)
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    c[0, 0] = np.eye(rank) + 0.1 * c[0, 0]
    return HermJet((0.0,) * dim, p, q, rank, c)


def naive_product(a, b):
    """Reference truncated Cauchy product, one multi-index pair at a time."""
    dim = a.dim
    p, q = min(a.holo_order, b.holo_order), min(a.anti_order, b.anti_order)
    hol, anti = index_table(dim, p), index_table(dim, q)
    pos_h, pos_a = index_positions(dim, p), index_positions(dim, q)
    out = np.zeros((len(hol), len(anti), a.rank, a.rank), dtype=complex)
    for i, al in enumerate(hol):
        for k, be in enumerate(anti):
            for j, ga in enumerate(hol):
                for l, de in enumerate(anti):
                    s = tuple(x + y for x, y in zip(al, ga))
                    t = tuple(x + y for x, y in zip(be, de))
                    if s in pos_h and t in pos_a:
                        out[pos_h[s], pos_a[t]] += a.coeffs[i, k] @ b.coeffs[j, l]
    return out


def geometric_jet(order=4, sign=-1.0, power=-1.0):
    """Jet of (1 + sign*z*zb)^power at 0 via explicit coefficients."""
    z = HermJet.coordinate(0, (0.0,), order, order)
    zb = HermJet.conj_coordinate(0, (0.0,), order, order)
    base = HermJet.constant(1.0, (0.0,), order, order) + (z * zb).scale(sign)
    return base.power(power)


class TestMul:
    def test_identity_factor_truncates(self, rng):
        a = HermJet.identity((0.0, 0.0), 2, 2, 2)
        b = random_herm_jet(2, 2, 4, 3, rng)
        prod = a * b
        assert prod.holo_order == 2 and prod.anti_order == 2
        np.testing.assert_array_equal(prod.coeffs, b.truncate(2, 2).coeffs)

    def test_z_times_zbar(self):
        z = HermJet.coordinate(0, (0.0,), 2, 2)
        zb = HermJet.conj_coordinate(0, (0.0,), 2, 2)
        prod = z * zb
        expect = np.zeros_like(prod.coeffs)
        expect[1, 1, 0, 0] = 1.0
        np.testing.assert_array_equal(prod.coeffs, expect)

    def test_geometric_square(self):
        # (1 - z zb)^-1 squared has diagonal coefficients k+1
        g = geometric_jet(5)
        sq = g * g
        for k in range(6):
            assert sq.coeffs[k, k, 0, 0] == pytest.approx(k + 1)

    def test_center_mismatch_raises(self, rng):
        a = random_herm_jet(1, 1, 2, 2, rng)
        b = HermJet.identity((1.0,), 2, 2, 1)
        with pytest.raises(DimensionError):
            a * b

    def test_rank_mismatch_raises(self, rng):
        a = random_herm_jet(1, 1, 2, 2, rng)
        b = random_herm_jet(1, 2, 2, 2, rng)
        with pytest.raises(DimensionError):
            a * b

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_associative_and_bilinear(self, seed):
        rng = np.random.default_rng(seed)
        a = random_herm_jet(2, 2, 3, 2, rng)
        b = random_herm_jet(2, 2, 3, 2, rng)
        c = random_herm_jet(2, 2, 3, 2, rng)
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12
        lin = (a + b.scale(2.0)) * c
        expect = a * c + (b * c).scale(2.0)
        assert np.max(np.abs(lin.coeffs - expect.coeffs)) < 1e-12


    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize(
        "orders", [((3, 3), (3, 3)), ((3, 2), (1, 3)), ((4, 3), (2, 2)), ((2, 0), (3, 0))]
    )
    def test_matches_naive_convolution(self, rng, dim, rank, orders):
        (p, q), (p2, q2) = orders
        if dim == 3:
            p, q, p2, q2 = (min(x, 2) for x in (p, q, p2, q2))
        a = random_jet(dim, rank, p, q, rng)
        b = random_jet(dim, rank, p2, q2, rng)
        for x, y in ((a, b), (b, a)):
            prod = x * y
            assert (prod.holo_order, prod.anti_order) == (min(p, p2), min(q, q2))
            np.testing.assert_allclose(prod.coeffs, naive_product(x, y), atol=1e-13)


class TestInv:
    def test_constant_matrix(self):
        m = np.array([[2.0, 1.0], [0.0, 1.0]])
        jet = HermJet.constant(m, (0.0,), 2, 2)
        np.testing.assert_allclose(jet.inv().value(), np.linalg.inv(m), atol=1e-14)

    def test_one_plus_zzb(self):
        # (1 + z zb)^-1 has alternating diagonal coefficients
        g = geometric_jet(4, sign=1.0, power=1)
        inv = g.inv()
        for k in range(5):
            assert inv.coeffs[k, k, 0, 0] == pytest.approx((-1.0) ** k)

    def test_inverse_of_geometric(self):
        inv = geometric_jet(4).inv()
        expect = np.zeros_like(inv.coeffs)
        expect[0, 0, 0, 0] = 1.0
        expect[1, 1, 0, 0] = -1.0
        np.testing.assert_allclose(inv.coeffs, expect, atol=1e-13)

    def test_singular_constant_raises(self):
        z = HermJet.coordinate(0, (0.0,), 2, 2)
        with pytest.raises(SingularityError):
            z.inv()

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("orders", [(3, 3), (4, 2), (0, 3)])
    def test_two_sided_inverse(self, rng, rank, orders):
        a = random_jet(2, rank, *orders, rng)
        ident = HermJet.identity(a.center, *orders, rank)
        for prod in (a * a.inv(), a.inv() * a):
            assert np.max(np.abs((prod - ident).coeffs)) < 1e-12

    def test_inverse_is_memoized(self, rng):
        a = random_jet(2, 2, 2, 2, rng)
        assert a.inv() is a.inv()

    def test_numerically_singular_constant_raises(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        with pytest.raises(SingularityError):
            HermJet.constant(m, (0.0,), 2, 2).inv()
        with pytest.raises(SingularityError):
            HermJet.constant(np.zeros((2, 2)), (0.0,), 2, 2).inv()

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mul_inv_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        a = random_herm_jet(2, 3, 3, 3, rng)
        resid = a * a.inv() - HermJet.identity(a.center, 3, 3, 3)
        assert np.max(np.abs(resid.coeffs)) < 1e-12


class TestFunc:
    def test_exp_of_zero(self):
        out = HermJet.zero((0.0,), 3, 3).exp()
        expect = np.zeros_like(out.coeffs)
        expect[0, 0, 0, 0] = 1.0
        np.testing.assert_allclose(out.coeffs, expect, atol=1e-15)

    def test_power_minus_two(self):
        base = geometric_jet(4, power=1)  # 1 - z zb
        out = base.power(-2.0)
        for k in range(5):
            assert out.coeffs[k, k, 0, 0] == pytest.approx(k + 1)

    def test_log_exp_roundtrip(self):
        z = HermJet.coordinate(0, (0.0,), 3, 3)
        zb = HermJet.conj_coordinate(0, (0.0,), 3, 3)
        out = (z * zb).exp().log()
        expect = np.zeros_like(out.coeffs)
        expect[1, 1, 0, 0] = 1.0
        np.testing.assert_allclose(out.coeffs, expect, atol=1e-13)

    def test_branch_guard(self):
        bad = HermJet.constant(-1.0, (0.0,), 2, 2)
        with pytest.raises(SingularityError):
            bad.log()
        with pytest.raises(SingularityError):
            bad.power(0.5)
        z = HermJet.coordinate(0, (0.0,), 2, 2)  # constant term 0
        with pytest.raises(SingularityError):
            z.log()
        with pytest.raises(SingularityError):
            z.power(-0.5)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_log_inverts_exp(self, seed):
        u = random_jet(2, 1, 4, 4, np.random.default_rng(seed))
        assert np.max(np.abs((u.exp().log() - u).coeffs)) < 1e-11

    @given(
        seed=st.integers(0, 2**31 - 1),
        s=st.floats(-2.5, 2.5),
        t=st.floats(-2.5, 2.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_real_powers_add(self, seed, s, t):
        u = random_jet(2, 1, 4, 4, np.random.default_rng(seed), scale=0.2)
        lhs = u.power(s) * u.power(t)
        rhs = u.power(s + t)
        assert np.max(np.abs((lhs - rhs).coeffs)) < 1e-10 * (1 + np.max(np.abs(rhs.coeffs)))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_square_root_squares_back(self, seed):
        u = random_jet(2, 1, 4, 4, np.random.default_rng(seed))
        root = u.power(0.5)
        assert np.max(np.abs((root * root - u).coeffs)) < 1e-11

    def test_matrix_jet_rejected(self, rng):
        with pytest.raises(DimensionError):
            random_herm_jet(1, 2, 2, 2, rng).exp()


class TestExtract:
    def test_value(self, rng):
        a = random_herm_jet(2, 2, 3, 3, rng)
        zero = (0, 0)
        np.testing.assert_array_equal(a.extract(zero, zero), a.value())

    def test_geometric_derivatives(self):
        g = geometric_jet(4)
        for k in range(5):
            val = g.extract((k,), (k,))
            assert val[0, 0] == pytest.approx(factorial(k) ** 2)

    def test_exp_derivatives(self):
        z = HermJet.coordinate(0, (0.0,), 4, 4)
        zb = HermJet.conj_coordinate(0, (0.0,), 4, 4)
        e = (z * zb).exp()
        for p in range(5):
            for q in range(5):
                expect = factorial(p) if p == q else 0.0
                assert e.extract((p,), (q,))[0, 0] == pytest.approx(expect, abs=1e-12)

    def test_out_of_order_raises(self, rng):
        a = random_herm_jet(1, 1, 2, 2, rng)
        with pytest.raises(OrderError):
            a.extract((3,), (0,))


class TestStructure:
    def test_tables_are_graded_prefixes(self):
        for m in (1, 2, 3):
            long = index_table(m, 5)
            short = index_table(m, 3)
            assert long[: len(short)] == short

    def test_hermitian_preserved_by_sandwich(self, rng):
        a = random_herm_jet(2, 2, 3, 3, rng)
        b = random_herm_jet(2, 2, 3, 3, rng)
        prod = a * b * a.adjoint()
        # a * b * a^dagger with b Hermitian-symmetric stays Hermitian-symmetric
        assert prod.hermitian_defect() < 1e-12
        assert a.inv().hermitian_defect() < 1e-12

    def test_leibniz_against_factor_derivatives(self, rng):
        a = random_herm_jet(2, 2, 3, 3, rng)
        b = random_herm_jet(2, 2, 3, 3, rng)
        for var in (0, 1):
            lhs = (a * b).deriv(var)
            rhs = a.deriv(var) * b + a * b.deriv(var)
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12
            lhs = (a * b).deriv(var, conjugate=True)
            rhs = a.deriv(var, conjugate=True) * b + a * b.deriv(var, conjugate=True)
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12

    def test_freeze_variable_is_ring_map(self, rng):
        a = random_herm_jet(2, 2, 3, 3, rng)
        b = random_herm_jet(2, 2, 3, 3, rng)
        lhs = (a * b).freeze_variable(0)
        rhs = a.freeze_variable(0) * b.freeze_variable(0)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12

    def test_coeffs_immutable(self, rng):
        a = random_herm_jet(1, 1, 2, 2, rng)
        with pytest.raises(ValueError):
            a.coeffs[0, 0, 0, 0] = 5.0


class TestHoloJet:
    def test_product_matches_herm_route(self, rng):
        # against the naive convolution of the promoted HermJets
        from conftest import random_holo_jet

        a = random_holo_jet(2, 2, 3, rng)
        b = random_holo_jet(2, 2, 2, rng)
        direct = a * b
        expect = naive_product(a.as_herm(0), b.as_herm(0))[:, :1]
        assert direct.holo_order == 2
        assert np.max(np.abs(direct.coeffs - expect)) < 1e-13

    def test_adjoint_promotion(self, rng):
        from conftest import random_holo_jet

        a = random_holo_jet(1, 2, 2, rng)
        adj = a.adjoint_as_herm(2)
        np.testing.assert_allclose(
            adj.extract((0,), (1,)), np.conj(a.extract((1,)).T), atol=1e-14
        )

    # a HoloJet is a HermJet of anti order 0: its operations are HermJet's on
    # the same coefficients, bit for bit, and keep the type

    GRID = [(0.1, -0.2), (0.0, 0.3 + 0.1j), (-0.25, 0.05j), (0.2, 0.2)]

    @staticmethod
    def holo_pair(center, order, rng):
        """A HoloJet of rank 2 at `center` (one point of C^2, or a list of
        points) and the HermJet of the same coefficients."""
        points = (len(center),) if isinstance(center, list) else ()
        shape = points + (table_size(2, order), 1, 2, 2)
        c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 0.3
        c[..., 0, 0, :, :] += np.eye(2)
        return HoloJet(center, order, 2, c), HermJet(center, order, 0, 2, c)

    @pytest.mark.parametrize("center", [(0.1, -0.2), GRID])
    def test_operations_are_herm_jet_operations(self, rng, center):
        a, ha = self.holo_pair(center, 3, rng)
        b, hb = self.holo_pair(center, 2, rng)
        pairs = [(a * b, ha * hb), (a.inv(), ha.inv()), (a.truncate(1), ha.truncate(1)),
                 (a.freeze_variable(0), ha.freeze_variable(0))]
        for got, want in pairs:
            assert type(got) is HoloJet and got.anti_order == 0
            assert got.holo_order == want.holo_order
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert a.extract((1, 2)).tobytes() == ha.extract((1, 2)).tobytes()
        assert a.value().tobytes() == ha.value().tobytes()

    @pytest.mark.parametrize("center", [(0.1, -0.2), GRID])
    def test_conversions(self, rng, center):
        a, _ = self.holo_pair(center, 3, rng)
        for q in (0, 2):
            back = a.as_herm(q).holo_part()
            assert type(back) is HoloJet and back.anti_order == 0
            assert back.coeffs.tobytes() == a.coeffs.tobytes()
        adj = a.adjoint_as_herm(3)
        assert type(adj) is HermJet and (adj.holo_order, adj.anti_order) == (3, 3)
        assert np.array_equal(adj.coeffs, a.as_herm(3).adjoint().coeffs)

    def test_anti_order_is_zero(self):
        with pytest.raises(DimensionError):
            HoloJet((0.0,), 2, 1, np.zeros((3, 2, 1, 1)))


class TestPointAxis:
    """A jet at P centers computes, per point, exactly what a jet at that
    point alone computes: the same coefficients bit for bit."""

    CENTERS = [(0.1, -0.2), (0.0, 0.3 + 0.1j), (-0.25, 0.05j), (0.2, 0.2)]

    def at_points(self, singles):
        first = singles[0]
        return HermJet(
            [j.center for j in singles], first.holo_order, first.anti_order, first.rank,
            np.stack([j.coeffs for j in singles]),
        )

    def singles(self, rank, p, q, rng):
        return [
            HermJet(c, p, q, rank, random_jet(len(c), rank, p, q, rng).coeffs)
            for c in self.CENTERS
        ]

    def assert_each_point(self, grid, singles):
        assert grid.points == (len(singles),)
        assert grid.center == tuple(j.center for j in singles)
        for k, single in enumerate(singles):
            assert (grid.holo_order, grid.anti_order) == (single.holo_order, single.anti_order)
            assert grid.coeffs[k].tobytes() == single.coeffs.tobytes()

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_product_and_inverse(self, rng, rank):
        a, b = self.singles(rank, 3, 2, rng), self.singles(rank, 2, 3, rng)
        ga, gb = self.at_points(a), self.at_points(b)
        self.assert_each_point(ga * gb, [x * y for x, y in zip(a, b)])
        self.assert_each_point(ga.inv(), [x.inv() for x in a])
        self.assert_each_point(ga.power(-2), [x.power(-2) for x in a])

    def test_series(self, rng):
        a = self.singles(1, 3, 3, rng)
        grid = self.at_points(a)
        self.assert_each_point(grid.exp(), [x.exp() for x in a])
        self.assert_each_point(grid.log(), [x.log() for x in a])
        self.assert_each_point(grid.power(-1.5), [x.power(-1.5) for x in a])
        self.assert_each_point(grid.power(0.5), [x.power(0.5) for x in a])

    def test_calculus_and_holomorphic_part(self, rng):
        a = self.singles(2, 3, 3, rng)
        grid = self.at_points(a)
        self.assert_each_point(grid.deriv(1), [x.deriv(1) for x in a])
        self.assert_each_point(grid.deriv(0, conjugate=True), [x.deriv(0, True) for x in a])
        self.assert_each_point(grid.adjoint(), [x.adjoint() for x in a])
        self.assert_each_point(grid.freeze_variable(0), [x.freeze_variable(0) for x in a])
        for k, x in enumerate(a):
            assert grid.extract((1, 1), (0, 1))[k].tobytes() == x.extract((1, 1), (0, 1)).tobytes()
        holo = grid.holo_part()
        prod, inv = holo * holo, holo.inv()
        for k, x in enumerate(a):
            single = x.holo_part()
            assert prod.coeffs[k].tobytes() == (single * single).coeffs.tobytes()
            assert inv.coeffs[k].tobytes() == single.inv().coeffs.tobytes()

    def test_constructors_broadcast_over_points(self):
        grid = HermJet.coordinate(1, self.CENTERS, 2, 1)
        for k, c in enumerate(self.CENTERS):
            single = HermJet.coordinate(1, c, 2, 1)
            assert grid.coeffs[k].tobytes() == single.coeffs.tobytes()
        const = HoloJet.constant(np.eye(2), self.CENTERS, 2)
        assert const.points == (4,) and const.dim == 2
        assert np.array_equal(const.value(), np.broadcast_to(np.eye(2), (4, 2, 2)))

    def test_mixing_grid_and_single_point_is_refused(self, rng):
        a = self.singles(1, 2, 2, rng)
        with pytest.raises(DimensionError):
            self.at_points(a) * a[0]

    def test_singular_point_raises_the_single_point_error(self, rng):
        a = self.singles(2, 2, 2, rng)
        c = np.array(a[2].coeffs)
        c[0, 0] = 0.0
        a[2] = HermJet(a[2].center, 2, 2, 2, c)
        with pytest.raises(SingularityError, match="constant term is singular"):
            a[2].inv()
        with pytest.raises(SingularityError, match="constant term is singular"):
            self.at_points(a).inv()


def contract_three_temporaries(left, right, I, J, starts, weight=None):
    """The product kernel as it was with a third gather-sized array for the
    products: the reference the in-place kernel must match bit for bit."""
    a = np.take(left, I, axis=-1)
    b = np.take(right, J, axis=-1)
    if weight is not None:
        a *= weight
    r = a.shape[0]
    if r == 1:
        prod = a * b
    else:
        prod = np.empty_like(a)
        tmp = np.empty(a.shape[2:], dtype=a.dtype)
        for row in range(r):
            for col in range(r):
                acc = prod[row, col]
                np.multiply(a[row, 0], b[0, col], out=acc)
                for k in range(1, r):
                    np.multiply(a[row, k], b[k, col], out=tmp)
                    acc += tmp
    return np.add.reduceat(prod, starts, axis=-1)


class TestContract:
    """The product kernel writes its products into its left gather; the sums
    are the same multiplies and adds in the same order as with a separate
    product array."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("points", [(), (3,)])
    def test_bitwise_equal_to_three_temporaries(self, rng, rank, weighted, points):
        dim, p, q = 2, 3, 2
        shape = points + (table_size(dim, p), table_size(dim, q), rank, rank)

        def operand():
            c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return jetcore._pair_last(c)

        left, right = operand(), operand()
        I, J, starts = jetcore._mul_plan(dim, p, q, shape[-3], shape[-3])
        weight = rng.standard_normal(len(I)) if weighted else None
        got = jetcore._contract(left, right, I, J, starts, weight)
        want = contract_three_temporaries(left, right, I, J, starts, weight)
        assert got.shape == want.shape == (rank, rank) + points + (len(starts),)
        assert got.tobytes() == want.tobytes()


def at_grid(jets):
    """Jets at single points stacked into one jet on a point axis."""
    first = jets[0]
    return HermJet([j.center for j in jets], first.holo_order, first.anti_order, first.rank,
                   np.stack([j.coeffs for j in jets]))


class TestRestrict:
    """Restriction to a coordinate subspace through the center is a ring
    map: it commutes with products, inverses and kept-variable derivatives."""

    KEPT = {1: [(0,)], 2: [(0,), (1,), (0, 1)], 3: [(0,), (2,), (0, 2), (2, 0)]}

    def operands(self, dim, rank, points, rng):
        def one():
            jets = [random_jet(dim, rank, 3, 2, rng) for _ in range(max(points, 1))]
            centers = [tuple(0.1 * (k + 1) * (v + 1) - 0.05j * v for v in range(dim))
                       for k in range(len(jets))]
            jets = [HermJet(c, 3, 2, rank, j.coeffs) for c, j in zip(centers, jets)]
            return at_grid(jets) if points else jets[0]

        return one(), one()

    @staticmethod
    def assert_close(got, want):
        assert (got.dim, got.holo_order, got.anti_order) == (want.dim, want.holo_order,
                                                             want.anti_order)
        assert got.center == want.center
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("points", [0, 3])
    def test_ring_map(self, rng, dim, rank, points):
        a, b = self.operands(dim, rank, points, rng)
        for kept in self.KEPT[dim]:
            self.assert_close((a * b).restrict(kept), a.restrict(kept) * b.restrict(kept))
            self.assert_close(a.inv().restrict(kept), a.restrict(kept).inv())
            for k, var in enumerate(kept):
                for conjugate in (False, True):
                    self.assert_close(a.deriv(var, conjugate).restrict(kept),
                                      a.restrict(kept).deriv(k, conjugate))

    def test_coefficients_and_center(self, rng):
        a = HermJet((0.1, 0.2j, -0.3), 2, 2, 1, random_jet(3, 1, 2, 2, rng).coeffs)
        line = a.restrict((2, 0))  # variable 0 of the result is z3, variable 1 is z1
        assert line.dim == 2 and line.center == (-0.3, 0.1)
        for (a3, a1) in index_table(2, 2):
            for (b3, b1) in index_table(2, 2):
                np.testing.assert_array_equal(line.extract((a3, a1), (b3, b1)),
                                              a.extract((a1, 0, a3), (b1, 0, b3)))
        assert a.restrict((0, 1, 2)).coeffs.tobytes() == a.coeffs.tobytes()

    @pytest.mark.parametrize("kept", [(), (0, 0), (3,), (-1,)])
    def test_invalid_variables_raise(self, rng, kept):
        with pytest.raises(DimensionError):
            random_jet(3, 1, 2, 2, rng).restrict(kept)


def polynomial_jet(dim, rank, p, q, degree, rng):
    """Random jet whose coefficients vanish outside |alpha| <= a, |beta| <= b."""
    jet = random_jet(dim, rank, p, q, rng)
    c = np.array(jet.coeffs)
    c[table_size(dim, min(degree[0], p)):] = 0.0
    c[:, table_size(dim, min(degree[1], q)):] = 0.0
    return HermJet(jet.center, p, q, rank, c)


class TestBoundedProduct:
    """A factor declared of degree (a, b) restricts the plan to the pairs
    inside its bound; the product is the full one."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("degree", [(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (5, 5)])
    def test_equals_full_product(self, rng, dim, rank, degree):
        dense = random_jet(dim, rank, 3, 3, rng)
        poly = polynomial_jet(dim, rank, 3, 3, degree, rng)
        bounded = poly.with_degree(degree)
        assert bounded.degree == degree and poly.degree is None
        other = polynomial_jet(dim, rank, 3, 3, (1, 1), rng).with_degree((1, 1))
        for got, want in ((dense * bounded, dense * poly), (bounded * dense, poly * dense),
                          (bounded * other, poly * other.with_degree((3, 3)))):
            assert got.degree is None
            np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=0, atol=1e-14)

    def test_plan_gathers_the_pairs_inside_the_bound(self):
        assert len(jetcore._mul_plan(2, 3, 3, 10, 10)[0]) == 1225
        assert len(jetcore._mul_plan(2, 3, 3, 10, 10, None, (1, 0))[0]) == 220
        assert len(jetcore._mul_plan(2, 3, 3, 10, 10, (1, 0), None)[0]) == 220
        # the full plan is a bound at or beyond the orders
        full = jetcore._mul_plan(2, 3, 3, 10, 10)
        for x, y in zip(full, jetcore._mul_plan(2, 3, 3, 10, 10, (3, 3), (4, 7))):
            np.testing.assert_array_equal(x, y)

    def test_operations_return_no_bound(self, rng):
        poly = polynomial_jet(2, 1, 3, 3, (1, 1), rng).with_degree((1, 1))
        for out in (poly + poly, poly.scale(2.0), -poly, poly.shift(1.0), poly * poly,
                    poly.deriv(0), poly.truncate(2, 2), poly.restrict((0,))):
            assert out.degree is None

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_dense_coefficient_stays_non_finite(self, rng, value):
        dense = random_jet(2, 1, 3, 3, rng)
        c = np.array(dense.coeffs)
        c[7, 4] = value
        dense = HermJet(dense.center, 3, 3, 1, c)
        z1 = HermJet.coordinate(0, dense.center, 3, 3)  # constant term 0
        for poly in (z1.with_degree((1, 0)), z1.shift(1.0).with_degree((1, 0))):
            with np.errstate(invalid="ignore"):  # inf * 0
                products = (dense * poly, poly * dense)
            for prod in products:
                assert not np.all(np.isfinite(prod.coeffs))
