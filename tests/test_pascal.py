"""Pascal algebra: generator, expansion, kernels, jet transitions, commutant."""

from itertools import product
from math import comb
from operator import matmul, mul

import numpy as np
import pytest

from jetcontact.jetcore import HoloJet, OrderError, index_table, table_size
from jetcontact.kernelexpr import parse_kernel
from jetcontact.pascal import (
    binomial_solve,
    binomial_sums,
    multi_lambda_from_jet,
    multi_pascal_generator,
    pascal_expand,
    pascal_from_column,
)
from jetcontact.wordcalc import NCPoly, _conjugated_ft_sums, build_sequences

from conftest import (
    commutant_basis,
    eval_holo_jet,
    lambda_from_jet,
    pascal_generator,
    pascal_multiply,
    pascal_pattern_defect,
    random_herm_jet,
    random_holo_jet,
    reference_generator,
    reference_lambda,
)


class TestGenerator:
    def test_n2_scalar(self):
        np.testing.assert_array_equal(
            multi_pascal_generator(1, 2, 1, 1).real, [[0, 0, 0], [1, 0, 0], [0, 2, 0]]
        )

    def test_n3_subdiagonal(self):
        gen = multi_pascal_generator(1, 3, 1, 1)
        assert [gen[k, k - 1].real for k in range(1, 4)] == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("n,l", [(1, 1), (3, 1), (4, 2), (6, 3)])
    def test_nilpotency_index(self, n, l):
        gen = multi_pascal_generator(1, n, 1, l)
        power = np.linalg.matrix_power(gen, n)
        assert np.max(np.abs(power)) > 0
        np.testing.assert_array_equal(np.linalg.matrix_power(gen, n + 1), 0)


class TestExpand:
    def test_identity_column(self):
        block = pascal_from_column([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(pascal_expand(block), np.eye(3))

    def test_ones_column(self):
        block = pascal_from_column([1.0, 1.0, 0.0])
        np.testing.assert_array_equal(
            pascal_expand(block).real, [[1, 0, 0], [1, 1, 0], [0, 2, 1]]
        )

    def test_expansion_commutes_with_generator(self, rng):
        for n, l in [(3, 1), (4, 2)]:
            col = rng.standard_normal((n + 1, l, l)) + 1j * rng.standard_normal((n + 1, l, l))
            mat = pascal_expand(col)
            gen = pascal_generator(n, l)
            np.testing.assert_array_equal(gen @ mat, mat @ gen)

    def test_product_closure_binomial_convolution(self, rng):
        n, l = 4, 2
        cols = rng.standard_normal((2, n + 1, l, l)) + 1j * rng.standard_normal((2, n + 1, l, l))
        a, b = cols
        dense = pascal_expand(a) @ pascal_expand(b)
        convolved = pascal_expand(pascal_multiply(a, b))
        assert np.max(np.abs(dense - convolved)) < 1e-12
        assert pascal_pattern_defect(dense, n, l) < 1e-12


class TestBinomialSolve:
    """The kernel divides in the Pascal algebra: multiplying its solution
    back by G = (1, g_1, ..., g_n) must rebuild B = (x_0, b_1, ..., b_n)."""

    @pytest.mark.parametrize("left", [False, True])
    @pytest.mark.parametrize("with_x0", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_round_trip(self, rng, n, with_x0, left):
        l = 3
        blocks = rng.standard_normal((3, n + 1, l, l)) + 1j * rng.standard_normal((3, n + 1, l, l))
        b, g = list(blocks[0, 1:]), list(blocks[1, 1:])
        x0 = blocks[2, 0] if with_x0 else None
        xs = binomial_solve(b, g, matmul, x0=x0, left=left)
        assert len(xs) == n
        head = x0 if with_x0 else np.zeros((l, l))
        x_col = np.stack([head] + xs)
        g_col = np.stack([np.eye(l)] + g)
        b_col = np.stack([head] + b)
        product = pascal_multiply(g_col, x_col) if left else pascal_multiply(x_col, g_col)
        assert np.max(np.abs(product - b_col)) < 1e-10
        if not left:
            # the convolution kernel multiplies back: x_l + s_l = b_l
            sums = np.stack(binomial_sums(list(x_col), g, matmul))
            np.testing.assert_allclose(x_col[1:] + sums, b_col[1:], atol=1e-10)
            np.testing.assert_allclose(x_col[1:] + sums, product[1:], atol=1e-12)
        # the same product through the dense expansion
        dense = pascal_expand(g_col if left else x_col) @ pascal_expand(x_col if left else g_col)
        np.testing.assert_allclose(dense[:, :l], b_col.reshape(-1, l), atol=1e-10)

    def test_x0_none_equals_zero_x0(self, rng):
        n, l = 4, 2
        blocks = rng.standard_normal((2, n, l, l)) + 1j * rng.standard_normal((2, n, l, l))
        b, g = list(blocks[0]), list(blocks[1])
        for left in (False, True):
            # with x_0 = 0 the last g is never read
            free = binomial_solve(b, g[:-1], matmul, left=left)
            zero = binomial_solve(b, g, matmul, x0=np.zeros((l, l)), left=left)
            np.testing.assert_allclose(np.stack(free), np.stack(zero), atol=1e-13)

    def test_jets_solve_on_their_values(self, rng):
        # the constant term of a jet product is the product of constant terms
        jets = [random_herm_jet(2, 2, 2, 2, rng) for _ in range(7)]
        b, g, x0 = jets[:3], jets[3:6], jets[6]
        for left in (False, True):
            xs = binomial_solve(b, g, mul, x0=x0, left=left)
            values = binomial_solve([j.value() for j in b], [j.value() for j in g],
                                    matmul, x0=x0.value(), left=left)
            for x, v in zip(xs, values):
                np.testing.assert_allclose(x.value(), v, atol=1e-12)

    def test_scalar_solve_is_series_division(self):
        # B = (1, 0, 0, ...) and g_i = 1 in exponential generating functions:
        # X = B / e^z = e^{-z}, so x_l = (-1)^l
        xs = binomial_solve([0.0] * 5, [1.0] * 5, mul, x0=1.0)
        assert xs == [(-1.0) ** l for l in range(1, 6)]

    def test_exact_ncpoly_left_equals_right(self):
        # K = -G (1 + G)^-1 = -(1 + G)^-1 G: the two divisions agree exactly
        g = [NCPoly.symbol("G", i) for i in range(1, 7)]
        left = binomial_solve([-x for x in g], g, mul, left=True)
        right = binomial_solve([-x for x in g], g, mul)
        assert left == right
        assert left == build_sequences("recur19", 6)
        assert right == build_sequences("recur199", 6)
        assert left[0] == -g[0]
        assert left[1] == -g[1] + 2 * (g[0] * g[0])


class TestBinomialSums:
    def test_bitwise_equal_to_in_order_loop(self, rng):
        # the report residuals rest on this order and association
        n, l = 5, 3
        blocks = rng.standard_normal((2, n + 1, l, l)) + 1j * rng.standard_normal((2, n + 1, l, l))
        x, g, c = list(blocks[0]), list(blocks[1, 1:]), np.linalg.inv(blocks[1, 0])
        sums = binomial_sums(x, g, lambda a, gi: a @ gi @ c)
        for k in range(1, n + 1):
            acc = np.zeros((l, l), dtype=np.complex128)
            for i in range(1, k + 1):
                acc = acc + comb(k, i) * (x[k - i] @ g[i - 1] @ c)
            np.testing.assert_array_equal(sums[k - 1], acc)

    def test_conjugated_ft_sums_equal_per_weight_formula(self):
        zs, ft = build_sequences("r01", 6), lambda k: NCPoly.symbol("Ft", k)
        z0, z0i = NCPoly.symbol("Z0"), NCPoly.symbol("Z0i")
        sums = _conjugated_ft_sums(zs)
        assert len(sums) == 6
        for n, total in enumerate(sums, 1):
            # Z0 Ft_n Z0i + sum_{k=1}^{n-1} binom(n,k) Z_{n-k} Ft_k Z0i
            assert total == sum((comb(n, k) * (zs[n - k - 1] * ft(k) * z0i) for k in range(1, n)),
                                z0 * ft(n) * z0i)


class TestLambdaFromJet:
    def test_constant_jet(self):
        jet = HoloJet.constant(np.array([[2.0, 1.0], [0.0, 1.0]]), (0.0,), 3)
        lam = pascal_expand(lambda_from_jet(jet))
        for k in range(4):
            np.testing.assert_array_equal(
                lam[2 * k : 2 * k + 2, 2 * k : 2 * k + 2], jet.value()
            )
        assert np.max(np.abs(lam - np.kron(np.eye(4), jet.value()))) == 0

    def test_one_plus_z(self):
        jet = eval_holo_jet(parse_kernel("1 + z1"), (0.0,), 2)
        col = lambda_from_jet(jet)
        np.testing.assert_allclose(col[:, 0, 0], [1.0, 1.0, 0.0], atol=1e-15)

    def test_multiplicativity(self, rng):
        a = random_holo_jet(1, 2, 4, rng)
        b = random_holo_jet(1, 2, 4, rng)
        lhs = lambda_from_jet(a * b)
        rhs = pascal_multiply(lambda_from_jet(a), lambda_from_jet(b))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestCommutant:
    @pytest.mark.parametrize("n,l,expected", [(2, 1, 3), (4, 1, 5), (2, 2, 12)])
    def test_dimension(self, n, l, expected):
        basis = commutant_basis(n, l)
        assert len(basis) == expected

    def test_n2_span_is_generator_powers(self):
        basis = commutant_basis(2, 1)
        gen = multi_pascal_generator(1, 2, 1, 1)
        powers = np.stack([np.eye(3), gen, gen @ gen]).reshape(3, -1)
        stacked = np.stack([b.reshape(-1) for b in basis])
        joint = np.vstack([powers, stacked])
        assert np.linalg.matrix_rank(joint, tol=1e-10) == 3

    @pytest.mark.parametrize("n,l", [(2, 1), (3, 2), (5, 1)])
    def test_every_element_matches_pattern(self, n, l):
        for mat in commutant_basis(n, l):
            assert pascal_pattern_defect(mat, n, l) < 1e-9


class TestMultiVariable:
    def test_joint_commutant_dimension(self):
        # solutions of {P_j M = M P_j, j=1..m} are exactly the jets of a
        # single holomorphic map: dimension (#multi-indices) * l^2
        for dim, n, l in [(2, 1, 1), (2, 2, 1), (3, 2, 1), (2, 1, 2)]:
            gens = [
                multi_pascal_generator(dim, n, j, l) for j in range(1, dim + 1)
            ]
            size = gens[0].shape[0]
            rows = [
                np.kron(g, np.eye(size)) - np.kron(np.eye(size), g.T) for g in gens
            ]
            svals = np.linalg.svd(np.vstack(rows), compute_uv=False)
            nullity = int(np.sum(svals < 1e-9)) + size * size - len(svals)
            assert nullity == table_size(dim, n) * l * l

    def test_multi_lambda_commutes_with_all_generators(self, rng):
        for dim, n, l in [(2, 2, 1), (2, 1, 2), (3, 2, 2)]:
            jet = random_holo_jet(dim, l, n, rng)
            lam = multi_lambda_from_jet(jet, n)
            for j in range(1, dim + 1):
                gen = reference_generator(dim, n, j, l)
                assert np.max(np.abs(gen @ lam - lam @ gen)) < 1e-12

    def test_m1_reduces_to_block_pascal(self, rng):
        # the three builders of the one Pascal plan equal the block-by-block
        # references bit for bit, at one center and at 8; the expansion is
        # the transition matrix of the z1-line jet, so at m = 1 the two agree
        def same_bits(a, b):
            return a.shape == b.shape and a.tobytes() == b.tobytes()

        for dim, n, l, points in product((1, 2, 3), (1, 2, 3, 4), (1, 2, 3), (None, 8)):
            jet = random_holo_jet(dim, l, n, rng, points=points)
            lam = multi_lambda_from_jet(jet, n)
            assert same_bits(lam, reference_lambda(jet, n))
            line = jet.restrict((0,))
            lam_block = pascal_expand(lambda_from_jet(line))
            assert same_bits(lam_block, reference_lambda(line, n))
            if dim == 1:
                assert same_bits(lam_block, lam)
            for j in range(1, dim + 1):
                gen = multi_pascal_generator(dim, n, j, l)
                assert same_bits(gen, reference_generator(dim, n, j, l))

    def test_orders_beyond_the_guard_or_the_jet_raise(self):
        # binom(61, 30) is not a double: all three builders refuse order 61
        n = 61
        jet = HoloJet.constant(np.eye(2), (0.0,), n)
        for build in (lambda: pascal_expand(jet.coeffs[:, 0]),
                      lambda: multi_lambda_from_jet(jet, n),
                      lambda: multi_pascal_generator(1, n, 1)):
            with pytest.raises(ValueError, match="outside supported range"):
                build()
        # a transition matrix above the jet's order has no derivatives to read
        with pytest.raises(OrderError):
            multi_lambda_from_jet(HoloJet.constant(np.eye(2), (0.0, 0.0), 2), 3)

    def test_generator_action_rule(self):
        # P_j lowers the j-th derivative index with weight i_j
        dim, n = 2, 2
        table = index_table(dim, n)
        gen = multi_pascal_generator(dim, n, 2, 1)
        pos = {idx: k for k, idx in enumerate(table)}
        for idx in table:
            row = gen[pos[idx]]
            if idx[1] == 0:
                assert np.max(np.abs(row)) == 0
            else:
                lowered = (idx[0], idx[1] - 1)
                assert row[pos[lowered]] == idx[1]
                assert np.count_nonzero(row) == 1
