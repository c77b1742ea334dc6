"""Point-wise and along-slice contact: examples, invariants, route agreement."""

import numpy as np
import pytest

from jetcontact.contact import (
    ContactProblem,
    _full_candidate_from_slice,
    _normalized_pair,
    _on_pair,
    alongZ_check,
    check_problem,
    extend_A_sequence,
    extend_A_sequence_jets,
    geometric_conditions,
    holomorphy_conditions,
    jet_gram,
    pointwise_normalized_decide,
    pointwise_rank1_decide,
    pointwise_verify,
)
from jetcontact.geometry import normalize_frame, transverse_tower
from jetcontact.jetcore import (
    HermJet,
    HoloJet,
    index_positions,
    index_table,
    multi_index_factorial,
    table_size,
)
from jetcontact.kernelexpr import BundleSpec, parse_kernel

from conftest import (
    PAIR_CORNERS_M2,
    PAIR_GRAMS_M2,
    SCALAR_FACTORS_M2,
    SCALAR_GRAMS_M2,
    conjugated_gram,
    constructed_scalar_pair,
    eval_holo_jet,
    holo_from_entries,
    lambda_from_jet,
    random_herm_jet,
    unitriangular_pair,
)

Z_POINTS = [(0.0, 0.12 * k - 0.2) for k in range(5)]


def gram_jets(entries_a, entries_b, point, orders, dim=2):
    a = BundleSpec("a", dim, entries_a).gram_jet(point, orders, orders)
    b = BundleSpec("b", dim, entries_b).gram_jet(point, orders, orders)
    return a, b


class TestJetGram:
    @pytest.mark.parametrize("dim,rank", [(1, 1), (2, 2), (3, 2), (2, 3)])
    def test_equals_blockwise_extraction(self, rng, dim, rank):
        # reference: one extract() per block, as d^I dbar^J H at the center
        h = random_herm_jet(dim, rank, 4, 3, rng, scale=3.0)
        for variables in ("all", "z1"):
            for n in range(4):
                if variables == "z1":
                    blocks = [(k,) + (0,) * (dim - 1) for k in range(n + 1)]
                else:
                    blocks = index_table(dim, n)
                want = np.block([[h.extract(a, b) for b in blocks] for a in blocks])
                assert jet_gram(h, n, variables).tobytes() == want.tobytes()

    def test_order_zero_is_value(self, rng):
        h = random_herm_jet(2, 2, 2, 2, rng)
        np.testing.assert_array_equal(jet_gram(h, 0), h.value())

    def test_hardy_and_bergman_diagonals(self):
        hardy = BundleSpec("h", 1, [["pow(1 - z1*zb1, -1)"]]).gram_jet((0.0,), 2, 2)
        np.testing.assert_allclose(jet_gram(hardy, 2), np.diag([1.0, 1.0, 4.0]), atol=1e-12)
        berg2 = BundleSpec("b", 1, [["pow(1 - z1*zb1, -2)"]]).gram_jet((0.0,), 2, 2)
        np.testing.assert_allclose(jet_gram(berg2, 2), np.diag([1.0, 2.0, 12.0]), atol=1e-12)

    def test_positive_definite_at_generic_points(self):
        spec = BundleSpec("b", 2, [["pow(1 - 0.5*z1*zb1 - 0.5*z2*zb2, -2)"]])
        for pt in [(0.0, 0.0), (0.2, -0.3), (0.1 + 0.2j, 0.4j)]:
            g = jet_gram(spec.gram_jet(pt, 2, 2), 2)
            assert np.linalg.eigvalsh(g).min() > 0

    def test_z1_selects_transverse_blocks(self, rng):
        h = random_herm_jet(2, 2, 3, 3, rng)
        full = jet_gram(h, 2)
        trans = jet_gram(h, 2, "z1")
        np.testing.assert_array_equal(trans[:2, :2], full[:2, :2])
        assert trans.shape == (6, 6)


class TestPointwise:
    def test_same_bundle_identity_candidate(self, rng):
        h = random_herm_jet(2, 2, 3, 3, rng)
        cand = HoloJet.constant(np.eye(2), (0.0, 0.0), 2)
        verdict, res = pointwise_verify(h, h, cand, 2, 1e-10)
        assert verdict == "verified"
        assert max(res.values()) == 0.0

    def test_constructed_candidate_verifies(self):
        a_grid, a_inv = unitriangular_pair(PAIR_CORNERS_M2[0])
        ht_grid = conjugated_gram(PAIR_GRAMS_M2[0], a_inv)
        for point in [(0.0, 0.0), (0.1, -0.15), (0.05j, 0.2)]:
            h, ht = gram_jets(PAIR_GRAMS_M2[0], ht_grid, point, 4)
            cand = holo_from_entries(
                [[eval_holo_jet(e, point, 3) for e in row] for row in a_grid]
            )
            verdict, res = pointwise_verify(h, ht, cand, 3, 1e-8)
            assert verdict == "verified", res

    def test_one_plus_z_pair_verifies_at_sampled_points(self):
        # Ht = A^-1 H conj(A)^-1 for the scalar map A = 1 + z
        h_grid = [["pow(1 - 0.5*z1*zb1, -1)"]]
        ht_grid = [[
            "pow(1 + z1, -1) * pow(1 + zb1, -1) * pow(1 - 0.5*z1*zb1, -1)"
        ]]
        for point in [(0.0,), (0.25,), (-0.2 + 0.1j,)]:
            h, ht = gram_jets(h_grid, ht_grid, point, 3, dim=1)
            cand = eval_holo_jet(parse_kernel("1 + z1"), point, 2)
            verdict, _ = pointwise_verify(h, ht, holo_from_entries([[cand]]), 2, 1e-8)
            assert verdict == "verified"

    def test_bergman_mismatch_refuted_for_any_phase(self):
        h, ht = gram_jets(
            [["pow(1 - z1*zb1, -1)"]], [["pow(1 - z1*zb1, -2)"]], (0.0,), 2, dim=1
        )
        for phase in (1.0, 1j, np.exp(0.3j)):
            cand = HoloJet.constant(np.array([[phase]]), (0.0,), 1)
            verdict, _ = pointwise_verify(h, ht, cand, 1, 1e-8)
            assert verdict == "refuted"

    def test_rank1_decide_self(self):
        h = BundleSpec("f", 1, [["exp(z1*zb1)"]]).gram_jet((0.3,), 3, 3)
        verdict, res = pointwise_rank1_decide(h, h, 2, 1e-10)
        assert verdict == "verified" and max(res.values()) == 0.0

    def test_fock_vs_hardy_flip(self):
        fock = BundleSpec("f", 1, [["exp(z1*zb1)"]]).gram_jet((0.0,), 3, 3)
        hardy = BundleSpec("h", 1, [["pow(1 - z1*zb1, -1)"]]).gram_jet((0.0,), 3, 3)
        assert pointwise_rank1_decide(fock, hardy, 1, 1e-9)[0] == "verified"
        assert pointwise_rank1_decide(fock, hardy, 2, 1e-9)[0] == "refuted"

    def test_rank1_decide_agrees_with_candidate_route(self):
        h_grid, ht_grid, cand_grid = constructed_scalar_pair(
            "pow(1 - 0.5*z1*zb1 - 0.4*z2*zb2, -1)", "1 + 0.2*z1 + 0.1*z2*z2"
        )
        for point in [(0.0, 0.0), (0.1, 0.2)]:
            h, ht = gram_jets(h_grid, ht_grid, point, 3)
            cand = holo_from_entries(
                [[eval_holo_jet(cand_grid[0][0], point, 2)]]
            )
            v1, _ = pointwise_rank1_decide(h, ht, 2, 1e-8)
            v2, _ = pointwise_verify(h, ht, cand, 2, 1e-8)
            assert v1 == v2 == "verified"

    def test_normalized_decide_rank2(self):
        a_grid, a_inv = unitriangular_pair(PAIR_CORNERS_M2[1])
        ht_grid = conjugated_gram(PAIR_GRAMS_M2[1], a_inv)
        h, ht = gram_jets(PAIR_GRAMS_M2[1], ht_grid, (0.1, -0.05), 3)
        verdict, _ = pointwise_normalized_decide(h, ht, 2, 1e-8)
        assert verdict == "verified"
        other, _ = gram_jets(PAIR_GRAMS_M2[0], PAIR_GRAMS_M2[0], (0.1, -0.05), 3)
        verdict, _ = pointwise_normalized_decide(h, other, 2, 1e-8)
        assert verdict == "refuted"

    def test_normalized_decide_stops_at_certified_refutation(self, simeq_draws):
        h, other = gram_jets(PAIR_GRAMS_M2[1], PAIR_GRAMS_M2[0], (0.1, -0.05), 3)
        verdict, _ = pointwise_normalized_decide(h, other, 2, 1e-8)
        assert verdict == "refuted"
        assert len(simeq_draws) == 1

    def test_normalized_decide_block_stack(self, monkeypatch):
        # the stack handed to the solver equals the extract loop bitwise
        import jetcontact.contact as contact

        seen = []
        monkeypatch.setattr(contact, "unitary_intertwiner",
                            lambda a, b, seed, **kw: seen.append((a, b)) or (None, 0.0))
        _, a_inv = unitriangular_pair(PAIR_CORNERS_M2[1])
        ht_grid = conjugated_gram(PAIR_GRAMS_M2[1], a_inv)
        h, ht = gram_jets(PAIR_GRAMS_M2[1], ht_grid, (0.1, -0.05), 4)
        pointwise_normalized_decide(h, ht, 3, 1e-8)
        table = index_table(2, 3)
        for got, jet in zip(seen[0], (h, ht)):
            _, normalized = normalize_frame(jet, 3)
            want = [normalized.extract(alpha, beta) for alpha in table for beta in table]
            assert got.shape == (100, 2, 2)
            np.testing.assert_array_equal(got, np.array(want))

    @pytest.mark.parametrize("where", ["point", "grid"])
    def test_stacked_normalization_equals_two_calls(self, where):
        # rank 2 at one point, rank 1 on a grid of Z (the along-Z spot check)
        if where == "point":
            _, a_inv = unitriangular_pair(PAIR_CORNERS_M2[1])
            h, ht = gram_jets(PAIR_GRAMS_M2[1],
                              conjugated_gram(PAIR_GRAMS_M2[1], a_inv), (0.1, -0.05), 3)
        else:
            h_grid, ht_grid, _ = constructed_scalar_pair(SCALAR_GRAMS_M2[0],
                                                         SCALAR_FACTORS_M2[0])
            h, ht = gram_jets(h_grid, ht_grid, Z_POINTS, 3)
        for jet, got in zip((h, ht), _normalized_pair(h, ht, 2)):
            _, want = normalize_frame(jet, 2)
            assert got.center == want.center
            assert (got.holo_order, got.anti_order) == (want.holo_order, want.anti_order)
            np.testing.assert_array_equal(got.coeffs, want.coeffs)

    def test_stacked_normalization_error_of_the_second_jet(self):
        rng = np.random.default_rng(0)
        good = random_herm_jet(2, 2, 3, 3, rng)
        coeffs = np.array(good.coeffs)
        coeffs[0, 0] = [[1.0, 1 - 1e-6], [1 - 1e-6, 1.0]]  # ill-conditioned value
        bad = HermJet(good.center, 3, 3, 2, coeffs)
        with pytest.raises(ArithmeticError) as alone:
            normalize_frame(bad, 2)
        assert "frame normalization failed" in str(alone.value)
        for pair in ((good, bad), (bad, good)):
            with pytest.raises(ArithmeticError) as stacked:
                _normalized_pair(*pair, 2)
            assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("corner", PAIR_CORNERS_M2)
    def test_rank2_decide_agrees_with_candidate_route(self, corner):
        a_grid, a_inv = unitriangular_pair(corner)
        ht_grid = conjugated_gram(PAIR_GRAMS_M2[0], a_inv)
        for point in [(0.0, 0.0), (0.08, -0.1), (0.05j, 0.15)]:
            h, ht = gram_jets(PAIR_GRAMS_M2[0], ht_grid, point, 3)
            cand = holo_from_entries(
                [[eval_holo_jet(e, point, 2) for e in row] for row in a_grid]
            )
            decided, _ = pointwise_normalized_decide(h, ht, 2, 1e-8)
            verified, _ = pointwise_verify(h, ht, cand, 2, 1e-8)
            assert decided == verified == "verified"

    def test_monotonicity_in_order(self):
        # order-n contact implies order-(n-1): jet Grams nest as sub-blocks
        h_grid, ht_grid, _ = constructed_scalar_pair(
            SCALAR_GRAMS_M2[0], SCALAR_FACTORS_M2[0]
        )
        h, ht = gram_jets(h_grid, ht_grid, (0.1, 0.1), 4)
        for n in (3, 2, 1):
            verdict, _ = pointwise_rank1_decide(h, ht, n, 1e-8)
            assert verdict == "verified"


class TestExtension:
    def test_identity_extension_vanishes(self, rng):
        h = random_herm_jet(2, 2, 4, 4, rng)
        seq = extend_A_sequence(h, h, np.eye(2), 3)
        assert max(np.max(np.abs(a)) for a in seq) < 1e-12

    def test_recovers_derivatives_of_global_map(self):
        a_grid, a_inv = unitriangular_pair(PAIR_CORNERS_M2[2])
        ht_grid = conjugated_gram(PAIR_GRAMS_M2[0], a_inv)
        point = (0.0, 0.1)
        h, ht = gram_jets(PAIR_GRAMS_M2[0], ht_grid, point, 4)
        a_jet = holo_from_entries(
            [[eval_holo_jet(e, point, 3) for e in row] for row in a_grid]
        )
        seq = extend_A_sequence(h, ht, a_jet.value(), 3)
        col = lambda_from_jet(a_jet)
        for l, a_l in enumerate(seq, start=1):
            assert np.max(np.abs(a_l - col[l])) < 1e-9

    def test_rank1_sequence_linear_in_corner(self, rng):
        h = random_herm_jet(1, 1, 4, 4, rng)
        ht = random_herm_jet(1, 1, 4, 4, rng)
        one = extend_A_sequence(h, ht, np.array([[1.0]]), 3)
        lam = extend_A_sequence(h, ht, np.array([[2.5 - 1j]]), 3)
        for a, b in zip(one, lam):
            assert np.max(np.abs(b - (2.5 - 1j) * a)) < 1e-12


class TestConditions:
    def test_trivial_pair_zero_residuals(self, rng):
        h = random_herm_jet(2, 2, 4, 4, rng)
        seq = [np.eye(2)] + extend_A_sequence(h, h, np.eye(2), 2)
        hol = holomorphy_conditions(h, h, seq, 2)
        geo = geometric_conditions(h, h, np.eye(2), 2)
        assert max(hol.values()) < 1e-12
        assert max(geo.values()) < 1e-12

    def test_product_fock_origin_holomorphy(self):
        # both mixed tensors vanish at the origin, so the l=1 residual is 0
        h, ht = gram_jets(
            [["exp(z1*zb1 + z2*zb2)"]], [["exp(z1*zb1 + 2*z2*zb2)"]], (0.0, 0.0), 3
        )
        seq = [np.array([[1.0]])] + extend_A_sequence(h, ht, np.array([[1.0]]), 1)
        res = holomorphy_conditions(h, ht, seq, 1)
        assert res["holomorphy(l=1,j=2)"] < 1e-12

    def test_global_map_zero_residuals_on_grid(self):
        a_grid, a_inv = unitriangular_pair(PAIR_CORNERS_M2[3])
        ht_grid = conjugated_gram(PAIR_GRAMS_M2[1], a_inv)
        for point in Z_POINTS[:3]:
            h, ht = gram_jets(PAIR_GRAMS_M2[1], ht_grid, point, 4)
            a0 = holo_from_entries(
                [[eval_holo_jet(e, point, 3) for e in row] for row in a_grid]
            ).value()
            seq = [a0] + extend_A_sequence(h, ht, a0, 3)
            assert max(holomorphy_conditions(h, ht, seq, 3).values()) < 1e-10
            assert max(geometric_conditions(h, ht, a0, 3).values()) < 1e-10

    @pytest.mark.parametrize("where", ["point", "grid"])
    def test_stacked_transverse_towers_equal_two_calls(self, where):
        _, a_inv = unitriangular_pair(PAIR_CORNERS_M2[2])
        points = (0.0, 0.1) if where == "point" else Z_POINTS
        h, ht = gram_jets(PAIR_GRAMS_M2[0], conjugated_gram(PAIR_GRAMS_M2[0], a_inv), points, 3)
        got = _on_pair(h, ht, lambda both: [v for row in transverse_tower(both, 3) for v in row])
        alone = [[v for row in transverse_tower(jet, 3) for v in row] for jet in (h, ht)]
        assert len(got) == 9
        for (lhs, rhs), want_lhs, want_rhs in zip(got, *alone):
            np.testing.assert_array_equal(lhs, want_lhs)
            np.testing.assert_array_equal(rhs, want_rhs)

    def test_rank1_geometric_conditions_phase_free(self, rng):
        h = random_herm_jet(1, 1, 4, 4, rng)
        ht = h.scale(1.0)  # same bundle
        for phase in (1.0, np.exp(0.7j)):
            res = geometric_conditions(h, ht, np.array([[phase]]), 2)
            without_iso = {k: v for k, v in res.items() if k != "isometry"}
            assert max(without_iso.values()) < 1e-12


class TestAlongZ:
    def test_identical_bundles(self):
        spec = [["exp(z1*zb1 + z2*zb2)"]]
        prob = ContactProblem(
            BundleSpec("a", 2, spec), BundleSpec("b", 2, spec), 2, "along-z", Z_POINTS
        )
        report = alongZ_check(prob)
        assert report.verdict == "verified"
        assert report.route_agreement
        assert all(max(p.residuals.values()) < 1e-12 for p in report.points)

    def test_points_must_lie_on_slice(self):
        spec = [["exp(z1*zb1 + z2*zb2)"]]
        with pytest.raises(ValueError, match="slice"):
            ContactProblem(
                BundleSpec("a", 2, spec),
                BundleSpec("b", 2, spec),
                1,
                "along-z",
                [(0.1, 0.0)],
            )

    @pytest.mark.parametrize("gram,factor", list(zip(SCALAR_GRAMS_M2, SCALAR_FACTORS_M2)))
    def test_rank1_constructed_pairs_verify(self, gram, factor):
        h_grid, ht_grid, _ = constructed_scalar_pair(gram, factor)
        prob = ContactProblem(
            BundleSpec("h", 2, h_grid),
            BundleSpec("ht", 2, ht_grid),
            3,
            "along-z",
            Z_POINTS,
        )
        report = alongZ_check(prob)
        assert report.verdict == "verified", [p.residuals for p in report.points]
        assert report.route_agreement

    @pytest.mark.parametrize("corner", PAIR_CORNERS_M2[:3])
    def test_rank2_constructed_pairs_verify(self, corner):
        a_grid, a_inv = unitriangular_pair(corner)
        ht_grid = conjugated_gram(PAIR_GRAMS_M2[0], a_inv)
        prob = ContactProblem(
            BundleSpec("h", 2, PAIR_GRAMS_M2[0]),
            BundleSpec("ht", 2, ht_grid),
            3,
            "along-z",
            Z_POINTS,
            candidate=a_grid,
        )
        report = alongZ_check(prob)
        assert report.verdict == "verified"
        assert report.route_agreement

    def test_grid_runs_in_slices_each_point_as_alone(self, monkeypatch):
        # a grid of two whole slices and one point more: each pass carries at
        # most one slice, and every point's report is the one it gets alone
        import jetcontact.contact as contact

        size = 2 * contact._GRID_SLICE + 1
        grid = [(0.0, complex(0.05 * k - 0.2, 0.03 * k)) for k in range(size)]
        a_grid, a_inv = unitriangular_pair(PAIR_CORNERS_M2[0])
        ht_grid = conjugated_gram(PAIR_GRAMS_M2[0], a_inv)

        def problem(points):
            return ContactProblem(
                BundleSpec("h", 2, PAIR_GRAMS_M2[0]),
                BundleSpec("ht", 2, ht_grid),
                3,
                "along-z",
                points,
                candidate=a_grid,
            )

        passes = []
        real = contact._alongz_at
        monkeypatch.setattr(
            contact, "_alongz_at", lambda prob, pts: passes.append(len(pts)) or real(prob, pts)
        )
        report = alongZ_check(problem(grid))
        assert passes == [contact._GRID_SLICE, contact._GRID_SLICE, 1]
        assert report.verdict == "verified"
        for got, point in zip(report.points, grid):
            alone = alongZ_check(problem([point])).points[0]
            assert got.as_dict() == alone.as_dict()

    def test_eight_point_grid_runs_in_one_pass(self, monkeypatch):
        # the benchmark's 4x2 grid on Z: one pass of `_alongz_at` for all of it
        import jetcontact.contact as contact

        grid = [(0.0, complex(0.1 * x - 0.15, 0.1 * y)) for x in range(4) for y in range(2)]
        a_grid, a_inv = unitriangular_pair(PAIR_CORNERS_M2[2])
        prob = ContactProblem(
            BundleSpec("h", 2, PAIR_GRAMS_M2[1]),
            BundleSpec("ht", 2, conjugated_gram(PAIR_GRAMS_M2[1], a_inv)),
            3,
            "along-z",
            grid,
            candidate=a_grid,
        )
        passes = []
        real = contact._alongz_at
        monkeypatch.setattr(
            contact, "_alongz_at", lambda prob, pts: passes.append(len(pts)) or real(prob, pts)
        )
        report = alongZ_check(prob)
        assert passes == [8]
        assert report.verdict == "verified"
        assert len(report.points) == 8

    def test_rank2_requires_candidate(self):
        prob = ContactProblem(
            BundleSpec("h", 2, PAIR_GRAMS_M2[0]),
            BundleSpec("ht", 2, PAIR_GRAMS_M2[0]),
            2,
            "along-z",
            Z_POINTS[:1],
        )
        with pytest.raises(ValueError, match="candidate"):
            alongZ_check(prob)

    def test_bergman_weight_mismatch_refuted_everywhere(self):
        prob = ContactProblem(
            BundleSpec("a", 2, [["pow(1 - z1*zb1 - z2*zb2, -1)"]]),
            BundleSpec("b", 2, [["pow(1 - z1*zb1 - z2*zb2, -2)"]]),
            1,
            "along-z",
            Z_POINTS,
        )
        report = alongZ_check(prob)
        assert report.verdict == "refuted"
        assert report.route_agreement
        assert all(p.verdict == "refuted" for p in report.points)

    def test_transverse_perturbation_refutes_both_routes(self):
        h_grid, ht_grid, _ = constructed_scalar_pair(
            SCALAR_GRAMS_M2[1], SCALAR_FACTORS_M2[1]
        )
        perturbed = [[parse_kernel(f"({ht_grid[0][0].text()}) * (1 + 0.1*z1*zb1)")]]
        prob = ContactProblem(
            BundleSpec("h", 2, h_grid),
            BundleSpec("ht", 2, perturbed),
            2,
            "along-z",
            Z_POINTS,
        )
        report = alongZ_check(prob)
        assert report.verdict == "refuted"
        for p in report.points:
            assert p.route_verdicts["analytic"] == "refuted"
            assert p.route_verdicts["geometric"] == "refuted"

    def test_transverse_match_without_glue_is_refuted(self):
        # every transverse z1-jet condition agrees (curvature 1 in the z1
        # direction on both sides, all its covariant derivatives zero), but
        # the tangential curvatures differ (1 vs 2), so no holomorphic
        # isometric corner map exists and both routes must refute
        prob = ContactProblem(
            BundleSpec("a", 2, [["exp(z1*zb1 + z2*zb2)"]]),
            BundleSpec("b", 2, [["exp(z1*zb1 + 2*z2*zb2)"]]),
            2,
            "along-z",
            Z_POINTS,
        )
        report = alongZ_check(prob)
        assert report.verdict == "refuted"
        assert report.route_agreement
        point = report.points[0]
        assert point.residuals["jet-gram-isometry(n=2)"] < 1e-12
        assert point.residuals["transverse-curvature(r=0,t=0)"] < 1e-12
        assert point.residuals["mixed-curvature(j=2,r=0)"] < 1e-12
        assert point.residuals["tangential-curvature(i=2,j=2)"] > 0.2

    def test_scaled_metric_has_full_contact(self):
        # a constant conformal factor is an isometry after frame scaling
        h_grid = [["exp(z1*zb1 + z2*zb2)"]]
        ht_grid = [["2*exp(z1*zb1 + z2*zb2)"]]
        prob = ContactProblem(
            BundleSpec("h", 2, h_grid),
            BundleSpec("ht", 2, ht_grid),
            2,
            "along-z",
            Z_POINTS[:2],
        )
        assert alongZ_check(prob).verdict == "verified"

    def test_along_z_monotone_in_order(self):
        h_grid, ht_grid, _ = constructed_scalar_pair(
            SCALAR_GRAMS_M2[3], SCALAR_FACTORS_M2[3]
        )
        for n in (3, 2, 1):
            prob = ContactProblem(
                BundleSpec("h", 2, h_grid),
                BundleSpec("ht", 2, ht_grid),
                n,
                "along-z",
                Z_POINTS[:3],
            )
            assert alongZ_check(prob).verdict == "verified", n

    def test_along_implies_pointwise_on_grid(self):
        h_grid, ht_grid, _ = constructed_scalar_pair(
            SCALAR_GRAMS_M2[2], SCALAR_FACTORS_M2[2]
        )
        prob = ContactProblem(
            BundleSpec("h", 2, h_grid),
            BundleSpec("ht", 2, ht_grid),
            2,
            "along-z",
            Z_POINTS,
        )
        report = alongZ_check(prob)
        assert report.verdict == "verified"
        for p, point in zip(report.points, Z_POINTS):
            h, ht = gram_jets(h_grid, ht_grid, point, 3)
            assert pointwise_rank1_decide(h, ht, 2, 1e-8)[0] == "verified"
            assert p.route_verdicts["pointwise-spot-check"] == "verified"

    def test_extension_uniqueness_under_perturbation(self):
        # perturbing any extension matrix breaks the block-Gram isometry
        from jetcontact.pascal import pascal_expand, pascal_from_column

        a_grid, a_inv = unitriangular_pair(PAIR_CORNERS_M2[0])
        ht_grid = conjugated_gram(PAIR_GRAMS_M2[0], a_inv)
        point = Z_POINTS[1]
        h, ht = gram_jets(PAIR_GRAMS_M2[0], ht_grid, point, 3)
        a0 = holo_from_entries(
            [[eval_holo_jet(e, point, 2) for e in row] for row in a_grid]
        ).value()
        seq = [a0] + extend_A_sequence(h, ht, a0, 2)
        g, gt = jet_gram(h, 2, "z1"), jet_gram(ht, 2, "z1")

        def isometry_residual(seq_mats):
            lam = pascal_expand(pascal_from_column(np.stack(seq_mats)))
            return np.max(np.abs(g - lam @ gt @ np.conj(lam.T)))

        base = isometry_residual(seq)
        assert base < 1e-10
        tol = 1e-8
        for k in (1, 2):
            noisy = [np.array(m) for m in seq]
            noisy[k] = noisy[k] + 200 * tol * np.ones_like(noisy[k])
            assert isometry_residual(noisy) > 100 * tol


def reference_full_candidate(h, ht, a0_jet, n):
    """The spot-check candidate as it was assembled from the extension
    sequence on the full (n, n) Gram jets."""
    dim = h.dim
    a_jets = [a0_jet.as_herm(h.anti_order).freeze_variable(0)]
    a_jets += extend_A_sequence_jets(h, ht, a_jets[0], n)
    table = index_table(dim, n)
    coeffs = np.zeros(h.points + (len(table), 1, h.rank, h.rank), dtype=np.complex128)
    pos = index_positions(dim, n)
    for idx in table:
        tang = (0,) + idx[1:]
        coeffs[..., pos[idx], 0, :, :] = a_jets[idx[0]].extract(tang) / multi_index_factorial(idx)
    return HoloJet(h.center, n, h.rank, coeffs)


class TestSpotCheckCandidate:
    """`_full_candidate_from_slice` reads only the beta = 0 coefficients of
    the extension sequence, so it runs at anti order 0."""

    @staticmethod
    def slice_jets(dim, rank, n, points, rng):
        """Gram-like jets H, Ht of orders (n, n) and a corner jet A0 on Z,
        at one point (points == ()) or at P points."""
        centers = (0.0,) * dim
        if points:
            centers = tuple((0.0,) + tuple(0.1 * k * (c + 1) for c in range(dim - 1))
                            for k in range(points[0]))
        na = table_size(dim, n)

        def coeffs(shape, scale):
            c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
            c[..., 0, :, :] = c[..., 0, :, :] * 0.1 + np.eye(rank)
            return c

        def herm():
            c = coeffs(points + (na * na, rank, rank), 0.3).reshape(points + (na, na, rank, rank))
            return HermJet(centers, n, n, rank, c)

        a0 = HoloJet(centers, n, rank, coeffs(points + (na, rank, rank), 0.3)[..., None, :, :])
        return herm(), herm(), a0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("points", [(), (3,), (8,)])
    def test_matches_full_order_reference(self, rng, dim, rank, points):
        n = 2 if dim == 3 else 3
        h, ht, a0 = self.slice_jets(dim, rank, n, points, rng)
        got = _full_candidate_from_slice(h, ht, a0, n)
        want = reference_full_candidate(h, ht, a0, n)
        assert (got.holo_order, got.rank, got.center) == (want.holo_order, want.rank,
                                                          want.center)
        assert got.coeffs.shape == want.coeffs.shape
        scale = 1.0 + np.max(np.abs(want.coeffs))
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-13 * scale

    def test_sequence_runs_at_anti_order_zero(self, rng, monkeypatch):
        import jetcontact.contact as contact

        seen = []
        real = contact.extend_A_sequence_jets

        def spy(H, Ht, A0, n):
            seen.append((H.anti_order, Ht.anti_order, A0.anti_order))
            return real(H, Ht, A0, n)

        monkeypatch.setattr(contact, "extend_A_sequence_jets", spy)
        h, ht, a0 = self.slice_jets(2, 2, 3, (4,), rng)
        _full_candidate_from_slice(h, ht, a0, 3)
        assert seen == [(0, 0, 0)]


class TestVerdictBands:
    def test_classify_bands(self):
        from jetcontact.contact import classify

        assert classify(5e-9, 1e-8) == "verified"
        assert classify(5e-8, 1e-8) == "inconclusive"
        assert classify(2e-7, 1e-8) == "refuted"

    @pytest.mark.parametrize(
        "residuals",
        [[1e-15, float("nan")], [float("nan"), 1e-15], [1e-15, float("inf")]],
    )
    def test_non_finite_residual_is_inconclusive(self, residuals):
        # max() keeps the first of NaN and a finite value, so a NaN after a
        # small residual used to classify as verified
        from jetcontact.contact import classify, worst_residual

        worst = worst_residual(dict(zip("ab", residuals)).values())
        assert np.isnan(worst)
        assert classify(worst, 1e-8) == "inconclusive"

    def test_worst_residual_of_finite_values(self):
        from jetcontact.contact import worst_residual

        assert worst_residual([1e-15, 3e-9, 2e-12]) == 3e-9
        assert worst_residual([]) == 0.0

    @pytest.mark.parametrize("nan_first", [True, False])
    def test_nan_route_residual_is_inconclusive(self, monkeypatch, nan_first):
        import jetcontact.contact as contact

        real = contact.geometric_conditions

        def with_nan(*args):
            res = real(*args)
            bad = {"unevaluated": float("nan")}
            return {**bad, **res} if nan_first else {**res, **bad}

        monkeypatch.setattr(contact, "geometric_conditions", with_nan)
        spec = [["exp(z1*zb1 + z2*zb2)"]]
        prob = ContactProblem(
            BundleSpec("a", 2, spec), BundleSpec("b", 2, spec), 2, "along-z", Z_POINTS[:1]
        )
        point = alongZ_check(prob).points[0]
        assert point.route_verdicts["analytic"] == "verified"
        assert point.route_verdicts["geometric"] == "inconclusive"
        assert point.verdict == "inconclusive"

    def test_near_threshold_pair_is_inconclusive(self):
        # a misfit sized inside the (tol, 10 tol) guard band must not flap
        # into either definite verdict
        h, ht = gram_jets(
            [["pow(1 - z1*zb1, -1)"]],
            [["pow(1 - z1*zb1, -1) * (1 + 0.0000001*z1*zb1)"]],
            (0.0,),
            2,
            dim=1,
        )
        verdict, res = pointwise_rank1_decide(h, ht, 1, 1e-8)
        assert verdict == "inconclusive", res

    def test_insufficient_jet_order(self, rng):
        from jetcontact.jetcore import OrderError

        h = random_herm_jet(1, 1, 1, 1, rng)
        with pytest.raises(OrderError):
            jet_gram(h, 2)


class TestDegenerateSlice:
    def test_m1_along_z_is_pointwise_at_origin(self):
        # in one variable the slice degenerates to the origin and the
        # tangential condition sets are empty
        same = ContactProblem(
            BundleSpec("a", 1, [["exp(z1*zb1)"]]),
            BundleSpec("b", 1, [["exp(z1*zb1)"]]),
            2,
            "along-z",
            [(0.0,)],
        )
        assert alongZ_check(same).verdict == "verified"
        crossed = ContactProblem(
            BundleSpec("a", 1, [["pow(1 - z1*zb1, -1)"]]),
            BundleSpec("b", 1, [["pow(1 - z1*zb1, -2)"]]),
            1,
            "along-z",
            [(0.0,)],
        )
        report = alongZ_check(crossed)
        assert report.verdict == "refuted"
        assert report.route_agreement


class TestDispatch:
    def test_constant_matrix_candidate(self):
        prob = ContactProblem(
            BundleSpec("a", 2, PAIR_GRAMS_M2[0]),
            BundleSpec("b", 2, PAIR_GRAMS_M2[0]),
            2,
            "pointwise",
            [(0.0, 0.1)],
            candidate=[["1", "0"], ["0", "1"]],
        )
        report = check_problem(prob)
        assert report.verdict == "verified"
        assert report.points[0].route_verdicts["candidate-verify"] == "verified"

    @pytest.mark.parametrize("candidate", [1.0, "1 + z1", np.eye(1)])
    def test_candidate_outside_the_accepted_forms_is_refused(self, candidate):
        spec = [["exp(z1*zb1)"]]
        with pytest.raises(TypeError, match="None or a grid"):
            ContactProblem(BundleSpec("a", 1, spec), BundleSpec("b", 1, spec), 1,
                           "pointwise", [(0.0,)], candidate=candidate)

    def test_pointwise_mode(self):
        spec = [["exp(z1*zb1)"]]
        prob = ContactProblem(
            BundleSpec("a", 1, spec),
            BundleSpec("b", 1, spec),
            2,
            "pointwise",
            [(0.0,), (0.2,)],
        )
        report = check_problem(prob)
        assert report.mode == "pointwise"
        assert report.verdict == "verified"

    def test_report_serializes(self):
        spec = [["exp(z1*zb1 + z2*zb2)"]]
        prob = ContactProblem(
            BundleSpec("a", 2, spec), BundleSpec("b", 2, spec), 1, "along-z", Z_POINTS[:2]
        )
        doc = check_problem(prob).as_dict()
        assert doc["verdict"] == "verified"
        assert len(doc["points"]) == 2
        assert all(isinstance(v, float) for v in doc["points"][0]["residuals"].values())
