"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and are not calibration knobs.
"""

import time

import numpy as np

from jetcontact.contact import ContactProblem, check_problem as alongZ_check
from jetcontact.geometry import (
    K1j_recursion,
    Q_jet,
    Q_recursion,
    cov_deriv,
    curvature,
    map_adjoint_jet,
)
from jetcontact.kernelexpr import BundleSpec, parse_kernel
from jetcontact.pascal import pascal_expand
from jetcontact.rkhs import quotient_model, unitary_equiv_check
from jetcontact.wordcalc import verify_appendix

from conftest import (
    PAIR_CORNERS_M2,
    PAIR_GRAMS_M2,
    SCALAR_FACTORS_M2,
    SCALAR_GRAMS_M2,
    commutant_basis,
    conjugated_gram,
    constructed_scalar_pair,
    cov_deriv_mixed,
    lambda_from_jet,
    pascal_generator,
    pascal_pattern_defect,
    random_herm_jet,
    random_holo_jet,
    unitriangular_pair,
)

GRID = [(0.0, 0.12 * k - 0.24) for k in range(5)]


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} - {detail}")
    assert passed, detail


def test_criterion_1_pascal_commutant():
    started = time.time()
    worst_pattern = 0.0
    for n in range(1, 7):
        for l in (1, 2):
            basis = commutant_basis(n, l)
            assert len(basis) == (n + 1) * l * l, (n, l, len(basis))
            for mat in basis:
                worst_pattern = max(worst_pattern, pascal_pattern_defect(mat, n, l))
    elapsed = time.time() - started
    report(
        1,
        worst_pattern < 1e-9 and elapsed < 2.0,
        f"commutant dimensions (n+1)*l^2 for n=1..6, l=1..2; "
        f"max pattern defect {worst_pattern:.1e}; runtime {elapsed:.2f}s < 2s",
    )


def test_criterion_2_transition_wellformedness():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for trial in range(100):
        l = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        jet = random_holo_jet(1, l, n, rng)
        lam = pascal_expand(lambda_from_jet(jet))
        gen = pascal_generator(n, l)
        worst = max(worst, float(np.max(np.abs(gen @ lam - lam @ gen))))
    report(
        2,
        worst < 1e-12,
        f"100 random jet transitions commute with the generator; "
        f"max commutator entry {worst:.1e} < 1e-12",
    )


def _recursion_corpus():
    rng = np.random.default_rng(2002)
    shapes = [(m, l) for m in (1, 2, 3) for l in (1, 2, 3)]
    for trial in range(20):
        m, l = shapes[trial % len(shapes)]
        yield m, l, random_herm_jet(m, l, 5, 5, rng)


def test_criterion_3_recursion_oracles():
    n = 4
    worst = 0.0
    for m, l, h in _recursion_corpus():
        for j in range(1, m + 1):
            iterated = curvature(h, 1, j)
            for order in range(1, n + 1):
                rec = K1j_recursion(h, j, order)
                resid = np.max(np.abs(rec - iterated.value())) / (
                    1.0 + np.max(np.abs(rec))
                )
                worst = max(worst, float(resid))
                if order < n:
                    iterated = cov_deriv(iterated, h, 1)
            direct = Q_jet(h, j)
            for order in range(n + 1):
                resid = np.max(np.abs(Q_recursion(h, j, order) - direct.value())) / (
                    1.0 + np.max(np.abs(direct.value()))
                )
                worst = max(worst, float(resid))
                if order < n:
                    direct = direct.deriv(0, conjugate=True)
    report(
        3,
        worst < 1e-9,
        f"curvature-tower and conjugate-tower recursions match direct "
        f"iteration on 20 random Grams (m<=3, l<=3, n<=4); "
        f"max relative residual {worst:.1e} < 1e-9",
    )


def test_criterion_4_adjoint_identities():
    worst = 0.0
    for m, l, h in _recursion_corpus():
        h0 = h.value()
        h0i = np.linalg.inv(h0)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                kij = curvature(h, i, j).value()
                kji = curvature(h, j, i).value()
                resid = np.max(np.abs(kij - h0 @ np.conj(kji.T) @ h0i)) / (
                    1.0 + np.max(np.abs(kij))
                )
                worst = max(worst, float(resid))
        phi = curvature(h, 1, 1)
        for i in range(1, m + 1):
            lhs = map_adjoint_jet(cov_deriv(phi, h, i), h).value()
            rhs = cov_deriv(map_adjoint_jet(phi, h), h, i, conjugate=True).value()
            resid = np.max(np.abs(lhs - rhs)) / (1.0 + np.max(np.abs(lhs)))
            worst = max(worst, float(resid))
    report(
        4,
        worst < 1e-10,
        f"adjoint symmetry and derivative-adjoint duality on the same "
        f"corpus; max relative residual {worst:.1e} < 1e-10",
    )


def test_criterion_5_appendix_suite():
    started = time.time()
    exact = verify_appendix(n_max=6, seed=404, tol=1e-8)
    numeric_bound_5 = verify_appendix(n_max=5, seed=405, tol=1e-8)
    elapsed = time.time() - started
    failures = [c.name for c in exact.checks + numeric_bound_5.checks if not c.passed]
    report(
        5,
        not failures and elapsed < 30.0,
        f"exact identities to weight 6 and seeded numeric equivalence "
        f"(n<=5, 3x3, 1e-8) incl. perturbation detection; "
        f"failures {failures or 'none'}; runtime {elapsed:.2f}s < 30s",
    )


def _constructed_problems():
    problems = []
    for gram, factor in zip(SCALAR_GRAMS_M2, SCALAR_FACTORS_M2):
        h_grid, ht_grid, _ = constructed_scalar_pair(gram, factor)
        problems.append((h_grid, ht_grid, None))
    for corner, gram in zip(PAIR_CORNERS_M2, PAIR_GRAMS_M2 * 3):
        a_grid, a_inv = unitriangular_pair(corner)
        problems.append((gram, conjugated_gram(gram, a_inv), a_grid))
    return problems


def test_criterion_6_route_cross_validation():
    n = 3
    all_verified, all_agree = True, True
    for h_grid, ht_grid, cand in _constructed_problems():
        prob = ContactProblem(
            BundleSpec("h", 2, h_grid),
            BundleSpec("ht", 2, ht_grid),
            n,
            "along-z",
            GRID,
            candidate=cand,
        )
        rep = alongZ_check(prob)
        all_verified &= rep.verdict == "verified"
        all_agree &= rep.route_agreement

    both_refute = True
    bump = "1 + 0.2*z1*zb1"  # vanishes on Z, shifts the transverse curvature
    for h_grid, ht_grid, cand in _constructed_problems():
        perturbed = [
            [
                parse_kernel(f"({entry.text()}) * ({bump})") if p == q else entry
                for q, entry in enumerate(row)
            ]
            for p, row in enumerate(ht_grid)
        ]
        prob = ContactProblem(
            BundleSpec("h", 2, h_grid),
            BundleSpec("ht", 2, perturbed),
            n,
            "along-z",
            GRID,
            candidate=cand,
        )
        rep = alongZ_check(prob)
        for point_report in rep.points:
            both_refute &= point_report.route_verdicts["analytic"] == "refuted"
            both_refute &= point_report.route_verdicts["geometric"] == "refuted"
    report(
        6,
        all_verified and all_agree and both_refute,
        f"10 constructed pairs verified at all 5 grid points with routes "
        f"agreeing (verified={all_verified}, agree={all_agree}); 10 perturbed "
        f"pairs refuted by both routes at every point ({both_refute})",
    )


def test_criterion_7_known_curvature_values():
    ok = True
    details = []
    for alpha in (1, 2, 3):
        h = BundleSpec("b", 1, [[f"pow(1 - z1*zb1, -{alpha})"]]).gram_jet((0.0,), 4, 4)
        k0 = curvature(h, 1, 1).value()[0, 0]
        ok &= abs(k0 - alpha) < 1e-12
        details.append(f"K(0)={k0.real:.12f} for weight {alpha}")
    hf = BundleSpec("f", 1, [["exp(z1*zb1)"]]).gram_jet((0.0,), 5, 5)
    kf = curvature(hf, 1, 1)
    flat = np.zeros_like(kf.coeffs)
    flat[0, 0, 0, 0] = 1.0
    ok &= np.max(np.abs(kf.coeffs - flat)) < 1e-12
    worst_cov = 0.0
    for r in range(3):
        for t in range(3):
            if r + t >= 1:
                val = cov_deriv_mixed(kf, hf, 1, r, 1, t).value()[0, 0]
                worst_cov = max(worst_cov, abs(val))
    ok &= worst_cov < 1e-12
    report(
        7,
        ok,
        f"{'; '.join(details)}; flat-metric curvature constant 1 with "
        f"covariant derivatives < {max(worst_cov, 1e-16):.1e} for r+t >= 1",
    )


def test_criterion_8_quotient_model_agreement():
    kernels = {
        "hardy": BundleSpec("hardy", 1, [["pow(1 - z1*zb1, -1)"]]),
        "bergman2": BundleSpec("bergman2", 1, [["pow(1 - z1*zb1, -2)"]]),
        "fock": BundleSpec("fock", 1, [["exp(z1*zb1)"]]),
    }
    agree = True
    flips = {}
    for n in (1, 2, 3):
        models = {name: quotient_model(k, (0.0,), n) for name, k in kernels.items()}
        for a in kernels:
            for b in kernels:
                rep = unitary_equiv_check(models[a], models[b])
                agree &= rep.agreement
                if {a, b} == {"hardy", "fock"}:
                    flips[n] = rep.equivalent
    flip_ok = flips[1] is True and flips[2] is False and flips[3] is False
    report(
        8,
        agree and flip_ok,
        f"contact and shift-intertwiner verdicts agree on all pairs for "
        f"n<=3; hardy/fock equivalence by order: {flips}",
    )
