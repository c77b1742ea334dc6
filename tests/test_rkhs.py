"""Quotient-space models of adjoint shifts and equivalence cross-checks."""

import numpy as np
import pytest

from jetcontact.contact import jet_gram
from jetcontact.kernelexpr import BundleSpec, JetProgram
from jetcontact.pascal import multi_pascal_generator
from jetcontact.rkhs import (
    direct_equiv_check,
    quotient_model,
    quotient_models,
    unitary_equiv_check,
)

HARDY = BundleSpec("hardy", 1, [["pow(1 - z1*zb1, -1)"]])
BERGMAN2 = BundleSpec("bergman2", 1, [["pow(1 - z1*zb1, -2)"]])
FOCK = BundleSpec("fock", 1, [["exp(z1*zb1)"]])


class TestQuotientModel:
    def test_hardy_order1(self):
        model = quotient_model(HARDY, (0.0,), 1)
        np.testing.assert_allclose(model.gram, np.diag([1.0, 1.0]), atol=1e-13)
        np.testing.assert_allclose(model.shifts[0], [[0, 0], [1, 0]], atol=1e-14)

    def test_bergman_order1(self):
        model = quotient_model(BERGMAN2, (0.0,), 1)
        np.testing.assert_allclose(model.gram, np.diag([1.0, 2.0]), atol=1e-13)

    def test_fock_order2(self):
        model = quotient_model(FOCK, (0.0,), 2)
        np.testing.assert_allclose(model.gram, np.diag([1.0, 1.0, 2.0]), atol=1e-13)

    def test_shift_is_translate_of_lowering_map(self):
        # (shift_j - z0_j) equals the jet-lowering generator, structurally
        spec = BundleSpec("f2", 2, [["exp(z1*zb1 + 0.5*z2*zb2)"]])
        z0 = (0.3 - 0.1j, 0.2j)
        model = quotient_model(spec, z0, 2)
        for j in (1, 2):
            lowering = multi_pascal_generator(2, 2, j, 1)
            diff = model.shifts[j - 1] - z0[j - 1] * np.eye(len(model.gram))
            np.testing.assert_array_equal(diff, lowering)

    def test_gram_matches_contact_jet_gram(self):
        z0 = (0.2,)
        model = quotient_model(BERGMAN2, z0, 2)
        h = BERGMAN2.gram_jet(z0, 2, 2)
        np.testing.assert_array_equal(model.gram, jet_gram(h, 2))

    def test_one_gram_evaluation_per_model(self, monkeypatch):
        calls = []
        gram_jet = BundleSpec.gram_jet

        def spy(spec, center, p, q):
            calls.append((spec.label, p, q))
            return gram_jet(spec, center, p, q)

        monkeypatch.setattr(BundleSpec, "gram_jet", spy)
        a = quotient_model(HARDY, (0.2,), 2)
        b = quotient_model(FOCK, (0.2,), 2)
        assert (a.jet.holo_order, a.jet.anti_order) == (2, 2)
        unitary_equiv_check(a, b)
        assert calls == [("hardy", 2, 2), ("fock", 2, 2)]

    def test_rejects_indefinite_kernel(self):
        bad = BundleSpec("bad", 1, [["1 - z1*zb1"]])
        # the kernel value is positive at 0 but the jet Gram is not PD
        with pytest.raises(ValueError, match="positive definite"):
            quotient_model(bad, (0.0,), 1)



# kernels at z1 = 1.2, order 2: one fine, and one or two failing at each
# check quotient_model makes, in turn; a pair of the rank-2 kernel and another is refused
KERNELS = {
    "fine": FOCK,
    "program": BundleSpec("program", 1, [["pow(1 - z1*zb1, -1.5)"]]),  # real power of a negative
    "gram": BundleSpec("gram", 1, [["1 - z1*zb1"]]),  # Gram value negative
    "jet-gram": BundleSpec("jet-gram", 1, [["1 + z1*zb1"]]),  # no z1^2 term: jet Gram singular
    "constant": BundleSpec("constant", 1, [["2"]]),  # jet Gram singular too
    "rank2": BundleSpec("rank2", 1, [["exp(z1*zb1)", "0"], ["0", "exp(2*z1*zb1)"]]),
}


def _models_or_error(make):
    """The bytes of each model `make` returns, or its error's type and text."""
    try:
        models = make()
    except Exception as exc:
        return type(exc), str(exc)
    return [(m.kernel, m.center, m.order, m.jet.center, m.jet.holo_order, m.jet.anti_order,
             m.jet.coeffs.shape, m.jet.coeffs.tobytes(), m.gram.tobytes(),
             [s.tobytes() for s in m.shifts]) for m in models]


class TestQuotientModels:
    """The pair of models from one merged program is the two models made in
    turn: the same bytes, or the error of the first failing stage (program,
    Gram checks, jet-Gram checks), within a stage kernel a's before b's."""

    @pytest.mark.parametrize("b", list(KERNELS))
    @pytest.mark.parametrize("a", list(KERNELS))
    def test_as_the_models_in_turn(self, a, b):
        a, b, z0 = KERNELS[a], KERNELS[b], (1.2,)
        got = _models_or_error(lambda: quotient_models(a, b, z0, 2))
        if a.rank != b.rank:
            assert got == (ValueError, f"bundles {a.label!r} and {b.label!r} differ in "
                                       "dimension or rank")
            return

        def by_stage():
            with np.errstate(all="ignore"):
                for kernel in (a, b):  # the programs
                    JetProgram([e for row in kernel.entries for e in row]).run(z0, 2, 2)
            for kernel in (a, b):  # the Gram checks, at the center the models read
                kernel.gram_jet(tuple(map(complex, z0)), 2, 2)
            # the jet-Gram checks, and the models
            return quotient_model(a, z0, 2), quotient_model(b, z0, 2)

        assert got == _models_or_error(by_stage)

    def test_one_program_run_for_the_pair(self, monkeypatch):
        calls = []
        gram_jet = BundleSpec.gram_jet

        def spy(spec, center, p, q, partner=None):
            calls.append((spec.label, p, q, partner and partner.label))
            return gram_jet(spec, center, p, q, partner)

        monkeypatch.setattr(BundleSpec, "gram_jet", spy)
        quotient_models(HARDY, FOCK, (0.2,), 2)
        assert calls == [("hardy", 2, 2, "fock")]

class TestEquivalence:
    def test_model_vs_itself(self):
        model = quotient_model(FOCK, (0.0,), 2)
        report = unitary_equiv_check(model, model)
        assert report.equivalent
        assert report.agreement

    def test_hardy_vs_bergman_order1(self):
        a = quotient_model(HARDY, (0.0,), 1)
        b = quotient_model(BERGMAN2, (0.0,), 1)
        report = unitary_equiv_check(a, b)
        assert not report.equivalent
        assert report.contact_verdict == report.direct_verdict == "refuted"

    def test_hardy_vs_fock_flips_at_order2(self):
        for n, expected in [(1, True), (2, False), (3, False)]:
            a = quotient_model(HARDY, (0.0,), n)
            b = quotient_model(FOCK, (0.0,), n)
            report = unitary_equiv_check(a, b)
            assert report.equivalent is expected, n
            assert report.agreement

    def test_all_pairs_agree_up_to_order3(self):
        kernels = [HARDY, BERGMAN2, FOCK]
        for n in (1, 2, 3):
            models = [quotient_model(k, (0.0,), n) for k in kernels]
            for i in range(3):
                for j in range(3):
                    report = unitary_equiv_check(models[i], models[j])
                    assert report.agreement, (n, i, j)
                    if i == j:
                        assert report.equivalent

    def test_offcenter_equivalence(self):
        # the same kernel at the same off-origin point is trivially equivalent
        a = quotient_model(BERGMAN2, (0.3,), 2)
        report = unitary_equiv_check(a, a)
        assert report.equivalent

    def test_offcenter_mismatch(self):
        # metric curvatures 1/(1-|z|^2)^2 vs 2/(1-|z|^2)^2 differ at 0.3 too
        a = quotient_model(HARDY, (0.3,), 1)
        b = quotient_model(BERGMAN2, (0.3,), 1)
        report = unitary_equiv_check(a, b)
        assert not report.equivalent
        assert report.agreement

    def test_dimension_guard(self):
        a = quotient_model(HARDY, (0.0,), 1)
        b = quotient_model(FOCK, (0.0,), 2)
        with pytest.raises(ValueError):
            unitary_equiv_check(a, b)

    def test_direct_check_moderate_size(self):
        spec = BundleSpec("big", 3, [["exp(z1*zb1 + z2*zb2 + z3*zb3)"]])
        model = quotient_model(spec, (0.0, 0.0, 0.0), 3)  # 20 basis jets
        verdict, _ = direct_equiv_check(model, model, 1e-8)
        assert verdict == "verified"

    def test_direct_check_size_cap(self):
        spec = BundleSpec("big", 3, [["exp(z1*zb1 + z2*zb2 + z3*zb3)"]])
        model = quotient_model(spec, (0.0, 0.0, 0.0), 6)  # 84 basis jets > 64
        with pytest.raises(ValueError, match="limited"):
            direct_equiv_check(model, model, 1e-8)

    def test_multivariable_pair(self):
        a = quotient_model(
            BundleSpec("fa", 2, [["exp(z1*zb1 + z2*zb2)"]]), (0.0, 0.0), 2
        )
        b = quotient_model(
            BundleSpec("fb", 2, [["exp(z1*zb1 + 2*z2*zb2)"]]), (0.0, 0.0), 2
        )
        same = unitary_equiv_check(a, a)
        assert same.equivalent and same.agreement
        cross = unitary_equiv_check(a, b)
        assert not cross.equivalent and cross.agreement
