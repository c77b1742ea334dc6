"""Exact noncommutative polynomial engine and the identity suite."""

import os
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import jetcontact.wordcalc as wordcalc
from jetcontact.cli import EXIT_REFUTED, main
from jetcontact.wordcalc import (
    NCPoly,
    Symbol,
    binom_product_leading,
    binom_product_trailing,
    build_sequences,
    coefficient_of_word,
    verify_appendix,
)


def g(i):
    return NCPoly.symbol("G", i)


def f(i):
    return NCPoly.symbol("F", i)


class TestNCPoly:
    def test_one_is_neutral(self):
        p = g(1) * f(2) + 3 * g(2)
        assert NCPoly.one() * p == p
        assert p * NCPoly.one() == p

    def test_z0_cancellation(self):
        z0, z0i = NCPoly.symbol("Z0"), NCPoly.symbol("Z0i")
        assert z0 * z0i == NCPoly.one()
        assert z0i * z0 == NCPoly.one()
        # nested cancellation collapses entirely
        nested = z0 * z0i * z0 * z0i
        assert nested == NCPoly.one()
        sandwich = g(1) * z0 * z0i * g(2)
        assert sandwich == g(1) * g(2)

    def test_noncommutative_order_preserved(self):
        lhs = (g(1) + g(2)) * g(1)
        assert lhs.coefficient((Symbol("G", 1), Symbol("G", 1))) == 1
        assert lhs.coefficient((Symbol("G", 2), Symbol("G", 1))) == 1
        assert lhs.coefficient((Symbol("G", 1), Symbol("G", 2))) == 0

    def test_exact_rational_coefficients(self):
        p = g(1).scale(Fraction(1, 3)) + g(1).scale(Fraction(2, 3))
        assert p == g(1)

    def test_zero_coefficients_dropped(self):
        p = g(1) - g(1)
        assert not p.terms


class TestSequences:
    def test_recur19_first_terms(self):
        ks = build_sequences("recur19", 2)
        assert ks[0] == -g(1)
        assert ks[1] == -g(2) + 2 * (g(1) * g(1))

    def test_recursions_agree(self):
        left = build_sequences("recur19", 6)
        right = build_sequences("recur199", 6)
        assert left == right

    def test_r01_first_step(self):
        zs = build_sequences("r01", 1)
        z0 = NCPoly.symbol("Z0")
        gt1 = NCPoly.symbol("Gt", 1)
        assert zs[0] == g(1) * z0 - z0 * gt1

    def test_h_sequence_shape(self):
        hs = build_sequences("recur1", 3)
        assert hs[0] == f(1)
        assert hs[1] == f(2) - 2 * (g(1) * f(1))
        # H_2 via the K-corrected sum gives the same polynomial
        ks = build_sequences("recur19", 2)
        assert f(2) + 2 * (ks[0] * f(1)) == hs[1]

    def test_tilde_families(self):
        hts = build_sequences("recur1", 2, families=("Ft", "Gt"))
        assert hts[0] == NCPoly.symbol("Ft", 1)

    def test_ruuu_needs_params(self):
        with pytest.raises(ValueError):
            build_sequences("ruuu-I", 2)

    def test_ruuu_example(self):
        # n=3, k=2: I_2 = -binom(2,1) G_1 and the weighted sum is binom(3,2) H_2
        iseq = build_sequences("ruuu-I", 2, n=3, k=2)
        assert iseq[0] == NCPoly.one()
        assert iseq[1] == (-2) * g(1)
        hs = build_sequences("recur1", 2)
        total = comb(3, 2) * (iseq[0] * f(2)) + comb(3, 1) * (iseq[1] * f(1))
        assert total == comb(3, 2) * hs[1]


class TestCoefficients:
    def test_single_letter(self):
        assert coefficient_of_word((1,)) == -1

    def test_pair(self):
        assert coefficient_of_word((1, 1)) == 2

    def test_triple_example(self):
        assert coefficient_of_word((2, 1, 1)) == -12
        ks = build_sequences("recur19", 4)
        word = (Symbol("G", 2), Symbol("G", 1), Symbol("G", 1))
        assert ks[3].coefficient(word) == -12

    def test_permutation_invariance(self):
        for word in [(1, 2, 3), (3, 2, 1), (2, 3, 1)]:
            assert coefficient_of_word(word) == coefficient_of_word((1, 2, 3))

    def test_binomial_product_forms_agree(self):
        for word in [(1,), (2, 1), (1, 1, 2), (3, 1, 2), (2, 2, 2)]:
            closed = coefficient_of_word(word)
            assert binom_product_leading(word) == closed
            assert binom_product_trailing(word) == closed

    def test_q78_instance(self):
        n, k, i = 4, 2, 1
        lhs = comb(n + 1, k + 1 - i) * comb(n - k + i, i)
        rhs = comb(n + 1, k + 1) * comb(k + 1, i)
        assert lhs == rhs == 30

    def test_invalid_word(self):
        with pytest.raises(ValueError):
            coefficient_of_word(())
        with pytest.raises(ValueError):
            coefficient_of_word((0, 1))


class TestVerifySuite:
    def test_full_suite_passes(self):
        report = verify_appendix(n_max=6, seed=11)
        failed = [c.name for c in report.checks if not c.passed]
        assert report.passed, failed
        names = {c.name for c in report.checks}
        assert "extension-identity" in names
        assert "binomial-recast" in names
        assert "numeric-perturbation-detected" in names

    def test_seed_determinism(self):
        a = verify_appendix(n_max=3, seed=5)
        b = verify_appendix(n_max=3, seed=5)
        assert a == b

    def test_bound_guard(self):
        with pytest.raises(ValueError):
            verify_appendix(n_max=8)

    def test_small_bound(self):
        assert verify_appendix(n_max=2, seed=1).passed

    def test_a_failing_identity_reports_its_first_failure(self, monkeypatch):
        # a wrong closed form for every word of weight >= 3; the first such
        # word the check meets is (1, 1, 1)
        want = verify_appendix(n_max=4, seed=2)
        closed = wordcalc.coefficient_of_word
        monkeypatch.setattr(wordcalc, "coefficient_of_word",
                            lambda idx: closed(idx) + (sum(idx) >= 3))
        got = verify_appendix(n_max=4, seed=2)
        assert not got.passed
        failed = [c for c in got.checks if not c.passed]
        assert failed == [wordcalc.AppendixCheck("word-coefficients", False,
                                                 "mismatch at word (1, 1, 1)")]
        assert ([c for c in got.checks if c.passed]
                == [c for c in want.checks if c.name != "word-coefficients"])
        config = Path(__file__).resolve().parent.parent / "configs" / "verify-appendix.yaml"
        assert main(["--config", str(config), "--out", os.devnull]) == EXIT_REFUTED
