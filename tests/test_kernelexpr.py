"""Expression grammar, evaluation, and bundle specifications."""

import itertools
from collections import Counter
from math import factorial

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetcontact import kernelexpr
from jetcontact.jetcore import HermJet, SingularityError, table_size
from jetcontact.kernelexpr import (
    BundleSpec,
    JetProgram,
    ParseError,
    parse_kernel,
    read_grid,
)

from conftest import conjugate_expr, eval_herm_jet, eval_holo_jet, reference_run


def program_of(expr) -> tuple:
    """The compiled program of one expression, as comparable values."""
    program = JetProgram([expr])
    return program.ops, program.outputs, program.degrees


class TestParser:
    def test_literal(self):
        for text, value, canonical in [("1", 1.0 + 0j, "1"), ("2.5i", 2.5j, "2.5i"),
                                       ("1+2i", 1 + 2j, "(1 + 2i)"), ("0i", 0j, "0")]:
            expr = parse_kernel(text)
            assert (expr.ops, expr.output, expr.text()) == ((("const", value, None),), 0,
                                                            canonical)

    def test_power_node(self):
        # an integer power is the products of repeated squaring, after an
        # inverse if negative, and the constant 1 if zero; a real one is a power
        expr = parse_kernel("pow(1 - z1*zb1, -2)")
        assert expr.text() == "((1 - (z1 * zb1)) ^ -2)"
        k = expr.output
        assert expr.ops[k - 1:] == (("inv", k - 2, None), ("__mul__", k - 1, k - 1))
        assert parse_kernel("z1^5").ops == (("var", 0, False), ("__mul__", 0, 0),
                                            ("__mul__", 1, 1), ("__mul__", 0, 2))
        zero = parse_kernel("(1 + z1)^0")
        assert zero.ops[zero.output] == ("const", 1 + 0j, None)
        assert zero.text() == "((1 + z1) ^ 0)"
        real = parse_kernel("pow(1 - z1*zb1, -2.5)")
        assert real.text() == "pow((1 - (z1 * zb1)), -2.5)"
        assert real.ops[real.output][::2] == ("power", -2.5)

    def test_exp_node_m2(self):
        expr = parse_kernel("exp(z1*zb1 + z2*zb2)")
        assert expr.text() == "exp(((z1 * zb1) + (z2 * zb2)))"
        assert expr.ops[expr.output][0] == "exp"
        assert (expr.max_var, expr.conjugated) == (2, True)
        # a variable is one op, however often it occurs
        assert [op for op in parse_kernel("z1*zb1 + zb1*z1^2").ops if op[0] == "var"] == [
            ("var", 0, False), ("var", 0, True)]

    def test_caret_power(self):
        assert parse_kernel("z1^3") == parse_kernel("pow(z1, 3)")
        assert parse_kernel("z1^3").text() == "(z1 ^ 3)"
        assert parse_kernel("z1^-2") == parse_kernel("pow(z1, -2.0)")
        with pytest.raises(ParseError):
            parse_kernel("z1^2.5")  # real exponents go through pow()

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_kernel("1 + * z1")
        assert err.value.pos == 4

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse_kernel("sin(z1)")

    @pytest.mark.parametrize("text", ["z0", "1 + zb0*z1"])
    def test_variable_index_zero_rejected(self, text):
        with pytest.raises(ParseError, match="indices start at 1"):
            parse_kernel(text)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_kernel("z1 z2")

    CASES = [
        "pow(1 - z1*zb1, -2)",
        "exp(z1*zb1 + z2*zb2)",
        "(1 + 2i)*z1 - zb2/(3 - z1^2)",
        "log(1 + 0.5*z1*zb1)",
        "-z1*(-zb1)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_print_parse_roundtrip(self, text):
        expr = parse_kernel(text)
        assert parse_kernel(expr.text()) == expr

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_random_trees(self, seed):
        """Random expression texts parse to an expression whose canonical
        text parses back to it."""
        rng = np.random.default_rng(seed)

        def number():
            return f"{abs(round(float(rng.normal()), 3))}{'i' if rng.integers(0, 2) else ''}"

        def text(depth):
            kind = rng.integers(0, 9 if depth < 3 else 2)
            if kind == 0:
                return number()
            if kind == 1:
                return f"z{'b' if rng.integers(0, 2) else ''}{rng.integers(1, 3)}"
            if kind == 2:
                return f"{text(depth + 1)} {'+-'[rng.integers(0, 2)]} {text(depth + 1)}"
            if kind == 3:
                return f"({text(depth + 1)})*{text(depth + 1)}"
            if kind == 4:
                return f"({text(depth + 1)})^{rng.integers(-1, 4)}"
            if kind == 5:
                return f"exp({text(depth + 1)})"
            if kind == 6:
                return f"pow({text(depth + 1)}, {round(float(rng.normal()), 2)})"
            if kind == 7:
                return f"-({text(depth + 1)})"
            return f"{number()}*{text(depth + 1)}"

        expr = parse_kernel(text(0))
        assert parse_kernel(expr.text()) == expr
        assert program_of(parse_kernel(expr.text())) == program_of(expr)


# every ParseError the parser raises: (text, message, position)
PARSE_ERRORS = [
    ("z1*$", "unexpected character '$'", 3),
    ("z1 $", "unexpected character '$'", 3),  # the character, not the space before it
    ("2.", "unexpected character '.'", 1),
    ("exp(z1", "expected ')', found 'end of input'", 6),
    ("pow(z1 2)", "expected ',', found '2'", 7),
    ("z1 z2", "trailing input 'z2'", 3),
    ("z1^2.5", "'^' needs an integer exponent (use pow() for reals)", 3),
    ("z1^zb1", "'^' needs an integer exponent (use pow() for reals)", 3),
    ("sin(z1)", "unknown identifier 'sin'", 0),
    ("1 + zb0", "variable 'zb0': variable indices start at 1", 4),
    ("1 + * z1", "unexpected token '*'", 4),
    ("   ", "unexpected token 'end of input'", 3),
    ("pow(z1, 2i)", "expected a real exponent", 8),
    ("pow(z1, z2)", "expected a real exponent", 8),
    ("2*" + "9" * 400, f"number {'9' * 400!r} is out of range", 2),
    ("exp z1", "expected '(', found 'z1'", 4),
    ("log", "expected '(', found 'end of input'", 3),
    ("pow(z1, 2", "expected ')', found 'end of input'", 9),
    ("(z1 z2)", "expected ')', found 'z2'", 4),
    ("()", "unexpected token ')'", 1),
    ("z1)", "trailing input ')'", 2),
    ("--", "unexpected token 'end of input'", 2),
    ("z1^", "'^' needs an integer exponent (use pow() for reals)", 3),
    ("exp(z1, 2)", "expected ')', found ','", 6),
    ("pow(z1)", "expected ',', found ')'", 6),
    ("-(z1 + )", "unexpected token ')'", 7),
    ("((z1) 3)", "expected ')', found '3'", 6),
    ("z1 ^ 2 ^ 3", "trailing input '^'", 7),
    ("pow(z1, 1.5i)", "expected a real exponent", 8),
]


@pytest.mark.parametrize("text,message,pos", PARSE_ERRORS)
def test_parse_error_message_and_position(text, message, pos):
    with pytest.raises(ParseError) as err:
        parse_kernel(text)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


@pytest.mark.parametrize("depth", [5000, 100_000])
def test_deep_nesting_parses(depth):
    # the parser keeps its nesting on a stack of its own, with no depth limit
    assert parse_kernel("(" * depth + "z1" + ")" * depth) == parse_kernel("z1")


@pytest.mark.parametrize("terms", [250, 300, 1500])
def test_echo_of_a_long_sum_parses_back(terms):
    # the echo parenthesizes each '+', so it nests as deep as the sum is long
    expr = parse_kernel(" + ".join(["0.01*z1*zb1"] * terms))
    assert expr.text().startswith("(" * (terms - 1))
    assert parse_kernel(expr.text()) == expr


def test_holomorphic_check_errors():
    # an error names its entry, and a holomorphic grid refuses zb first
    with pytest.raises(ValueError) as err:
        read_grid([["1", "0"], ["z1*zb1", "z2"]], 1, "a", holomorphic=True)
    assert str(err.value) == "a[1][0]: conjugated variable in a holomorphic expression"
    with pytest.raises(ValueError) as err:
        read_grid([["zb2"]], 1, "a", holomorphic=True)
    assert str(err.value) == "a[0][0]: conjugated variable in a holomorphic expression"
    with pytest.raises(ValueError) as err:
        read_grid([[parse_kernel("z1"), parse_kernel("z2")], ["0", "1"]], 1, "a",
                  holomorphic=True)
    assert str(err.value) == "a[0][1]: uses a variable beyond z1"
    # without `holomorphic`, zb is an entry's variable like any other
    assert read_grid([["z1*zb1"]], 1, "a") == [[parse_kernel("z1*zb1")]]


@pytest.mark.parametrize("grid,error,message", [
    ([], ValueError, "g is empty"),
    ([["1", "0"], ["0"]], ValueError, "g is not square"),
    ([["1"], ["0"]], ValueError, "g is not square"),
    ([["1", "0"], ["z1 $", "1"]], ValueError,
     "g[1][0]: unexpected character '$' (at position 3)"),
    # entries are read in turn, each in full
    ([["z2", "$"], ["0", "1"]], ValueError, "g[0][0]: uses a variable beyond z1"),
    ([["1", 0], ["0", "1"]], TypeError, "g[0][1]: expected an expression, got int"),
])
def test_read_grid_errors(grid, error, message):
    with pytest.raises(error) as err:
        read_grid(grid, 1, "g")
    assert str(err.value) == message


# the grammar's characters and words, and characters outside it
GRAMMAR_PIECES = list("0123456789.i+-*/^(), \t\n") + [
    "z1", "zb2", "z0", "exp(", "log(", "pow(", "0.00001", "2i", ".5",
]
JUNK = list("$#e_Eé\x00") + ["١", "sin", "zz1"]


@given(st.lists(st.sampled_from(GRAMMAR_PIECES + JUNK), max_size=40).map("".join))
@settings(derandomize=True, max_examples=1000, deadline=None)
def test_fuzz_parse_or_parse_error(text):
    # no other exception: an expression whose canonical text parses back to
    # it, or a ParseError inside the text
    try:
        expr = parse_kernel(text)
    except ParseError as err:
        assert 0 <= err.pos <= len(text)
    else:
        assert parse_kernel(expr.text()) == expr


def assert_matches_sympy(text, expr, center=0.3 + 0.1j):
    """The jet of `text` at `center` against sympy derivatives of `expr` in
    the symbols z, zb, for orders (p, q) up to (2, 2)."""
    z, zb = sp.symbols("z zb")
    jet = eval_herm_jet(parse_kernel(text), (center,), 3, 3)
    for p in range(3):
        for q in range(3):
            want = complex(
                sp.diff(expr, z, p, zb, q).subs({z: center, zb: np.conj(center)}).evalf()
            )
            got = complex(jet.extract((p,), (q,))[0, 0])
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


class TestEval:
    def test_geometric_series(self):
        jet = eval_herm_jet(parse_kernel("pow(1 - z1*zb1, -1)"), (0.0,), 3, 3)
        for p in range(4):
            for q in range(4):
                expect = 1.0 if p == q else 0.0
                assert jet.coeffs[p, q, 0, 0] == pytest.approx(expect, abs=1e-13)

    def test_exp_series(self):
        jet = eval_herm_jet(parse_kernel("exp(z1*zb1)"), (0.0,), 4, 4)
        for k in range(5):
            assert jet.coeffs[k, k, 0, 0] == pytest.approx(1.0 / factorial(k))

    def test_bergman_second_derivative(self):
        jet = eval_herm_jet(parse_kernel("pow(1 - z1*zb1, -2)"), (0.0,), 2, 2)
        # series (1-x)^-2 = sum (k+1) x^k gives c11 = 2, hence d dbar H(0) = 2
        assert jet.extract((1,), (1,))[0, 0] == pytest.approx(2.0)

    def test_holo_eval(self):
        jet = eval_holo_jet(parse_kernel("1 + z1"), (0.0,), 2)
        np.testing.assert_allclose(jet.coeffs[:, 0, 0, 0], [1.0, 1.0, 0.0], atol=1e-15)
        jet = eval_holo_jet(parse_kernel("exp(z1)"), (0.0,), 4)
        np.testing.assert_allclose(
            jet.coeffs[:, 0, 0, 0], [1 / factorial(k) for k in range(5)], atol=1e-14
        )
        jet = eval_holo_jet(parse_kernel("pow(1 - z1, -1)"), (0.0,), 4)
        np.testing.assert_allclose(jet.coeffs[:, 0, 0, 0], np.ones(5), atol=1e-13)

    def test_holo_rejects_conjugates(self):
        with pytest.raises(ValueError, match="conjugated variable in a holomorphic expression"):
            eval_holo_jet(parse_kernel("zb1"), (0.0,), 2)

    def test_singular_center(self):
        with pytest.raises(SingularityError):
            eval_herm_jet(parse_kernel("pow(1 - z1*zb1, -1)"), (1.0,), 2, 2)
        with pytest.raises(SingularityError):
            eval_herm_jet(parse_kernel("1/(z1*zb1)"), (0.0,), 2, 2)

    def test_polynomial_coefficients_exact(self):
        # (2 + z1)*(zb1 + z1*zb1) expanded: monomial coefficients are exact
        jet = eval_herm_jet(parse_kernel("(2 + z1)*(zb1 + z1*zb1)"), (0.0,), 2, 2)
        assert jet.coeffs[0, 1, 0, 0] == 2.0
        assert jet.coeffs[1, 1, 0, 0] == 3.0  # 2*z1*zb1 + z1*zb1
        assert jet.coeffs[2, 1, 0, 0] == 1.0
        assert jet.coeffs[0, 0, 0, 0] == 0.0

    def test_against_sympy_at_offcenter_point(self):
        z, zb = sp.symbols("z zb")
        assert_matches_sympy(
            "pow(1 + 0.25*z1*zb1, -2) * exp(0.1*z1 + 0.1*zb1)",
            (1 + z * zb / 4) ** -2 * sp.exp(z / 10 + zb / 10),
        )

    def test_shared_subtrees_and_literals_against_sympy(self):
        # repeated subtrees (evaluated once), complex literal sums, a
        # literal-only quotient and negated literals
        z, zb = sp.symbols("z zb")
        e = sp.exp(z * zb / 5)
        assert_matches_sympy(
            "exp(0.2*z1*zb1) * (exp(0.2*z1*zb1) + (1 - 2i)*z1)"
            " - (0.5 + 0.25i)*zb1*exp(0.2*z1*zb1) + -3*pow(1 + 0.5*z1*zb1, -1.5)"
            " / pow(1 + 0.5*z1*zb1, -1.5) * (-(2 - 1i)) + (1 + 1i)/(2 - 1i)*z1*zb1",
            e * (e + (1 - 2 * sp.I) * z)
            - (sp.Rational(1, 2) + sp.I / 4) * zb * e
            + 3 * (2 - sp.I)
            + (1 + sp.I) / (2 - sp.I) * z * zb,
        )

    def test_differentiation_consistency(self):
        # jet of d_z1 e, for polynomial e, matches deriv of the jet of e
        text = "z1*z1*zb1 + 3*z1*zb2 + z2*z2*zb1*zb2"
        dtext = "2*z1*zb1 + 3*zb2"  # d/dz1 of the above
        center = (0.2 + 0.1j, -0.1 + 0.3j)
        full = eval_herm_jet(parse_kernel(text), center, 3, 2)
        djet = eval_herm_jet(parse_kernel(dtext), center, 2, 2)
        assert (
            np.max(np.abs(full.deriv(0).coeffs - djet.coeffs)) < 1e-13
        )


class TestBundleSpec:
    def test_hermitian_symmetry_validated(self):
        spec = BundleSpec("ok", 2, [["exp(z1*zb1 + z2*zb2)"]])
        spec.validate([(0.0, 0.0), (0.1, 0.2 - 0.1j)])

    def test_asymmetric_grid_rejected(self):
        spec = BundleSpec("bad", 1, [["1 + z1"]])
        with pytest.raises(ValueError, match="Hermitian"):
            spec.validate([(0.3,)])

    def test_indefinite_rejected(self):
        spec = BundleSpec("bad", 1, [["z1*zb1 - 1"]])
        with pytest.raises(ValueError, match="positive definite"):
            spec.validate([(0.0,)])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="bundle 'e': gram is empty"):
            BundleSpec("e", 1, [])

    def test_asymmetry_checked_at_requested_orders(self):
        # entry (0,1) has a degree-3 term that entry (1,0) does not mirror
        spec = BundleSpec("bad", 1, [["2", "z1^3"], ["0", "2"]])
        spec.gram_jet((0.0,), 2, 2)
        with pytest.raises(ValueError, match="not Hermitian-symmetric"):
            spec.gram_jet((0.0,), 3, 3)

    def test_matrix_gram(self):
        spec = BundleSpec(
            "m", 1, [["exp(z1*zb1)", "0.5*z1*zb1"], ["0.5*z1*zb1", "pow(1 - z1*zb1, -1)"]]
        )
        spec.validate([(0.0,), (0.2,)])
        jet = spec.gram_jet((0.0,), 2, 2)
        assert jet.rank == 2
        assert jet.hermitian_defect() < 1e-14

    def test_conjugate_expr_roundtrip(self):
        expr = parse_kernel("(1+2i)*z1*zb2 + exp(z2) - 3i*zb1")
        once = conjugate_expr(expr)
        assert once.text() == "(((((1 + (-2i)) * zb1) * z2) + exp(zb2)) - ((-3i) * z1))"
        assert program_of(conjugate_expr(once)) == program_of(expr)


def count_calls(monkeypatch, names) -> Counter:
    """Count calls of the named HermJet methods and classmethods."""
    counts = Counter()
    for name in names:
        original = HermJet.__dict__[name]
        fn = original.__func__ if isinstance(original, classmethod) else original

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        wrapped = classmethod(counted) if isinstance(original, classmethod) else counted
        monkeypatch.setattr(HermJet, name, wrapped)
    return counts


# (entries, [repr of ops, outputs, degrees]) of programs recorded from the
# tree-walking compiler that emitting ops while parsing replaced: literal
# folding, a literal divisor, literals promoted to constant jets, integer
# and negative powers, and subexpressions shared inside one entry and across
# two.  The report bytes rest on these programs.  The integer powers were
# re-recorded when they became products: each is the chain of products the
# power method multiplied, after an inverse if negative, or the constant 1.
# They were re-recorded once more when ops came to be numbered in schedule
# order: each is the earlier program permuted, with a literal-only output
# now a const op of its own.
PINNED_PROGRAMS = [
    (['2*3 + z1'], [
        "[('var', 0, False), ('shift', 0, (6+0j))]",
        '[1]',
        '[(1, 0), (1, 0)]',
    ]),
    (['1 - z1'], [
        "[('var', 0, False), ('__neg__', 0, None), ('shift', 1, (1+0j))]",
        '[2]',
        '[(1, 0), (1, 0), (1, 0)]',
    ]),
    (['-(-2)'], [
        "[('const', (2+0j), None)]",
        '[0]',
        '[(0, 0)]',
    ]),
    (['z1/2'], [
        "[('var', 0, False), ('const', (2+0j), None), ('inv', 1, None), ('__mul__', 0, 2)]",
        '[3]',
        '[(1, 0), (0, 0), None, None]',
    ]),
    (['pow(2, 0.5)'], [
        "[('const', (2+0j), None), ('power', 0, 0.5)]",
        '[1]',
        '[(0, 0), None]',
    ]),
    (['exp(1)'], [
        "[('const', (1+0j), None), ('exp', 0, None)]",
        '[1]',
        '[(0, 0), None]',
    ]),
    (['z1^3 * zb1^-2 + pow(z2, -1) - (1 + z1)^0'], [
        "[('var', 0, False), ('var', 0, True), ('var', 1, False), ('const', (1+0j), None),"
        " ('__mul__', 0, 0), ('inv', 1, None), ('inv', 2, None), ('shift', 0, (1+0j)),"
        " ('__mul__', 0, 4), ('__mul__', 5, 5), ('__mul__', 8, 9), ('__add__', 10, 6),"
        " ('__sub__', 11, 3)]",
        '[12]',
        '[(1, 0), (0, 1), (1, 0), (0, 0), (2, 0), None, None, (1, 0), (3, 0), None, None, None,'
        ' None]',
    ]),
    (['exp(z1*zb1) * (1 + exp(z1*zb1))'], [
        "[('var', 0, False), ('var', 0, True), ('__mul__', 0, 1), ('exp', 2, None), ('shift', 3,"
        " (1+0j)), ('__mul__', 3, 4)]",
        '[5]',
        '[(1, 0), (0, 1), (1, 1), None, None, None]',
    ]),
    (['exp(z1*zb2) * pow(1 + z1*zb2, -1.5)', '2*exp(z1*zb2) - zb1/(3 - z1^2)'], [
        "[('var', 0, False), ('var', 1, True), ('var', 0, True), ('__mul__', 0, 1), ('__mul__',"
        " 0, 0), ('exp', 3, None), ('shift', 3, (1+0j)), ('__neg__', 4, None), ('power', 6,"
        " -1.5), ('scale', 5, (2+0j)), ('shift', 7, (3+0j)), ('__mul__', 5, 8), ('inv', 10,"
        " None), ('__mul__', 2, 12), ('__sub__', 9, 13)]",
        '[11, 14]',
        '[(1, 0), (0, 1), (0, 1), (1, 1), (2, 0), None, (1, 1), (2, 0), None, None, (2, 0), None,'
        ' None, None, None]',
    ]),
    (['(1 + 2i)*z1 - 2 - zb2 + (1+1i)/(2-1i)*z1*zb1 - -log(1 + 0.5*z1*zb1)', '-z1*(-zb1) - 3i'], [
        "[('var', 0, False), ('var', 1, True), ('var', 0, True), ('const', (2-1j), None),"
        " ('scale', 0, (1+2j)), ('scale', 0, (0.5+0j)), ('inv', 3, None), ('__neg__', 0, None),"
        " ('__neg__', 2, None), ('shift', 4, (-2-0j)), ('scale', 6, (1+1j)), ('__mul__', 5, 2),"
        " ('__mul__', 7, 8), ('__sub__', 9, 1), ('__mul__', 10, 0), ('shift', 11, (1+0j)),"
        " ('shift', 12, (-0-3j)), ('__mul__', 14, 2), ('log', 15, None), ('__add__', 13, 17),"
        " ('__neg__', 18, None), ('__sub__', 19, 20)]",
        '[21, 16]',
        '[(1, 0), (0, 1), (0, 1), (0, 0), (1, 0), (1, 0), None, (1, 0), (0, 1), (1, 0), None, (1,'
        ' 1), (1, 1), (1, 1), None, (1, 1), (1, 1), None, None, None, None, None]',
    ]),
]


class TestJetProgram:
    @pytest.mark.parametrize("entries,pinned", PINNED_PROGRAMS)
    def test_program_as_pinned(self, entries, pinned):
        program = JetProgram([parse_kernel(e) for e in entries])
        got = (program.ops, program.outputs, program.degrees)
        assert [repr(x) for x in got] == pinned

    @pytest.mark.parametrize("base", ["1 + 0.4*z1*zb1 - 0.3i*z2", "exp(0.5*z1 + zb2)"])
    def test_integer_powers_compile_to_products(self, base):
        # every integer power is products (after an inverse, or the constant
        # 1), and its jet is HermJet.power's on the base's jet, to rounding
        center = (0.1 - 0.2j, 0.3j)
        x = eval_herm_jet(parse_kernel(base), center, 4, 3)
        for n in range(-3, 6):
            for text in (f"({base}) ^ {n}", f"pow({base}, {n}.0)"):
                program = JetProgram([parse_kernel(text)])
                assert all(code != "power" for code, _, _ in program.ops)
                got = program.matrix_jet(1, center, 4, 3).coeffs
                want = x.power(n).coeffs
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))

    def test_shared_subtrees_compile_to_one_op(self):
        text = "exp(z1*zb2) * pow(1 + z1*zb2, -1.5)"
        program = JetProgram([parse_kernel(text), parse_kernel(f"2*{text} + exp(z1*zb2)")])
        assert [code for code, _, _ in program.ops].count("exp") == 1

    def test_literal_ops_merge_exactly_when_their_bits_agree(self):
        # zeros of every sign in either part, and equal values written apart;
        # a literal-only output is an op and merges the same way
        texts = ["0", "-0", "0 - 0", "0*(-1)", "-(0*(-1))", "2", "-(-2)", "-2", "0 - 2", "2i",
                 "-(0 - 2i)", "1 + 2i", "-(-1 - 2i)"]
        values = [parse_kernel(text).ops[-1][1] for text in texts]
        for form in ("{}", "z1*({})", "z1 + ({})"):
            for (s, x), (t, y) in itertools.product(zip(texts, values), repeat=2):
                program = JetProgram([parse_kernel(form.format(s)), parse_kernel(form.format(t))])
                merged = program.outputs[0] == program.outputs[1]
                assert merged == (repr(x) == repr(y)), (form, s, t)

    def test_shared_kernels_evaluated_once_per_gram_jet(self, monkeypatch):
        e, p = "exp(z1*zb1)", "pow(1 + 0.5*z1*zb1, -1.5)"
        spec = BundleSpec("s", 1, [[f"{e}*{p}", f"0.2*{e}"], [f"0.2*{e}", f"{p} + {e}"]])
        counts = count_calls(monkeypatch, ["exp", "power"])
        for k in range(1, 3):
            spec.gram_jet((0.1,), 3, 3)
            assert counts == {"exp": k, "power": k}

    def test_shared_kernels_evaluated_once_per_pair_run(self, monkeypatch):
        # two bundles on the same kernels: one exp and one pow per pair run
        e, p = "exp(z1*zb1)", "pow(1 + 0.5*z1*zb1, -1.5)"
        a = BundleSpec("a", 1, [[f"{e}*{p}", f"0.2*{e}"], [f"0.2*{e}", f"{p} + {e}"]])
        b = BundleSpec("b", 1, [[f"2*{e}", f"0.1*{p}"], [f"0.1*{p}", f"{p}"]])
        counts = count_calls(monkeypatch, ["exp", "power"])
        for k in range(1, 3):
            a.gram_jet((0.1,), 3, 3, b)
            assert counts == {"exp": k, "power": k}

    def test_literal_coefficient_makes_no_constant_or_product(self, monkeypatch):
        counts = count_calls(monkeypatch, ["constant", "__mul__"])
        plain = eval_herm_jet(parse_kernel("exp(z1*zb1)"), (0.1,), 3, 3)
        without = dict(counts)
        counts.clear()
        text = "2*exp(z1*zb1)*0.5 + (1 + 0.5i) - (1 + 0.5i) + 0*zb1 - -0.0"
        scaled = eval_herm_jet(parse_kernel(text), (0.1,), 3, 3)
        assert dict(counts) == without
        np.testing.assert_allclose(scaled.coeffs, plain.coeffs, rtol=0, atol=1e-15)


def random_program_texts(rng, dim: int) -> list:
    """Three to six expressions in z1..z`dim` over every op code: variables
    and their conjugates, literals folded or promoted to constants, scale,
    shift, negation, +, -, products (of bounded factors too), integer powers
    of either sign and zero, real powers, exp, log and division; later
    expressions reuse earlier subexpressions, so the program shares ops."""
    pool = []

    def leaf():
        kind = rng.integers(0, 4)
        if kind == 0 or not pool and kind == 3:
            return f"z{'b' if rng.integers(0, 2) else ''}{rng.integers(1, dim + 1)}"
        if kind == 1:
            return f"({round(float(rng.normal()), 3)} + {round(float(rng.normal()), 3)}i)"
        if kind == 2:
            return str(rng.choice(["exp(0.5)", "pow(2, 0.5)", "(1/(3 - 1i))", "log(2)", "(2^-1)"]))
        return pool[rng.integers(0, len(pool))]

    def node(depth):
        if depth >= 3 or rng.random() < 0.2:
            return leaf()
        x, kind = node(depth + 1), rng.integers(0, 11)
        if kind < 3:
            out = f"({x} {'+-*'[kind]} {node(depth + 1)})"
        elif kind == 3:
            out = f"(-{x})"
        elif kind == 4:
            out = f"({x} ^ {rng.integers(-2, 4)})"
        elif kind == 5:
            out = f"pow(1.5 + 0.1*{x}, {rng.choice([0.5, -1.5, 2.5, 2])})"
        elif kind == 6:
            out = f"exp(0.3*{x})"
        elif kind == 7:
            out = f"log(2 + 0.1*{x})"
        elif kind == 8:
            out = f"({x} / (2 + 0.1*{node(depth + 1)}))"
        elif kind == 9:
            out = f"(0.5*{x} - 1i)"
        else:
            out = f"((1 + 0.2*{leaf()}) * exp({x}))"  # a bounded factor
        pool.append(out)
        return out

    return [node(0) for _ in range(rng.integers(3, 7))]


class TestLevelSchedule:
    """The scheduled run against the op-by-op reference (conftest)."""

    @given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(0, 3), st.integers(0, 3),
           st.booleans())
    @settings(max_examples=120, deadline=None)
    # programs with groups of two or more ops of every code (complex scale
    # literals among them), at orders (0, 0): a one-element jet per op, where
    # numpy could round a group apart from the ops one at a time
    @example(2512, 1, 0, 0, False)
    @example(1878, 1, 0, 0, False)
    @example(547, 1, 0, 0, False)
    @example(2649, 2, 0, 0, False)
    @example(1117, 2, 0, 0, False)
    @example(96, 2, 0, 0, False)
    @example(2512, 1, 0, 0, True)
    @example(1117, 2, 0, 0, True)
    def test_scheduled_run_matches_op_by_op_bit_for_bit(self, seed, dim, p, q, grid):
        rng = np.random.default_rng(seed)
        if rng.random() < 0.3:  # orders (n, 0) and (0, 0)
            q = 0
        program = JetProgram([parse_kernel(t) for t in random_program_texts(rng, dim)])
        centers = [tuple(complex(*rng.normal(size=2) * 0.3) for _ in range(dim))
                   for _ in range(8)]
        center = centers if grid else centers[0]
        with np.errstate(all="ignore"):
            try:
                reference = reference_run(program, center, p, q)
            except (ArithmeticError, ValueError) as exc:
                # the run raises too, of the same type: the error of the first
                # failing group in schedule order, not of the first op
                with pytest.raises(type(exc)):
                    program.run(center, p, q)
                return
            buf = program.run(center, p, q)
            matrix = program.matrix_jet(1, center, p, q)
        for k, jet in enumerate(reference):
            assert buf[k].tobytes() == jet.coeffs[..., 0, 0].tobytes(), program.ops[k]
        # every output, each in turn on the point axis
        outputs = [reference[out].coeffs for out in program.outputs]
        assert matrix.coeffs.tobytes() == np.concatenate(
            [np.reshape(c, (-1,) + c.shape[-4:]) for c in outputs]).tobytes()
        assert matrix.points == ((len(outputs) * len(centers),) if grid else
                                 (len(outputs),) if len(outputs) > 1 else ())

    def test_schedule_groups_by_level_code_and_bounds(self):
        program = JetProgram([parse_kernel("exp(z1*zb1) * (1 + z1) + (2*z1 - zb1)^2"),
                              parse_kernel("exp(z1*zb1) * zb1 + 3*zb1")])
        # ops in schedule order: 0 z1, 1 zb1, 2 z1*zb1, 3 1 + z1, 4 2*z1, 5 3*zb1,
        # 6 exp, 7 2*z1 - zb1, 8 exp*(1 + z1), 9 the square of 7, 10 exp*zb1,
        # 11 8 + 9, 12 10 + 5
        assert program.ops == [
            ("var", 0, False), ("var", 0, True), ("__mul__", 0, 1), ("shift", 0, 1 + 0j),
            ("scale", 0, 2 + 0j), ("scale", 1, 3 + 0j), ("exp", 2, None), ("__sub__", 4, 1),
            ("__mul__", 6, 3), ("__mul__", 7, 7), ("__mul__", 6, 1), ("__add__", 8, 9),
            ("__add__", 10, 5)]
        assert program.outputs == [11, 12]
        steps = [(code, list(range(start, stop)), shared)
                 for code, start, stop, shared in program._schedule]
        assert [(code, ops) for code, ops, _ in steps] == [
            ("var", [0, 1]), ("__mul__", [2]), ("shift", [3]), ("scale", [4, 5]),
            ("exp", [6]), ("__sub__", [7]), ("__mul__", [8]), ("__mul__", [9]),
            ("__mul__", [10]), ("__add__", [11, 12])]
        # products of different factor bounds are different steps; the square
        # is a product of two factors of bound (1, 1)
        assert [parameter for code, _, parameter in steps if code == "__mul__"] == [
            ((1, 0), (0, 1)), (None, (1, 0)), ((1, 1), (1, 1)), (None, (0, 1))]


class TestDegreeBounds:
    """Every polynomial op records a degree bound (a, b): its coefficients
    vanish beyond it at every center."""

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_polynomial_jets_vanish_outside_their_bound(self, seed):
        rng = np.random.default_rng(seed)

        texts = []  # the expression and each expression inside it

        def text(depth):
            kind = rng.integers(0, 7 if depth < 3 else 2)
            if kind == 0:
                re_, im = (round(float(x), 3) for x in rng.normal(size=2))
                out = f"({re_} + {im}i)"
            elif kind == 1:
                out = f"z{'b' if rng.integers(0, 2) else ''}{rng.integers(1, 3)}"
            elif kind == 5:
                out = f"(-{text(depth + 1)})"
            elif kind == 6:
                out = f"({text(depth + 1)} ^ {rng.integers(0, 3)})"
            else:
                out = f"({text(depth + 1)} {'+-*'[kind - 2]} {text(depth + 1)})"
            texts.append(out)
            return out

        text(0)
        program = JetProgram([parse_kernel(t) for t in texts])
        assert None not in program.degrees
        centers = [tuple(complex(*rng.normal(size=2) * 0.4) for _ in range(2)) for _ in range(3)]
        for center in (centers[0], centers):
            buf = program.run(center, 4, 3)
            for op in program.outputs:
                a, b = program.degrees[op]
                row = buf[op]
                assert not np.any(row[..., table_size(2, min(a, 4)):, :])
                assert not np.any(row[..., :, table_size(2, min(b, 3)):])

    def test_bounds_leave_gram_jets_unchanged_to_rounding(self, monkeypatch):
        entries = [
            ["(1 + 0.3*z1*z2)*exp(0.7*z1*zb1 + z2*zb2)*(1 + 0.3*zb1*zb2)", "0.2*z1^2*zb2"],
            ["0.2*z2*zb1^2", "(0.5 - 0.1i*z2)*pow(1 - 0.25*(z1*zb1 + z2*zb2), -2.5)*(0.5 + 0.1i*zb2)"],
        ]
        grid = [(0.0, 0.1), (0.0, -0.2 + 0.1j), (0.1, 0.3j)]
        bounded = BundleSpec("g", 2, entries).gram_jet(grid, 3, 3)
        # a program compiled without bounds runs the full product plans
        monkeypatch.setattr(kernelexpr, "_degree", lambda *args: None)
        full = BundleSpec("g", 2, entries).gram_jet(grid, 3, 3)
        np.testing.assert_allclose(bounded.coeffs, full.coeffs, rtol=0,
                                   atol=1e-14 * np.max(np.abs(full.coeffs)))

    @pytest.mark.parametrize("text, degree", [
        ("z1", (1, 0)), ("zb2", (0, 1)), ("2*z1 - 1", (1, 0)), ("-(z1*zb1 + z2)", (1, 1)),
        ("(1 + z1*zb2)^2", (2, 2)), ("pow(z1 + zb1, 2)", (2, 2)), ("(z1 + 1)^0", (0, 0)),
        ("z1*exp(zb1)", None), ("exp(z1)", None), ("z1/(1 + zb1)", None),
        ("pow(1 + z1, -2)", None), ("z1*pow(1 + zb1, -2)", None),
        ("pow(1 + z1*zb1, 0.5)", None), ("z1*pow(1 + zb1, 0.5)", None), ("log(1 + z1)", None),
    ])
    def test_bound_of_the_output_op(self, monkeypatch, text, degree):
        program = JetProgram([parse_kernel(text)])
        [out] = program.outputs
        assert program.degrees[out] == degree
        # as a factor of a product, the product kernel is told its bound
        product = JetProgram([parse_kernel(f"({text}) * exp(z1*zb2)")])
        seen = []
        kernel = kernelexpr._product

        def spy(left, right, dim, p, q, left_degree=None, right_degree=None):
            seen.append(left_degree)
            return kernel(left, right, dim, p, q, left_degree, right_degree)

        monkeypatch.setattr(kernelexpr, "_product", spy)
        product.run((0.1, -0.2j), 3, 3)
        assert seen[-1] == degree


class TestGramJetAtPoints:
    GRID = [(0.0, 0.1), (0.0, -0.2 + 0.1j), (0.1, 0.3j)]

    @pytest.mark.parametrize("orders", [(1, 1), (3, 3), (3, 2)])
    def test_one_program_run_per_grid(self, monkeypatch, orders):
        spec = BundleSpec("g", 2, [
            ["exp(z1*zb1 + z2*zb2)", "0.2*z1*zb2"],
            ["0.2*z2*zb1", "pow(1 - 0.25*(z1*zb1 + z2*zb2), -2.5)"],
        ])
        singles = [spec.gram_jet(c, *orders) for c in self.GRID]
        counts = count_calls(monkeypatch, ["exp", "power"])
        grid = spec.gram_jet(self.GRID, *orders)
        assert counts == {"exp": 1, "power": 1}
        assert grid.points == (3,)
        for k, single in enumerate(singles):
            assert grid.coeffs[k].tobytes() == single.coeffs.tobytes()

    @pytest.mark.parametrize("orders", [(1, 1), (3, 3), (3, 2)])
    def test_one_program_run_per_pair_and_grid(self, monkeypatch, orders):
        a = BundleSpec("a", 2, [
            ["exp(z1*zb1 + z2*zb2)", "0.2*z1*zb2"],
            ["0.2*z2*zb1", "pow(1 - 0.25*(z1*zb1 + z2*zb2), -2.5)"],
        ])
        b = BundleSpec("b", 2, [
            ["exp(z1*zb1 + z2*zb2) + z1*zb1", "0.1*z1*zb2"],
            ["0.1*z2*zb1", "2*pow(1 - 0.25*(z1*zb1 + z2*zb2), -2.5)"],
        ])
        singles = [[spec.gram_jet(c, *orders) for c in self.GRID] for spec in (a, b)]
        counts = count_calls(monkeypatch, ["exp", "power"])
        pair = a.gram_jet(self.GRID, *orders, b)
        assert counts == {"exp": 1, "power": 1}
        assert pair.points == (6,)
        for k, single in enumerate(singles[0] + singles[1]):
            assert pair.coeffs[k].tobytes() == single.coeffs.tobytes()

    @pytest.mark.parametrize("center", [(0.3 - 0.2j,), [(0.3 - 0.2j,), (-0.1 + 0.4j,)]])
    def test_pair_halves_keep_the_sign_of_a_zero_literal(self, center):
        # 0 and -0 compare equal but scale to zeros of other signs, so they are
        # two ops and each half of the pair is bit for bit its bundle alone
        a = BundleSpec("a", 1, [["1 + z1*zb1*0"]])
        b = BundleSpec("b", 1, [["1 + z1*zb1*(-0)"]])
        pair = a.gram_jet(center, 2, 2, b).coeffs.reshape((2, -1))
        for half, spec in zip(pair, (a, b)):
            assert half.tobytes() == spec.gram_jet(center, 2, 2).coeffs.tobytes()

    def test_failing_point_named_as_alone(self):
        # the Gram [[1, z2], [zb2, 1]] is singular at |z2| = 1 and indefinite beyond
        spec = BundleSpec("s", 2, [["1", "z2"], ["zb2", "1"]])
        grid = [(0.0, 0.1), (0.0, 1.5), (0.0, 2.0)]
        with pytest.raises(ValueError) as alone:
            spec.gram_jet(grid[1], 2, 2)
        with pytest.raises(ValueError) as together:
            spec.gram_jet(grid, 2, 2)
        assert str(together.value) == str(alone.value)
        assert "not positive definite at (0.0, 1.5)" in str(together.value)

    def test_non_finite_point_named_as_alone(self):
        # exp(800) overflows; the grid's first point fails first, for another reason
        spec = BundleSpec("o", 1, [["exp(800*z1*zb1) - 2"]])
        grid = [(0.0,), (1.0,), (2.0,)]
        for points, message in ((grid, "not positive definite at (0.0,)"),
                                (grid[1:], "Gram jet is not finite at (1.0,)")):
            with pytest.raises(ValueError) as alone:
                spec.gram_jet(points[0], 2, 2)
            with pytest.raises(ValueError) as together:
                spec.gram_jet(points, 2, 2)
            assert str(together.value) == str(alone.value)
            assert message in str(together.value)
