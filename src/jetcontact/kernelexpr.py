"""Parser and jet evaluator for Gram-matrix / kernel expressions.

Grammar (whitespace insensitive)::

    expr    :=  term (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  '-' factor | power
    power   :=  atom ('^' signed_int)?
    atom    :=  number | 'i' | variable | '(' expr ')'
              | 'exp' '(' expr ')' | 'log' '(' expr ')'
              | 'pow' '(' expr ',' real ')'
    variable:=  'z' digits | 'zb' digits          (z1..zm and their conjugates)
    number  :=  digits ['.' digits] ['i']         ('2', '0.5', '2i', '1.5i')

Complex literals are written as sums, e.g. ``1+2i``.  ``^`` takes an integer
exponent; arbitrary real exponents go through ``pow(expr, r)`` and use the
principal branch (the evaluated constant term must have positive real part).

Evaluation is exact truncated Taylor arithmetic; there are no finite
differences anywhere.  The entries of a Gram matrix (or of a candidate frame
change) are compiled once into a :class:`JetProgram`, a straight-line
program with scalar literals in which every distinct subtree is one op, and
the program runs once per call, at one point or at a whole grid of points
(jets with a leading point axis, see :mod:`jetcore`).
:meth:`BundleSpec.gram_jet` checks each Gram jet it makes, at the orders the
caller asked for, point by point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Union

import numpy as np

from .jetcore import HermJet, point_axis

__all__ = [
    "ParseError",
    "ExprNode",
    "Var",
    "Lit",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "IntPow",
    "RealPow",
    "Exp",
    "Log",
    "parse_kernel",
    "JetProgram",
    "BundleSpec",
]


class ParseError(ValueError):
    """Syntax or type error, carrying the source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, as written in the source
    conjugated: bool

    def text(self) -> str:
        return f"{'zb' if self.conjugated else 'z'}{self.index}"


@dataclass(frozen=True)
class Lit:
    value: complex

    def text(self) -> str:
        re_, im = self.value.real, self.value.imag
        if im == 0.0:
            return _num(re_)
        if re_ == 0.0:
            return f"{_num(im)}i"
        sign = "+" if im > 0 else "-"
        return f"({_num(re_)} {sign} {_num(abs(im))}i)"


@dataclass(frozen=True)
class Add:
    left: "ExprNode"
    right: "ExprNode"

    def text(self) -> str:
        return f"({self.left.text()} + {self.right.text()})"


@dataclass(frozen=True)
class Sub:
    left: "ExprNode"
    right: "ExprNode"

    def text(self) -> str:
        return f"({self.left.text()} - {self.right.text()})"


@dataclass(frozen=True)
class Mul:
    left: "ExprNode"
    right: "ExprNode"

    def text(self) -> str:
        return f"({self.left.text()} * {self.right.text()})"


@dataclass(frozen=True)
class Div:
    left: "ExprNode"
    right: "ExprNode"

    def text(self) -> str:
        return f"({self.left.text()} / {self.right.text()})"


@dataclass(frozen=True)
class Neg:
    arg: "ExprNode"

    def text(self) -> str:
        return f"(-{self.arg.text()})"


@dataclass(frozen=True)
class IntPow:
    base: "ExprNode"
    exponent: int

    def text(self) -> str:
        return f"({self.base.text()} ^ {self.exponent})"


@dataclass(frozen=True)
class RealPow:
    base: "ExprNode"
    exponent: float

    def text(self) -> str:
        return f"pow({self.base.text()}, {_num(self.exponent)})"


@dataclass(frozen=True)
class Exp:
    arg: "ExprNode"

    def text(self) -> str:
        return f"exp({self.arg.text()})"


@dataclass(frozen=True)
class Log:
    arg: "ExprNode"

    def text(self) -> str:
        return f"log({self.arg.text()})"


ExprNode = Union[Var, Lit, Add, Sub, Mul, Div, Neg, IntPow, RealPow, Exp, Log]


def _num(x: float) -> str:
    x = float(x)
    if x.is_integer():
        return repr(int(x))
    text = repr(x)
    # repr writes |x| < 1e-4 with an exponent, which the grammar does not have
    return format(Decimal(text), "f") if "e" in text else text


# ---------------------------------------------------------------------------
# tokenizer / recursive-descent parser

# One token after optional whitespace.  The lookaheads make every token as
# long as it can be (the whole number, the whole name), so a string splits
# into tokens in one way only and _VALID_RE matches in linear time.
_TOKEN = (
    r"\s*(\d+(?!\d)(?:\.\d+(?!\d)|(?!\.\d))(?:i|(?!i))"
    r"|\.\d+(?!\d)(?:i|(?!i))"
    r"|[A-Za-z_][A-Za-z_0-9]*(?![A-Za-z_0-9])"
    r"|[-+*/^(),])"
)
_TOKEN_RE = re.compile(_TOKEN)
_VALID_RE = re.compile(rf"(?:{_TOKEN})*\s*")
_VAR_RE = re.compile(r"^(zb?)(\d+)$")


def _tokenize(text: str) -> list:
    """The tokens of `text`, then "" for the end of input."""
    if _VALID_RE.fullmatch(text) is None:
        pos = 0
        for match in _TOKEN_RE.finditer(text):
            if match.start() != pos:
                break
            pos = match.end()
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


class _Parser:
    """Recursive descent over the token strings.  A token is a number if it
    starts with a digit or '.', a name if it starts with a letter or '_', and
    "" ends the input; its source position is recovered only to raise an
    error at it."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def error(self, message: str, k: int) -> ParseError:
        starts = [match.start(1) for match in _TOKEN_RE.finditer(self.text)]
        return ParseError(message, (starts + [len(self.text)])[k])

    def expect(self, value: str):
        tok = self.tokens[self.k]
        if tok != value:
            raise self.error(f"expected {value!r}, found {tok or 'end of input'!r}", self.k)
        self.k += 1

    def parse(self) -> ExprNode:
        node = self.expr()
        tok = self.tokens[self.k]
        if tok:
            raise self.error(f"trailing input {tok!r}", self.k)
        return node

    def expr(self) -> ExprNode:
        node = self.term()
        while (op := self.tokens[self.k]) in ("+", "-"):
            self.k += 1
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> ExprNode:
        node = self.factor()
        while (op := self.tokens[self.k]) in ("*", "/"):
            self.k += 1
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self) -> ExprNode:
        """The factor and power rules: leading '-'s, an atom, '^' signed_int."""
        negations = self._minus_run()
        node = self.atom()
        if self.tokens[self.k] == "^":
            self.k += 1
            sign = -1 if self._minus_run() % 2 else 1
            tok = self.tokens[self.k]
            if not tok.isdigit():
                raise self.error("'^' needs an integer exponent (use pow() for reals)", self.k)
            self.k += 1
            node = IntPow(node, sign * int(tok))
        for _ in range(negations):
            node = Neg(node)
        return node

    def atom(self) -> ExprNode:
        tok = self.tokens[self.k]
        self.k += 1
        head = tok[:1]
        if head.isdigit() or head == ".":
            if tok[-1] == "i":
                return Lit(complex(0.0, self._real(tok[:-1])))
            return Lit(complex(self._real(tok), 0.0))
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok == "i":
            return Lit(1j)
        if tok in ("exp", "log"):
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Exp(arg) if tok == "exp" else Log(arg)
        if tok == "pow":
            self.expect("(")
            base = self.expr()
            self.expect(",")
            sign = -1.0 if self._minus_run() % 2 else 1.0
            tok = self.tokens[self.k]
            if not (tok[:1].isdigit() or tok[:1] == ".") or tok[-1] == "i":
                raise self.error("expected a real exponent", self.k)
            self.k += 1
            exponent = sign * self._real(tok)
            self.expect(")")
            if exponent.is_integer():
                return IntPow(base, int(exponent))
            return RealPow(base, exponent)
        if head.isalpha() or head == "_":
            m = _VAR_RE.match(tok)
            if m is None:
                raise self.error(f"unknown identifier {tok!r}", self.k - 1)
            if int(m.group(2)) == 0:
                raise self.error(f"variable {tok!r}: variable indices start at 1", self.k - 1)
            return Var(int(m.group(2)), m.group(1) == "zb")
        raise self.error(f"unexpected token {tok or 'end of input'!r}", self.k - 1)

    def _minus_run(self) -> int:
        """Consume a run of '-' tokens and return its length."""
        start = self.k
        while self.tokens[self.k] == "-":
            self.k += 1
        return self.k - start

    def _real(self, digits: str) -> float:
        """The float of a number token's digits, the token being the last
        one consumed; a literal too large for a float is an error."""
        value = float(digits)
        if value == math.inf:
            raise self.error(f"number {self.tokens[self.k - 1]!r} is out of range",
                             self.k - 1)
        return value


def parse_kernel(text: str) -> ExprNode:
    """Parse an expression in z1..zm / zb1..zbm into an AST."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise parser.error("expression nested too deeply", parser.k) from None


# ---------------------------------------------------------------------------
# compiled jet programs


# op codes that combine two jets; every code but these, "var" and "const"
# names the HermJet method the op calls, with its parameter if it has one
_BINARY = ("__add__", "__sub__", "__mul__")


class JetProgram:
    """Expressions compiled once into one straight-line jet program.

    Compilation hash-conses the trees bottom up: each distinct (op,
    operands, parameter) becomes one op, so a subtree shared by several
    expressions, or repeated inside one, is evaluated once per :meth:`run`.

    Literals stay Python scalars.  ``+``, ``-``, ``*`` and negation of
    scalars fold at compile time; a scalar times a jet is a ``scale``, a
    scalar plus a jet a constant-term ``shift``.  Any other op on a
    literal-only operand (``/``, ``^``, ``pow``, ``exp``, ``log``) promotes
    it to a constant jet and calls the jet method, so every singularity and
    branch guard stays in :mod:`jetcore`.

    ``ops`` holds ``(code, a, b)`` in evaluation order: for ``var`` the
    0-based variable index and the conjugation flag, for ``const`` the
    value, otherwise ``a`` indexes an earlier op and ``b`` is a second one
    (``__add__``, ``__sub__``, ``__mul__``), a parameter or None.
    ``outputs`` holds, per expression, an op index (int) or a complex
    scalar.  ``max_var`` (largest variable index, 0 if none) and
    ``conjugated`` (some ``zb`` occurs) are facts of the expressions
    recorded while compiling.
    """

    def __init__(self, nodes):
        self.ops: list = []
        self.max_var = 0
        self.conjugated = False
        slots: dict = {}

        def emit(code, a, b=None) -> int:
            key = (code, a, b)
            if key not in slots:
                slots[key] = len(self.ops)
                self.ops.append(key)
            return slots[key]

        def as_jet(x) -> int:
            return emit("const", x) if isinstance(x, complex) else x

        def compile_node(node):
            if isinstance(node, Lit):
                return complex(node.value)
            if isinstance(node, Var):
                self.max_var = max(self.max_var, node.index)
                self.conjugated |= node.conjugated
                return emit("var", node.index - 1, node.conjugated)
            if isinstance(node, Neg):
                x = compile_node(node.arg)
                return -x if isinstance(x, complex) else emit("__neg__", x)
            if isinstance(node, (Add, Sub, Mul, Div)):
                x, y = compile_node(node.left), compile_node(node.right)
                return binary(type(node), x, y)
            if isinstance(node, (IntPow, RealPow)):
                return emit("power", as_jet(compile_node(node.base)), node.exponent)
            if isinstance(node, Exp):
                return emit("exp", as_jet(compile_node(node.arg)))
            if isinstance(node, Log):
                return emit("log", as_jet(compile_node(node.arg)))
            raise TypeError(f"not an expression node: {node!r}")

        def binary(kind, x, y):
            sx, sy = isinstance(x, complex), isinstance(y, complex)
            if kind is Div:
                inverse = emit("inv", as_jet(y))
                return emit("scale", inverse, x) if sx else emit("__mul__", x, inverse)
            if sx and sy:
                return x + y if kind is Add else x - y if kind is Sub else x * y
            if kind is Sub:
                if sx:
                    return emit("shift", emit("__neg__", y), x)
                return emit("shift", x, -y) if sy else emit("__sub__", x, y)
            if sx:  # + and * with one scalar commute: put the jet first
                x, y, sy = y, x, True
            if sy:
                return emit("scale" if kind is Mul else "shift", x, y)
            return emit("__mul__" if kind is Mul else "__add__", x, y)

        try:
            self.outputs = [compile_node(node) for node in nodes]
        except RecursionError:
            # the parser builds long sums and products as deep trees in a loop
            raise ParseError("expression nested too deeply", 0) from None

    def run(self, center, holo_order: int, anti_order: int) -> list:
        """The outputs at `center` (one point, or P points at once): a scalar
        HermJet of orders (holo_order, anti_order), or a complex for a
        literal-only expression."""
        jets = []
        for code, a, b in self.ops:
            if code == "var":
                make = HermJet.conj_coordinate if b else HermJet.coordinate
                jets.append(make(a, center, holo_order, anti_order))
            elif code == "const":
                jets.append(HermJet.constant(a, center, holo_order, anti_order))
            elif code in _BINARY:
                jets.append(getattr(jets[a], code)(jets[b]))
            else:
                method = getattr(jets[a], code)
                jets.append(method() if b is None else method(b))
        return [jets[out] if isinstance(out, int) else out for out in self.outputs]

    def matrix_jet(self, size: int, center, holo_order: int, anti_order: int) -> HermJet:
        """The outputs, row-major, as the entries of a size x size matrix jet."""
        zero = HermJet.zero(center, holo_order, anti_order, size)
        coeffs = np.array(zero.coeffs)
        for k, out in enumerate(self.run(zero.center, holo_order, anti_order)):
            p, q = divmod(k, size)
            if isinstance(out, HermJet):
                coeffs[..., p, q] = out.coeffs[..., 0, 0]
            else:
                coeffs[..., 0, 0, p, q] = out
        return HermJet(zero.center, holo_order, anti_order, size, coeffs)


def check_holomorphic(program: JetProgram, dim: int) -> None:
    """Reject a program with conjugated variables or variables beyond z`dim`."""
    if program.conjugated:
        raise ParseError("conjugated variable in a holomorphic expression", 0)
    if program.max_var > dim:
        raise ParseError(f"variable index exceeds dimension {dim}", 0)


# ---------------------------------------------------------------------------
# bundle specifications

# Hermitian defect allowed in a Gram jet, relative to 1 + its largest coefficient
_SYMMETRY_TOL = 1e-12


class BundleSpec:
    """A rank-l Hermitian bundle given by its Gram matrix in a global frame.

    Entries are scalar expressions in z1..zm, zb1..zbm, compiled together
    into one :class:`JetProgram`.  The grid must be Hermitian-symmetric
    (entry (q,p) is the conjugate of entry (p,q) under z <-> zb) and
    positive definite; every Gram jet is checked for both when it is made.
    """

    def __init__(self, label: str, dimension: int, entries):
        self.label = str(label)
        self.dimension = int(dimension)
        self.entries = [
            [e if not isinstance(e, str) else parse_kernel(e) for e in row]
            for row in entries
        ]
        self.rank = len(self.entries)
        for row in self.entries:
            if len(row) != self.rank:
                raise ValueError(f"bundle {label!r}: Gram entry grid is not square")
        self._program = JetProgram([e for row in self.entries for e in row])
        if self._program.max_var > self.dimension:
            raise ValueError(
                f"bundle {label!r}: entry uses a variable beyond z{self.dimension}"
            )

    def gram_jet(self, center, holo_order: int, anti_order: int) -> HermJet:
        """HermJet of the Gram matrix at `center`, checked before it is
        returned: the Hermitian defect over all its coefficients with a
        symmetric partner, and a positive definite value.

        `center` is one point, or a sequence of P points for a jet with a
        leading point axis made by one run of the program.  The checks run
        per point; an error names the first failing point and is the one
        that point alone would raise."""
        points = list(center) if point_axis(center) else [center]
        for point in points:
            if len(point) != self.dimension:
                raise ValueError(
                    f"bundle {self.label!r} has dimension {self.dimension}, "
                    f"center has {len(point)}"
                )
        jet = self._program.matrix_jet(self.rank, center, holo_order, anti_order)
        defect = np.ravel(jet.hermitian_defect())
        size = np.ravel(np.max(np.abs(jet.coeffs), axis=(-4, -3, -2, -1)))
        asymmetric = defect > _SYMMETRY_TOL * (1.0 + size)
        low = np.linalg.eigvalsh(jet.value()).reshape(len(points), -1).min(axis=1)
        failing = np.flatnonzero(asymmetric | (low <= 0.0))
        if failing.size:
            k = failing[0]
            if asymmetric[k]:
                raise ValueError(
                    f"bundle {self.label!r}: Gram expression is not Hermitian-symmetric "
                    f"at {points[k]} (defect {defect[k]:.2e})"
                )
            raise ValueError(
                f"bundle {self.label!r}: Gram matrix not positive definite at "
                f"{points[k]} (min eigenvalue {low[k]:.2e})"
            )
        return jet

    def validate(self, centers) -> None:
        """Check Hermitian symmetry and positive definiteness at sample
        centers, through the checked Gram jets of orders (2, 2)."""
        for center in centers:
            self.gram_jet(center, 2, 2)
