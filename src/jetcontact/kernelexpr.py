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

import re
from dataclasses import dataclass
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
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


# ---------------------------------------------------------------------------
# tokenizer / recursive-descent parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?i?|\.\d+i?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_VAR_RE = re.compile(r"^(zb?)(\d+)$")


def _tokenize(text: str):
    tokens, pos = [], 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup == "number":
            tokens.append(("number", match.group("number"), match.start("number")))
        elif match.lastgroup == "name":
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def parse(self) -> ExprNode:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return node

    def expr(self) -> ExprNode:
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> ExprNode:
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self) -> ExprNode:
        if self.peek()[1] == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self) -> ExprNode:
        base = self.atom()
        if self.peek()[1] == "^":
            self.next()
            sign = 1
            while self.peek()[1] == "-":
                self.next()
                sign = -sign
            kind, val, pos = self.next()
            if kind != "number" or not val.isdigit():
                raise ParseError("'^' needs an integer exponent (use pow() for reals)", pos)
            return IntPow(base, sign * int(val))
        return base

    def atom(self) -> ExprNode:
        kind, val, pos = self.next()
        if kind == "number":
            if val.endswith("i"):
                return Lit(complex(0.0, float(val[:-1] or "1")))
            return Lit(complex(float(val), 0.0))
        if kind == "name":
            if val == "i":
                return Lit(1j)
            if val in ("exp", "log"):
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Exp(arg) if val == "exp" else Log(arg)
            if val == "pow":
                self.expect("(")
                base = self.expr()
                self.expect(",")
                exponent = self._signed_real()
                self.expect(")")
                if float(exponent).is_integer():
                    return IntPow(base, int(exponent))
                return RealPow(base, float(exponent))
            m = _VAR_RE.match(val)
            if m:
                if int(m.group(2)) == 0:
                    raise ParseError(
                        f"variable {val!r}: variable indices start at 1", pos
                    )
                return Var(int(m.group(2)), m.group(1) == "zb")
            raise ParseError(f"unknown identifier {val!r}", pos)
        if val == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {val or 'end of input'!r}", pos)

    def _signed_real(self) -> float:
        sign = 1.0
        while self.peek()[1] == "-":
            self.next()
            sign = -sign
        kind, val, pos = self.next()
        if kind != "number" or val.endswith("i"):
            raise ParseError("expected a real exponent", pos)
        return sign * float(val)


def parse_kernel(text: str) -> ExprNode:
    """Parse an expression in z1..zm / zb1..zbm into an AST."""
    return _Parser(text).parse()


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

        self.outputs = [compile_node(node) for node in nodes]

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
