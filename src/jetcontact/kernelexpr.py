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
differences anywhere.  :func:`parse_kernel` reads an expression in one pass
into an :class:`Expr`: the straight-line jet ops that compute it, children
before parents, with literals folded, and its canonical text for the config
echo.  The entries of a Gram matrix (or of a candidate frame change) merge
into one :class:`JetProgram`, in which every distinct op is computed once,
and the program runs once per call, at one point or at a whole grid of
points (jets with a leading point axis, see :mod:`jetcore`).
:meth:`BundleSpec.gram_jet` checks each Gram jet it makes, at the orders the
caller asked for, point by point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .jetcore import HermJet, point_axis

__all__ = [
    "ParseError",
    "Expr",
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
class Expr:
    """One parsed expression.

    ``ops`` holds ``(code, a, b)`` in evaluation order, as in
    :class:`JetProgram`, with operands indexing this expression's own ops;
    ``output`` is the index of the op that computes the expression, or a
    complex for a literal-only one.  ``max_var`` is the largest variable
    index (0 if none) and ``conjugated`` says whether some ``zb`` occurs.
    """

    canonical: str
    ops: tuple
    output: object
    max_var: int
    conjugated: bool

    def text(self) -> str:
        """The canonical text: every operation parenthesized, numbers in
        shortest positional form.  It parses back to the same expression
        unless its parentheses nest too deeply for the parser, as those of
        a sum of some 250 terms do."""
        return self.canonical


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
# into tokens in one way only.
_TOKEN_RE = re.compile(
    r"\s*(\d+(?!\d)(?:\.\d+(?!\d)|(?!\.\d))(?:i|(?!i))"
    r"|\.\d+(?!\d)(?:i|(?!i))"
    r"|[A-Za-z_][A-Za-z_0-9]*(?![A-Za-z_0-9])"
    r"|[-+*/^(),])"
)
_VAR_RE = re.compile(r"^(zb?)(\d+)$")


def _tokenize(text: str) -> list:
    """The tokens of `text`, then "" for the end of input."""
    # one regex pass; the text between tokens is at the even places, and in
    # a valid text it is empty but for whitespace after the last token
    parts = _TOKEN_RE.split(text)
    if any(parts[:-1:2]) or parts[-1].strip():
        pos = 0
        for match in _TOKEN_RE.finditer(text):
            if match.start() != pos:
                break
            pos = match.end()
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens = parts[1::2]
    tokens.append("")
    return tokens


class _Parser:
    """Recursive descent over the token strings, emitting ops as it goes.

    Each rule returns ``(value, text)``: the index in ``ops`` of the op that
    computes what it read, or a complex if that is literal-only, and its
    canonical text.  Operands are read before the op that combines them, so
    ``ops`` is in evaluation order.  Literals stay Python scalars: ``+``,
    ``-``, ``*`` and negation of scalars fold here; a scalar times a jet is a
    ``scale``, a scalar plus a jet a constant-term ``shift``.  Any other op
    on a literal-only operand (``/``, ``^``, ``pow``, ``exp``, ``log``)
    promotes it to a ``const`` jet, so every singularity and branch guard
    stays in :mod:`jetcore`.

    A token is a number if it starts with a digit or '.', a name if it
    starts with a letter or '_', and "" ends the input; its source position
    is recovered only to raise an error at it."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.ops: list = []
        self.max_var = 0
        self.conjugated = False

    def error(self, message: str, k: int) -> ParseError:
        starts = [match.start(1) for match in _TOKEN_RE.finditer(self.text)]
        return ParseError(message, (starts + [len(self.text)])[k])

    def expect(self, value: str):
        tok = self.tokens[self.k]
        if tok != value:
            raise self.error(f"expected {value!r}, found {tok or 'end of input'!r}", self.k)
        self.k += 1

    def emit(self, code: str, a, b=None) -> int:
        self.ops.append((code, a, b))
        return len(self.ops) - 1

    def as_jet(self, x) -> int:
        return self.emit("const", x) if isinstance(x, complex) else x

    def parse(self) -> tuple:
        read = self.expr()
        tok = self.tokens[self.k]
        if tok:
            raise self.error(f"trailing input {tok!r}", self.k)
        return read

    def expr(self) -> tuple:
        x, text = self.term()
        while (op := self.tokens[self.k]) in ("+", "-"):
            self.k += 1
            y, right = self.term()
            x, text = self.binary(op, x, y), f"({text} {op} {right})"
        return x, text

    def term(self) -> tuple:
        x, text = self.factor()
        while (op := self.tokens[self.k]) in ("*", "/"):
            self.k += 1
            y, right = self.factor()
            x, text = self.binary(op, x, y), f"({text} {op} {right})"
        return x, text

    def binary(self, op: str, x, y):
        sx, sy = isinstance(x, complex), isinstance(y, complex)
        if op == "/":
            inverse = self.emit("inv", self.as_jet(y))
            return self.emit("scale", inverse, x) if sx else self.emit("__mul__", x, inverse)
        if sx and sy:
            return x + y if op == "+" else x - y if op == "-" else x * y
        if op == "-":
            if sx:
                return self.emit("shift", self.emit("__neg__", y), x)
            return self.emit("shift", x, -y) if sy else self.emit("__sub__", x, y)
        if sx:  # + and * with one scalar commute: put the jet first
            x, y, sy = y, x, True
        if sy:
            return self.emit("scale" if op == "*" else "shift", x, y)
        return self.emit("__mul__" if op == "*" else "__add__", x, y)

    def factor(self) -> tuple:
        """The factor and power rules: leading '-'s, an atom, '^' signed_int;
        the negations apply after the power."""
        negations = self._minus_run()
        x, text = self.atom()
        if self.tokens[self.k] == "^":
            self.k += 1
            sign = -1 if self._minus_run() % 2 else 1
            tok = self.tokens[self.k]
            if not tok.isdigit():
                raise self.error("'^' needs an integer exponent (use pow() for reals)", self.k)
            self.k += 1
            x, text = self.power(x, text, sign * int(tok))
        for _ in range(negations):
            x, text = -x if isinstance(x, complex) else self.emit("__neg__", x), f"(-{text})"
        return x, text

    def power(self, x, text: str, exponent) -> tuple:
        text = (f"({text} ^ {exponent})" if isinstance(exponent, int)
                else f"pow({text}, {_num(exponent)})")
        return self.emit("power", self.as_jet(x), exponent), text

    def atom(self) -> tuple:
        tok = self.tokens[self.k]
        self.k += 1
        head = tok[:1]
        if head.isdigit() or head == ".":
            if tok[-1] == "i":
                im = self._real(tok[:-1])
                return complex(0.0, im), f"{_num(im)}i" if im else "0"
            value = self._real(tok)
            return complex(value, 0.0), _num(value)
        if tok == "(":
            read = self.expr()
            self.expect(")")
            return read
        if tok == "i":
            return 1j, "1i"
        if tok in ("exp", "log"):
            self.expect("(")
            x, text = self.expr()
            self.expect(")")
            return self.emit(tok, self.as_jet(x)), f"{tok}({text})"
        if tok == "pow":
            self.expect("(")
            x, text = self.expr()
            self.expect(",")
            sign = -1.0 if self._minus_run() % 2 else 1.0
            tok = self.tokens[self.k]
            if not (tok[:1].isdigit() or tok[:1] == ".") or tok[-1] == "i":
                raise self.error("expected a real exponent", self.k)
            self.k += 1
            exponent = sign * self._real(tok)
            self.expect(")")
            return self.power(x, text, int(exponent) if exponent.is_integer() else exponent)
        if head.isalpha() or head == "_":
            m = _VAR_RE.match(tok)
            if m is None:
                raise self.error(f"unknown identifier {tok!r}", self.k - 1)
            index, conjugated = int(m.group(2)), m.group(1) == "zb"
            if index == 0:
                raise self.error(f"variable {tok!r}: variable indices start at 1", self.k - 1)
            self.max_var = max(self.max_var, index)
            self.conjugated |= conjugated
            return self.emit("var", index - 1, conjugated), f"{m.group(1)}{index}"
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


def parse_kernel(text: str) -> Expr:
    """Parse an expression in z1..zm / zb1..zbm into its ops and text."""
    parser = _Parser(text)
    try:
        output, canonical = parser.parse()
    except RecursionError:
        raise parser.error("expression nested too deeply", parser.k) from None
    return Expr(canonical, tuple(parser.ops), output, parser.max_var, parser.conjugated)


# ---------------------------------------------------------------------------
# compiled jet programs


# op codes that combine two jets; every code but these, "var" and "const"
# names the HermJet method the op calls, with its parameter if it has one
_BINARY = ("__add__", "__sub__", "__mul__")


def _degree(code: str, a, b, degrees: list):
    """The degree bound of op (code, a, b), given the bounds of earlier ops."""
    if code in ("scale", "shift", "__neg__"):
        return degrees[a]
    if code in _BINARY:
        x, y = degrees[a], degrees[b]
        if x is None or y is None:
            return None
        if code == "__mul__":
            return (x[0] + y[0], x[1] + y[1])
        return (max(x[0], y[0]), max(x[1], y[1]))
    if code == "var":
        return (0, 1) if b else (1, 0)
    if code == "const":
        return (0, 0)
    x = degrees[a]
    if code == "power" and isinstance(b, int) and b >= 0 and x is not None:
        return (b * x[0], b * x[1])
    return None  # exp, log, inv, real and negative powers


class JetProgram:
    """Expressions merged into one straight-line jet program.

    The ops of the expressions are taken in order and hash-consed: each
    distinct (op, operands, parameter) is one op, so a subexpression shared
    by several expressions, or repeated inside one, is evaluated once per
    :meth:`run`.

    ``ops`` holds ``(code, a, b)`` in evaluation order: for ``var`` the
    0-based variable index and the conjugation flag, for ``const`` the
    value, otherwise ``a`` indexes an earlier op and ``b`` is a second one
    (``__add__``, ``__sub__``, ``__mul__``), a parameter or None.
    ``outputs`` holds, per expression, an op index (int) or a complex
    scalar.  ``max_var`` (largest variable index, 0 if none) and
    ``conjugated`` (some ``zb`` occurs) are facts of the expressions.

    ``degrees`` holds, per op, a degree bound (a, b) if the op is a
    polynomial in (z, zb) -- ``var``, ``const``, ``scale``, ``shift``,
    negation, ``+``, ``-``, ``*`` and non-negative integer powers of
    polynomials -- and None otherwise (``exp``, ``log``, ``inv``, real and
    negative powers).  The Taylor coefficients of a bounded op vanish at
    every center for |alpha| > a or |beta| > b.  :meth:`run` declares the
    bound on the jet of each bounded op that a product or a power reads
    (:meth:`HermJet.with_degree`), so that product gathers only the pairs
    inside the bound; no other op reads a bound.
    """

    def __init__(self, exprs):
        self.ops: list = []
        self.degrees: list = []
        self.outputs: list = []
        self.max_var = 0
        self.conjugated = False
        slots: dict = {}
        for expr in exprs:
            self.max_var = max(self.max_var, expr.max_var)
            self.conjugated |= expr.conjugated
            merged = []  # the program op of each of the expression's ops
            for code, a, b in expr.ops:
                if code != "var" and code != "const":
                    a = merged[a]
                    if code in _BINARY:
                        b = merged[b]
                key = (code, a, b)
                slot = slots.get(key)
                if slot is None:
                    slot = slots[key] = len(self.ops)
                    self.ops.append(key)
                    self.degrees.append(_degree(code, a, b, self.degrees))
                merged.append(slot)
            out = expr.output
            self.outputs.append(out if isinstance(out, complex) else merged[out])
        factors = {x for code, a, b in self.ops if code in ("__mul__", "power")
                   for x in ((a, b) if code == "__mul__" else (a,))}
        self._declared = [d if k in factors else None for k, d in enumerate(self.degrees)]

    def run(self, center, holo_order: int, anti_order: int) -> list:
        """The outputs at `center` (one point, or P points at once): a scalar
        HermJet of orders (holo_order, anti_order), or a complex for a
        literal-only expression."""
        jets = []
        for (code, a, b), degree in zip(self.ops, self._declared):
            if code == "var":
                make = HermJet.conj_coordinate if b else HermJet.coordinate
                jet = make(a, center, holo_order, anti_order)
            elif code == "const":
                jet = HermJet.constant(a, center, holo_order, anti_order)
            elif code in _BINARY:
                jet = getattr(jets[a], code)(jets[b])
            else:
                method = getattr(jets[a], code)
                jet = method() if b is None else method(b)
            jets.append(jet if degree is None else jet.with_degree(degree))
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


def check_holomorphic(expr: Expr, dim: int) -> None:
    """Reject an expression with conjugated variables or variables beyond z`dim`."""
    if expr.conjugated:
        raise ParseError("conjugated variable in a holomorphic expression", 0)
    if expr.max_var > dim:
        raise ParseError(f"variable index exceeds dimension {dim}", 0)


# ---------------------------------------------------------------------------
# bundle specifications

# Hermitian defect allowed in a Gram jet, relative to 1 + its largest coefficient
_SYMMETRY_TOL = 1e-12


class BundleSpec:
    """A rank-l Hermitian bundle given by its Gram matrix in a global frame.

    Entries are scalar expressions in z1..zm, zb1..zbm (texts or parsed
    :class:`Expr`), merged into one :class:`JetProgram`.  The grid must be Hermitian-symmetric
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
        if not self.rank:
            raise ValueError(f"bundle {label!r}: Gram entry grid is empty")
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
        returned: finite coefficients, the Hermitian defect over all its
        coefficients with a symmetric partner, and a positive definite value.

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
        # finite inputs can overflow; such a point is refused by name below
        with np.errstate(all="ignore"):
            jet = self._program.matrix_jet(self.rank, center, holo_order, anti_order)
            defect = np.ravel(jet.hermitian_defect())
            size = np.ravel(np.max(np.abs(jet.coeffs), axis=(-4, -3, -2, -1)))
            finite = np.isfinite(size)
            asymmetric = defect > _SYMMETRY_TOL * (1.0 + size)
            value = jet.value()
            if not finite.all():  # a non-finite point fails whatever its eigenvalues
                value = np.where(finite[:, None, None], value, 0.0)
            low = np.linalg.eigvalsh(value).reshape(len(points), -1).min(axis=1)
        failing = np.flatnonzero(~finite | asymmetric | (low <= 0.0))
        if failing.size:
            k = failing[0]
            if not finite[k]:
                raise ValueError(
                    f"bundle {self.label!r}: Gram jet is not finite at {points[k]}"
                )
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
