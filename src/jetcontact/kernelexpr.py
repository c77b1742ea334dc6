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
exponent, and compiles to the products of repeated squaring (after an
inverse if negative); arbitrary real exponents go through ``pow(expr, r)``
and use the principal branch (the evaluated constant term must have
positive real part).

Evaluation is exact truncated Taylor arithmetic; there are no finite
differences anywhere.  :func:`parse_kernel` reads an expression in one pass
into an :class:`Expr`: the straight-line jet ops that compute it, children
before parents, with literals folded, and its canonical text for the config
echo; its output is always an op, a ``const`` for a literal-only expression.
:func:`read_grid` is the one reader of a grid of expressions, a Gram matrix
or a candidate frame change: its shape, each entry's parse and variables, an
error naming the entry.  The entries of a grid merge into one
:class:`JetProgram`, in which every distinct op is computed once; the two
bundles of a contact question merge into one program too, so the kernels
they share are computed once for both.

A program is scheduled when it is compiled: its ops are grouped by depth in
the op graph, op code and the parameters the code's kernel reads (a
product's factor bounds, a real power's exponent), and numbered group by
group, so op k is row k of the one buffer a run fills, a row of scalar jet
coefficients per op, and every output is an op.  A run takes one numpy step
per group: gathers for the linear ops, jetcore's product kernel and HermJet
methods on the group stacked along the point axis for the others.  It runs
once per call, at one point or at a whole grid of points (jets with a
leading point axis, see :mod:`jetcore`), and per op and point gives the bits
an op-by-op evaluation at that point alone gives.
:meth:`BundleSpec.gram_jet` checks each Gram jet it makes, at the orders the
caller asked for, point by point; with a partner bundle it returns the two
Gram jets as one pair jet, stacked on the point axis.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .jetcore import HermJet, _product, point_axis, power_by_squaring

__all__ = [
    "ParseError",
    "Expr",
    "parse_kernel",
    "read_grid",
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
    ``output`` is the index of the op that computes it, a ``const`` for a
    literal-only one.  ``max_var`` is the largest variable index (0 if
    none) and ``conjugated`` says whether some ``zb`` occurs.
    """

    canonical: str
    ops: tuple
    output: int
    max_var: int
    conjugated: bool

    def text(self) -> str:
        """The canonical text: every operation parenthesized, numbers in
        shortest positional form.  It parses back to the same expression."""
        return self.canonical


def _num(x: float) -> str:
    x = float(x)
    if x.is_integer():
        return repr(int(x))
    text = repr(x)
    # repr writes |x| < 1e-4 with an exponent, which the grammar does not have
    return format(Decimal(text), "f") if "e" in text else text


# ---------------------------------------------------------------------------
# tokenizer / operator-precedence parser

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
# the binary operators' precedence; any other token ends an expression
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


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
        pos = len(text) - len(text[pos:].lstrip())  # the stray one, not whitespace
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens = parts[1::2]
    tokens.append("")
    return tokens


class _Parser:
    """One operator-precedence loop (a shunting-yard) over the token
    strings, emitting ops as it goes.

    Its one stack holds the open parentheses and ``exp``/``log``/``pow``
    calls, each with the negations in front of it, and the pending binary
    operators, each with its left operand, all led by their precedence (0
    for an opening); nesting has no depth limit.  An operand is ``(value,
    text)``: the index in ``ops`` of the op that computes it, or a complex
    if literal-only, and its canonical text.  An operator is applied once
    the token after its right operand binds no tighter, so ``ops`` is in
    evaluation order.  A variable is one op, emitted where it first occurs,
    so a merge meets it once per expression.  Literals stay Python scalars:
    ``+``, ``-``, ``*`` and negation of scalars fold here; a scalar times a
    jet is a ``scale``, a scalar plus a jet a constant-term ``shift``.  Any
    other op on a literal-only operand (``/``, ``^``, ``pow``, ``exp``,
    ``log``) promotes it to a ``const`` jet, so every singularity and branch
    guard stays in :mod:`jetcore`; a zeroth power is the ``const`` 1.

    A token is a number if it starts with a digit or '.', a name if it
    starts with a letter or '_', and "" ends the input; its source position
    is recovered only to raise an error at it."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.ops: list = []
        self.variables: dict = {}  # (index, conjugated) -> its op

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
        tokens, stack = self.tokens, []
        while True:
            # an operand: leading '-'s, then an atom or an opening
            negations = self._minus_run()
            tok = tokens[self.k]
            self.k += 1
            if tok == "(" or tok in ("exp", "log", "pow"):
                if tok != "(":
                    self.expect("(")
                stack.append((0, tok, negations))
                continue
            x, text = self.atom(tok)
            while True:
                # the factor ends: '^' signed_int, then the negations
                if tokens[self.k] == "^":
                    self.k += 1
                    x, text = self.power(x, text, self._exponent(real=False))
                while negations:
                    x = -x if isinstance(x, complex) else self.emit("__neg__", x)
                    text, negations = f"(-{text})", negations - 1
                # apply the pending operators that bind no looser than the
                # next token; any token but an operator closes an opening
                tok = tokens[self.k]
                rank = _PRECEDENCE.get(tok, 1)
                while stack and stack[-1][0] >= rank:
                    _, op, y, left = stack.pop()
                    x, text = self.binary(op, y, x), f"({left} {op} {text})"
                if tok in _PRECEDENCE:
                    self.k += 1
                    stack.append((rank, tok, x, text))
                    break
                if not stack:
                    if tok:
                        raise self.error(f"trailing input {tok!r}", self.k)
                    return x, text
                _, opening, negations = stack.pop()
                if opening == "pow":
                    self.expect(",")
                    exponent = self._exponent(real=True)
                    self.expect(")")
                    x, text = self.power(x, text, exponent)
                else:
                    self.expect(")")
                    if opening != "(":
                        x, text = self.emit(opening, self.as_jet(x)), f"{opening}({text})"

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

    def power(self, x, text: str, exponent) -> tuple:
        """x ^ exponent: for an int, the products HermJet.power multiplies
        (after an ``inv`` if negative; the constant 1 if zero), else a ``power`` op."""
        if not isinstance(exponent, int):
            return self.emit("power", self.as_jet(x), exponent), f"pow({text}, {_num(exponent)})"
        text = f"({text} ^ {exponent})"
        if exponent == 0:
            return self.emit("const", 1 + 0j), text
        x = self.as_jet(x) if exponent > 0 else self.emit("inv", self.as_jet(x))
        return power_by_squaring(x, abs(exponent), lambda u, v: self.emit("__mul__", u, v)), text

    def atom(self, tok: str) -> tuple:
        """A number, 'i' or a variable: the token just consumed."""
        head = tok[:1]
        if head.isdigit() or head == ".":
            if tok[-1] == "i":
                im = self._real(tok[:-1])
                return complex(0.0, im), f"{_num(im)}i" if im else "0"
            value = self._real(tok)
            return complex(value, 0.0), _num(value)
        if tok == "i":
            return 1j, "1i"
        if head.isalpha() or head == "_":
            m = _VAR_RE.match(tok)
            if m is None:
                raise self.error(f"unknown identifier {tok!r}", self.k - 1)
            index, conjugated = int(m.group(2)), m.group(1) == "zb"
            if index == 0:
                raise self.error(f"variable {tok!r}: variable indices start at 1", self.k - 1)
            key = (index - 1, conjugated)
            op = self.variables.get(key)
            if op is None:
                op = self.variables[key] = self.emit("var", *key)
            return op, f"{m.group(1)}{index}"
        raise self.error(f"unexpected token {tok or 'end of input'!r}", self.k - 1)

    def _exponent(self, real: bool):
        """Consume a signed exponent: the integer after '^', or with `real`
        the real one of ``pow``, an int if it is integral."""
        sign = -1 if self._minus_run() % 2 else 1
        tok = self.tokens[self.k]
        if not real:
            if not tok.isdigit():
                raise self.error("'^' needs an integer exponent (use pow() for reals)", self.k)
            self.k += 1
            return sign * int(tok)
        if not (tok[:1].isdigit() or tok[:1] == ".") or tok[-1] == "i":
            raise self.error("expected a real exponent", self.k)
        self.k += 1
        exponent = sign * self._real(tok)
        return int(exponent) if exponent.is_integer() else exponent

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
    output, canonical = parser.parse()
    output = parser.as_jet(output)  # a literal-only expression ends with its const
    variables = parser.variables
    return Expr(canonical, tuple(parser.ops), output, max(variables)[0] + 1 if variables else 0,
                any(conjugated for _, conjugated in variables))


def read_grid(grid, dimension: int, where: str, holomorphic: bool = False) -> list:
    """The rows of `grid`, a non-empty square grid of expressions (texts or
    :class:`Expr`), each entry parsed: the one reader of a Gram matrix and
    of a candidate frame change.  Entries are read row by row, each in full
    before the next: it parses, and uses no variable beyond z`dimension`
    and, if `holomorphic`, no ``zb``.  An entry's error starts with
    ``where[i][j]``."""
    if not grid:
        raise ValueError(f"{where} is empty")
    if any(len(row) != len(grid) for row in grid):
        raise ValueError(f"{where} is not square")
    rows = []
    for i, row in enumerate(grid):
        rows.append([])
        for j, entry in enumerate(row):
            here = f"{where}[{i}][{j}]"
            if isinstance(entry, str):
                try:
                    entry = parse_kernel(entry)
                except ParseError as exc:
                    raise ValueError(f"{here}: {exc}") from exc
            elif not isinstance(entry, Expr):
                raise TypeError(f"{here}: expected an expression, got {type(entry).__name__}")
            if holomorphic and entry.conjugated:
                raise ValueError(f"{here}: conjugated variable in a holomorphic expression")
            if entry.max_var > dimension:
                raise ValueError(f"{here}: uses a variable beyond z{dimension}")
            rows[-1].append(entry)
    return rows


# ---------------------------------------------------------------------------
# compiled jet programs


# op codes that combine two jets; every code but these, "var" and "const"
# names the HermJet method the op calls, with its parameter if it has one
_BINARY = ("__add__", "__sub__", "__mul__")
_ONE = np.eye(1)[0]  # the identity of a rank-1 jet's value, [1.0]


def _degree(code: str, a, b, degrees: list):
    """The degree bound of op (code, a, b), given the bounds of earlier ops;
    integer powers reach a program as products, which the product rule bounds."""
    if code in ("scale", "shift", "__neg__"):
        return degrees[a]
    if code in _BINARY:
        x, y = degrees[a], degrees[b]
        if x is None or y is None:
            return None
        if code == "__mul__":
            return (x[0] + y[0], x[1] + y[1])
        return (x[0] if x[0] > y[0] else y[0], x[1] if x[1] > y[1] else y[1])
    if code == "var":
        return (0, 1) if b else (1, 0)
    if code == "const":
        return (0, 0)
    return None  # exp, log, inv and real powers


class JetProgram:
    """Expressions merged into one straight-line program of scalar jet ops,
    numbered in the order a run computes them: op k fills row k of the run's
    buffer.

    The ops of the expressions are taken in order and hash-consed: each
    distinct (op, operands, parameter) is one op, so a subexpression shared
    by several expressions, or repeated inside one, is evaluated once per
    :meth:`run`.  A literal counts by its bits, signs of zero included, so
    ops on 0 and on -0 stay apart.

    ``ops`` holds ``(code, a, b)``: for ``var`` the 0-based variable index
    and the conjugation flag, for ``const`` the value, otherwise ``a`` is an
    earlier op and ``b`` is a second one (``__add__``, ``__sub__``,
    ``__mul__``), a parameter or None.  ``outputs`` holds the op of each
    expression.

    ``degrees`` holds, per op, a degree bound (a, b) if the op is a
    polynomial in (z, zb) -- ``var``, ``const``, ``scale``, ``shift``,
    negation, ``+``, ``-`` and ``*``, so also the integer powers of
    polynomials, which the parser emits as products -- and None otherwise
    (``exp``, ``log``, ``inv`` and real powers).  The Taylor coefficients of
    a bounded op vanish at every center for |alpha| > a or |beta| > b.  A
    product passes the bound of each of its factors to jetcore's product
    kernel, which then gathers only the pairs inside a bound; no other op
    reads one.

    The level schedule is made while the ops are merged.  An op's level is
    its depth in the op graph (0 for ``var`` and ``const``).  The ops of one
    level with the same code and the same parameters of its kernel (a
    product's two factor bounds, a real power's exponent, none for the other
    codes) form a group; the ops are numbered group by group, the groups in
    level order, so each group is a block of ops that reads only earlier
    blocks.  :meth:`run` takes one numpy step per group, on the group's ops
    stacked on a leading axis.
    """

    def __init__(self, exprs):
        # merge the ops in expression order; a literal's key adds the sign bits
        # its value leaves open: the imaginary part's, the real part's if zero
        slots: dict = {}
        merged_ops, degrees, levels, outputs = [], [], [], []
        by_level: list = []  # per level, (code, parameters) -> [merged op]
        copysign = math.copysign
        for expr in exprs:
            merged = []  # the merged op of each of the expression's ops
            push, find = merged.append, slots.get
            for code, a, b in expr.ops:
                if code == "scale" or code == "shift":
                    a = merged[a]
                    key = (code, a, b, copysign(1.0, b.imag) if b.real else
                           (copysign(1.0, b.real), copysign(1.0, b.imag)))
                elif code in _BINARY:
                    a, b = merged[a], merged[b]
                    key = (code, a, b)
                elif code == "const":
                    key = (code, a, b, copysign(1.0, a.imag) if a.real else
                           (copysign(1.0, a.real), copysign(1.0, a.imag)))
                else:
                    if code != "var":
                        a = merged[a]
                    key = (code, a, b)
                slot = find(key)
                if slot is None:
                    slot = slots[key] = len(merged_ops)
                    merged_ops.append((code, a, b))
                    degrees.append(_degree(code, a, b, degrees))
                    if code in _BINARY:
                        level = 1 + (levels[a] if levels[a] > levels[b] else levels[b])
                    elif code == "var" or code == "const":
                        level = 0
                    else:
                        level = 1 + levels[a]
                    levels.append(level)
                    if level == len(by_level):
                        by_level.append(defaultdict(list))
                    params = ((degrees[a], degrees[b]) if code == "__mul__"
                              else (b,) if code == "power" else ())
                    by_level[level][code, params].append(slot)
                push(slot)
            outputs.append(merged[expr.output])
        # number the ops group by group; a step (code, start, stop, parameters)
        # fills the rows [start, stop) of its group
        order, self._schedule = [], []
        for level in by_level:
            for (code, params), group in level.items():
                self._schedule.append((code, len(order), len(order) + len(group), params))
                order += group
        number = [0] * len(order)
        for k, m in enumerate(order):
            number[m] = k
        self.ops, self.degrees = [], [degrees[m] for m in order]
        self.outputs = [number[m] for m in outputs]
        # per op: its operands (a variable's index and conjugation flag) and
        # the literal of a const, scale or shift
        first, second, literal = [], [], []
        for m in order:
            code, a, b = merged_ops[m]
            if code == "var":
                first.append(a), second.append(b), literal.append(0j)
            elif code == "const":
                first.append(0), second.append(0), literal.append(a)
            elif code in _BINARY:
                a, b = number[a], number[b]
                first.append(a), second.append(b), literal.append(0j)
            else:
                a = number[a]
                first.append(a), second.append(0)
                literal.append(b if code == "scale" or code == "shift" else 0j)
            self.ops.append((code, a, b))
        self._columns = (np.array(first, dtype=np.intp), np.array(second, dtype=np.intp),
                         np.array(literal, dtype=np.complex128))

    def run(self, center, holo_order: int, anti_order: int) -> np.ndarray:
        """Every op's value at `center` (one point, or P points at once) as
        one buffer ``(ops, *P, Na, Nb)`` of scalar jet coefficients of
        orders (holo_order, anti_order): op k in row k.

        The groups run in order, and a failing run raises the error of the
        first group that fails."""
        return self._fill(HermJet.constant(0.0, center, holo_order, anti_order))

    def _fill(self, template: HermJet) -> np.ndarray:
        """:meth:`run` at the centers and orders of the jet `template`."""
        p, q, dim, points = (template.holo_order, template.anti_order, template.dim,
                             template.points)
        na, nb = template.coeffs.shape[-4:-2]
        buf = np.empty((len(self.ops),) + points + (na, nb), dtype=np.complex128)
        per_op = (-1,) + (1,) * len(points)  # a per-op scalar over the points
        first, second, literal = self._columns
        for code, start, stop, params in self._schedule:
            out, a = buf[start:stop], first[start:stop]
            if code == "var":
                # the coordinate z_a, or conj(z_a) where flagged, with unit
                # coefficient at e_a, which graded tables put at position 1 + a
                conj = second[start:stop] != 0
                coords = np.moveaxis(np.array(template.center, dtype=np.complex128), -1, 0)[a]
                out[...] = 0.0
                out[..., 0, 0] = np.where(conj.reshape(per_op), np.conj(coords), coords)
                if p >= 1:
                    out[np.flatnonzero(~conj), ..., 1 + a[~conj], 0] = 1.0
                if q >= 1:
                    out[np.flatnonzero(conj), ..., 0, 1 + a[conj]] = 1.0
            elif code == "const":
                out[...] = 0.0
                out[..., 0, 0] = literal[start:stop].reshape(per_op)
            elif code == "scale":
                np.multiply(buf[a], literal[start:stop].reshape(per_op + (1, 1)), out=out)
            elif code == "shift":
                np.take(buf, a, axis=0, out=out)
                # f + b * I: b times the value's identity, 1.0, added to the constant term
                out[..., 0, 0] += (literal[start:stop] * _ONE).reshape(per_op)
            elif code == "__neg__":
                np.negative(buf[a], out=out)
            elif code in _BINARY:
                b = second[start:stop]
                if code == "__add__":
                    np.add(buf[a], buf[b], out=out)
                elif code == "__sub__":
                    np.add(buf[a], -buf[b], out=out)  # as HermJet.__sub__: a + (-b)
                else:
                    product = _product(buf[a][..., None, None], buf[b][..., None, None],
                                       dim, p, q, *params)
                    out[...] = product[..., 0, 0]
            else:  # exp, log, inv, power: the HermJet method on the stacked ops
                jet = template.tiled(buf[a].reshape((-1, na, nb, 1, 1)))
                out[...] = getattr(jet, code)(*params).coeffs.reshape(out.shape)
        return buf

    def matrix_jet(self, size: int, center, holo_order: int, anti_order: int) -> HermJet:
        """The outputs, row-major, as the entries of a size x size matrix
        jet; when there are k * size^2 of them, the k matrices in turn,
        stacked on the point axis (k P points at P centers, k at one)."""
        template = HermJet.constant(0.0, center, holo_order, anti_order)
        buf = self._fill(template)
        k = len(self.outputs) // (size * size)
        entries = buf[self.outputs].reshape((k, size, size) + buf.shape[1:])
        # (k, size, size, *P, Na, Nb) -> (k, *P, Na, Nb, size, size)
        coeffs = np.moveaxis(entries, (1, 2), (-2, -1))
        if k == 1:
            return HermJet(template.center, holo_order, anti_order, size, coeffs[0])
        return template.tiled(coeffs.reshape((-1,) + coeffs.shape[-4:]))


# ---------------------------------------------------------------------------
# bundle specifications

# Hermitian defect allowed in a Gram jet, relative to 1 + its largest coefficient
_SYMMETRY_TOL = 1e-12


class BundleSpec:
    """A rank-l Hermitian bundle given by its Gram matrix in a global frame.

    Entries are scalar expressions in z1..zm, zb1..zbm (texts or parsed
    :class:`Expr`), read by :func:`read_grid` and merged into one
    :class:`JetProgram` when a Gram jet is first asked for -- with the
    entries of a partner bundle, when the two are evaluated together.  The
    grid must be Hermitian-symmetric (entry (q,p) is the conjugate of entry
    (p,q) under z <-> zb) and positive definite; every Gram jet is checked
    for both when it is made.
    """

    def __init__(self, label: str, dimension: int, entries):
        self.label = str(label)
        self.dimension = int(dimension)
        self.entries = read_grid(entries, self.dimension, f"bundle {label!r}: gram")
        self.rank = len(self.entries)
        self._programs: dict = {}  # partner (None: this bundle alone) -> JetProgram

    def gram_jet(self, center, holo_order: int, anti_order: int, partner=None) -> HermJet:
        """HermJet of the Gram matrix at `center`, checked before it is
        returned: finite coefficients, the Hermitian defect over all its
        coefficients with a symmetric partner, and a positive definite value.

        `center` is one point, or a sequence of P points for a jet with a
        leading point axis made by one run of the program.  An error says
        what failed, not where: :func:`contact.run_in_slices` names the
        point.

        With a `partner` bundle of the same dimension and rank, both Grams
        come from one run of one program merged from the two grids: the
        pair jet, this bundle's jet and the partner's stacked on the point
        axis (2P points, or 2 at one center).  A failing program raises its
        own error first; after it come the checks, this bundle's, then the
        partner's, each over all points."""
        specs = (self,) if partner is None else (self, partner)
        if partner is not None and (partner.dimension, partner.rank) != (self.dimension,
                                                                          self.rank):
            raise ValueError(f"bundles {self.label!r} and {partner.label!r} differ in "
                             "dimension or rank")
        points = list(center) if point_axis(center) else [center]
        for point in points:
            if len(point) != self.dimension:
                raise ValueError(
                    f"bundle {self.label!r} has dimension {self.dimension}, "
                    f"center has {len(point)}"
                )
        program = self._programs.get(partner)
        if program is None:
            program = self._programs[partner] = JetProgram(
                [e for spec in specs for row in spec.entries for e in row])
        # finite inputs can overflow; such a jet is refused below
        with np.errstate(all="ignore"):
            jet = program.matrix_jet(self.rank, center, holo_order, anti_order)
            defects = np.reshape(jet.hermitian_defect(), (len(specs), -1))
            sizes = np.max(np.abs(jet.coeffs), axis=(-4, -3, -2, -1)).reshape(len(specs), -1)
        values = np.reshape(jet.value(), (len(specs), -1, self.rank, self.rank))
        for spec, defect, size, value in zip(specs, defects, sizes, values):
            if not np.isfinite(size).all():
                raise ValueError(f"bundle {spec.label!r}: Gram jet is not finite")
            if (defect > _SYMMETRY_TOL * (1.0 + size)).any():
                raise ValueError(f"bundle {spec.label!r}: Gram expression is not "
                                 f"Hermitian-symmetric (defect {defect.max():.2e})")
            low = np.linalg.eigvalsh(value).min()
            if low <= 0.0:
                raise ValueError(f"bundle {spec.label!r}: Gram matrix not positive definite "
                                 f"(min eigenvalue {low:.2e})")
        return jet

    def validate(self, centers) -> None:
        """Check Hermitian symmetry and positive definiteness at sample
        centers, through the checked Gram jets of orders (2, 2)."""
        for center in centers:
            self.gram_jet(center, 2, 2)
