"""Exact noncommutative polynomial engine for the matrix-sequence identities.

Polynomials live in the free algebra over the indexed symbol families

    F_l, G_l, Ft_l, Gt_l   (l >= 1)      and      Z0, Z0i,

with rational coefficients.  The only relation is the two-sided cancellation
Z0 * Z0i = Z0i * Z0 = 1, applied eagerly, so words are stored reduced.

The module builds the recursive sequences used to rewrite transverse
curvature towers (H/K/I/Z and the class-A/B splittings X, Y), provides the
closed-form word coefficient, and bundles the whole identity suite --
symbolic checks in exact arithmetic plus seeded numeric substitution for the
conjugation equivalence -- behind :func:`verify_appendix`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from operator import matmul, mul

import numpy as np

from .pascal import binomial_solve

__all__ = [
    "Symbol",
    "NCPoly",
    "build_sequences",
    "coefficient_of_word",
    "binom_product_leading",
    "binom_product_trailing",
    "verify_appendix",
    "AppendixReport",
]

FAMILIES = ("F", "G", "Ft", "Gt", "Z0", "Z0i")


def Symbol(family: str, index: int = 0) -> tuple:
    """An indexed formal symbol; Z0 / Z0i carry index 0."""
    if family not in FAMILIES:
        raise ValueError(f"unknown symbol family {family!r}")
    if family in ("Z0", "Z0i"):
        if index != 0:
            raise ValueError("Z0 symbols carry no index")
    elif index < 1:
        raise ValueError(f"{family} symbols are indexed from 1")
    return (family, index)


def _cancels(a, b) -> bool:
    return (a[0], b[0]) in (("Z0", "Z0i"), ("Z0i", "Z0"))


def _reduce(symbols) -> tuple:
    stack = []
    for s in symbols:
        if stack and _cancels(stack[-1], s):
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


class NCPoly:
    """Noncommutative polynomial: reduced words -> nonzero Fractions."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for word, coef in terms.items():
                coef = Fraction(coef)
                if coef:
                    word = _reduce(word)
                    new = self.terms.get(word, Fraction(0)) + coef
                    if new:
                        self.terms[word] = new
                    else:
                        self.terms.pop(word, None)

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls()

    @classmethod
    def one(cls) -> "NCPoly":
        return cls({(): Fraction(1)})

    @classmethod
    def symbol(cls, family: str, index: int = 0) -> "NCPoly":
        return cls({(Symbol(family, index),): Fraction(1)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, NCPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "NCPoly":
        out = dict(self.terms)
        for word, coef in other.terms.items():
            new = out.get(word, Fraction(0)) + coef
            if new:
                out[word] = new
            else:
                out.pop(word, None)
        result = NCPoly()
        result.terms = out
        return result

    def __neg__(self) -> "NCPoly":
        result = NCPoly()
        result.terms = {w: -c for w, c in self.terms.items()}
        return result

    def __sub__(self, other) -> "NCPoly":
        return self + (-other)

    def __mul__(self, other) -> "NCPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                word = _reduce(wa + wb)
                coef = ca * cb
                new = out.get(word, Fraction(0)) + coef
                if new:
                    out[word] = new
                else:
                    out.pop(word, None)
        result = NCPoly()
        result.terms = out
        return result

    __rmul__ = __mul__

    def scale(self, scalar) -> "NCPoly":
        scalar = Fraction(scalar)
        result = NCPoly()
        if scalar:
            result.terms = {w: c * scalar for w, c in self.terms.items()}
        return result

    def coefficient(self, word) -> Fraction:
        return self.terms.get(_reduce(tuple(word)), Fraction(0))

    def words(self):
        return self.terms.keys()

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for word, coef in sorted(self.terms.items()):
            sym = "*".join(f"{f}{i or ''}" for f, i in word) or "1"
            parts.append(f"{coef}*{sym}")
        return " + ".join(parts)


def _sym(family, index) -> NCPoly:
    return NCPoly.symbol(family, index)


def build_sequences(rule: str, length: int, n: int = None, k: int = None,
                    families=None) -> list[NCPoly]:
    """The recursive polynomial sequences, entry [l-1] holding the l-th term.

    rule:
      * "recur1"   H_1 = F_1,  H_l = F_l - sum binom(l,i) G_i H_{l-i}
      * "recur19"  K_1 = -G_1, K_l = -G_l - sum binom(l,i) G_{l-i} K_i
      * "recur199" K_1 = -G_1, K_l = -G_l - sum binom(l,i) K_i G_{l-i}
      * "r01"      Z_l = G_l Z0 - sum_{i=1}^{l} binom(l,i) Z_{l-i} Gt_i
      * "ruuu-I"   I_1 = 1,  I_l = -sum binom(n-k+l-1, i) I_{l-i} G_i (needs n, k)

    `families` renames the (F, G) families, e.g. ("Ft", "Gt") for the tilde
    system in "recur1".  Every rule but "ruuu-I" is one `binomial_solve`;
    "recur19" and "recur199" become its left and right forms under i -> l-i.
    """
    if length < 1:
        raise ValueError("sequence length must be >= 1")
    fam_f, fam_g = families if families else ("F", "G")
    weights = range(1, length + 1)
    gs = [_sym(fam_g, l) for l in weights]
    if rule == "recur1":
        return binomial_solve([_sym(fam_f, l) for l in weights], gs, mul, left=True)
    if rule in ("recur19", "recur199"):
        return binomial_solve([-g for g in gs], gs, mul, left=rule == "recur19")
    if rule == "r01":
        z0 = _sym("Z0", 0)
        return binomial_solve([_sym("G", l) * z0 for l in weights],
                              [_sym("Gt", l) for l in weights], mul, x0=z0)
    if rule == "ruuu-I":
        if n is None or k is None:
            raise ValueError("rule 'ruuu-I' needs parameters n and k")
        if not 1 <= k <= n:
            raise ValueError("rule 'ruuu-I' needs 1 <= k <= n")
        if length > k:
            raise ValueError("the I-sequence is only defined up to length k")
        seq = [NCPoly.one()]
        for l in range(2, length + 1):
            acc = NCPoly.zero()
            for i in range(1, l):
                acc = acc - comb(n - k + l - 1, i) * (seq[l - i - 1] * gs[i - 1])
            seq.append(acc)
        return seq
    raise ValueError(f"unknown sequence rule {rule!r}")


def _class_sequences(length: int) -> tuple[list[NCPoly], list[NCPoly]]:
    """The class-A / class-B split of the Z-sequence:
    X_l collects words starting with G_k Z0, Y_l those starting with Z0 Gt_k;
    X_l + Y_l equals the full Z_l."""
    z0 = _sym("Z0", 0)
    gt = [_sym("Gt", l) for l in range(1, length + 1)]
    xs = binomial_solve([_sym("G", l) * z0 for l in range(1, length + 1)], gt, mul)
    ys = binomial_solve([-(z0 * g) for g in gt], gt, mul)
    return xs, ys


def coefficient_of_word(indices) -> Fraction:
    """Closed-form coefficient of the word G_{i1}...G_{ik} in the K-sequence
    element of weight i1+...+ik: (-1)^k * l! / (i1! ... ik!)."""
    indices = tuple(indices)
    if not indices or any(i < 1 for i in indices):
        raise ValueError("word indices must be positive")
    l = sum(indices)
    denom = 1
    for i in indices:
        denom *= factorial(i)
    return Fraction((-1) ** len(indices) * factorial(l), denom)


def binom_product_leading(indices) -> Fraction:
    """The leading-letter binomial product form of the same coefficient."""
    indices = tuple(indices)
    l = sum(indices)
    out = Fraction((-1) ** len(indices))
    rest = l
    for i in indices[:-1]:
        out *= comb(rest, rest - i)
        rest -= i
    return out


def binom_product_trailing(indices) -> Fraction:
    """The trailing-letter binomial product form of the same coefficient."""
    return binom_product_leading(tuple(reversed(indices)))


def _compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# the verification suite


@dataclass
class AppendixCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class AppendixReport:
    n_max: int
    seed: int
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(AppendixCheck(name, bool(passed), detail))

    def as_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _word_of_g(indices) -> tuple:
    return tuple(Symbol("G", i) for i in indices)


def _random_matrix(rng, size) -> np.ndarray:
    return rng.random((size, size)) + 1j * rng.random((size, size))


def _conditioned_invertible(rng, size, min_sv=0.2, max_tries=1000) -> np.ndarray:
    for _ in range(max_tries):
        z = _random_matrix(rng, size)
        if np.linalg.svd(z, compute_uv=False).min() > min_sv:
            return z
    raise RuntimeError("failed to draw a well-conditioned matrix")


def _h_from(f, g, n) -> list[np.ndarray]:
    return binomial_solve(f[1 : n + 1], g[1:], matmul, left=True)


def _z_from(g, gt, z0, n) -> list[np.ndarray]:
    return [z0] + binomial_solve([g[l] @ z0 for l in range(1, n + 1)], gt[1:], matmul, x0=z0)


def _relmax(diff, *refs) -> float:
    scale = 1.0 + max((float(np.max(np.abs(r))) for r in refs), default=0.0)
    return float(np.max(np.abs(diff))) / scale


def _numeric_equivalence(report: AppendixReport, n: int, size: int, rng, tol: float):
    """Seeded substitution check of the conjugation equivalence (both
    directions) plus the induction-step split, and its failure under
    perturbation of the F-side."""
    one = np.eye(size)
    g = [one] + [_random_matrix(rng, size) for _ in range(n)]
    gt = [one] + [_random_matrix(rng, size) for _ in range(n)]
    ft = [one] + [_random_matrix(rng, size) for _ in range(n)]
    z0 = _conditioned_invertible(rng, size)
    z0i = np.linalg.inv(z0)
    zs = _z_from(g, gt, z0, n)

    # direction (i) => (ii): define F by the intertwining condition
    f = [one]
    for l in range(1, n + 1):
        acc = np.zeros_like(one)
        for i in range(1, l + 1):
            acc = acc + comb(l, i) * (zs[l - i] @ ft[i] @ z0i)
        f.append(acc)
    hs = _h_from(f, g, n)
    hts = _h_from(ft, gt, n)
    resid = max(
        _relmax(hs[l - 1] - z0 @ hts[l - 1] @ z0i, hs[l - 1]) for l in range(1, n + 1)
    )
    report.add(
        "numeric-conjugation-forward",
        resid < tol,
        f"n={n} size={size} max residual {resid:.2e}",
    )

    # the two halves of the induction step at top weight
    xs, ys = _class_sequences(n)
    assign = {"G": g, "Gt": gt, "Ft": ft}

    def eval_poly(poly: NCPoly) -> np.ndarray:
        total = np.zeros_like(one)
        # a fixed order, so the float sum does not depend on how poly was built
        for word, coef in sorted(poly.terms.items()):
            m = one
            for fam, idx in word:
                if fam == "Z0":
                    m = m @ z0
                elif fam == "Z0i":
                    m = m @ z0i
                else:
                    m = m @ assign[fam][idx]
            total = total + float(coef) * m
        return total

    xa = [eval_poly(x) for x in xs]
    ya = [eval_poly(y) for y in ys]
    lhs_a = np.array(f[n])
    for k in range(1, n):
        lhs_a -= comb(n, k) * (xa[n - k - 1] @ ft[k] @ z0i)
    split_a = _relmax(lhs_a - hs[n - 1], hs[n - 1])
    lhs_b = z0 @ ft[n] @ z0i
    for k in range(1, n):
        lhs_b += comb(n, k) * (ya[n - k - 1] @ ft[k] @ z0i)
    split_b = _relmax(lhs_b - z0 @ hts[n - 1] @ z0i, hts[n - 1])
    report.add(
        "numeric-induction-split",
        max(split_a, split_b) < tol,
        f"class-A residual {split_a:.2e}, class-B residual {split_b:.2e}",
    )

    # direction (ii) => (i): prescribe conjugated H-sequences, recover F
    hts2 = [_random_matrix(rng, size) for _ in range(n)]
    hs2 = [z0 @ m @ z0i for m in hts2]
    f2, ft2 = [one], [one]
    for l in range(1, n + 1):
        acc = np.array(hs2[l - 1])
        acct = np.array(hts2[l - 1])
        for i in range(1, l):
            acc = acc + comb(l, i) * (g[i] @ hs2[l - i - 1])
            acct = acct + comb(l, i) * (gt[i] @ hts2[l - i - 1])
        f2.append(acc)
        ft2.append(acct)
    resid2 = 0.0
    for l in range(1, n + 1):
        rhs = np.zeros_like(one)
        for i in range(1, l + 1):
            rhs = rhs + comb(l, i) * (zs[l - i] @ ft2[i] @ z0i)
        resid2 = max(resid2, _relmax(f2[l] - rhs, f2[l]))
    report.add(
        "numeric-conjugation-backward",
        resid2 < tol,
        f"n={n} size={size} max residual {resid2:.2e}",
    )

    # perturbing the F side must break the conjugation
    f_bad = [np.array(m) for m in f]
    f_bad[1] = f_bad[1] + 0.01 * _random_matrix(rng, size)
    hs_bad = _h_from(f_bad, g, n)
    resid_bad = max(
        _relmax(hs_bad[l - 1] - z0 @ hts[l - 1] @ z0i, hs_bad[l - 1])
        for l in range(1, n + 1)
    )
    report.add(
        "numeric-perturbation-detected",
        resid_bad > 100.0 * tol,
        f"perturbed residual {resid_bad:.2e}",
    )


def verify_appendix(n_max: int = 6, seed: int = 0, size: int = 3,
                    tol: float = 1e-8) -> AppendixReport:
    """Run the whole identity suite up to weight n_max (symbolic checks are
    exact; the conjugation equivalence is additionally spot-checked numerically
    with seeded random matrices)."""
    if n_max > 7:
        raise ValueError("verification bound capped at 7")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    report = AppendixReport(n_max=n_max, seed=seed)

    ks_19 = build_sequences("recur19", n_max)
    ks_199 = build_sequences("recur199", n_max)
    report.add(
        "k-recursions-agree",
        all(a == b for a, b in zip(ks_19, ks_199)),
        f"left and right K-recursions identical up to weight {n_max}",
    )

    ok, bad = True, ""
    for l in range(1, n_max + 1):
        for compo in _compositions(l):
            closed = coefficient_of_word(compo)
            from_recursion = ks_19[l - 1].coefficient(_word_of_g(compo))
            lead = binom_product_leading(compo)
            trail = binom_product_trailing(compo)
            if not closed == from_recursion == lead == trail:
                ok, bad = False, f"mismatch at word {compo}"
                break
        if not ok:
            break
    report.add("word-coefficients", ok,
               bad or f"closed form matches recursion for all weights <= {n_max}")

    ok, bad = True, ""
    for n in range(1, n_max + 1):
        for k in range(n):
            for i in range(1, k + 1):
                if comb(n + 1, k + 1 - i) * comb(n - k + i, i) != comb(
                    n + 1, k + 1
                ) * comb(k + 1, i):
                    ok, bad = False, f"failed at (n,k,i)=({n},{k},{i})"
    report.add("binomial-identity", ok,
               bad or f"product identity holds for all (n,k,i) <= {n_max}")

    hs = build_sequences("recur1", n_max)
    fs = [_sym("F", l) for l in range(1, n_max + 1)]
    ok, bad = True, ""
    for n in range(1, n_max + 1):
        acc = fs[n - 1]
        for i in range(1, n):
            acc = acc + comb(n, i) * (ks_19[i - 1] * fs[n - i - 1])
        if acc != hs[n - 1]:
            ok, bad = False, f"failed at n={n}"
            break
    report.add("extension-identity", ok,
               bad or f"K-corrected F-sums equal H up to weight {n_max}")

    ok, bad = True, ""
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            iseq = build_sequences("ruuu-I", k, n=n, k=k)
            acc = NCPoly.zero()
            for i in range(1, k + 1):
                acc = acc + comb(n, k - i + 1) * (iseq[i - 1] * fs[k - i])
            if acc != comb(n, k) * hs[k - 1]:
                ok, bad = False, f"failed at (n,k)=({n},{k})"
                break
        if not ok:
            break
    report.add("binomial-recast", ok,
               bad or f"I-weighted F-sums equal binom(n,k) H_k for n <= {n_max}")

    zs = build_sequences("r01", n_max)
    xs, ys = _class_sequences(n_max)
    ok = all(x + y == z for x, y, z in zip(xs, ys, zs))
    report.add("class-split", ok, "Z-sequence splits as X + Y at every weight")

    z0, z0i = Symbol("Z0"), Symbol("Z0i")
    ok, bad = True, ""
    for n in range(1, n_max + 1):
        total = NCPoly.symbol("Z0") * _sym("Ft", n) * NCPoly.symbol("Z0i")
        for k in range(1, n):
            zpoly = zs[n - k - 1]
            total = total + comb(n, k) * (
                zpoly * _sym("Ft", k) * NCPoly.symbol("Z0i")
            )
        head = (z0, Symbol("Ft", n), z0i)
        for word in total.words():
            if word == head:
                continue
            starts_a = len(word) >= 2 and word[0][0] == "G" and word[1] == z0
            starts_b = len(word) >= 2 and word[0] == z0 and word[1][0] == "Gt"
            if not (starts_a or starts_b):
                ok, bad = False, f"stray word {word} at n={n}"
                break
        if not ok:
            break
    report.add("class-decomposition", ok,
               bad or "all cross words start with G*Z0 or Z0*Gt")

    hts = build_sequences("recur1", n_max, families=("Ft", "Gt"))
    ok, bad = True, ""
    for n in range(1, n_max + 1):
        lhs = NCPoly.symbol("Z0") * _sym("Ft", n) * NCPoly.symbol("Z0i")
        for k in range(1, n):
            lhs = lhs + comb(n, k) * (ys[n - k - 1] * _sym("Ft", k) * NCPoly.symbol("Z0i"))
        rhs = NCPoly.symbol("Z0") * hts[n - 1] * NCPoly.symbol("Z0i")
        if lhs != rhs:
            ok, bad = False, f"failed at n={n}"
            break
    report.add("class-b-conjugation", ok,
               bad or "class-B sums equal the conjugated tilde-H sequence")

    rng = np.random.default_rng(seed)
    _numeric_equivalence(report, min(n_max, 5), size, rng, tol)
    return report
