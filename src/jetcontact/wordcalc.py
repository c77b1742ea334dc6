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

from .pascal import binomial_solve, binomial_sums

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
# size of the random matrices substituted in the numeric spot checks
_SIZE = 3


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


def _accumulate(terms: dict, pairs) -> dict:
    """Add each (word, coefficient) pair into `terms`, dropping a word whose
    coefficient cancels to zero; returns `terms`."""
    for word, coef in pairs:
        new = terms.get(word, Fraction(0)) + coef
        if new:
            terms[word] = new
        else:
            terms.pop(word, None)
    return terms


class NCPoly:
    """Noncommutative polynomial: reduced words -> nonzero Fractions."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _accumulate(
            {}, ((_reduce(word), Fraction(coef)) for word, coef in (terms or {}).items())
        )

    @classmethod
    def _of(cls, terms: dict) -> "NCPoly":
        """Wrap a dict of reduced words and nonzero coefficients as is."""
        result = cls.__new__(cls)
        result.terms = terms
        return result

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

    def __add__(self, other) -> "NCPoly":
        return NCPoly._of(_accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "NCPoly":
        return NCPoly._of({w: -c for w, c in self.terms.items()})

    def __sub__(self, other) -> "NCPoly":
        return self + (-other)

    def __mul__(self, other) -> "NCPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NCPoly._of(_accumulate({}, (
            (_reduce(wa + wb), ca * cb)
            for wa, ca in self.terms.items() for wb, cb in other.terms.items()
        )))

    __rmul__ = __mul__

    def scale(self, scalar) -> "NCPoly":
        scalar = Fraction(scalar)
        return NCPoly._of({w: c * scalar for w, c in self.terms.items()} if scalar else {})

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
    gs = [NCPoly.symbol(fam_g, l) for l in weights]
    if rule == "recur1":
        return binomial_solve([NCPoly.symbol(fam_f, l) for l in weights], gs, mul, left=True)
    if rule in ("recur19", "recur199"):
        return binomial_solve([-g for g in gs], gs, mul, left=rule == "recur19")
    if rule == "r01":
        z0 = NCPoly.symbol("Z0", 0)
        return binomial_solve([NCPoly.symbol("G", l) * z0 for l in weights],
                              [NCPoly.symbol("Gt", l) for l in weights], mul, x0=z0)
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
    z0 = NCPoly.symbol("Z0", 0)
    gt = [NCPoly.symbol("Gt", l) for l in range(1, length + 1)]
    xs = binomial_solve([NCPoly.symbol("G", l) * z0 for l in range(1, length + 1)], gt, mul)
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

    def add_first_failure(self, name: str, failures, passed_detail: str):
        """Add check `name`, failed with the first label the lazy iterable
        `failures` yields as its detail, or passed with `passed_detail` when
        it yields none; labels after the first are never computed."""
        bad = next(iter(failures), None)
        self.add(name, bad is None, passed_detail if bad is None else bad)

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


def _conjugated_ft_sums(seq: list) -> list[NCPoly]:
    """sum_{k=1}^{n} binom(n,k) seq_{n-k} Ft_k Z0i for n = 1..len(seq), with
    seq_0 = Z0 (so the k = n term is Z0 Ft_n Z0i)."""
    z0i = NCPoly.symbol("Z0i")
    fts = [NCPoly.symbol("Ft", k) for k in range(1, len(seq) + 1)]
    return binomial_sums([NCPoly.symbol("Z0")] + seq, fts, lambda a, ft: a * ft * z0i)


def _starts_class_a_or_b(word) -> bool:
    """Whether a word starts with G_k Z0 (class A) or Z0 Gt_k (class B)."""
    z0 = Symbol("Z0")
    return len(word) >= 2 and (
        (word[0][0] == "G" and word[1] == z0) or (word[0] == z0 and word[1][0] == "Gt")
    )


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


def _relmax(diff, *refs) -> float:
    scale = 1.0 + max((float(np.max(np.abs(r))) for r in refs), default=0.0)
    return float(np.max(np.abs(diff))) / scale


def _numeric_equivalence(report: AppendixReport, n: int, rng, tol: float):
    """Seeded substitution check of the conjugation equivalence (both
    directions) plus the induction-step split, and its failure under
    perturbation of the F-side."""
    one = np.eye(_SIZE)
    g = [one] + [_random_matrix(rng, _SIZE) for _ in range(n)]
    gt = [one] + [_random_matrix(rng, _SIZE) for _ in range(n)]
    ft = [one] + [_random_matrix(rng, _SIZE) for _ in range(n)]
    z0 = _conditioned_invertible(rng, _SIZE)
    z0i = np.linalg.inv(z0)
    zs = [z0] + binomial_solve([g[l] @ z0 for l in range(1, n + 1)], gt[1:], matmul, x0=z0)

    # direction (i) => (ii): define F by the intertwining condition
    f = [one] + binomial_sums(zs, ft[1:], lambda a, b: a @ b @ z0i)
    hs = _h_from(f, g, n)
    hts = _h_from(ft, gt, n)
    resid = max(
        _relmax(hs[l - 1] - z0 @ hts[l - 1] @ z0i, hs[l - 1]) for l in range(1, n + 1)
    )
    report.add(
        "numeric-conjugation-forward",
        resid < tol,
        f"n={n} size={_SIZE} max residual {resid:.2e}",
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
    hts2 = [_random_matrix(rng, _SIZE) for _ in range(n)]
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
    for l, rhs in enumerate(binomial_sums(zs, ft2[1:], lambda a, b: a @ b @ z0i), start=1):
        resid2 = max(resid2, _relmax(f2[l] - rhs, f2[l]))
    report.add(
        "numeric-conjugation-backward",
        resid2 < tol,
        f"n={n} size={_SIZE} max residual {resid2:.2e}",
    )

    # perturbing the F side must break the conjugation
    f_bad = [np.array(m) for m in f]
    f_bad[1] = f_bad[1] + 0.01 * _random_matrix(rng, _SIZE)
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


def verify_appendix(n_max: int = 6, seed: int = 0, tol: float = 1e-8) -> AppendixReport:
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
    report.add_first_failure(
        "k-recursions-agree",
        (f"left and right K-recursions differ at weight {l}"
         for l, (a, b) in enumerate(zip(ks_19, ks_199), 1) if a != b),
        f"left and right K-recursions identical up to weight {n_max}",
    )
    report.add_first_failure(
        "word-coefficients",
        (f"mismatch at word {compo}"
         for l in range(1, n_max + 1) for compo in _compositions(l)
         if not coefficient_of_word(compo) == ks_19[l - 1].coefficient(_word_of_g(compo))
         == binom_product_leading(compo) == binom_product_trailing(compo)),
        f"closed form matches recursion for all weights <= {n_max}",
    )
    report.add_first_failure(
        "binomial-identity",
        (f"failed at (n,k,i)=({n},{k},{i})"
         for n in range(1, n_max + 1) for k in range(n) for i in range(1, k + 1)
         if comb(n + 1, k + 1 - i) * comb(n - k + i, i) != comb(n + 1, k + 1) * comb(k + 1, i)),
        f"product identity holds for all (n,k,i) <= {n_max}",
    )

    hs = build_sequences("recur1", n_max)
    fs = [NCPoly.symbol("F", l) for l in range(1, n_max + 1)]
    report.add_first_failure(
        "extension-identity",
        (f"failed at n={n}" for n in range(1, n_max + 1)
         if sum((comb(n, i) * (ks_19[i - 1] * fs[n - i - 1]) for i in range(1, n)), fs[n - 1])
         != hs[n - 1]),
        f"K-corrected F-sums equal H up to weight {n_max}",
    )
    report.add_first_failure(
        "binomial-recast",
        (f"failed at (n,k)=({n},{k})" for n in range(1, n_max + 1) for k in range(1, n + 1)
         if sum((comb(n, k - i + 1) * (term * fs[k - i])
                 for i, term in enumerate(build_sequences("ruuu-I", k, n=n, k=k), 1)),
                NCPoly.zero()) != comb(n, k) * hs[k - 1]),
        f"I-weighted F-sums equal binom(n,k) H_k for n <= {n_max}",
    )

    zs = build_sequences("r01", n_max)
    xs, ys = _class_sequences(n_max)
    report.add_first_failure(
        "class-split",
        (f"X + Y differs from Z at weight {l}"
         for l, (x, y, z) in enumerate(zip(xs, ys, zs), 1) if x + y != z),
        "Z-sequence splits as X + Y at every weight",
    )
    z0, z0i = Symbol("Z0"), Symbol("Z0i")
    report.add_first_failure(
        "class-decomposition",
        (f"stray word {word} at n={n}"
         for n, total in enumerate(_conjugated_ft_sums(zs), 1) for word in total.words()
         if word != (z0, Symbol("Ft", n), z0i) and not _starts_class_a_or_b(word)),
        "all cross words start with G*Z0 or Z0*Gt",
    )
    hts = build_sequences("recur1", n_max, families=("Ft", "Gt"))
    report.add_first_failure(
        "class-b-conjugation",
        (f"failed at n={n}" for n, total in enumerate(_conjugated_ft_sums(ys), 1)
         if total != NCPoly.symbol("Z0") * hts[n - 1] * NCPoly.symbol("Z0i")),
        "class-B sums equal the conjugated tilde-H sequence",
    )

    rng = np.random.default_rng(seed)
    _numeric_equivalence(report, min(n_max, 5), rng, tol)
    return report
