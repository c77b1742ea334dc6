"""Finite-dimensional quotient-space models of adjoint shift tuples.

For a reproducing kernel entered as a Gram expression K(z, zbar) and a base
point z0, the functions vanishing to order n at z0 have as orthocomplement
the span of the kernel jets; in that jet basis the compressed adjoint shifts
take the rigid form

    S_j^* |_quotient  =  z0_j * Id + P_j,

where P_j is the j-th derivative-lowering generator on the multi-index jet
basis.  Unitary equivalence of two such models is decided twice and
cross-checked: once through the contact machinery on the induced bundles and
once directly on the whitened shift tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contact import (
    REFUTE_FACTOR,
    GramPair,
    classify,
    combine_verdicts,
    jet_gram,
    pointwise_normalized_decide,
)
from .jetcore import HermJet, table_size
from .kernelexpr import BundleSpec
from .pascal import multi_pascal_generator
from .simeq import unitary_intertwiner

__all__ = [
    "QuotientModel",
    "quotient_model",
    "quotient_models",
    "check_direct_size",
    "unitary_equiv_check",
    "EquivReport",
]

_MAX_DIRECT_DIM = 64


@dataclass(frozen=True)
class QuotientModel:
    """Jet-basis model of the quotient space at a point.

    jet is the kernel's Gram jet at orders (order, order), the orders the
    contact verdict and the jet Gram read; gram is the jet Gram of the kernel
    derivatives taken from it; shifts[j-1] represents the compressed adjoint
    of the j-th shift in the same basis.
    """

    kernel: BundleSpec
    center: tuple
    order: int
    jet: HermJet
    gram: np.ndarray
    shifts: tuple

    @property
    def dim(self) -> int:
        return self.kernel.dimension

    @property
    def rank(self) -> int:
        return self.kernel.rank


def quotient_model(kernel: BundleSpec, center, order: int) -> QuotientModel:
    """Build the quotient model of the kernel at `center` to jet order `order`."""
    center = tuple(complex(c) for c in center)
    h = kernel.gram_jet(center, order, order)
    gram = jet_gram(h, order)
    _check_jet_grams([kernel], np.linalg.eigvalsh(gram)[None])
    return QuotientModel(kernel, center, order, h, gram, _shifts(kernel, center, order))


def quotient_models(a: BundleSpec, b: BundleSpec, center,
                    order: int) -> tuple[QuotientModel, QuotientModel]:
    """The quotient models of kernels a and b, of one dimension and rank, at
    `center`: both Gram jets from one run of the merged program, and the jet
    Grams, their checks and the shifts each formed once for the two.  Per
    kernel that is bit for bit :func:`quotient_model`.  An error is that of
    the first failing stage (the program, the Gram checks, the jet-Gram
    checks), and within a stage of kernel a before b's."""
    center = tuple(complex(c) for c in center)
    pair = GramPair(a.gram_jet(center, order, order, b), ())
    grams = jet_gram(pair.jet, order)
    _check_jet_grams([a, b], np.linalg.eigvalsh(grams))
    shifts = _shifts(a, center, order)  # the pair shares a's dimension and rank
    return tuple(QuotientModel(kernel, center, order, jet, gram, shifts)
                 for kernel, jet, gram in zip((a, b), pair.split_jet(pair.jet),
                                              pair.split(grams)))


def _check_jet_grams(kernels: list, eigs: np.ndarray) -> None:
    """Refuse the first kernel whose jet Gram (eigenvalues `eigs`, one row
    per kernel) is not positive definite."""
    for kernel, low in zip(kernels, eigs.min(axis=-1)):
        if low <= 0.0:
            raise ValueError(f"kernel {kernel.label!r} is not positive definite "
                             f"(min jet-Gram eigenvalue {low:.2e})")


def _shifts(kernel: BundleSpec, center: tuple, order: int) -> tuple:
    size = table_size(kernel.dimension, order) * kernel.rank
    return tuple(
        center[j - 1] * np.eye(size)
        + multi_pascal_generator(kernel.dimension, order, j, kernel.rank)
        for j in range(1, kernel.dimension + 1)
    )


@dataclass
class EquivReport:
    equivalent: bool
    contact_verdict: str
    direct_verdict: str
    agreement: bool
    residuals: dict


def check_direct_size(kernel: BundleSpec, order: int) -> None:
    """Refuse a direct check on more than _MAX_DIRECT_DIM basis jets.  The
    size follows from the kernel's dimension and rank and the jet order, so
    a caller can check it before any Gram is evaluated."""
    if table_size(kernel.dimension, order) * kernel.rank > _MAX_DIRECT_DIM:
        raise ValueError(f"direct check limited to dimension {_MAX_DIRECT_DIM}")


def direct_equiv_check(a: QuotientModel, b: QuotientModel, tol: float,
                       seed: int = 0) -> tuple[str, float]:
    """Whiten both Grams and search for a unitary intertwining the shift
    tuples; returns (verdict, residual)."""
    for model in (a, b):
        check_direct_size(model.kernel, model.order)
    la = np.linalg.cholesky(a.gram)
    lb = np.linalg.cholesky(b.gram)
    lai, lbi = np.linalg.inv(la), np.linalg.inv(lb)
    whitened_a = [lai @ s @ la for s in a.shifts]
    whitened_b = [lbi @ s @ lb for s in b.shifts]
    _, resid = unitary_intertwiner(whitened_a, whitened_b, seed=seed,
                                   refuted_above=REFUTE_FACTOR * tol)
    return classify(resid, tol), resid


def unitary_equiv_check(a: QuotientModel, b: QuotientModel, tol: float = 1e-8,
                        seed: int = 0) -> EquivReport:
    """Two independent verdicts on unitary equivalence of the quotient models,
    with an agreement flag."""
    if (a.dim, a.rank, a.order) != (b.dim, b.rank, b.order):
        raise ValueError("models differ in dimension, rank or jet order")
    if a.center != b.center:
        raise ValueError("models sit at different base points")

    contact_verdict, contact_res = pointwise_normalized_decide(
        GramPair.of(a.jet, b.jet), a.order, tol, seed
    )
    direct_verdict, direct_res = direct_equiv_check(a, b, tol, seed)

    residuals = dict(contact_res)
    residuals["shift-intertwiner"] = direct_res
    verdict = combine_verdicts([contact_verdict, direct_verdict])
    return EquivReport(
        equivalent=(verdict == "verified"),
        contact_verdict=contact_verdict,
        direct_verdict=direct_verdict,
        agreement=contact_verdict == direct_verdict,
        residuals=residuals,
    )
