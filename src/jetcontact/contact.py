"""Deciding and verifying order-n contact between Hermitian bundles.

Two settings are covered, both driven by Gram jets:

* point-wise contact -- the n-jet fibers of the two bundles admit a linear
  isometry intertwining the jet-lowering (Pascal) maps.  With a candidate
  frame change A this is the certificate check
  ``jet_gram(H) = Lambda_A jet_gram(Ht) Lambda_A^*``; without a candidate the
  decision runs in normalized frames, where the intertwiner must be block
  diagonal with a unitary corner.

* contact along the coordinate slice Z = {z1 = 0} -- a holomorphically
  varying isometry of transverse z1-jets.  Verification runs two independent
  routes at every grid point and compares them:

  - analytic: extend the corner map A0 through the first-column recursion,
    check the full transverse block-Gram isometry, and check the holomorphy
    conditions that glue the extension along Z;
  - geometric: check that A0 intertwines the transverse curvature and its
    covariant derivatives (orders r, t <= n-1) and the mixed components
    (K_{1 jbar})_{z1^r} for the tangential directions j >= 2.

  Both routes and the point-wise spot check run once per grid, on Gram jets
  with a leading point axis (see :mod:`jetcore`); every residual below is
  then an array with one value per point, and a verdict list has one entry
  per point.

Verdicts are grid-based: "verified" means every residual is below tolerance
at every requested point, "refuted" means some residual exceeds 10x the
tolerance, anything else is "inconclusive".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import matmul, mul

import numpy as np

from .geometry import (
    K1j_tower,
    L_tensor,
    curvature,
    normalize_frame,
    transverse_tower,
)
from .jetcore import (
    HermJet,
    HoloJet,
    OrderError,
    index_positions,
    index_table,
    multi_index_factorial,
    point_axis,
)
from .kernelexpr import BundleSpec, JetProgram, ParseError, check_holomorphic, parse_kernel
from .pascal import (
    binomial_solve,
    binomial_sums,
    multi_lambda_from_jet,
    pascal_expand,
)
from .simeq import unitary_intertwiner

__all__ = [
    "ContactProblem",
    "PointReport",
    "ContactReport",
    "jet_gram",
    "pointwise_verify",
    "pointwise_rank1_decide",
    "pointwise_normalized_decide",
    "extend_A_sequence",
    "extend_A_sequence_jets",
    "holomorphy_conditions",
    "geometric_conditions",
    "alongZ_check",
    "check_problem",
    "worst_residual",
    "VERIFIED",
    "REFUTED",
    "INCONCLUSIVE",
    "REFUTE_FACTOR",
]

VERIFIED = "verified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

# a residual above REFUTE_FACTOR * tol refutes; the similarity solves stop
# their draws once a certificate proves every residual is above it
REFUTE_FACTOR = 10.0


def _e1(dim: int, times: int) -> tuple:
    return tuple(times if k == 0 else 0 for k in range(dim))


def classify(residual: float, tol: float) -> str:
    """The verdict of one residual; a list of them for an array of residuals."""
    if np.ndim(residual):
        return [classify(r, tol) for r in residual]
    if not np.isfinite(residual):
        return INCONCLUSIVE
    if residual < tol:
        return VERIFIED
    if residual > REFUTE_FACTOR * tol:
        return REFUTED
    return INCONCLUSIVE


def worst_residual(residuals) -> float:
    """The largest residual, or NaN if any is not finite.

    Python's ``max`` drops a NaN that follows a finite value, which would let
    an unevaluated residual pass as verified; NaN classifies as inconclusive.
    """
    values = [float(v) for v in residuals]
    if not all(np.isfinite(values)):
        return float("nan")
    return max(values, default=0.0)


def combine_verdicts(verdicts) -> str:
    verdicts = list(verdicts)
    if any(v == REFUTED for v in verdicts):
        return REFUTED
    if any(v == INCONCLUSIVE for v in verdicts):
        return INCONCLUSIVE
    return VERIFIED


def _rel(diff: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """max |diff| relative to 1 + the largest entry of a or b, over the matrix
    axes: one value per point for stacks of matrices."""
    scale = 1.0 + np.maximum(np.max(np.abs(a), axis=(-2, -1)), np.max(np.abs(b), axis=(-2, -1)))
    return np.max(np.abs(diff), axis=(-2, -1)) / scale


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


# ---------------------------------------------------------------------------
# jet Gram matrices


@lru_cache(maxsize=None)
def _jet_gram_plan(dim: int, n: int, variables: str):
    """Table positions of the jet-Gram blocks and the factorial weights
    alpha! beta! that turn normalized coefficients into derivatives."""
    if variables == "z1":
        blocks = [_e1(dim, k) for k in range(n + 1)]
    elif variables == "all":
        blocks = index_table(dim, n)
    else:
        raise ValueError(f"unknown variable selection {variables!r}")
    positions = index_positions(dim, n)
    pos = np.array([positions[b] for b in blocks], dtype=np.intp)
    # products in Python ints, rounded once: fixed-width ints would wrap
    fact = [multi_index_factorial(b) for b in blocks]
    return pos, np.array([[fa * fb for fb in fact] for fa in fact], dtype=float)


def _jet_blocks(H: HermJet, n: int, variables: str = "all") -> np.ndarray:
    """The blocks d^I dbar^J H at the center, shape (*P, N, N, rank, rank),
    with I and J in the order of `jet_gram`'s rows and columns."""
    pos, weight = _jet_gram_plan(H.dim, n, variables)
    if n > min(H.holo_order, H.anti_order):
        raise OrderError(
            f"jet Gram of order {n} needs jet orders >= {n}, "
            f"got ({H.holo_order}, {H.anti_order})"
        )
    # graded tables make the order-n table a prefix of the jet's own tables
    return H.coeffs[..., pos[:, None], pos[None, :], :, :] * weight[:, :, None, None]


def jet_gram(H: HermJet, n: int, variables: str = "all") -> np.ndarray:
    """Block Gram matrix of the n-jet frame.

    variables="all": rows/columns run over all multi-indices |I| <= n in the
    fixed graded order (z1-major within a degree); variables="z1": only
    transverse derivatives 0..n.  Block (I, J) is d^I dbar^J H at the center.
    """
    blocks = _jet_blocks(H, n, variables)
    size = blocks.shape[-3] * H.rank
    return np.swapaxes(blocks, -3, -2).reshape(blocks.shape[:-4] + (size, size))


# ---------------------------------------------------------------------------
# point-wise checks


def pointwise_verify(
    H: HermJet, Ht: HermJet, candidate: HoloJet, n: int, tol: float
) -> tuple[str, dict]:
    """Certificate check: the candidate's jet transition matrix is an isometry
    of the full multi-index jet Grams."""
    lam = multi_lambda_from_jet(candidate.truncate(n), n)
    g = jet_gram(H, n)
    gt = jet_gram(Ht, n)
    resid = _rel(g - lam @ gt @ _adjoint(lam), g, gt)
    residuals = {f"jet-gram-isometry(n={n})": resid}
    return classify(resid, tol), residuals


def _on_pair(H: HermJet, Ht: HermJet, run) -> list:
    """`run` on H and Ht stacked on the point axis, once for the two: for
    each array of the list it returns, with the stacked point axis leading,
    the pair (H's part, Ht's part).  Per point that is bit for bit what two
    calls give, with the same error (the first failing point is H's if any
    is).  The jets share their orders and their center, one point or a grid."""
    if H.points:
        center, coeffs = H.center + Ht.center, np.concatenate([H.coeffs, Ht.coeffs])
    else:
        center, coeffs = (H.center, Ht.center), np.stack([H.coeffs, Ht.coeffs])
    values = run(HermJet(center, H.holo_order, H.anti_order, H.rank, coeffs))
    return [tuple(half.reshape(H.points + half.shape[1:]) for half in np.split(value, 2))
            for value in values]


def _normalized_pair(H: HermJet, Ht: HermJet, n: int) -> tuple[HermJet, HermJet]:
    """The normalized Grams of H and Ht from one normalize_frame of the two."""
    [halves] = _on_pair(H, Ht, lambda both: [normalize_frame(both, n)[1].coeffs])
    return tuple(HermJet(jet.center, jet.holo_order, jet.anti_order, jet.rank, half)
                 for jet, half in zip((H, Ht), halves))


def pointwise_rank1_decide(H: HermJet, Ht: HermJet, n: int, tol: float) -> tuple[str, dict]:
    """Candidate-free decision for line bundles: normalize both frames at the
    center; contact holds iff the normalized jet Grams agree entrywise (the
    remaining scalar freedom is a phase, which cancels)."""
    if H.rank != 1 or Ht.rank != 1:
        raise ValueError("rank-1 decision procedure called on higher rank")
    hn, htn = _normalized_pair(H, Ht, n)
    g = jet_gram(hn, n)
    gt = jet_gram(htn, n)
    resid = _rel(g - gt, g, gt)
    return classify(resid, tol), {f"normalized-jet-gram(n={n})": resid}


def pointwise_normalized_decide(
    H: HermJet, Ht: HermJet, n: int, tol: float, seed: int = 0
) -> tuple[str, dict]:
    """Candidate-free decision for any rank: in normalized frames a jet
    isometry must be block diagonal with unitary corner A0, so contact holds
    iff some unitary intertwines all normalized jet-Gram blocks."""
    if H.rank == 1:
        return pointwise_rank1_decide(H, Ht, n, tol)
    hn, htn = _normalized_pair(H, Ht, n)
    mats_a = _jet_blocks(hn, n).reshape(-1, H.rank, H.rank)
    mats_b = _jet_blocks(htn, n).reshape(-1, H.rank, H.rank)
    _, resid = unitary_intertwiner(mats_a, mats_b, seed=seed,
                                   refuted_above=REFUTE_FACTOR * tol)
    return classify(resid, tol), {f"normalized-block-similarity(n={n})": resid}


# ---------------------------------------------------------------------------
# the transverse extension along Z


def extend_A_sequence(H: HermJet, Ht: HermJet, A0: np.ndarray, n: int) -> list[np.ndarray]:
    """Values A_1..A_n of the unique candidate extension of the corner map A0:

        A_l = d^l H H^-1 A0 - sum_{i=1}^l binom(l,i) A_{l-i} d^i Ht Ht^-1

    (all transverse z1-derivatives, evaluated at the common center)."""
    dim = H.dim
    h0inv = np.linalg.inv(H.value())
    ht0inv = np.linalg.inv(Ht.value())
    a0 = np.asarray(A0, dtype=np.complex128)
    b = [H.extract(_e1(dim, i)) @ h0inv @ a0 for i in range(1, n + 1)]
    dht = [Ht.extract(_e1(dim, i)) @ ht0inv for i in range(1, n + 1)]
    return binomial_solve(b, dht, matmul, x0=a0)


def extend_A_sequence_jets(
    H: HermJet, Ht: HermJet, A0: HermJet, n: int
) -> list[HermJet]:
    """Tangential jets (along Z) of A_1..A_n from the same recursion; inputs
    are restricted to the slice so the arithmetic happens in functions on Z."""
    hzinv = H.freeze_variable(0).inv()
    htzinv = Ht.freeze_variable(0).inv()
    a0 = A0.freeze_variable(0)

    def transverse(jet, i):
        for _ in range(i):
            jet = jet.deriv(0)
        return jet.freeze_variable(0)

    b = [transverse(H, i) * hzinv * a0 for i in range(1, n + 1)]
    dht = [transverse(Ht, i) * htzinv for i in range(1, n + 1)]
    return binomial_solve(b, dht, mul, x0=a0)


def _L_tables(H: HermJet, n: int) -> dict:
    """{j: [L_j^1, ..., L_j^n]} for the tangential directions j = 2..m."""
    return {j: [L_tensor(H, j, l) for l in range(1, n + 1)] for j in range(2, H.dim + 1)}


def holomorphy_conditions(
    H: HermJet, Ht: HermJet, A_seq: list[np.ndarray], n: int
) -> dict:
    """Residuals of the gluing conditions that make the extension holomorphic:

        L_j^l = sum_{i=1}^l binom(l,i) A_{l-i} Lt_j^i A0^-1

    for 1 <= l <= n and every tangential direction 2 <= j <= m.  A_seq is
    (A0, A1, ..., An)."""
    lh, lht = _L_tables(H, n), _L_tables(Ht, n)
    a0inv = np.linalg.inv(A_seq[0])
    out = {}
    for j in lh:
        rhss = binomial_sums(A_seq, lht[j], lambda a, lt: a @ lt @ a0inv)
        for l, (lhs, rhs) in enumerate(zip(lh[j], rhss), start=1):
            out[f"holomorphy(l={l},j={j})"] = _rel(lhs - rhs, lhs, rhs)
    return out


def geometric_conditions(H: HermJet, Ht: HermJet, A0: np.ndarray, n: int) -> dict:
    """Residuals of the curvature conditions intertwined by the corner map:

    * isometry of A0 itself: H = A0 Ht A0^*;
    * transverse tower: (K_{1 1bar})_{z1^r zbar1^t} A0 = A0 (Kt_{1 1bar})_{...}
      for r, t <= n-1;
    * mixed tower: (K_{1 jbar})_{z1^r} A0 = A0 (Kt_{1 jbar})_{z1^r} for
      r <= n-1 and tangential j >= 2.

    The transverse towers of the two bundles are built in one pass, H and
    Ht stacked on the point axis; each mixed tower once per bundle.
    """
    lh, lht = _L_tables(H, n), _L_tables(Ht, n)
    A0 = np.asarray(A0, dtype=np.complex128)
    out = {}
    h0, ht0 = H.value(), Ht.value()
    out["isometry"] = _rel(h0 - A0 @ ht0 @ _adjoint(A0), h0, ht0)
    towers = _on_pair(H, Ht, lambda both: [v for row in transverse_tower(both, n) for v in row])
    for k, (lhs, rhs) in enumerate(towers):
        r, t = divmod(k, n)
        out[f"transverse-curvature(r={r},t={t})"] = _rel(lhs @ A0 - A0 @ rhs, lhs, rhs)
    for j in lh:
        mixed, mixed_t = K1j_tower(H, lh[j]), K1j_tower(Ht, lht[j])
        for r in range(n):
            lhs, rhs = mixed[r], mixed_t[r]
            out[f"mixed-curvature(j={j},r={r})"] = _rel(lhs @ A0 - A0 @ rhs, lhs, rhs)
    return out


def tangential_curvature_conditions(H: HermJet, Ht: HermJet) -> dict:
    """Equality of the purely tangential curvature components (rank 1 only):
    a necessary condition for a holomorphic isometric corner map to exist."""
    out = {}
    for i in range(2, H.dim + 1):
        for j in range(2, H.dim + 1):
            lhs = curvature(H, i, j).value()
            rhs = curvature(Ht, i, j).value()
            out[f"tangential-curvature(i={i},j={j})"] = _rel(lhs - rhs, lhs, rhs)
    return out


# ---------------------------------------------------------------------------
# problems and reports


@dataclass(frozen=True)
class ContactProblem:
    """A contact question between two bundles at a set of points."""

    bundle_a: BundleSpec
    bundle_b: BundleSpec
    order: int
    mode: str = "pointwise"  # "pointwise" | "along-z"
    points: tuple = ((0.0,),)
    candidate: object = None  # grid of texts or Exprs, or None
    tolerance: float = 1e-8
    seed: int = 0
    # the candidate grid compiled once, evaluated at every point
    _candidate_program: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bundle_a.dimension != self.bundle_b.dimension:
            raise ValueError("bundles live over different ambient dimensions")
        if self.bundle_a.rank != self.bundle_b.rank:
            raise ValueError("bundles have different ranks")
        if self.order < 1:
            raise ValueError("contact order must be >= 1")
        if self.mode not in ("pointwise", "along-z"):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(
            self, "points", tuple(tuple(complex(c) for c in p) for p in self.points)
        )
        if self.mode == "along-z":
            for p in self.points:
                if abs(p[0]) > 1e-12:
                    raise ValueError(f"point {p} does not lie on the slice z1 = 0")
        object.__setattr__(self, "candidate", _normalize_candidate(self.candidate, self.dim))
        if isinstance(self.candidate, list):
            program = JetProgram([e for row in self.candidate for e in row])
            object.__setattr__(self, "_candidate_program", program)

    @property
    def dim(self) -> int:
        return self.bundle_a.dimension

    @property
    def rank(self) -> int:
        return self.bundle_a.rank

    def candidate_jet(self, center, order: int) -> HoloJet | None:
        """The candidate's jet at `center`, one point or P points, checked
        for finite coefficients; an error names the first failing point."""
        if self.candidate is None:
            return None
        # finite inputs can overflow; such a point is refused by name below
        with np.errstate(all="ignore"):
            jet = self._candidate_program.matrix_jet(len(self.candidate), center, order, 0)
            finite = np.ravel(np.isfinite(jet.coeffs).all(axis=(-4, -3, -2, -1)))
        failing = np.flatnonzero(~finite)
        if failing.size:
            points = list(center) if point_axis(center) else [center]
            raise ValueError(f"candidate jet is not finite at {points[failing[0]]}")
        return jet.holo_part()


def _normalize_candidate(cand, dim: int):
    if cand is None:
        return None
    if not isinstance(cand, list):
        raise TypeError("candidate must be None or a grid (list of rows) of expressions")
    return [
        [_candidate_entry(e, dim, f"candidate[{i}][{j}]") for j, e in enumerate(row)]
        for i, row in enumerate(cand)
    ]


def _candidate_entry(entry, dim: int, where: str):
    """One candidate entry, parsed and checked holomorphic in z1..z`dim`; a
    parse, nesting, holomorphy or variable error is prefixed with `where`."""
    try:
        expr = parse_kernel(entry) if isinstance(entry, str) else entry
        check_holomorphic(expr, dim)
    except ParseError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    return expr


@dataclass
class PointReport:
    point: tuple
    verdict: str
    residuals: dict = field(default_factory=dict)
    route_verdicts: dict = field(default_factory=dict)
    route_agreement: bool = True

    def as_dict(self) -> dict:
        return {
            "point": [[c.real, c.imag] for c in self.point],
            "verdict": self.verdict,
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
            "route_verdicts": dict(sorted(self.route_verdicts.items())),
            "route_agreement": self.route_agreement,
        }


@dataclass
class ContactReport:
    mode: str
    order: int
    tolerance: float
    points: list
    verdict: str
    route_agreement: bool

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "order": self.order,
            "tolerance": self.tolerance,
            "points": [p.as_dict() for p in self.points],
            "verdict": self.verdict,
            "route_agreement": self.route_agreement,
        }


def _assemble(mode, order, tol, point_reports) -> ContactReport:
    verdict = combine_verdicts(p.verdict for p in point_reports)
    agree = all(p.route_agreement for p in point_reports)
    return ContactReport(mode, order, tol, list(point_reports), verdict, agree)


# ---------------------------------------------------------------------------
# drivers


def _pointwise_at(problem: ContactProblem, point) -> PointReport:
    n = problem.order
    tol = problem.tolerance
    # both routes read derivatives of orders <= n in z and in zbar only
    h = problem.bundle_a.gram_jet(point, n, n)
    ht = problem.bundle_b.gram_jet(point, n, n)
    residuals = {}
    routes = {}

    decide_verdict, decide_res = pointwise_normalized_decide(
        h, ht, n, tol, seed=problem.seed
    )
    residuals.update(decide_res)
    routes["normalized-decide"] = decide_verdict

    cand = problem.candidate_jet(point, n)
    if cand is not None:
        cand_verdict, cand_res = pointwise_verify(h, ht, cand, n, tol)
        residuals.update(cand_res)
        routes["candidate-verify"] = cand_verdict
        verdict = combine_verdicts([decide_verdict, cand_verdict])
        # a failing candidate does not refute contact itself, but the two
        # routes are still reported and compared
        agreement = decide_verdict == cand_verdict
    else:
        verdict = decide_verdict
        agreement = True
    return PointReport(tuple(point), verdict, residuals, routes, agreement)


def _alongz_at(problem: ContactProblem, points) -> list[PointReport]:
    """Both routes and the spot check at every point of the grid `points` on
    Z, each as one pass over the whole grid; one report per point."""
    n = problem.order
    tol = problem.tolerance
    # every quantity below reads derivatives of orders <= n in z and in zbar
    h = problem.bundle_a.gram_jet(points, n, n)
    ht = problem.bundle_b.gram_jet(points, n, n)

    shared = {}  # existence conditions for the corner map, counted in both routes

    if problem.rank == 1:
        a0 = np.sqrt(h.value()[..., :1, :1].real / ht.value()[..., :1, :1].real)
        shared.update(tangential_curvature_conditions(h, ht))
        cand_jet = None
    else:
        cand_jet = problem.candidate_jet(points, n)
        if cand_jet is None:
            raise ValueError(
                "a candidate corner map A0 is required for rank >= 2 bundles"
            )
        a0 = cand_jet.value()

    # analytic route: unique extension + transverse block-Gram isometry + gluing
    a_seq = [a0] + extend_A_sequence(h, ht, a0, n)
    lam = pascal_expand(np.stack(a_seq, axis=-3))
    g = jet_gram(h, n, "z1")
    gt = jet_gram(ht, n, "z1")
    analytic = {f"jet-gram-isometry(n={n})": _rel(g - lam @ gt @ _adjoint(lam), g, gt)}
    analytic.update(holomorphy_conditions(h, ht, a_seq, n))
    analytic.update(shared)

    # geometric route: curvature towers intertwined by the corner map
    geometric = geometric_conditions(h, ht, a0, n)
    geometric.update(shared)

    # spot-check: contact along Z implies point-wise contact here (full jets)
    if problem.rank == 1:
        spot_verdicts, spot_res = pointwise_rank1_decide(h, ht, n, tol)
    else:
        full_cand = _full_candidate_from_slice(h, ht, cand_jet, n)
        spot_verdicts, spot_res = pointwise_verify(h, ht, full_cand, n, tol)
    spot = {f"pointwise-spot-check:{k}": v for k, v in spot_res.items()}

    reports = []
    for k, point in enumerate(points):
        analytic_k = _at_point(analytic, k)
        geometric_k = _at_point(geometric, k)
        analytic_verdict = classify(worst_residual(analytic_k.values()), tol)
        geometric_verdict = classify(worst_residual(geometric_k.values()), tol)
        residuals = {**analytic_k, **geometric_k, **_at_point(spot, k)}
        routes = {
            "analytic": analytic_verdict,
            "geometric": geometric_verdict,
            "pointwise-spot-check": spot_verdicts[k],
        }
        verdict = combine_verdicts(routes.values())
        agreement = analytic_verdict == geometric_verdict
        reports.append(PointReport(tuple(point), verdict, residuals, routes, agreement))
    return reports


def _at_point(residuals: dict, k: int) -> dict:
    """The residuals of grid point k; a scalar residual holds at every point."""
    return {name: float(v[k] if np.ndim(v) else v) for name, v in residuals.items()}


def _full_candidate_from_slice(
    h: HermJet, ht: HermJet, a0_jet: HoloJet, n: int
) -> HoloJet:
    """Assemble the full multi-index candidate jet at a point of Z from the
    tangential jets of the extension sequence: d^(i1, I') A = d^I' A_{i1}.

    Only the beta = 0 coefficients of the A_i jets are read, and the beta = 0
    coefficients of products, inverses, z-derivatives and `freeze_variable`
    depend only on the beta = 0 coefficients of their operands.  The
    sequence therefore runs on the Gram jets truncated to orders (n, 0) and
    on A0 at anti order 0: the same values, at the holomorphic orders read."""
    dim = h.dim
    a_jets = [a0_jet.freeze_variable(0)]
    a_jets += extend_A_sequence_jets(h.truncate(n, 0), ht.truncate(n, 0), a_jets[0], n)
    table = index_table(dim, n)
    coeffs = np.zeros(h.points + (len(table), 1, h.rank, h.rank), dtype=np.complex128)
    pos = index_positions(dim, n)
    for idx in table:
        k = idx[0]
        tang = (0,) + idx[1:]
        coeffs[..., pos[idx], 0, :, :] = a_jets[k].extract(tang) / multi_index_factorial(idx)
    return HoloJet(h.center, n, h.rank, coeffs)


# Grid points per pass of `_alongz_at`.  A pass holds jets for each of its
# points, so a grid runs in slices of this many: memory stays that of one
# slice whatever the grid size, and the per-pass Python work (the Gram
# programs, the towers, the report loop) is paid once per slice, not once
# per point.  8 covers a 4x2 grid in one pass; at dim 2, order 3, rank 2
# such a pass allocates about 1.5 MB at its peak (tracemalloc), since the
# product kernel holds no array beyond its two gathers and one block row.
_GRID_SLICE = 8


def alongZ_check(problem: ContactProblem) -> ContactReport:
    """Run both verification routes at every grid point on Z, a slice of
    grid points per pass.  An error is the one the first failing point raises
    when the points run one at a time, in grid order."""
    reports = []
    points = problem.points
    for start in range(0, len(points), _GRID_SLICE):
        part = points[start : start + _GRID_SLICE]
        try:
            reports += _alongz_at(problem, part)
        except Exception:
            for point in part:
                _alongz_at(problem, (point,))
            raise
    return _assemble("along-z", problem.order, problem.tolerance, reports)


def pointwise_check(problem: ContactProblem) -> ContactReport:
    reports = [_pointwise_at(problem, p) for p in problem.points]
    return _assemble("pointwise", problem.order, problem.tolerance, reports)


def check_problem(problem: ContactProblem) -> ContactReport:
    if problem.mode == "along-z":
        return alongZ_check(problem)
    return pointwise_check(problem)
