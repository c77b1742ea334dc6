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

A candidate frame change, once it is rank x rank, is read by
:func:`kernelexpr.read_grid` under a Gram grid's rules, and holomorphic.
:func:`check_problem` runs either setting once per slice of points
(:func:`run_in_slices`), on Gram jets with a leading point axis (see
:mod:`jetcore`); every residual below is then an array with one value per
point, and a verdict list has one entry per point.

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
    curvature_table,
    normalize_frame,
    transverse_tower,
)
from .jetcore import (
    HermJet,
    HoloJet,
    OrderError,
    index_table,
    multi_index_factorial,
    unit_index,
)
from .kernelexpr import BundleSpec, JetProgram, read_grid
from .pascal import (
    binomial_solve,
    binomial_sums,
    multi_lambda_from_jet,
    pascal_expand,
)
from .simeq import unitary_intertwiner

__all__ = [
    "ContactProblem",
    "GramPair",
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
    "run_in_slices",
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
    """The largest residual, or NaN if any is not finite (0 if there are
    none); of residual arrays with one value per point, one per point.

    Python's ``max`` drops a NaN that follows a finite value, which would let
    an unevaluated residual pass as verified; NaN classifies as inconclusive.
    """
    worst = np.max(np.broadcast_arrays(0.0, *residuals), axis=0)
    return np.where(np.isfinite(worst), worst, np.nan)[()]


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
def _jet_gram_plan(dim: int, n: int) -> np.ndarray:
    """The factorial weights alpha! beta! that turn the normalized
    coefficients of the jet-Gram blocks into derivatives."""
    # products in Python ints, rounded once: fixed-width ints would wrap
    fact = [multi_index_factorial(b) for b in index_table(dim, n)]
    return np.array([[fa * fb for fb in fact] for fa in fact], dtype=float)


def _jet_blocks(H: HermJet, n: int) -> np.ndarray:
    """The blocks d^I dbar^J H at the center, shape (*P, N, N, rank, rank),
    with I and J in the order of `jet_gram`'s rows and columns."""
    if n > min(H.holo_order, H.anti_order):
        raise OrderError(
            f"jet Gram of order {n} needs jet orders >= {n}, "
            f"got ({H.holo_order}, {H.anti_order})"
        )
    weight = _jet_gram_plan(H.dim, n)
    # graded tables make the order-n table a prefix of the jet's own tables
    size = len(weight)
    return H.coeffs[..., :size, :size, :, :] * weight[:, :, None, None]


def jet_gram(H: HermJet, n: int) -> np.ndarray:
    """Block Gram matrix of the n-jet frame.

    Rows and columns run over all multi-indices |I| <= n in the fixed graded
    order (z1-major within a degree); block (I, J) is d^I dbar^J H at the
    center.  The Gram of the transverse derivatives 0..n alone is that of
    the restriction to the z1-line, ``jet_gram(H.restrict((0,)), n)``.
    """
    blocks = _jet_blocks(H, n)
    size = blocks.shape[-3] * H.rank
    return np.swapaxes(blocks, -3, -2).reshape(blocks.shape[:-4] + (size, size))


# ---------------------------------------------------------------------------
# the two bundles' Gram jets as one


@dataclass(frozen=True)
class GramPair:
    """The Gram jets H and Ht of two bundles as one jet, H's points then
    Ht's on the point axis -- the pair jet ``BundleSpec.gram_jet`` makes
    with a partner.  Each per-bundle quantity is formed once on it, for
    both bundles, and split; per point that is bit for bit what each bundle
    alone gives.  ``points`` is the point axis of each half: () at one
    center."""

    jet: HermJet
    points: tuple

    @classmethod
    def of(cls, H: HermJet, Ht: HermJet) -> "GramPair":
        """The pair of two jets of the same orders and point axis."""
        center = H.center + Ht.center if H.points else (H.center, Ht.center)
        coeffs = np.concatenate([H.coeffs.reshape((-1,) + H.coeffs.shape[-4:]),
                                 Ht.coeffs.reshape((-1,) + Ht.coeffs.shape[-4:])])
        return cls(HermJet(center, H.holo_order, H.anti_order, H.rank, coeffs), H.points)

    def split(self, x) -> tuple:
        """H's part and Ht's part of `x`, an array whose leading axis is the
        pair's point axis."""
        halves = np.reshape(x, (2,) + self.points + np.shape(x)[1:])
        return halves[0], halves[1]

    def split_jet(self, jet: HermJet) -> tuple:
        """H's part and Ht's part of a jet formed on the pair jet."""
        return tuple(jet.untiled(2, self.points))


# ---------------------------------------------------------------------------
# point-wise checks


def pointwise_verify(
    pair: GramPair, candidate: HoloJet, n: int, tol: float
) -> tuple[str, dict]:
    """Certificate check: the candidate's jet transition matrix is an isometry
    of the full multi-index jet Grams."""
    lam = multi_lambda_from_jet(candidate.truncate(n), n)
    g, gt = pair.split(jet_gram(pair.jet, n))
    resid = _rel(g - lam @ gt @ _adjoint(lam), g, gt)
    residuals = {f"jet-gram-isometry(n={n})": resid}
    return classify(resid, tol), residuals


def _normalized_pair(pair: GramPair, n: int) -> GramPair:
    """The normalized Grams of both bundles from one normalize_frame."""
    return GramPair(normalize_frame(pair.jet, n)[1], pair.points)


def pointwise_rank1_decide(pair: GramPair, n: int, tol: float) -> tuple[str, dict]:
    """Candidate-free decision for line bundles: normalize both frames at the
    center; contact holds iff the normalized jet Grams agree entrywise (the
    remaining scalar freedom is a phase, which cancels)."""
    if pair.jet.rank != 1:
        raise ValueError("rank-1 decision procedure called on higher rank")
    g, gt = pair.split(jet_gram(_normalized_pair(pair, n).jet, n))
    resid = _rel(g - gt, g, gt)
    return classify(resid, tol), {f"normalized-jet-gram(n={n})": resid}


def pointwise_normalized_decide(
    pair: GramPair, n: int, tol: float, seed: int = 0
) -> tuple[str, dict]:
    """Candidate-free decision for any rank: in normalized frames a jet
    isometry must be block diagonal with unitary corner A0, so contact holds
    iff some unitary intertwines all normalized jet-Gram blocks; at P
    centers, a solve, a residual and a verdict per point."""
    rank = pair.jet.rank
    if rank == 1:
        return pointwise_rank1_decide(pair, n, tol)
    blocks = _jet_blocks(_normalized_pair(pair, n).jet, n)
    # one solve per point, on that point's blocks
    mats = [half.reshape(int(np.prod(pair.points)), -1, rank, rank)
            for half in pair.split(blocks)]
    resid = np.array([unitary_intertwiner(a, b, seed=seed, refuted_above=REFUTE_FACTOR * tol)[1]
                      for a, b in zip(*mats)]).reshape(pair.points)[()]  # a scalar at one center
    return classify(resid, tol), {f"normalized-block-similarity(n={n})": resid}


# ---------------------------------------------------------------------------
# the transverse extension along Z


def extend_A_sequence(pair: GramPair, A0: np.ndarray, n: int) -> list[np.ndarray]:
    """Values A_1..A_n of the unique candidate extension of the corner map A0:

        A_l = d^l H H^-1 A0 - sum_{i=1}^l binom(l,i) A_{l-i} d^i Ht Ht^-1

    (all transverse z1-derivatives, evaluated at the common center)."""
    jet = pair.jet
    inverse = np.linalg.inv(jet.value())
    a0 = np.asarray(A0, dtype=np.complex128)
    # d^i H H^-1 and d^i Ht Ht^-1, both from one product on the pair
    b, dht = zip(*(pair.split(jet.extract(unit_index(jet.dim, 0, i)) @ inverse)
                   for i in range(1, n + 1)))
    return binomial_solve([x @ a0 for x in b], list(dht), matmul, x0=a0)


def extend_A_sequence_jets(pair: GramPair, A0: HermJet, n: int) -> list[HermJet]:
    """Jets on Z = {z1 = 0} of A_0..A_n from the same recursion, the
    arithmetic done in functions on Z: the pair and A0 are restricted to Z
    once, and each transverse derivative d^i/dz1^i is taken on the full jet
    and then restricted.  The results are jets in z2..zm, of dim 0 when
    m = 1 and Z is a point."""
    on_z = tuple(range(1, pair.jet.dim))
    inverse = pair.jet.restrict(on_z).inv()
    a0 = A0.restrict(on_z)
    b, dht = [], []
    transverse = pair.jet
    for _ in range(n):
        transverse = transverse.deriv(0)
        # d^i H H^-1 and d^i Ht Ht^-1 on Z, both from one product on the pair
        h_part, ht_part = pair.split_jet(transverse.restrict(on_z) * inverse)
        b.append(h_part * a0)
        dht.append(ht_part)
    return [a0] + binomial_solve(b, dht, mul, x0=a0)


def _L_tables(H: HermJet, n: int) -> dict:
    """{j: [L_j^1, ..., L_j^n]} for the tangential directions j = 2..m; of a
    pair jet, the tables of both bundles at once."""
    return {j: [L_tensor(H, j, l) for l in range(1, n + 1)] for j in range(2, H.dim + 1)}


def holomorphy_conditions(
    pair: GramPair, A_seq: list[np.ndarray], n: int, tables: dict
) -> dict:
    """Residuals of the gluing conditions that make the extension holomorphic:

        L_j^l = sum_{i=1}^l binom(l,i) A_{l-i} Lt_j^i A0^-1

    for 1 <= l <= n and every tangential direction 2 <= j <= m.  A_seq is
    (A0, A1, ..., An) and `tables` is ``_L_tables(pair.jet, n)``."""
    a0inv = np.linalg.inv(A_seq[0])
    out = {}
    for j, ls in tables.items():
        lh, lht = zip(*(pair.split(l) for l in ls))
        rhss = binomial_sums(A_seq, list(lht), lambda a, lt: a @ lt @ a0inv)
        for l, (lhs, rhs) in enumerate(zip(lh, rhss), start=1):
            out[f"holomorphy(l={l},j={j})"] = _rel(lhs - rhs, lhs, rhs)
    return out


def geometric_conditions(pair: GramPair, A0: np.ndarray, n: int, tables: dict) -> dict:
    """Residuals of the curvature conditions intertwined by the corner map:

    * isometry of A0 itself: H = A0 Ht A0^*;
    * transverse tower: (K_{1 1bar})_{z1^r zbar1^t} A0 = A0 (Kt_{1 1bar})_{...}
      for r, t <= n-1;
    * mixed tower: (K_{1 jbar})_{z1^r} A0 = A0 (Kt_{1 jbar})_{z1^r} for
      r <= n-1 and tangential j >= 2.

    Each tower is built once for both bundles, on the pair jet; `tables` is
    ``_L_tables(pair.jet, n)``.
    """
    A0 = np.asarray(A0, dtype=np.complex128)
    out = {}
    h0, ht0 = pair.split(pair.jet.value())
    out["isometry"] = _rel(h0 - A0 @ ht0 @ _adjoint(A0), h0, ht0)
    tower = [v for row in transverse_tower(pair.jet, n) for v in row]
    for k, (lhs, rhs) in enumerate(pair.split(v) for v in tower):
        r, t = divmod(k, n)
        out[f"transverse-curvature(r={r},t={t})"] = _rel(lhs @ A0 - A0 @ rhs, lhs, rhs)
    for j, ls in tables.items():
        for r, value in enumerate(K1j_tower(pair.jet, ls)):
            lhs, rhs = pair.split(value)
            out[f"mixed-curvature(j={j},r={r})"] = _rel(lhs @ A0 - A0 @ rhs, lhs, rhs)
    return out


def tangential_curvature_conditions(pair: GramPair) -> dict:
    """Equality of the purely tangential curvature components (rank 1 only):
    a necessary condition for a holomorphic isometric corner map to exist."""
    tangential = range(2, pair.jet.dim + 1)
    _, k = curvature_table(pair.jet, tangential)
    out = {}
    for i in tangential:
        for j in tangential:
            lhs, rhs = pair.split(k[i][j].value())
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
        cand, rank = self.candidate, self.rank
        if cand is None:
            return
        if not isinstance(cand, list):
            raise TypeError("candidate must be None or a grid (list of rows) of expressions")
        if len(cand) != rank or any(len(row) != rank for row in cand):
            raise ValueError(f"candidate must be a {rank} x {rank} grid (the bundles' rank is "
                             f"{rank}); got rows of lengths {[len(row) for row in cand]}")
        cand = read_grid(cand, self.dim, "candidate", holomorphic=True)
        object.__setattr__(self, "candidate", cand)
        program = JetProgram([e for row in cand for e in row])
        object.__setattr__(self, "_candidate_program", program)

    @property
    def dim(self) -> int:
        return self.bundle_a.dimension

    @property
    def rank(self) -> int:
        return self.bundle_a.rank

    def candidate_jet(self, points, order: int) -> HoloJet | None:
        """The candidate's jet at the P points of `points`, checked for finite
        coefficients; an error names the first failing point."""
        if self.candidate is None:
            return None
        # finite inputs can overflow; such a point is refused by name below
        with np.errstate(all="ignore"):
            jet = self._candidate_program.matrix_jet(len(self.candidate), points, order, 0)
            failing = np.flatnonzero(~np.isfinite(jet.coeffs).all(axis=(-4, -3, -2, -1)))
        if failing.size:
            raise ValueError(f"candidate jet is not finite at {points[failing[0]]}")
        return jet.holo_part()


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


# ---------------------------------------------------------------------------
# drivers


def _gram_pair(problem: ContactProblem, points, n: int) -> GramPair:
    """Both bundles' Gram jets at the points of `points`, orders (n, n),
    from one run of their merged program."""
    return GramPair(problem.bundle_a.gram_jet(points, n, n, problem.bundle_b), (len(points),))


def _pointwise_at(problem: ContactProblem, points) -> list[PointReport]:
    """Both point-wise routes at every point of `points`, each as one pass
    over all of them; one report per point."""
    n, tol = problem.order, problem.tolerance
    # both routes read derivatives of orders <= n in z and in zbar only
    pair = _gram_pair(problem, points, n)
    routes = {"normalized-decide": pointwise_normalized_decide(pair, n, tol, seed=problem.seed)}
    cand = problem.candidate_jet(points, n)
    if cand is not None:
        routes["candidate-verify"] = pointwise_verify(pair, cand, n, tol)
    # a failing candidate does not refute contact itself, but the two routes
    # are still reported and compared
    return _point_reports(points, routes, compared=tuple(routes))


def _alongz_at(problem: ContactProblem, points) -> list[PointReport]:
    """Both routes and the spot check at every point of the grid `points` on
    Z, each as one pass over the whole grid; one report per point.  Each
    per-bundle quantity is formed once, on the pair jet; the routes read
    these shared jets and values, never each other's results."""
    n = problem.order
    tol = problem.tolerance
    # every quantity below reads derivatives of orders <= n in z and in zbar
    pair = _gram_pair(problem, points, n)

    shared = {}  # existence conditions for the corner map, counted in both routes

    if problem.rank == 1:
        h0, ht0 = pair.split(pair.jet.value())
        a0 = np.sqrt(h0[..., :1, :1].real / ht0[..., :1, :1].real)
        shared.update(tangential_curvature_conditions(pair))
        cand_jet = None
    else:
        cand_jet = problem.candidate_jet(points, n)
        if cand_jet is None:
            raise ValueError(
                "a candidate corner map A0 is required for rank >= 2 bundles"
            )
        a0 = cand_jet.value()
        _check_invertible(a0, points)
    tables = _L_tables(pair.jet, n)  # read by both routes

    # analytic route: unique extension + transverse block-Gram isometry + gluing
    a_seq = [a0] + extend_A_sequence(pair, a0, n)
    lam = pascal_expand(np.stack(a_seq, axis=-3))
    g, gt = pair.split(jet_gram(pair.jet.restrict((0,)), n))
    analytic = {f"jet-gram-isometry(n={n})": _rel(g - lam @ gt @ _adjoint(lam), g, gt)}
    analytic.update(holomorphy_conditions(pair, a_seq, n, tables))
    analytic.update(shared)

    # geometric route: curvature towers intertwined by the corner map
    geometric = geometric_conditions(pair, a0, n, tables)
    geometric.update(shared)

    # spot-check: contact along Z implies point-wise contact here (full jets)
    if problem.rank == 1:
        spot_verdicts, spot_res = pointwise_rank1_decide(pair, n, tol)
    else:
        full_cand = _full_candidate_from_slice(pair, cand_jet, n)
        spot_verdicts, spot_res = pointwise_verify(pair, full_cand, n, tol)
    spot = {f"pointwise-spot-check:{k}": v for k, v in spot_res.items()}

    routes = {
        "analytic": (classify(worst_residual(analytic.values()), tol), analytic),
        "geometric": (classify(worst_residual(geometric.values()), tol), geometric),
        "pointwise-spot-check": (spot_verdicts, spot),
    }
    return _point_reports(points, routes, compared=("analytic", "geometric"))


def _check_invertible(a0: np.ndarray, points) -> None:
    """Refuse a candidate whose value at some point is a matrix that
    ``np.linalg.inv`` cannot invert (the gluing conditions divide by it),
    naming the first such point.  slogdet's sign is 0 exactly where LU
    meets the exact zero pivot on which ``inv`` raises."""
    singular = np.flatnonzero(np.linalg.slogdet(a0)[0] == 0)
    if singular.size:
        raise ValueError(f"candidate value is singular at {points[singular[0]]}")


def _point_reports(points, routes: dict, compared: tuple) -> list[PointReport]:
    """One report per point from `routes`, {route: (verdict per point,
    residuals)}; the verdicts of the routes named in `compared` must agree."""
    reports = []
    for k, point in enumerate(points):
        verdicts = {name: verdict[k] for name, (verdict, _) in routes.items()}
        residuals = {}  # a scalar residual holds at every point
        for _, res in routes.values():
            residuals.update((name, float(v[k] if np.ndim(v) else v)) for name, v in res.items())
        agreement = len({verdicts[name] for name in compared}) == 1
        reports.append(PointReport(tuple(point), combine_verdicts(verdicts.values()),
                                   residuals, verdicts, agreement))
    return reports


def _full_candidate_from_slice(pair: GramPair, a0_jet: HoloJet, n: int) -> HoloJet:
    """Assemble the full multi-index candidate jet at a point of Z from the
    jets on Z of the extension sequence: d^(i1, I') A = d^I' A_{i1}, read
    from the jet of A_{i1} in z2..zm at the multi-index I'.

    Only the beta = 0 coefficients of the A_i jets are read, and the beta = 0
    coefficients of products, inverses, z-derivatives and restrictions
    depend only on the beta = 0 coefficients of their operands.  The
    sequence therefore runs on the Gram jets truncated to orders (n, 0) and
    on A0 at anti order 0: the same values, at the holomorphic orders read."""
    a_jets = extend_A_sequence_jets(GramPair(pair.jet.truncate(n, 0), pair.points), a0_jet, n)
    table = index_table(pair.jet.dim, n)
    rank = a0_jet.rank
    coeffs = np.zeros(pair.points + (len(table), 1, rank, rank), dtype=np.complex128)
    for k, idx in enumerate(table):
        coeffs[..., k, 0, :, :] = a_jets[idx[0]].extract(idx[1:]) / multi_index_factorial(idx)
    return HoloJet(a0_jet.center, n, rank, coeffs)


# Points per pass of every Gram-jet task (pointwise, along-z, curvature,
# verify-recursions; :func:`run_in_slices`).  A pass holds jets for each of
# its points: memory stays that of one slice whatever the point count, and
# the per-pass Python work (the Gram programs, the connection and curvature
# jets, the towers, the report loop) is paid once per slice, not per point.
# 8 covers a 4x2 grid in one pass; at dim 2, order 3, rank 2 an along-Z pass
# allocates about 1.5 MB at its peak (tracemalloc), since the product kernel
# holds no array beyond its two gathers and one block row.
_GRID_SLICE = 8


def run_in_slices(points, run) -> list:
    """The results of `run(part)`, one per point of `part`, over the slices
    of `points`.  A failing slice runs again a point at a time, so an error
    is the one the first failing point raises alone, whatever the slicing.
    This is the one place where a failing run is made again: at one point
    the error is that of the first step that fails, in the order the run
    takes its steps."""
    results = []
    for start in range(0, len(points), _GRID_SLICE):
        part = points[start : start + _GRID_SLICE]
        try:
            results += run(part)
        except Exception:
            for point in part:
                run((point,))
            raise
    return results


def check_problem(problem: ContactProblem) -> ContactReport:
    """The routes of the problem's mode at its points, a slice of points per pass."""
    at = _alongz_at if problem.mode == "along-z" else _pointwise_at
    reports = run_in_slices(problem.points, lambda part: at(problem, part))
    verdict = combine_verdicts(p.verdict for p in reports)
    agree = all(p.route_agreement for p in reports)
    return ContactReport(problem.mode, problem.order, problem.tolerance, reports, verdict, agree)
