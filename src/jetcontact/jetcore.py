"""Truncated multivariate Taylor-series (jet) arithmetic over complex matrices.

A jet stores the Taylor coefficients of a matrix-valued function at a center
point, truncated by *total* order.  A :class:`HermJet` expands a
real-analytic function in the pair ``(z - z0, conj(z) - conj(z0))``, indexed
by a pair of multi-indices and truncated to orders (p, q) in z and conj(z).
A holomorphic function is the case q = 0: :class:`HoloJet` is the HermJet
subtype of anti order 0, with the same coefficients and the same methods.

Coefficients are stored in normalized form, i.e. divided by the multi-index
factorials, so that multiplication of jets is plain coefficient convolution.
Derivative values are recovered on extraction by multiplying the factorials
back (orders stay small enough that this is exact in double precision).

Multi-indices are plain tuples of non-negative ints.  All tables enumerate
them in graded order (total degree first, then z1-major within a degree),
which makes truncation to a lower order a prefix slice.

One graded kernel does all the arithmetic:

* Products.  A single cached plan per (dim, p, q) and operand layout lists
  the flat positions, in each operand's (Na * Nb) coefficient axis, of every
  pair of coefficients whose multi-index pairs add up to an output position,
  grouped by output.  Both operands are gathered straight from their own
  coefficients into a pair-last (r, r, pairs) layout, the r x r blocks are
  contracted with r^3 vector multiply-adds (one elementwise product at rank
  1) written back into the left gather, and the groups are segment-summed.
  A product thus allocates the two gathers plus one block row, not a third
  gather-sized array.
* Products with a polynomial factor.  A jet may carry a degree bound (a, b)
  that its maker declares (:meth:`HermJet.with_degree`; the Gram programs
  of :mod:`kernelexpr` do so for their polynomial ops): its coefficients
  vanish for |alpha| > a or |beta| > b.  The same plan function then keeps
  only the pairs whose position in that factor lies inside the bound, so a
  product costs in proportion to the polynomial factor's support -- at dim
  2, orders (3, 3), a degree-(1, 0) factor gathers 220 pairs, not 1,225.
  No operation infers or passes on a bound: every result has none.
* Inverse, exp, log and real powers.  Each is a forward substitution over
  the total degree d = |alpha| + |beta|: the coefficients of degree d follow
  from those of lower degree through the product plan restricted to the
  pairs whose output has degree d and whose left factor is not the constant
  term -- about one product's work.  The recurrences are the Taylor-mode
  ones (Griewank & Walther, *Evaluating Derivatives*, ch. 13), read off the
  Euler derivation D f = sum deg(k) f_k.

A jet may also hold one expansion per point of a grid: its center is then a
tuple of P centers and its coefficients carry a leading point axis,
``(P, Na, Nb, r, r)``, the one layout of every jet.  Every operation runs
over all P points in one numpy pass (the vector mode of Taylor arithmetic):
the plans depend only on the shape, the point axis rides inside each
gathered block, and the per-point matrix operations are stacked.  The
arithmetic per point is the same as for a jet at that point alone, bit for
bit.  Jets at one point have no point axis.

A jet restricts to a coordinate subspace through its center
(:meth:`HermJet.restrict`): the result is a jet in the kept variables only,
with the coefficients whose other exponents are zero.  Restriction is a
ring map, so a computation that reads only derivatives in some variables
(the transverse curvature tower reads z1 and zbar1 only) runs on the
smaller table with the same values.

All jets are immutable after construction; every operation returns a new jet.
Binary operations truncate to the minimum operand orders.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as _cartesian
from math import comb, factorial

import numpy as np

__all__ = [
    "DimensionError",
    "SingularityError",
    "OrderError",
    "HermJet",
    "HoloJet",
    "index_table",
    "index_positions",
    "point_axis",
    "multi_index_order",
    "multi_index_factorial",
    "multi_index_binom",
]


class DimensionError(ValueError):
    """Mismatched centers, ranks or ambient dimensions."""


class SingularityError(ArithmeticError):
    """Inversion, division, log or real power hit a singular constant term."""


class OrderError(ValueError):
    """A derivative index exceeds the truncation order of the jet."""


# ---------------------------------------------------------------------------
# multi-index tables


def multi_index_order(alpha) -> int:
    return sum(alpha)


def multi_index_factorial(alpha) -> int:
    out = 1
    for a in alpha:
        out *= factorial(a)
    return out


def multi_index_binom(alpha, beta) -> int:
    """Product of per-component binomials; 0 unless beta <= alpha componentwise."""
    out = 1
    for a, b in zip(alpha, beta):
        if b > a:
            return 0
        out *= comb(a, b)
    return out


@lru_cache(maxsize=None)
def index_table(dim: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices of length `dim` with total order <= `order`, graded."""
    if dim < 1 or order < 0:
        raise ValueError(f"invalid index table request dim={dim} order={order}")
    idx = [i for i in _cartesian(range(order + 1), repeat=dim) if sum(i) <= order]
    idx.sort(key=lambda i: (sum(i), tuple(-c for c in i)))
    return tuple(idx)


@lru_cache(maxsize=None)
def index_positions(dim: int, order: int) -> dict:
    return {i: k for k, i in enumerate(index_table(dim, order))}


@lru_cache(maxsize=None)
def table_size(dim: int, order: int) -> int:
    return comb(order + dim, dim)


@lru_cache(maxsize=None)
def _axis_sums(dim: int, order: int):
    """(k, i, j) for all table positions with table[i] + table[j] = table[k]."""
    table = np.array(index_table(dim, order)).reshape(-1, dim)
    sums = table[:, None, :] + table[None, :, :]
    i, j = np.nonzero(sums.sum(axis=2) <= order)
    # mixed-radix code of a multi-index -> its table position
    radix = (order + 1) ** np.arange(dim)
    lookup = np.zeros((order + 1) ** dim, dtype=np.intp)
    lookup[table @ radix] = np.arange(len(table))
    return lookup[sums[i, j] @ radix], i, j


def _inside(dim: int, holo_order: int, anti_order: int, degree) -> tuple:
    """Table sizes (Na, Nb) of the positions of a (p, q) factor inside its
    degree bound (a, b), i.e. with |alpha| <= a and |beta| <= b; the whole
    tables when it has no bound."""
    a, b = (holo_order, anti_order) if degree is None else degree
    return table_size(dim, min(a, holo_order)), table_size(dim, min(b, anti_order))


@lru_cache(maxsize=None)
def _mul_plan(dim: int, holo_order: int, anti_order: int, left_nb: int, right_nb: int,
              left_degree=None, right_degree=None):
    """Convolution plan of a product truncated to orders (p, q).

    An operand's coefficient (alpha, beta) sits at flat position
    pos(alpha) * Nb + pos(beta) of its (Na * Nb) axis, where Nb is the size
    of its own anti table (``left_nb``, ``right_nb``), so the plan reads
    straight from operands of higher orders.  Returns flat positions ``I``
    into the left operand and ``J`` into the right one, one entry per pair
    of positions whose indices add up to an output position, grouped by
    output position in table order, and the ``starts`` of the groups for a
    segment sum.

    A factor with a degree bound (a, b) has zero coefficients outside
    |alpha| <= a, |beta| <= b, so only the pairs whose position in it lies
    inside the bound are kept: graded tables make that a prefix of each
    table.  The full plan is no bound, or a bound of at least (p, q).  At
    most one factor is restricted, the one with fewer positions inside its
    bound, so every output position k keeps the pair (0, k) or (k, 0) and
    group g is output position g.
    """
    kh, ih, jh = _axis_sums(dim, holo_order)
    ka, ia, ja = _axis_sums(dim, anti_order)
    left_in = _inside(dim, holo_order, anti_order, left_degree)
    right_in = _inside(dim, holo_order, anti_order, right_degree)
    if left_in[0] * left_in[1] <= right_in[0] * right_in[1]:
        keep_h, keep_a = ih < left_in[0], ia < left_in[1]
    else:
        keep_h, keep_a = jh < right_in[0], ja < right_in[1]
    kh, ih, jh = kh[keep_h], ih[keep_h], jh[keep_h]
    ka, ia, ja = ka[keep_a], ia[keep_a], ja[keep_a]
    nb = table_size(dim, anti_order)
    key = (kh[:, None] * nb + ka[None, :]).ravel()
    left = (ih[:, None] * left_nb + ia[None, :]).ravel()
    right = (jh[:, None] * right_nb + ja[None, :]).ravel()
    order = np.argsort(key, kind="stable")
    starts = np.searchsorted(key[order], np.arange(table_size(dim, holo_order) * nb))
    return left[order], right[order], starts


@lru_cache(maxsize=None)
def _graded_plan(dim: int, holo_order: int, anti_order: int):
    """The product plan of two (p, q) jets split by the total degree
    d = |alpha| + |beta| of the output, for d = 1..p+q, without the pairs
    whose left factor is the constant term.  The right factors of degree-d
    outputs then all have degree < d, which is what forward substitution in
    graded order needs.  Each level is (I, J, K, starts, deg I, deg J) with
    K the flat output positions of degree d."""
    nb = table_size(dim, anti_order)
    left, right, starts = _mul_plan(dim, holo_order, anti_order, nb, nb)
    deg_h = np.array([sum(a) for a in index_table(dim, holo_order)])
    deg_a = np.array([sum(b) for b in index_table(dim, anti_order)])
    deg = (deg_h[:, None] + deg_a[None, :]).ravel()
    out = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(left))))
    levels = []
    for d in range(1, holo_order + anti_order + 1):
        sel = (deg[out] == d) & (left != 0)
        i, j, k = left[sel], right[sel], out[sel]
        first = np.flatnonzero(np.append(True, k[1:] != k[:-1]))
        levels.append((i, j, k[first], first, deg[i].astype(float), deg[j].astype(float)))
    return tuple(levels)


def _pair_last(coeffs: np.ndarray) -> np.ndarray:
    """(*P, Na, Nb, r, r) coefficients as an (r, r, *P, Na * Nb) array."""
    r = coeffs.shape[-1]
    flat = coeffs.reshape(coeffs.shape[:-4] + (-1, r, r))
    lead = tuple(range(flat.ndim - 2))
    return np.ascontiguousarray(flat.transpose((flat.ndim - 2, flat.ndim - 1) + lead))


def _from_pair_last(x: np.ndarray, na: int, nb: int) -> np.ndarray:
    """(r, r, *P, Na * Nb) pair-last sums as (*P, Na, Nb, r, r) coefficients."""
    r = x.shape[0]
    moved = x.transpose(tuple(range(2, x.ndim)) + (0, 1))
    return moved.reshape(x.shape[2:-1] + (na, nb, r, r))


def _contract(left, right, I, J, starts, weight=None) -> np.ndarray:
    """Segment sums of weight * left[I] @ right[J] over pair-last operands.

    The r x r blocks are contracted with r^3 vector multiply-adds over the
    ``(*P, len(I))`` gathered blocks; at rank 1 that is one elementwise
    product.  The products overwrite the left gather, a block row at a time
    through one row buffer, so the only arrays of ``r^2`` gathered blocks
    are the two gathers.  Returns the (r, r, *P, len(starts)) sums.
    """
    a = np.take(left, I, axis=-1)
    b = np.take(right, J, axis=-1)
    if weight is not None:
        a *= weight
    r = a.shape[0]
    if r == 1:
        a *= b
    else:
        # a block row of products reads the whole block row of a
        row_buf = np.empty(a.shape[1:], dtype=a.dtype)
        tmp = np.empty(a.shape[2:], dtype=a.dtype)
        for row in range(r):
            for col in range(r):
                acc = row_buf[col]
                np.multiply(a[row, 0], b[0, col], out=acc)
                for k in range(1, r):
                    np.multiply(a[row, k], b[k, col], out=tmp)
                    acc += tmp
            a[row] = row_buf
    return np.add.reduceat(a, starts, axis=-1)


def _product(a: np.ndarray, b: np.ndarray, dim: int, p: int, q: int,
             left_degree=None, right_degree=None) -> np.ndarray:
    """Coefficients (*P, Na(p), Nb(q), r, r) of the truncated product of two
    coefficient arrays (*P, Na, Nb, r, r) of orders at least (p, q), with
    the factors' degree bounds if they have one."""
    I, J, starts = _mul_plan(dim, p, q, a.shape[-3], b.shape[-3], left_degree, right_degree)
    sums = _contract(_pair_last(a), _pair_last(b), I, J, starts)
    return _from_pair_last(sums, table_size(dim, p), table_size(dim, q))


@lru_cache(maxsize=None)
def _deriv_plan(dim: int, order: int, var: int):
    """For d/dz_var: output position k -> (input position of idx+e_var, idx[var]+1)."""
    table_out = index_table(dim, order - 1)
    pos_in = index_positions(dim, order)
    src = np.empty(len(table_out), dtype=np.intp)
    mult = np.empty(len(table_out))
    for k, a in enumerate(table_out):
        up = list(a)
        up[var] += 1
        src[k] = pos_in[tuple(up)]
        mult[k] = a[var] + 1
    return src, mult


@lru_cache(maxsize=None)
def _restrict_plan(dim: int, order: int, variables: tuple) -> np.ndarray:
    """Positions in the (dim, order) table of the multi-indices supported on
    `variables`, in the order of the len(variables) table they map to."""
    positions = index_positions(dim, order)
    out = []
    for idx in index_table(len(variables), order):
        full = [0] * dim
        for v, e in zip(variables, idx):
            full[v] = e
        out.append(positions[tuple(full)])
    return np.array(out, dtype=np.intp)


_POINT_TYPES = (tuple, list, np.ndarray)


def point_axis(center) -> tuple:
    """() for one center (a sequence of coordinates), (P,) for a sequence of
    P centers."""
    return (len(center),) if len(center) and isinstance(center[0], _POINT_TYPES) else ()


def _center(center) -> tuple:
    """The center as a tuple of complex coordinates, or P centers as a tuple
    of such tuples, and the ambient dimension."""
    if not point_axis(center):
        center = tuple(complex(c) for c in center)
        return center, len(center)
    center = tuple(tuple(complex(c) for c in point) for point in center)
    dims = {len(point) for point in center}
    if len(dims) != 1:
        raise DimensionError(f"centers of different dimensions {sorted(dims)}")
    return center, dims.pop()


def _point_values(center, var: int):
    """Coordinate z_var of the center, or per point as a (P, 1, 1) array."""
    if point_axis(center):
        return np.array([point[var] for point in center]).reshape(-1, 1, 1)
    return center[var]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    arr.flags.writeable = False
    return arr


def _check_same_frame(a, b):
    if a.dim != b.dim or a.rank != b.rank:
        raise DimensionError(
            f"jet mismatch: dim {a.dim} vs {b.dim}, rank {a.rank} vs {b.rank}"
        )
    if a.center != b.center:
        raise DimensionError(f"jet centers differ: {a.center} vs {b.center}")


# ---------------------------------------------------------------------------
# Hermitian-pair jets


class HermJet:
    """Jet of a matrix-valued real-analytic function of (z, conj(z)).

    Attributes
    ----------
    center : tuple of complex, length ``dim``; or a tuple of P such centers
    dim : ambient dimension
    holo_order, anti_order : truncation orders in z and conj(z)
    rank : matrix size
    coeffs : ndarray of shape (Na, Nb, rank, rank) with the normalized
        coefficient of (alpha, beta) at position (pos(alpha), pos(beta));
        (P, Na, Nb, rank, rank) at P centers.
    degree : None, or a bound (a, b) declared by :meth:`with_degree`: the
        jet is that of a polynomial whose coefficients vanish for
        |alpha| > a or |beta| > b at every center.  Every operation returns
        a jet with no bound.
    """

    __slots__ = ("center", "dim", "holo_order", "anti_order", "rank", "coeffs", "degree",
                 "_inv_cache")

    def __init__(self, center, holo_order, anti_order, rank, coeffs):
        self.center, self.dim = _center(center)
        self.holo_order = int(holo_order)
        self.anti_order = int(anti_order)
        self.rank = int(rank)
        self.degree = None
        self._inv_cache = None
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        expected = point_axis(self.center) + (
            table_size(self.dim, self.holo_order),
            table_size(self.dim, self.anti_order),
            self.rank,
            self.rank,
        )
        if coeffs.shape != expected:
            raise DimensionError(
                f"coefficient array has shape {coeffs.shape}, expected {expected}"
            )
        self.coeffs = _freeze(coeffs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, center, holo_order, anti_order) -> "HermJet":
        """The constant `value`: a scalar or an r x r matrix, or one per
        point at P centers."""
        center, dim = _center(center)
        value = np.asarray(value, dtype=np.complex128)
        if value.ndim < 2:
            value = value.reshape(1, 1)
        rank = value.shape[-1]
        shape = (table_size(dim, holo_order), table_size(dim, anti_order), rank, rank)
        coeffs = np.zeros(point_axis(center) + shape, dtype=np.complex128)
        coeffs[..., 0, 0, :, :] = value
        return cls(center, holo_order, anti_order, rank, coeffs)

    @classmethod
    def zero(cls, center, holo_order, anti_order, rank=1) -> "HermJet":
        return cls.constant(np.zeros((rank, rank)), center, holo_order, anti_order)

    @classmethod
    def identity(cls, center, holo_order, anti_order, rank) -> "HermJet":
        return cls.constant(np.eye(rank), center, holo_order, anti_order)

    @classmethod
    def coordinate(cls, var: int, center, holo_order, anti_order) -> "HermJet":
        """Scalar jet of the coordinate function z_var (0-based)."""
        jet = cls.constant(_point_values(center, var), center, holo_order, anti_order)
        if holo_order >= 1:
            c = np.array(jet.coeffs)
            e = tuple(1 if k == var else 0 for k in range(jet.dim))
            c[..., index_positions(jet.dim, holo_order)[e], 0, 0, 0] = 1.0
            return jet._like(holo_order, anti_order, c)
        return jet

    @classmethod
    def conj_coordinate(cls, var: int, center, holo_order, anti_order) -> "HermJet":
        """Scalar jet of conj(z_var)."""
        value = np.conj(_point_values(center, var))
        jet = cls.constant(value, center, holo_order, anti_order)
        if anti_order >= 1:
            c = np.array(jet.coeffs)
            e = tuple(1 if k == var else 0 for k in range(jet.dim))
            c[..., 0, index_positions(jet.dim, anti_order)[e], 0, 0] = 1.0
            return jet._like(holo_order, anti_order, c)
        return jet

    def _like(self, holo_order: int, anti_order: int, coeffs, cls=None) -> "HermJet":
        """A jet of this one's type, or of `cls`, on its center and rank with
        coefficients an operation has already shaped (*P, Na, Nb, rank,
        rank); skips the constructor's checks."""
        out = object.__new__(cls or type(self))
        out.center, out.dim, out.rank = self.center, self.dim, self.rank
        out.holo_order, out.anti_order = holo_order, anti_order
        out.degree = None
        out._inv_cache = None
        out.coeffs = _freeze(coeffs)
        return out

    def with_degree(self, degree) -> "HermJet":
        """This jet, declared that of a polynomial of degree at most
        degree = (a, b) in (z, conj(z)): its coefficients vanish for
        |alpha| > a or |beta| > b, at every center.  A product with it then
        gathers only the pairs whose position in it lies inside the bound.
        The caller vouches for the bound; nothing here checks or derives one."""
        a, b = degree
        out = self._like(self.holo_order, self.anti_order, self.coeffs)
        out.degree = (int(a), int(b))
        return out

    @property
    def points(self) -> tuple:
        """The leading point axis of ``coeffs``: (P,) at P centers, else ()."""
        return self.coeffs.shape[:-4]

    # -- ring operations ----------------------------------------------------

    def truncate(self, holo_order=None, anti_order=None) -> "HermJet":
        p = self.holo_order if holo_order is None else min(holo_order, self.holo_order)
        q = self.anti_order if anti_order is None else min(anti_order, self.anti_order)
        if (p, q) == (self.holo_order, self.anti_order):
            return self
        na, nb = table_size(self.dim, p), table_size(self.dim, q)
        return self._like(p, q, self.coeffs[..., :na, :nb, :, :])

    def _common_orders(self, other):
        _check_same_frame(self, other)
        return min(self.holo_order, other.holo_order), min(self.anti_order, other.anti_order)

    def __add__(self, other) -> "HermJet":
        p, q = self._common_orders(other)
        na, nb = table_size(self.dim, p), table_size(self.dim, q)
        part = (Ellipsis, slice(na), slice(nb), slice(None), slice(None))
        return self._like(p, q, self.coeffs[part] + other.coeffs[part])

    def __sub__(self, other) -> "HermJet":
        return self + (-other)

    def __neg__(self) -> "HermJet":
        return self._like(self.holo_order, self.anti_order, -self.coeffs)

    def scale(self, scalar) -> "HermJet":
        return self._like(self.holo_order, self.anti_order, self.coeffs * complex(scalar))

    __rmul__ = scale

    def shift(self, scalar) -> "HermJet":
        """Jet of f + scalar * I: only the constant term changes."""
        coeffs = np.array(self.coeffs)
        coeffs[..., 0, 0, :, :] += complex(scalar) * np.eye(self.rank)
        return self._like(self.holo_order, self.anti_order, coeffs)

    def __mul__(self, other) -> "HermJet":
        """Truncated Cauchy product (matrix product on the values); a
        factor's degree bound narrows the plan to the pairs it can reach."""
        p, q = self._common_orders(other)
        coeffs = _product(self.coeffs, other.coeffs, self.dim, p, q, self.degree, other.degree)
        return self._like(p, q, coeffs)

    def _graded_solve(self, x0, solve, weight=None) -> "HermJet":
        """Jet x with constant term x0 (pair-last, (r, r, *P)) whose
        coefficients of total degree d = 1..p+q follow from the earlier ones:
        x_k = solve(d, K, S) with S_k = sum over i + j = k, i != 0 of
        weight(deg i, deg j) * u_i x_j, u = self, for the degree-d positions
        K (pair-last arrays)."""
        u = _pair_last(self.coeffs)
        x = np.zeros_like(u)
        x[..., 0] = x0
        levels = _graded_plan(self.dim, self.holo_order, self.anti_order)
        for d, (I, J, K, starts, deg_i, deg_j) in enumerate(levels, start=1):
            w = None if weight is None else weight(deg_i, deg_j)
            x[..., K] = solve(d, K, _contract(u, x, I, J, starts, w))
        na, nb = self.coeffs.shape[-4:-2]
        return self._like(self.holo_order, self.anti_order, _from_pair_last(x, na, nb))

    def inv(self) -> "HermJet":
        """Multiplicative inverse by forward substitution in graded order:
        c0 X_k = -sum_{i+j=k, i != 0} H_i X_j.

        The result is memoized; jets are immutable so the cache is sound.
        """
        if self._inv_cache is not None:
            return self._inv_cache
        r = self.rank
        c0 = self.coeffs[..., 0, 0, :, :]
        try:
            c0inv = np.linalg.inv(c0)
        except np.linalg.LinAlgError as exc:
            raise SingularityError("constant term is singular") from exc
        if np.any(np.linalg.cond(c0) > 1e13):
            raise SingularityError("constant term is numerically singular")
        stack = c0inv.reshape(-1, r, r)

        def solve(d, K, s):
            # per point, c0^-1 times the (r, r * len(K)) block of its sums
            rows = s.reshape(r, r, -1, len(K)).transpose(2, 0, 1, 3)
            out = -(stack @ rows.reshape(-1, r, r * len(K)))
            return out.reshape(-1, r, r, len(K)).transpose(1, 2, 0, 3).reshape(s.shape)

        x = self._graded_solve(np.moveaxis(c0inv, (-2, -1), (0, 1)), solve)
        object.__setattr__(self, "_inv_cache", x)
        return x

    # -- analytic functions (scalar jets only) ------------------------------
    # Taylor-mode recurrences from the Euler derivation D f = sum deg(k) f_k
    # (D(fg) = Df g + f Dg): D exp(u) = exp(u) Du, u D log(u) = Du and
    # u D u^p = p u^p Du, read off coefficient by coefficient.

    def _scalar_constant(self, what: str, positive: bool) -> np.ndarray:
        """The constant term, shaped (*P, 1) to scale pair-last sums."""
        if self.rank != 1:
            raise DimensionError(f"{what} applies to scalar jets only")
        c0 = self.coeffs[..., 0, 0, 0, 0, None]
        if positive and np.any(c0.real <= 0.0):
            raise SingularityError(f"{what} needs a constant term with positive real part")
        return c0

    def exp(self) -> "HermJet":
        """d w_k = sum_{i+j=k} deg(i) u_i w_j."""
        u0 = self._scalar_constant("exp", positive=False)
        return self._graded_solve(
            np.exp(u0[..., 0]), lambda d, K, s: s / d, lambda deg_i, deg_j: deg_i
        )

    def log(self) -> "HermJet":
        """u0 d L_k = d u_k - sum_{i+j=k, i != 0} deg(j) u_i L_j."""
        u0 = self._scalar_constant("log", positive=True)
        u = _pair_last(self.coeffs)

        def solve(d, K, s):
            return (d * u[..., K] - s) / (u0 * d)

        return self._graded_solve(np.log(u0[..., 0]), solve, lambda deg_i, deg_j: deg_j)

    def power(self, exponent) -> "HermJet":
        """Integer powers for any jet; real powers for scalar jets (principal
        branch) by u0 d w_k = sum_{i+j=k, i != 0} (p deg(i) - deg(j)) u_i w_j."""
        if isinstance(exponent, (int, np.integer)) or (
            isinstance(exponent, float) and exponent.is_integer()
        ):
            n = int(exponent)
            if n < 0:
                return self.inv().power(-n)
            if n == 0:
                return HermJet.identity(
                    self.center, self.holo_order, self.anti_order, self.rank
                )
            out, base = None, self
            while n:
                if n & 1:
                    out = base if out is None else out * base
                base = base * base if n > 1 else base
                n >>= 1
            return out
        u0 = self._scalar_constant("real power", positive=True)
        p = float(exponent)
        # Python's complex power, point by point: numpy's differs in the last bits
        w0 = np.array([complex(c) ** complex(p) for c in u0.ravel()]).reshape(u0.shape[:-1])
        return self._graded_solve(
            w0,
            lambda d, K, s: s / (u0 * d),
            lambda deg_i, deg_j: p * deg_i - deg_j,
        )

    # -- calculus ------------------------------------------------------------

    def deriv(self, var: int, conjugate: bool = False) -> "HermJet":
        """Jet of the partial derivative in z_var (or conj(z_var)); 0-based var."""
        if not 0 <= var < self.dim:
            raise DimensionError(f"direction {var} outside dimension {self.dim}")
        if conjugate:
            if self.anti_order < 1:
                raise OrderError("anti-holomorphic order exhausted")
            src, mult = _deriv_plan(self.dim, self.anti_order, var)
            coeffs = self.coeffs[..., src, :, :] * mult[None, :, None, None]
            return self._like(self.holo_order, self.anti_order - 1, coeffs)
        if self.holo_order < 1:
            raise OrderError("holomorphic order exhausted")
        src, mult = _deriv_plan(self.dim, self.holo_order, var)
        coeffs = self.coeffs[..., src, :, :, :] * mult[:, None, None, None]
        return self._like(self.holo_order - 1, self.anti_order, coeffs)

    def extract(self, alpha, beta=None) -> np.ndarray:
        """Derivative value d^alpha dbar^beta at the center (factorials restored)."""
        alpha = tuple(alpha)
        beta = (0,) * self.dim if beta is None else tuple(beta)
        if len(alpha) != self.dim or len(beta) != self.dim:
            raise DimensionError("multi-index length differs from jet dimension")
        if multi_index_order(alpha) > self.holo_order:
            raise OrderError(f"holomorphic index {alpha} beyond order {self.holo_order}")
        if multi_index_order(beta) > self.anti_order:
            raise OrderError(f"anti-holomorphic index {beta} beyond order {self.anti_order}")
        pa = index_positions(self.dim, self.holo_order)[alpha]
        pb = index_positions(self.dim, self.anti_order)[beta]
        return np.array(
            self.coeffs[..., pa, pb, :, :]
            * (multi_index_factorial(alpha) * multi_index_factorial(beta))
        )

    def value(self) -> np.ndarray:
        return np.array(self.coeffs[..., 0, 0, :, :])

    def adjoint(self) -> "HermJet":
        """Jet of the pointwise conjugate transpose z -> f(z)^*.

        Swapping the index roles turns orders (p, q) into (q, p); per the
        truncation policy the result is cut to the square part min(p, q).
        """
        square = self.truncate(
            min(self.holo_order, self.anti_order), min(self.holo_order, self.anti_order)
        )
        return self._like(
            square.holo_order,
            square.anti_order,
            np.conj(np.swapaxes(np.swapaxes(square.coeffs, -4, -3), -2, -1)),
        )

    def restrict(self, variables) -> "HermJet":
        """Jet of the restriction to the coordinate subspace through the
        center spanned by the 0-based `variables`, as a jet in those
        variables only: variable k of the result is z_{variables[k]}, its
        center holds the matching coordinates, and its coefficients are the
        ones whose other exponents are all zero.

        A coefficient of a product, inverse or kept-variable derivative with
        the other exponents zero reads only such coefficients of the
        operands (see :meth:`freeze_variable`), so restriction commutes with
        them: it is a ring map that keeps the orders.
        """
        variables = tuple(int(v) for v in variables)
        if not variables or len(set(variables)) != len(variables) or not all(
                0 <= v < self.dim for v in variables):
            raise DimensionError(f"cannot restrict dimension {self.dim} to {variables}")
        ha = _restrict_plan(self.dim, self.holo_order, variables)
        hb = _restrict_plan(self.dim, self.anti_order, variables)
        if point_axis(self.center):
            center = tuple(tuple(point[v] for v in variables) for point in self.center)
        else:
            center = tuple(self.center[v] for v in variables)
        coeffs = self.coeffs[..., ha[:, None], hb[None, :], :, :]
        return HermJet(center, self.holo_order, self.anti_order, self.rank, coeffs)

    def freeze_variable(self, var: int) -> "HermJet":
        """Jet of the restriction z_var = center[var] (as a jet constant in z_var).

        Restricted jets form a subring: products of frozen jets stay frozen.
        """
        mask_h = np.array(
            [idx[var] == 0 for idx in index_table(self.dim, self.holo_order)]
        )
        mask_a = np.array(
            [idx[var] == 0 for idx in index_table(self.dim, self.anti_order)]
        )
        coeffs = self.coeffs * mask_h[:, None, None, None] * mask_a[None, :, None, None]
        return self._like(self.holo_order, self.anti_order, coeffs)

    def hermitian_defect(self) -> float:
        """Max coefficient deviation from Gram symmetry c[b,a] = c[a,b]^*;
        one per point at P centers."""
        return np.max(np.abs((self - self.adjoint()).coeffs), axis=(-4, -3, -2, -1))

    def holo_part(self) -> "HoloJet":
        """The beta = 0 slice, the jet of z -> f(z, conj(z0)), as a
        holomorphic jet: the truncation to orders (p, 0)."""
        return self._like(self.holo_order, 0, self.coeffs[..., :1, :, :], HoloJet)

    def __repr__(self):
        return (
            f"HermJet(center={self.center}, orders=({self.holo_order},"
            f"{self.anti_order}), rank={self.rank})"
        )


# ---------------------------------------------------------------------------
# holomorphic jets


class HoloJet(HermJet):
    """Jet of a matrix-valued holomorphic function: a :class:`HermJet` of
    anti order 0 made from its holomorphic order `order`, with coefficients
    (Na, 1, rank, rank), or (P, Na, 1, rank, rank) at P centers.  Its
    operations are HermJet's; those that reshape this jet's own coefficients
    (products, inverse, truncation, derivatives, freezing) return a HoloJet."""

    __slots__ = ()

    def __init__(self, center, order, rank, coeffs):
        super().__init__(center, order, 0, rank, coeffs)

    @classmethod
    def constant(cls, value, center, order) -> "HoloJet":
        return HermJet.constant(value, center, order, 0).holo_part()

    # HermJet's own, bound in this class so that perfbench/layertrace.py
    # times holomorphic products and inverses (span jetcore.holo) apart from
    # the HermJet ones
    __mul__ = HermJet.__mul__
    inv = HermJet.inv

    def as_herm(self, anti_order: int) -> "HermJet":
        """Promote to a HermJet that is constant in the conjugate variables."""
        shape = (table_size(self.dim, self.holo_order), table_size(self.dim, anti_order))
        coeffs = np.zeros(self.points + shape + (self.rank, self.rank), dtype=np.complex128)
        coeffs[..., :1, :, :] = self.coeffs
        return HermJet(self.center, self.holo_order, anti_order, self.rank, coeffs)

    def adjoint_as_herm(self, holo_order: int) -> "HermJet":
        """HermJet of z -> A(z)^*, an anti-holomorphic function."""
        shape = (table_size(self.dim, holo_order), table_size(self.dim, self.holo_order))
        coeffs = np.zeros(self.points + shape + (self.rank, self.rank), dtype=np.complex128)
        coeffs[..., :1, :, :, :] = np.conj(np.swapaxes(np.swapaxes(self.coeffs, -4, -3), -2, -1))
        return HermJet(self.center, holo_order, self.holo_order, self.rank, coeffs)

    def __repr__(self):
        return f"HoloJet(center={self.center}, order={self.holo_order}, rank={self.rank})"
