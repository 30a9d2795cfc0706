"""Norms, mirror maps, and exact mirror-descent proximal steps.

Three geometries are supported:

* unconstrained Euclidean space (l2 norm, quadratic mirror map),
* a Euclidean ball (same map, radial projection onto the ball),
* the probability simplex with the negative-entropy map (l1 primal norm,
  l-infinity dual norm).

Each mirror map is 1-strongly convex with respect to its primal norm, so the
Bregman divergence dominates half the squared primal distance, and every
proximal step has a closed form.  All functions are pure, except that the row
norms, step and mix write into a caller's ``out`` array when given one, and the
step and mix their scaled term into a caller's ``scratch`` array; ``Geometry``
values are immutable and safe to share across threads.

A clip test asks whether every row's dual norm is at most a level, and almost
always it is.  ``dual_norm_bound`` answers it for a whole block from its largest
coordinate magnitude m (one ``abs`` and one ``max`` over the block): the
l-infinity norm is m itself, and an l2 norm is at most sqrt(d) m, widened past
the rounding of the computed norm.  A block that passes its bound needs no
norms; one that does not takes them, and so does a block holding an inf (its
bound is inf) or a NaN (its bound is NaN, which passes no level).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EUCLIDEAN = "euclidean"
BALL = "ball"
SIMPLEX = "simplex"


def operand(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array, the row forms' constant operands.

    numpy converts a Python float or numpy scalar operand on every call, which at the
    loops' sizes (100 rows of 2) adds about half again to the call; a 0-d array it takes as
    it is, with the same bits.  For the same reason the row forms pass ``out`` by position,
    except to ``np.maximum``, which numpy 2.4 deprecates taking it so.
    """
    const = np.array(float(value))
    const.flags.writeable = False
    return const


# Floor of an entropy mirror step's coordinates: the smallest positive double.
_SIMPLEX_FLOOR = operand(np.nextafter(0.0, 1.0))
_ZERO = operand(0.0)
# below this l2 norm a row's sum of squares is not a normal double
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)
# up to this l2 norm bound no partial sum of a row's squares overflows (2^511 = sqrt(2^1022))
_SQRT_HUGE = 2.0 ** 511
_max = np.maximum.reduce
# how far past a ball's radius, or the simplex's unit sum, ``contains`` accepts a point
_CONTAINS_TOL = 1e-9


class GeometryError(ValueError):
    """Raised for points outside a geometry's domain or mismatched shapes."""


def _as_vector(v, dim: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (dim,):
        raise GeometryError(f"expected vector of dimension {dim}, got shape {v.shape}")
    return v


def shrink_factors(norms: np.ndarray, level: float) -> np.ndarray:
    """Per-row factors ``min{1, level / norm}`` for a positive ``level``.

    The clip and the ball projection both rescale a vector to norm at most
    ``level`` with this factor.  Written ``level / max{norm, level}``, it is
    exactly 1 up to the level, and a NaN norm gives a NaN factor.
    """
    return level / np.maximum(norms, level)


# Sums and dot products over coordinates.  The run loops' (n, dim) arrays are
# seed-contiguous (Fortran-ordered), where numpy would reduce the last axis
# with one inner loop per row.  Both helpers return the bits of numpy's own
# reduction of a C-ordered array, whatever the layout and n.  ``coord_sum``
# replays numpy's pairwise summation (``np.sum``) with column adds, each one
# inner loop over the seeds: below 8 coordinates a sequential sum; up to 128,
# 8 accumulators over blocks of 8 columns, combined as
# ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the remaining
# columns in turn; above 128, the two halves of the range (the split rounded
# down to a multiple of 8) summed alone and added.  numpy adds the result to
# its +0.0 start.  ``np.einsum``'s order is SIMD, so ``coord_dot`` reduces a
# C-ordered copy past two coordinates.  Every l2 norm, dual norm, Bregman
# divergence and diagnostic dot product reduces through ``coord_dot``.

_PAIRWISE_BLOCK = 128  # numpy's PW_BLOCKSIZE


def coord_sum(A: np.ndarray, out: np.ndarray | None = None,
              nonnegative: bool = False) -> np.ndarray:
    """``np.sum(A, axis=-1)``, bitwise, for any memory layout of ``A``; written into
    ``out`` when it is given.  ``nonnegative`` says that no entry of ``A`` is -0.0 or
    below (NaN may be), as a sum of squares: then no sum is -0.0 and none takes numpy's
    +0.0 start, which changes only a -0.0 sum."""
    total = _pairwise_sum(A, 0, A.shape[-1])
    if nonnegative and out is None:
        return total
    # numpy's sum starts from +0.0, so a sum of -0.0 terms is +0.0
    return np.add(total, _ZERO, out)


def _pairwise_sum(A: np.ndarray, lo: int, d: int) -> np.ndarray:
    """numpy's ``pairwise_sum`` of columns ``lo .. lo + d - 1`` as a new array."""
    if d < 8:
        total = A[..., lo] + A[..., lo + 1] if d > 1 else A[..., lo].copy()
        for j in range(lo + 2, lo + d):
            total += A[..., j]
        return total
    if d <= _PAIRWISE_BLOCK:
        end = lo + d - d % 8
        r = A[..., lo:lo + 8].copy(order="K")
        for j in range(lo + 8, end, 8):
            r += A[..., j:j + 8]
        r = r[..., 0::2] + r[..., 1::2]  # r0 + r1, r2 + r3, r4 + r5, r6 + r7
        r = r[..., 0::2] + r[..., 1::2]
        total = r[..., 0] + r[..., 1]
        for j in range(end, lo + d):
            total += A[..., j]
        return total
    half = d // 2
    half -= half % 8
    total = _pairwise_sum(A, lo, half)
    total += _pairwise_sum(A, lo + half, d - half)
    return total


def coord_dot(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.einsum("...i,...i->...", A, B)``, bitwise, for any memory layout; written into
    ``out`` when it is given."""
    if B is A and A.shape[-1] == 2:  # a sum of squares is never -0.0: coord_sum's + 0.0 is moot
        sq = np.square(A)
        return np.add(sq[..., 0], sq[..., 1], out)
    if A.shape[-1] > 2:
        C = np.ascontiguousarray(A)
        return np.einsum("...i,...i->...", C, C if B is A else np.ascontiguousarray(B),
                         out=out)
    return coord_sum(np.square(A) if B is A else A * B, out)


@dataclass(frozen=True, eq=False)
class Geometry:
    """A primal/dual norm pair plus mirror map over a fixed-dimension domain.

    ``kind`` is one of ``euclidean`` (unconstrained), ``ball`` (Euclidean ball
    of given radius/center) or ``simplex`` (probability simplex, entropy map).
    Simplex iterates must stay strictly interior; the multiplicative update
    preserves strict positivity of a strictly positive starting point, and the
    divergence from a boundary second argument is an error.
    """

    kind: str
    dim: int
    radius: float = 0.0
    center: np.ndarray | None = None
    # c of ``dual_norm_bound``: 1 for l-infinity, sqrt(d) widened past rounding for l2
    bound_factor: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, BALL, SIMPLEX):
            raise GeometryError(f"unknown geometry kind {self.kind!r}")
        if self.dim < 1:
            raise GeometryError("dimension must be >= 1")
        # a computed sum of d squares, each at most m^2 (normal), is at most about
        # d m^2 (1 + d 2^-53) in any order and with or without fused multiply-adds, and its
        # square root rounds once more; (d + 8) 2^-52 covers those, the roundings of sqrt(d),
        # of this product and of c m, with room to spare
        c = 1.0 if self.kind == SIMPLEX else math.sqrt(self.dim) * (1 + (self.dim + 8) * 2.0 ** -52)
        object.__setattr__(self, "bound_factor", c)
        if self.kind == BALL:
            if not self.radius > 0:
                raise GeometryError("ball radius must be positive")
            c = np.zeros(self.dim) if self.center is None else _as_vector(self.center, self.dim)
            object.__setattr__(self, "center", c)

    # -- norms ------------------------------------------------------------

    def norm(self, v) -> float:
        """Primal norm: l2 for Euclidean geometries, l1 on the simplex; see ``norm_many``."""
        v = _as_vector(v, self.dim)
        return float(self.norm_many(v[None, :])[0])

    def norm_many(self, V: np.ndarray) -> np.ndarray:
        """Row-wise primal norms of an (..., dim) array, each with ``norm``'s bits; an l2 row
        whose squares are normal has ``dual_norm_many``'s bits."""
        if self.kind == SIMPLEX:
            return coord_sum(np.abs(V))
        with np.errstate(over="ignore"):
            norms = np.sqrt(coord_dot(V, V))
            rescue = np.isinf(norms) | (norms < _SQRT_TINY)
            if rescue.any():  # a finite nonzero row whose square over- or underflows:
                m = np.abs(V[rescue]).max(axis=-1)  # divide out its largest coordinate
                fix = np.isfinite(m) & (m > 0)
                rescue[rescue] = fix
                W = V[rescue] / m[fix, None]
                norms[rescue] = m[fix] * np.sqrt(coord_dot(W, W))
        return norms

    def dual_norm(self, v) -> float:
        """Dual norm: l2 for Euclidean geometries (``norm`` itself), l-infinity on the simplex."""
        if self.kind != SIMPLEX:
            return self.norm(v)
        v = _as_vector(v, self.dim)
        return float(self.dual_norm_many(v[None, :])[0])

    def dual_norm_many(self, V: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Row-wise dual norms of an (..., dim) array, written into ``out`` when it is given."""
        if self.kind == SIMPLEX:
            return np.maximum.reduce(np.abs(V), -1, None, out)
        sq = coord_dot(V, V, out)
        return np.sqrt(sq, sq)

    def dual_norm_bound(self, V: np.ndarray) -> float:
        """An upper bound on every row's ``dual_norm_many`` in an (..., dim) block, from its
        largest coordinate magnitude m alone: ``bound_factor * m``, NaN if the block holds a
        NaN.  On the simplex it is m, the largest row norm exactly.

        On l2, m is taken at least sqrt(tiny) (2^-511), below which squares lose relative
        precision: a sum of d squares each at most m^2 is, rounded, at most that of d copies
        of m^2.  Past a bound of 2^511, where a row's sum of squares might overflow to an
        infinite norm, the bound is +inf.  A caller tests ``not bound <= level``, so a NaN
        or infinite block always takes the exact norms.
        """
        top = _max(np.abs(V), None)  # NaN if the block holds one
        if self.kind == SIMPLEX:
            return top
        if top > _SQRT_HUGE / self.bound_factor:
            return np.inf
        return self.bound_factor * (top if not top < _SQRT_TINY else _SQRT_TINY)

    # -- mirror map ---------------------------------------------------------

    def bregman(self, x, y) -> float:
        """Bregman divergence induced by the mirror map; see ``bregman_many``."""
        x = _as_vector(x, self.dim)
        y = _as_vector(y, self.dim)
        return float(self.bregman_many(x[None, :], y[None, :])[0])

    def bregman_many(self, X, Y) -> np.ndarray:
        """Row-wise divergences ``D(x_i, y_i)``; ``X`` may be one point for every row.

        For the entropy map this is the KL divergence (with 0 log 0 := 0);
        the second argument must have strictly positive entries wherever the
        first is nonzero, otherwise the divergence is undefined.
        """
        X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise GeometryError("bregman arguments must be finite")
        if self.kind == SIMPLEX:
            if np.any(Y < 0):
                raise GeometryError("second argument outside the simplex")
            if np.any((Y == 0) & (X != 0)):
                raise GeometryError("divergence undefined: zero coordinate in y paired with nonzero x")
            pos = X > 0
            Xp, Yp = np.where(pos, X, 1.0), np.where(pos, Y, 1.0)
            terms = np.where(pos, Xp * (np.log(Xp) - np.log(Yp)), 0.0)
            return coord_sum(terms) + coord_sum(Y) - coord_sum(X)
        D = X - Y
        return 0.5 * coord_dot(D, D)

    # -- proximal step --------------------------------------------------------

    def mirror_step(self, x, g, eta: float) -> np.ndarray:
        """Exact minimizer of ``eta*<g, u> + bregman(u, x)`` over the domain.

        Same arithmetic as ``mirror_step_many`` (bitwise).
        """
        x = _as_vector(x, self.dim)
        g = _as_vector(g, self.dim)
        return self.mirror_step_many(x[None, :], g[None, :], eta)[0]

    def mirror_step_many(self, X: np.ndarray, G: np.ndarray, eta: float,
                         out: np.ndarray | None = None,
                         scratch: np.ndarray | None = None) -> np.ndarray:
        """Row-wise mirror step on (n, dim) arrays; same arithmetic as mirror_step.

        The step is written into ``out`` when it is given (``X`` or ``G`` itself may
        be ``out``) and returned, and ``eta * G`` into ``scratch`` (an array shaped
        like ``G``, distinct from ``X`` and ``out``) when it is given; the bits do not
        depend on ``out``, ``scratch`` or the layouts.
        """
        step = np.multiply(eta, G, scratch)
        if self.kind == EUCLIDEAN:
            return np.subtract(X, step, out)
        if self.kind == BALL:
            V = np.subtract(X, step, step)
            V -= self.center
            V *= shrink_factors(np.sqrt(coord_dot(V, V)), self.radius)[:, None]
            return np.add(self.center, V, out)
        W = np.log(X, out)
        W -= step
        W -= np.maximum.reduce(W, axis=1, keepdims=True)
        np.exp(W, W)
        W /= coord_sum(W)[:, None]
        # A coordinate that underflowed to 0 would make the next step's log -inf;
        # hold it at the floor so iterates stay strictly interior.  Other bits are unchanged.
        return np.maximum(W, _SIMPLEX_FLOOR, out=W)

    def mix_many(self, A: np.ndarray, B: np.ndarray, alpha: float,
                 out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
        """Row-wise convex combination ``(1 - alpha) A + alpha B`` of domain points.

        Written into ``out`` when it is given (``A`` or ``B`` itself may be ``out``), and
        ``alpha * B`` into ``scratch`` (distinct from the others) when it is given.
        On the simplex two floored coordinates mixed at ``alpha = 1/2`` round to 0; such a
        coordinate is held at the floor, as in ``mirror_step_many``.  Other bits are unchanged.
        """
        term = np.multiply(alpha, B, scratch)
        M = np.multiply(A, 1.0 - alpha, out)
        M += term
        if self.kind == SIMPLEX:
            np.maximum(M, _SIMPLEX_FLOOR, out=M)
        return M

    # -- domain helpers --------------------------------------------------------

    def contains(self, x) -> bool:
        x = _as_vector(x, self.dim)
        if not np.all(np.isfinite(x)):
            return False
        if self.kind == EUCLIDEAN:
            return True
        if self.kind == BALL:
            return bool(self.norm(x - self.center) <= self.radius + _CONTAINS_TOL)
        # the entropy map's open simplex
        return bool(np.all(x > 0) and abs(np.sum(x) - 1.0) <= _CONTAINS_TOL)


def euclidean(dim: int) -> Geometry:
    return Geometry(EUCLIDEAN, dim)


def ball(dim: int, radius: float, center=None) -> Geometry:
    return Geometry(BALL, dim, radius=radius, center=center)


def simplex(dim: int) -> Geometry:
    return Geometry(SIMPLEX, dim)
