"""Norms, mirror maps, and exact mirror-descent proximal steps.

Three geometries are supported:

* unconstrained Euclidean space (l2 norm, quadratic mirror map),
* a Euclidean ball (same map, radial projection onto the ball),
* the probability simplex with the negative-entropy map (l1 primal norm,
  l-infinity dual norm).

Each mirror map is 1-strongly convex with respect to its primal norm, so the
Bregman divergence dominates half the squared primal distance, and every
proximal step has a closed form.  All functions are pure; ``Geometry`` values
are immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EUCLIDEAN = "euclidean"
BALL = "ball"
SIMPLEX = "simplex"

# Floor of an entropy mirror step's coordinates: the smallest positive double.
_SIMPLEX_FLOOR = np.nextafter(0.0, 1.0)


class GeometryError(ValueError):
    """Raised for points outside a geometry's domain or mismatched shapes."""


def _as_vector(v, dim: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (dim,):
        raise GeometryError(f"expected vector of dimension {dim}, got shape {v.shape}")
    return v


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of (..., dim) arrays.

    Each row goes through the same vector dot as ``a @ b`` on two vectors,
    so a row's value does not depend on the number of rows beside it.
    """
    return (A[..., None, :] @ B[..., :, None])[..., 0, 0]


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
# reduction of a C-ordered array, whatever the layout and n: for up to two
# coordinates numpy adds left to right from +0.0, which column adds repeat
# with one inner loop over the seeds; for more, numpy's order is pairwise
# (``np.sum``) or SIMD (``np.einsum``), so the helpers reduce a C-ordered copy.


def coord_sum(A: np.ndarray) -> np.ndarray:
    """``np.sum(A, axis=-1)``, bitwise, for any memory layout of ``A``."""
    d = A.shape[-1]
    if d > 2:
        return np.sum(np.ascontiguousarray(A), axis=-1)
    total = A[..., 0] + A[..., 1] if d == 2 else A[..., 0].copy()
    total += 0.0  # numpy's sum starts from +0.0, so a sum of -0.0 terms is +0.0
    return total


def coord_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``np.einsum("...i,...i->...", A, B)``, bitwise, for any memory layout."""
    if A.shape[-1] > 2:
        C = np.ascontiguousarray(A)
        return np.einsum("...i,...i->...", C, C if B is A else np.ascontiguousarray(B))
    return coord_sum(A * B)


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

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, BALL, SIMPLEX):
            raise GeometryError(f"unknown geometry kind {self.kind!r}")
        if self.dim < 1:
            raise GeometryError("dimension must be >= 1")
        if self.kind == BALL:
            if self.radius <= 0:
                raise GeometryError("ball radius must be positive")
            c = np.zeros(self.dim) if self.center is None else _as_vector(self.center, self.dim)
            object.__setattr__(self, "center", c)

    # -- norms ------------------------------------------------------------

    def norm(self, v) -> float:
        """Primal norm: l2 for Euclidean geometries, l1 on the simplex."""
        v = _as_vector(v, self.dim)
        if self.kind == SIMPLEX:
            return float(np.sum(np.abs(v)))
        return float(np.sqrt(v @ v))

    def dual_norm(self, v) -> float:
        """Dual norm: l2 for Euclidean geometries, l-infinity on the simplex.

        Shares its arithmetic with the row variant so that single-run and
        batched trajectories agree bitwise.
        """
        v = _as_vector(v, self.dim)
        return float(self.dual_norm_many(v[None, :])[0])

    def dual_norm_many(self, V: np.ndarray) -> np.ndarray:
        """Row-wise dual norms of an (..., dim) array."""
        if self.kind == SIMPLEX:
            return np.max(np.abs(V), axis=-1)
        return np.sqrt(coord_dot(V, V))

    # -- mirror map ---------------------------------------------------------

    def grad_psi(self, x) -> np.ndarray:
        x = _as_vector(x, self.dim)
        if self.kind == SIMPLEX:
            if np.any(x <= 0):
                raise GeometryError("entropy gradient undefined on the boundary")
            return 1.0 + np.log(x)
        return x.copy()

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
        return 0.5 * row_dots(D, D)

    # -- proximal step --------------------------------------------------------

    def mirror_step(self, x, g, eta: float) -> np.ndarray:
        """Exact minimizer of ``eta*<g, u> + bregman(u, x)`` over the domain.

        Same arithmetic as the row variant (bitwise), see ``dual_norm``.
        """
        x = _as_vector(x, self.dim)
        g = _as_vector(g, self.dim)
        return self.mirror_step_many(x[None, :], g[None, :], eta)[0]

    def mirror_step_many(self, X: np.ndarray, G: np.ndarray, eta: float) -> np.ndarray:
        """Row-wise mirror step on (n, dim) arrays; same arithmetic as mirror_step."""
        if self.kind == EUCLIDEAN:
            return X - eta * G
        if self.kind == BALL:
            V = X - eta * G - self.center
            n = np.sqrt(coord_dot(V, V))
            return self.center + V * shrink_factors(n, self.radius)[:, None]
        logits = np.log(X) - eta * G
        logits -= np.max(logits, axis=1, keepdims=True)
        W = np.exp(logits)
        W /= coord_sum(W)[:, None]
        # A coordinate that underflowed to 0 would make the next step's log -inf;
        # hold it at the floor so iterates stay strictly interior.  Other bits are unchanged.
        return np.maximum(W, _SIMPLEX_FLOOR, out=W)

    def mix_many(self, A: np.ndarray, B: np.ndarray, alpha: float) -> np.ndarray:
        """Row-wise convex combination ``(1 - alpha) A + alpha B`` of domain points.

        On the simplex two floored coordinates mixed at ``alpha = 1/2`` round to 0; such a
        coordinate is held at the floor, as in ``mirror_step_many``.  Other bits are unchanged.
        """
        M = (1.0 - alpha) * A + alpha * B
        if self.kind == SIMPLEX:
            np.maximum(M, _SIMPLEX_FLOOR, out=M)
        return M

    def step_optimality_gap(self, x, g, eta: float, x_next, u) -> float:
        """First-order optimality residual ``<eta*g + grad_psi(x+) - grad_psi(x), u - x+>``.

        Nonnegative (up to roundoff) for every domain point ``u`` when
        ``x_next`` is the exact proximal step.
        """
        x_next = _as_vector(x_next, self.dim)
        u = _as_vector(u, self.dim)
        r = eta * _as_vector(g, self.dim) + self.grad_psi(x_next) - self.grad_psi(x)
        return float(r @ (u - x_next))

    # -- domain helpers --------------------------------------------------------

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = _as_vector(x, self.dim)
        if not np.all(np.isfinite(x)):
            return False
        if self.kind == EUCLIDEAN:
            return True
        if self.kind == BALL:
            return bool(np.linalg.norm(x - self.center) <= self.radius + tol)
        return bool(np.all(x >= -tol) and abs(np.sum(x) - 1.0) <= tol)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Random domain point (strictly interior for the simplex); test helper."""
        if self.kind == EUCLIDEAN:
            return rng.standard_normal(self.dim)
        if self.kind == BALL:
            u = rng.standard_normal(self.dim)
            u /= np.linalg.norm(u)
            r = self.radius * rng.random() ** (1.0 / self.dim)
            return self.center + r * u
        w = rng.dirichlet(np.ones(self.dim))
        w = np.maximum(w, 1e-12)
        return w / np.sum(w)


def euclidean(dim: int) -> Geometry:
    return Geometry(EUCLIDEAN, dim)


def ball(dim: int, radius: float, center=None) -> Geometry:
    return Geometry(BALL, dim, radius=radius, center=center)


def simplex(dim: int) -> Geometry:
    return Geometry(SIMPLEX, dim)
