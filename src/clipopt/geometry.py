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


class GeometryError(ValueError):
    """Raised for points outside a geometry's domain or mismatched shapes."""


def _as_vector(v, dim: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (dim,):
        raise GeometryError(f"expected vector of dimension {dim}, got shape {v.shape}")
    return v


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
        """Row-wise dual norms of an (n, dim) array."""
        if self.kind == SIMPLEX:
            return np.max(np.abs(V), axis=-1)
        return np.sqrt(np.einsum("...i,...i->...", V, V))

    # -- mirror map ---------------------------------------------------------

    def psi(self, x) -> float:
        x = _as_vector(x, self.dim)
        if self.kind == SIMPLEX:
            pos = x > 0
            return float(np.sum(x[pos] * np.log(x[pos])))  # 0 log 0 := 0
        return float(0.5 * (x @ x))

    def grad_psi(self, x) -> np.ndarray:
        x = _as_vector(x, self.dim)
        if self.kind == SIMPLEX:
            if np.any(x <= 0):
                raise GeometryError("entropy gradient undefined on the boundary")
            return 1.0 + np.log(x)
        return x.copy()

    def bregman(self, x, y) -> float:
        """Bregman divergence induced by the mirror map.

        For the entropy map this is the KL divergence (with 0 log 0 := 0);
        the second argument must have strictly positive entries wherever the
        first is nonzero, otherwise the divergence is undefined.
        """
        x = _as_vector(x, self.dim)
        y = _as_vector(y, self.dim)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise GeometryError("bregman arguments must be finite")
        if self.kind == SIMPLEX:
            if np.any(y < 0):
                raise GeometryError("second argument outside the simplex")
            bad = (y == 0) & (x != 0)
            if np.any(bad):
                raise GeometryError("divergence undefined: zero coordinate in y paired with nonzero x")
            pos = x > 0
            val = np.sum(x[pos] * (np.log(x[pos]) - np.log(y[pos])))
            return float(val + np.sum(y) - np.sum(x))
        d = x - y
        return float(0.5 * (d @ d))

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
            n = np.sqrt(np.einsum("ij,ij->i", V, V))
            scale = np.where(n <= self.radius, 1.0, self.radius / np.maximum(n, 1e-300))
            return self.center + V * scale[:, None]
        logits = np.log(X) - eta * G
        logits -= np.max(logits, axis=1, keepdims=True)
        W = np.exp(logits)
        return W / np.sum(W, axis=1, keepdims=True)

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
