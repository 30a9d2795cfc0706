"""Synthetic objectives with exact gradients, constants, and optima.

Every factory returns a :class:`Problem` whose smoothness constant, optimal
value and (for convex instances) minimizer are known in closed form, so
convergence metrics and schedule inputs carry no estimation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import geometry as geo


@dataclass(frozen=True, eq=False)
class Problem:
    """A differentiable objective bound to a geometry.

    ``smoothness`` is the gradient Lipschitz constant with respect to the
    geometry's norm pair.  ``lipschitz_g`` is the constant of the additive
    nonsmooth upper-bound term (zero for smooth instances).  ``minimizer`` is
    None for nonconvex instances without a known unique minimizer location.
    """

    name: str
    dim: int
    geometry: geo.Geometry
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    smoothness: float
    optimal_value: float
    minimizer: np.ndarray | None = None
    lipschitz_g: float = 0.0
    value_many: Callable[[np.ndarray], np.ndarray] | None = None
    grad_many: Callable[[np.ndarray], np.ndarray] | None = None

    def gap(self, x) -> float:
        """Function value gap ``f(x) - f*``."""
        return float(self.value(np.asarray(x, dtype=float)) - self.optimal_value)

    def gap_many(self, X: np.ndarray) -> np.ndarray:
        return self.value_many(X) - self.optimal_value


def _scalars_from_many(value_many, grad_many):
    """Scalar value/grad sharing the row implementations' arithmetic bitwise."""

    def value(x):
        return float(value_many(np.asarray(x, dtype=float)[None, :])[0])

    def grad(x):
        return grad_many(np.asarray(x, dtype=float)[None, :])[0]

    return value, grad


def make_quadratic(diag, shift=None) -> Problem:
    """Diagonal quadratic ``0.5 * sum_i diag_i (x_i - shift_i)^2`` on l2 space.

    Smoothness constant is ``max(diag)``, the minimizer is ``shift`` and the
    optimal value is zero.
    """
    diag = np.asarray(diag, dtype=float)
    d = diag.size
    if np.any(diag <= 0):
        raise ValueError("quadratic requires strictly positive curvature entries")
    shift = np.zeros(d) if shift is None else np.asarray(shift, dtype=float)
    if shift.shape != (d,):
        raise ValueError("shift must match the curvature dimension")

    def value_many(X):
        R = X - shift
        return 0.5 * geo.coord_sum(diag * R * R)

    def grad_many(X):
        return diag * (X - shift)

    value, grad = _scalars_from_many(value_many, grad_many)
    return Problem(
        name="quadratic",
        dim=d,
        geometry=geo.euclidean(d),
        value=value,
        grad=grad,
        smoothness=float(np.max(diag)),
        optimal_value=0.0,
        minimizer=shift.copy(),
        value_many=value_many,
        grad_many=grad_many,
    )


def make_simplex_quadratic(target) -> Problem:
    """Half squared l2 distance to an interior simplex point, on the entropy geometry.

    The gradient map ``x - target`` is 1-Lipschitz from l1 to l-infinity
    (``||x - y||_inf <= ||x - y||_2 <= ||x - y||_1``), so the smoothness
    constant for the l1/l-infinity pair is 1.  The minimizer is interior, so
    its gradient vanishes on the simplex.
    """
    target = np.asarray(target, dtype=float)
    d = target.size
    if abs(np.sum(target) - 1.0) > 1e-9 or np.any(target <= 0):
        raise ValueError("target must lie strictly inside the probability simplex")

    def value_many(X):
        R = X - target
        return 0.5 * geo.coord_dot(R, R)

    def grad_many(X):
        return X - target

    value, grad = _scalars_from_many(value_many, grad_many)
    return Problem(
        name="simplex_quadratic",
        dim=d,
        geometry=geo.simplex(d),
        value=value,
        grad=grad,
        smoothness=1.0,
        optimal_value=0.0,
        minimizer=target.copy(),
        value_many=value_many,
        grad_many=grad_many,
    )


def make_nonconvex_ratio(d: int) -> Problem:
    """Smooth nonconvex test ``sum_i x_i^2 / (1 + x_i^2)`` with lower bound 0.

    The second derivative of ``u^2/(1+u^2)`` is ``(2 - 6u^2)/(1+u^2)^3``,
    maximal in absolute value at u = 0 where it equals 2, so L = 2.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")

    def value_many(X):
        S = X * X
        return geo.coord_sum(S / (1.0 + S))

    def grad_many(X):
        return 2.0 * X / (1.0 + X * X) ** 2

    value, grad = _scalars_from_many(value_many, grad_many)
    return Problem(
        name="nonconvex_ratio",
        dim=d,
        geometry=geo.euclidean(d),
        value=value,
        grad=grad,
        smoothness=2.0,
        optimal_value=0.0,
        minimizer=np.zeros(d),
        value_many=value_many,
        grad_many=grad_many,
    )


def make_quadratic_plus_norm(d: int, coef: float) -> Problem:
    """Nonsmooth-plus-smooth instance ``0.5||x||^2 + coef * ||x||_2``.

    The subgradient at the origin is chosen as 0 (the origin is the
    minimizer).  The instance satisfies the additive upper bound
    ``f(y) - f(x) <= <g(x), y-x> + G||y-x|| + (L/2)||y-x||^2`` with L = 1 and
    G = 2*coef; the factor 2 is required, the same-constant variant fails when
    a step overshoots across the origin.
    """
    if coef < 0:
        raise ValueError("nonsmooth coefficient must be >= 0")

    def value_many(X):
        sq = geo.coord_dot(X, X)
        return 0.5 * sq + coef * np.sqrt(sq)

    def grad_many(X):
        n = np.sqrt(geo.coord_dot(X, X))
        scale = np.where(n > 0, 1.0 + coef / np.maximum(n, 1e-300), 1.0)
        return X * scale[..., None]

    value, grad = _scalars_from_many(value_many, grad_many)
    return Problem(
        name="quadratic_plus_norm",
        dim=d,
        geometry=geo.euclidean(d),
        value=value,
        grad=grad,
        smoothness=1.0,
        optimal_value=0.0,
        minimizer=np.zeros(d),
        lipschitz_g=2.0 * coef,
        value_many=value_many,
        grad_many=grad_many,
    )
