"""Synthetic objectives with exact gradients, constants, and optima.

Every factory returns a :class:`Problem` whose smoothness constant, optimal
value and (for convex instances) minimizer are known in closed form, so
convergence metrics and schedule inputs carry no estimation error.

The row forms ``value_many(X, out=None)`` and ``grad_many(X, out=None)`` take
an (..., n, d) array of any layout and write into ``out`` when it is given,
with the bits of the allocating form.  A per-coordinate constant (a
quadratic's curvature and shift, the simplex target) is decided once, when the
problem is built (``_laid_out``).  If its d coordinates have the same bits, as
the default quadratic's curvature 1 and shift 0 do, it enters as one read-only
0-d array (``geometry.operand``), and an op runs as an array-with-scalar loop
over rows, step or window, with no (n, d) constant made.  Otherwise it enters
as an array laid out like the trailing (n, d) axes of ``X``, built once per
shape and strides and kept read-only: numpy runs an op of two arrays that
share a layout as one inner loop over the seeds, but a (d,) vector broadcast
against seed-contiguous rows costs more.  One subtract on seed-contiguous rows
(2 vCPUs, numpy 2.4.6) took, with a 0-d, a laid-out and a (d,) constant:
0.97, 1.58 and 2.65 us at 1000 x 2; 4.65, 8.21 and 11.15 us over a (16, 500,
2) window, where the laid-out constant is broadcast over the window axis; and
4.32, 9.49 and 14.95 us at 500 x 32.  A scalar constant enters as a 0-d array
too, and the row forms pass ``out`` to numpy by position: at the loops' 100 x
2 rows, one ``np.add`` took 0.53 us with a Python-float operand and an
``out=`` keyword against 0.34 us (2 vCPUs, numpy 2.4.6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import geometry as geo

_ONE, _TWO, _HALF = geo.operand(1.0), geo.operand(2.0), geo.operand(0.5)
_NORM_FLOOR = geo.operand(1e-300)


@dataclass(frozen=True, eq=False)
class Problem:
    """A differentiable objective bound to a geometry.

    ``smoothness`` is the gradient Lipschitz constant with respect to the
    geometry's norm pair.  ``lipschitz_g`` is the constant of the additive
    nonsmooth upper-bound term (zero for smooth instances).  ``minimizer`` is
    None for nonconvex instances without a known unique minimizer location.
    ``value`` and ``grad`` default to the row forms at one row, so a point's
    value and gradient share the rows' arithmetic bitwise.
    """

    name: str
    geometry: geo.Geometry
    value_many: Callable[..., np.ndarray]
    grad_many: Callable[..., np.ndarray]
    smoothness: float
    optimal_value: float
    minimizer: np.ndarray | None = None
    lipschitz_g: float = 0.0
    value: Callable[[np.ndarray], float] | None = None
    grad: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        value_many, grad_many = self.value_many, self.grad_many
        if self.value is None:
            object.__setattr__(self, "value", lambda x: float(
                value_many(np.asarray(x, dtype=float)[None, :])[0]))
        if self.grad is None:
            object.__setattr__(self, "grad", lambda x: grad_many(
                np.asarray(x, dtype=float)[None, :])[0])

    @property
    def dim(self) -> int:
        return self.geometry.dim

    def gap(self, x) -> float:
        """Function value gap ``f(x) - f*``."""
        return float(self.value(np.asarray(x, dtype=float)) - self.optimal_value)

    def gap_many(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Row-wise value gaps, written into ``out`` when it is given.  At f* = +0.0 they are
        the values themselves: v - 0.0 is v for every double (-0.0, +-inf and NaN too), so
        the subtraction is skipped; at f* = -0.0 it is not, as -0.0 - (-0.0) is +0.0."""
        values = self.value_many(X, out)
        if self.optimal_value == 0.0 and math.copysign(1.0, self.optimal_value) > 0:
            return values
        return np.subtract(values, self.optimal_value, out)


def _laid_out(*vecs: np.ndarray):
    """``like(X)``: the (d,) constants ``vecs`` as operands for the rows ``X``, read-only.

    A constant whose d coordinates have the same bits (compared as int64, so that
    (0.0, -0.0) is not one) is one 0-d operand (``geometry.operand``) whatever ``X`` is,
    decided here, once.  The others are repeated over the trailing (n, d) axes of ``X`` and
    laid out as they are, made once per trailing shape and strides.  Those are looked up
    first by the whole shape and strides of ``X`` (cheaper than slicing out the trailing
    two), then by the trailing ones, so that a step's rows and a window of them share one
    set: a second set adds to the loop's working set (1.04-1.07x on the 500 x 32 SMD step
    rows).  When every constant is 0-d, ``like`` looks nothing up."""
    bits = [vec.view(np.int64) for vec in vecs]  # not np.unique: its first call takes 14 ms
    scalars = tuple(geo.operand(vec[0]) if b.size and (b == b[0]).all() else None
                    for vec, b in zip(vecs, bits))
    if None not in scalars:
        return lambda X: scalars
    cache = {}

    def like(X: np.ndarray) -> tuple:
        key = X.shape, X.strides
        consts = cache.get(key)
        if consts is None:
            shape, trailing = X.shape[-2:], X.shape[-2:] + X.strides[-2:]
            consts = cache.get(trailing)
            if consts is None:
                seed_major = X.ndim > 1 and X.strides[-2] < X.strides[-1]
                consts = tuple(_lay(vec, shape, seed_major) if scalar is None else scalar
                               for vec, scalar in zip(vecs, scalars))
            cache[key] = cache[trailing] = consts
        return consts

    return like


def _lay(vec: np.ndarray, shape: tuple, seed_major: bool) -> np.ndarray:
    """``vec`` repeated over an array of ``shape``, seed-contiguous if ``seed_major``, read-only."""
    const = np.empty(shape[::-1]).T if seed_major else np.empty(shape)
    const[...] = vec
    const.flags.writeable = False
    return const


def make_quadratic(diag, shift=None) -> Problem:
    """Diagonal quadratic ``0.5 * sum_i diag_i (x_i - shift_i)^2`` on l2 space.

    Smoothness constant is ``max(diag)``, the minimizer is ``shift`` and the
    optimal value is zero.
    """
    diag = np.asarray(diag, dtype=float)
    d = diag.size
    if not np.all(diag > 0):
        raise ValueError("quadratic requires strictly positive curvature entries")
    shift = np.zeros(d) if shift is None else np.asarray(shift, dtype=float)
    if shift.shape != (d,):
        raise ValueError("shift must match the curvature dimension")

    like = _laid_out(diag, shift)

    def value_many(X, out=None):
        diag_x, shift_x = like(X)
        R = np.subtract(X, shift_x)
        S = np.multiply(diag_x, R)
        S *= R  # diag > 0, so each term is +0.0 or more, or NaN
        return np.multiply(_HALF, geo.coord_sum(S, nonnegative=True), out)

    def grad_many(X, out=None):
        diag_x, shift_x = like(X)
        R = np.subtract(X, shift_x, out)
        return np.multiply(diag_x, R, R)

    return Problem(
        name="quadratic",
        geometry=geo.euclidean(d),
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
    if not (abs(np.sum(target) - 1.0) <= 1e-9 and np.all(target > 0)):
        raise ValueError("target must lie strictly inside the probability simplex")

    like = _laid_out(target)

    def value_many(X, out=None):
        R = np.subtract(X, like(X)[0])
        return np.multiply(_HALF, geo.coord_dot(R, R), out)

    def grad_many(X, out=None):
        return np.subtract(X, like(X)[0], out)

    return Problem(
        name="simplex_quadratic",
        geometry=geo.simplex(d),
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
    def value_many(X, out=None):
        S = np.square(X)
        R = np.add(_ONE, S)
        return geo.coord_sum(np.divide(S, R, R), out)

    def grad_many(X, out=None):  # 2x / (1 + x^2)^2
        D = np.square(X, out)  # X * X bit for bit; a ufunc given one array twice is slower
        np.add(_ONE, D, D)
        np.square(D, D)
        return np.divide(_TWO * X, D, D)  # not X + X, for the same reason

    return Problem(
        name="nonconvex_ratio",
        geometry=geo.euclidean(d),
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
    if not coef >= 0:
        raise ValueError("nonsmooth coefficient must be >= 0")

    c = geo.operand(coef)

    def value_many(X, out=None):
        sq = geo.coord_dot(X, X)
        return np.add(_HALF * sq, c * np.sqrt(sq), out)

    def grad_many(X, out=None):
        n = np.sqrt(geo.coord_dot(X, X))
        scale = np.where(n > 0, _ONE + c / np.maximum(n, _NORM_FLOOR), _ONE)
        return np.multiply(X, scale[..., None], out)

    return Problem(
        name="quadratic_plus_norm",
        geometry=geo.euclidean(d),
        smoothness=1.0,
        optimal_value=0.0,
        minimizer=np.zeros(d),
        lipschitz_g=2.0 * coef,
        value_many=value_many,
        grad_many=grad_many,
    )
