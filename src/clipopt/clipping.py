"""The clipping operator, noise-error decomposition, and robust initial estimates.

``clip`` rescales a vector to dual norm at most ``level``; the factor at a
zero vector is defined as 1, which makes the operator continuous across the
below-threshold region.  The error of a clipped stochastic gradient against
the true gradient splits into a zero-conditional-mean part and a clipping
bias; since the oracle is history independent, the bias and the moments of
the zero-mean part are conditional moments at a fixed point, which each noise
family states exactly (``clipped_moments``).  :func:`estimate_theta`
decomposes one error with them.

``estimate_g0`` implements the robust initial gradient estimate: block means
of raw stochastic gradients combined by their geometric median (Weiszfeld
iteration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import coord_dot, shrink_factors

if TYPE_CHECKING:
    from .noise import Oracle


def clip(g, level: float, dual_norm=None) -> np.ndarray:
    """``min{1, level / ||g||_*} * g``; unchanged when the norm is below level.  Without
    ``dual_norm`` it clips in the l2 norm."""
    g = np.asarray(g, dtype=float)
    norms = None if dual_norm is None else np.array([dual_norm(g)])
    return clip_batch(g[None, :], level, norms)[0]


def clip_batch(G: np.ndarray, level, dual_norms: np.ndarray | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise clip of an (n, d) array at ``level``, a float or an (n,) array of
    per-row levels; ``dual_norms`` may be precomputed, and without them the rows clip
    in the l2 norm.

    The clip is written into ``out`` when it is given (``G`` itself may be ``out``).
    A level that is not positive is rejected (a NaN one is not).  A row under its level
    keeps the factor 1, and so does a row at an infinite level, a float or a row's own,
    unless its norm is NaN.
    """
    # plain comparisons for a finite float: the ufunc costs ~2.8 us on one, 80 times as much
    scalar = isinstance(level, float)
    nonpositive = level <= 0 if scalar else np.less_equal(level, 0).any()
    if nonpositive:
        raise ValueError("clipping level must be positive")
    if dual_norms is None:
        dual_norms = np.sqrt(coord_dot(G, G))
    if scalar and level < np.inf:
        factors = shrink_factors(dual_norms, level)
    else:
        with np.errstate(invalid="ignore"):  # inf / inf, set to 1 below
            factors = shrink_factors(dual_norms, level)
        factors[np.isinf(level) & ~np.isnan(dual_norms)] = 1.0
    return np.multiply(G, factors[:, None], out=out)


@dataclass(frozen=True)
class ThetaEstimate:
    """Realized clipped-gradient error and its decomposition.

    ``theta`` is the realized error of one clipped sample against the true
    gradient; ``theta_b`` is the conditional-mean bias at the same point, from
    the noise family's exact ``clipped_moments``, and ``theta_u = theta -
    theta_b``, so the decomposition is exact by construction.
    """

    theta: np.ndarray
    theta_u: np.ndarray
    theta_b: np.ndarray


def estimate_theta(oracle: Oracle, x, level: float) -> ThetaEstimate:
    """Decompose one clipped-gradient error at ``x`` by its conditional moments.

    The primary draw is the next draw of the oracle's own stream; the bias is
    exact, so nothing else is drawn.
    """
    problem = oracle.problem
    aux = oracle.noise.clipped_moments(problem, [x], level)
    g_true, theta_b = aux.grad[0], aux.cond_mean[0] - aux.grad[0]
    g = problem.grad(np.asarray(x, dtype=float)) + oracle.noise_matrix(1)[0]
    theta = clip(g, level, problem.geometry.dual_norm) - g_true
    return ThetaEstimate(theta=theta, theta_u=theta - theta_b, theta_b=theta_b)


def geometric_median(points: np.ndarray, tol: float = 1e-10, max_iter: int = 1000) -> np.ndarray:
    """Geometric median by Weiszfeld iteration with the atom correction.

    When the iterate coincides with data points (which happens whenever the
    median is a repeated point, a common case for block means of sparse
    noise), the plain iteration is undefined or stalls; the correction
    treats the coincident mass explicitly and terminates exactly once that
    mass dominates the pull of the remaining points.  Convergence is
    declared when either the iterate displacement or the relative objective
    decrease falls below ``tol`` (near-critical instances have a flat
    objective where displacement alone contracts arbitrarily slowly).
    Raises RuntimeError with the iteration count otherwise.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("expected a (k, d) array of points")
    # the coordinatewise median starts on top of repeated points, where the
    # mean-started iteration would crawl at a near-unit contraction rate
    y = np.median(pts, axis=0)
    scale = max(float(np.max(np.abs(pts))), 1.0)
    objective = None
    for _ in range(max_iter):
        diff = pts - y
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        coincident = dist <= 1e-14 * scale
        m0 = int(np.sum(coincident))
        if m0 == pts.shape[0]:
            return y
        w = np.where(coincident, 0.0, 1.0 / np.maximum(dist, 1e-300))
        weiszfeld = (w[:, None] * pts).sum(axis=0) / w.sum()
        if m0 > 0:
            pull = np.linalg.norm((w[:, None] * diff).sum(axis=0))
            if pull <= m0:
                return y  # the coincident atom holds the median in place
            step = m0 / pull
            y_new = (1.0 - step) * weiszfeld + step * y
        else:
            y_new = weiszfeld
        objective_new = float(np.sum(np.sqrt(np.einsum("ij,ij->i", pts - y_new, pts - y_new))))
        moved = float(np.linalg.norm(y_new - y))
        stalled = objective is not None and abs(objective - objective_new) <= tol * max(objective_new, 1e-300)
        if moved <= tol or stalled:
            return y_new
        y = y_new
        objective = objective_new
    raise RuntimeError(f"Weiszfeld iteration did not converge within {max_iter} iterations")


def estimate_g0(problem, noise_model, x0, blocks: int, per_block: int,
                rng: np.random.Generator):
    """Geometric median of block means of raw stochastic gradients at ``x0``.

    The ``blocks * per_block`` draws consume ``rng``.  Returns ``(g0, mu)``
    where ``mu`` is the realized ``||g0 - grad f(x0)||_* / sigma`` (zero
    when sigma is zero).
    """
    if blocks < 1 or per_block < 1:
        raise ValueError("blocks and per_block must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    d = problem.dim
    g_true = problem.grad(x0)
    draws = g_true + noise_model.sample_batch(d, blocks * per_block, rng)
    block_means = draws.reshape(blocks, per_block, d).mean(axis=1)
    g0 = geometric_median(block_means)
    err = problem.geometry.dual_norm(g0 - g_true)
    sigma = noise_model.sigma
    mu = err / sigma if sigma > 0 else 0.0
    return g0, float(mu)
