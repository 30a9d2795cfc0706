"""The clipping operator, noise-error decomposition, and robust initial estimates.

``clip`` rescales a vector to dual norm at most ``level``; the factor at a
zero vector is defined as 1, which makes the operator continuous across the
below-threshold region.  The error of a clipped stochastic gradient against
the true gradient splits into a zero-conditional-mean part and a clipping
bias; since the oracle is history independent, both parts can be estimated by
resampling at a fixed point, which is what :func:`estimate_theta` does.

``estimate_g0`` implements the robust initial gradient estimate: block means
of raw stochastic gradients combined by their geometric median (Weiszfeld
iteration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import Oracle


def clip(g, level: float, dual_norm=None) -> np.ndarray:
    """``min{1, level / ||g||_*} * g``; unchanged when the norm is below level."""
    g = np.asarray(g, dtype=float)
    norms = None if dual_norm is None else np.array([dual_norm(g)])
    return clip_batch(g[None, :], level, norms)[0]


def clip_batch(G: np.ndarray, level: float, dual_norms: np.ndarray | None = None) -> np.ndarray:
    """Row-wise clip of an (n, d) array; ``dual_norms`` may be precomputed."""
    if level <= 0:
        raise ValueError("clipping level must be positive")
    if dual_norms is None:
        dual_norms = np.sqrt(np.einsum("ij,ij->i", G, G))
    # min{1, level / norm} written as level / max{norm, level}: exactly 1 up to the level
    factors = level / np.maximum(dual_norms, level)
    return G * factors[:, None]


@dataclass(frozen=True)
class ThetaEstimate:
    """Realized clipped-gradient error and its resampled decomposition.

    ``theta`` is the realized error of one clipped sample against the true
    gradient; ``theta_b`` estimates the conditional-mean bias from ``samples``
    auxiliary clipped draws at the same point, and ``theta_u = theta -
    theta_b`` so the decomposition is exact by construction.  ``stderr`` is
    the l2 standard error of the estimated conditional mean.
    """

    theta: np.ndarray
    theta_u: np.ndarray
    theta_b: np.ndarray
    samples: int
    stderr: float


def estimate_theta(oracle: Oracle, x, level: float, samples: int, rng: np.random.Generator) -> ThetaEstimate:
    """Decompose one clipped-gradient error at ``x`` via resampling.

    The primary draw consumes the oracle's own stream; the ``samples``
    auxiliary draws consume ``rng`` so that attaching the estimator to a run
    does not perturb the run's trajectory.
    """
    if samples < 100:
        raise ValueError("need at least 100 resamples for a stable conditional mean")
    x = np.asarray(x, dtype=float)
    geom = oracle.problem.geometry
    g_true = oracle.problem.grad(x)
    primary = clip(oracle.grad(x), level, geom.dual_norm)

    aux_noise = oracle.noise.sample_batch(oracle.problem.dim, samples, rng)
    aux_clipped = clip_batch(g_true + aux_noise, level, geom.dual_norm_many(g_true + aux_noise))
    cond_mean = aux_clipped.mean(axis=0)
    per_coord_var = aux_clipped.var(axis=0, ddof=1)
    stderr = float(np.sqrt(np.sum(per_coord_var) / samples))

    theta = primary - g_true
    theta_b = cond_mean - g_true
    return ThetaEstimate(theta=theta, theta_u=theta - theta_b, theta_b=theta_b,
                         samples=samples, stderr=stderr)


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


def estimate_g0(oracle: Oracle, x0, blocks: int, per_block: int, rng: np.random.Generator):
    """Geometric median of block means of raw stochastic gradients at ``x0``.

    Returns ``(g0, mu_observed)`` where ``mu_observed`` is the realized
    ``||g0 - grad f(x0)||_* / sigma`` (zero when sigma is zero).
    """
    if blocks < 1 or per_block < 1:
        raise ValueError("blocks and per_block must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    d = oracle.problem.dim
    g_true = oracle.problem.grad(x0)
    draws = g_true + oracle.noise.sample_batch(d, blocks * per_block, rng)
    block_means = draws.reshape(blocks, per_block, d).mean(axis=1)
    g0 = geometric_median(block_means)
    err = oracle.problem.geometry.dual_norm(g0 - g_true)
    sigma = oracle.noise.sigma
    mu = err / sigma if sigma > 0 else 0.0
    return g0, float(mu)
