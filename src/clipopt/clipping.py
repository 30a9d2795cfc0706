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

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .geometry import coord_dot, shrink_factors
from .noise import Oracle


def clip(g, level: float, dual_norm=None) -> np.ndarray:
    """``min{1, level / ||g||_*} * g``; unchanged when the norm is below level."""
    g = np.asarray(g, dtype=float)
    norms = None if dual_norm is None else np.array([dual_norm(g)])
    return clip_batch(g[None, :], level, norms)[0]


def clip_batch(G: np.ndarray, level: float, dual_norms: np.ndarray | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise clip of an (n, d) array; ``dual_norms`` may be precomputed.

    The clip is written into ``out`` when it is given (``G`` itself may be ``out``).
    """
    if level <= 0:
        raise ValueError("clipping level must be positive")
    if dual_norms is None:
        dual_norms = np.sqrt(coord_dot(G, G))
    return np.multiply(G, shrink_factors(dual_norms, level)[:, None], out=out)


# Points per chunk of the resampling kernel: a chunk's (points, resamples, d)
# block holds about this many doubles, so its temporaries stay in cache.
_RESAMPLE_BLOCK = 1 << 15

# Per-point (P, d) or (P,) summaries of clipped resamples; ``u`` is a draw minus
# ``cond_mean``, ``u_over`` counts ``||u||_* > 2 level`` (ruled out by clipping up
# to roundoff), ``var`` and ``u_sq_sd`` use ddof=1, ``stderr`` is cond_mean's l2 s.e.
Resampled = namedtuple("Resampled", "grad cond_mean var stderr u_sq_mean u_sq_sd u_max u_over")


def resample_clipped(problem, noise_model, X, levels, resamples: int,
                     rng: np.random.Generator) -> Resampled:
    """Clip ``resamples`` fresh draws at each row of ``X`` with that row's level.

    Row k's draws are the k-th of successive ``noise_model.sample_batch(d,
    resamples, rng)`` calls, and its numbers are bitwise numpy's ``mean``,
    ``var`` and ``std`` over its own draws.  Rows go in chunks of about
    ``_RESAMPLE_BLOCK`` doubles, each clipped and reduced as one block.
    """
    grad = problem.grad_many(np.asarray(X, dtype=float))
    points, d = grad.shape
    levels = np.broadcast_to(np.asarray(levels, dtype=float), (points,))
    if np.any(levels <= 0):
        raise ValueError("clipping level must be positive")
    geom = problem.geometry
    step = max(1, _RESAMPLE_BLOCK // (resamples * d))
    chunks = []
    for lo in range(0, points, step):
        n = min(step, points - lo)
        # resample-major: a sum over resamples adds (n, d) slabs in numpy's per-point order
        block = np.zeros((resamples, n, d))
        noise_model.sample_block(d, n, resamples, rng, out=block.transpose(1, 0, 2))
        block += grad[lo:lo + n]
        rows = block.reshape(-1, d)
        level = np.tile(levels[lo:lo + n], resamples)
        rows *= shrink_factors(geom.dual_norm_many(rows), level)[:, None]
        mean = block.mean(axis=0)
        u = block - mean
        var = np.add.reduce(u * u, axis=0) / (resamples - 1)  # numpy's var(ddof=1)
        norms = geom.dual_norm_many(u.reshape(-1, d))
        over = np.count_nonzero((norms > 2.0 * level * (1 + 1e-12)).reshape(resamples, n), axis=0)
        norms = np.ascontiguousarray(norms.reshape(resamples, n).T)  # pairwise sums per point
        u_sq = norms ** 2
        chunks.append((mean, var, u_sq.mean(axis=1), u_sq.std(axis=1, ddof=1),
                       norms.max(axis=1), over))
    mean, var, u_sq_mean, u_sq_sd, u_max, over = map(np.concatenate, zip(*chunks))
    return Resampled(grad, mean, var, np.sqrt(np.sum(var, axis=1) / resamples),
                     u_sq_mean, u_sq_sd, u_max, over)


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

    The primary draw is the next draw of the oracle's own stream; the
    ``samples`` auxiliary draws consume ``rng`` so that attaching the
    estimator to a run does not perturb the run's trajectory.
    """
    if samples < 100:
        raise ValueError("need at least 100 resamples for a stable conditional mean")
    problem = oracle.problem
    aux = resample_clipped(problem, oracle.noise, [x], level, samples, rng)
    g_true, theta_b = aux.grad[0], aux.cond_mean[0] - aux.grad[0]
    g = problem.grad(np.asarray(x, dtype=float)) + oracle.noise_matrix(1)[0]
    theta = clip(g, level, problem.geometry.dual_norm) - g_true
    return ThetaEstimate(theta=theta, theta_u=theta - theta_b, theta_b=theta_b,
                         samples=samples, stderr=float(aux.stderr[0]))


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

    The ``blocks * per_block`` draws consume ``rng``.  Returns ``(g0,
    mu_observed)`` where ``mu_observed`` is the realized
    ``||g0 - grad f(x0)||_* / sigma`` (zero when sigma is zero).
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
