"""The clipping operator.

``clip`` rescales a vector to dual norm at most ``level``; the factor at a
zero vector is defined as 1, which makes the operator continuous across the
below-threshold region.  ``clip_batch`` clips the rows of an (n, d) array, at
one level or one level per row.  The error of a clipped stochastic gradient
against the true gradient splits into a zero-conditional-mean part and a
clipping bias; each noise family states the moments of both exactly
(``clipped_moments``), and ``diagnostics.check_clipping_error_bounds`` checks
them against the analysis's bounds.
"""

from __future__ import annotations

import numpy as np

from .geometry import coord_dot, shrink_factors


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
