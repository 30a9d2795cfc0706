"""The radial shrink factor shared by clipping and the ball projection.

Both operations rescale a vector of norm ``n`` to norm at most ``level``.
The factor ``min{1, level / n}`` is written ``level / max{n, level}``: it is
exactly 1 up to the level, and a NaN norm gives a NaN factor.  The module
imports nothing from the package, so ``geometry`` and ``clipping`` can both
use it.
"""

from __future__ import annotations

import numpy as np


def shrink_factors(norms: np.ndarray, level: float) -> np.ndarray:
    """Per-row factors ``min{1, level / norm}`` for a positive ``level``."""
    return level / np.maximum(norms, level)
