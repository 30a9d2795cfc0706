"""Zero-mean heavy-tailed gradient noise with analytically calibrated moments.

Two families are provided.  ``TwoPointNoise`` is zero except for rare
coordinate spikes of magnitude ``M = sigma * q**(-1/p)``, which makes the
p-th moment of the dual norm exactly ``sigma**p`` while stressing clipping
with large outliers.  ``RadialParetoNoise`` draws an l2-radial vector with a
Pareto radius of tail index ``a``; for ``a < 2`` the variance is infinite
while ``E r^p = a s^p / (a - p)`` stays finite, and the internal scale
``s = sigma * ((a - p) / a)**(1/p)`` calibrates the p-th moment to
``sigma**p`` exactly.

Randomness comes from numpy's counter-based 64-bit Philox generator seeded
through ``SeedSequence`` (``make_rng``).  Stream order is fixed and
documented on each sampler: per two-point draw, one uniform (spike
indicator), one integer (coordinate), one uniform (sign); per radial draw,
``d`` standard normals (direction, normalized) then one uniform (inverse-CDF
Pareto radius).  Batched draws consume the same fields in column-major
blocks and are the stream used by the run loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import Problem


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox generator; identical seeds give identical streams."""
    return np.random.Generator(np.random.Philox(seed))


def _check_p(p: float):
    if not (1.0 < p <= 2.0):
        raise ValueError(f"moment order p must lie in (1, 2], got {p}")


@dataclass(frozen=True)
class TwoPointNoise:
    """Rare symmetric coordinate spikes: +-M e_i with probability q, else 0."""

    p: float
    sigma: float
    q: float

    def __post_init__(self):
        _check_p(self.p)
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if not (0.0 < self.q <= 1.0):
            raise ValueError("spike probability q must lie in (0, 1]")

    @property
    def spike(self) -> float:
        """Spike magnitude M = sigma * q**(-1/p), so E||xi||^p = q M^p = sigma^p."""
        return self.sigma * self.q ** (-1.0 / self.p)

    @property
    def finite_variance(self) -> bool:
        return True  # bounded support

    def sample(self, d: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random()
        i = int(rng.integers(0, d))
        s = rng.random()
        xi = np.zeros(d)
        if u < self.q:
            xi[i] = self.spike if s < 0.5 else -self.spike
        return xi

    def sample_batch(self, d: int, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(n)
        idx = rng.integers(0, d, size=n)
        s = rng.random(n)
        out = np.zeros((n, d))
        hit = u < self.q
        out[np.nonzero(hit)[0], idx[hit]] = np.where(s[hit] < 0.5, self.spike, -self.spike)
        return out


@dataclass(frozen=True)
class RadialParetoNoise:
    """l2-radial noise with Pareto(a) radius; infinite variance for a < 2."""

    p: float
    sigma: float
    tail_index: float

    def __post_init__(self):
        _check_p(self.p)
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.tail_index <= self.p:
            raise ValueError("p-th moment would be infinite: tail index must exceed p")
        if self.tail_index > 2.0:
            raise ValueError("tail index must lie in (p, 2]")

    @property
    def scale(self) -> float:
        """Pareto scale s with E r^p = a s^p / (a - p) = sigma^p."""
        a = self.tail_index
        return self.sigma * ((a - self.p) / a) ** (1.0 / self.p)

    @property
    def finite_variance(self) -> bool:
        return self.tail_index > 2.0  # never true within the allowed range

    def sample(self, d: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal(d)
        z /= np.sqrt(z @ z)
        u = rng.random()
        return z * (self.scale * u ** (-1.0 / self.tail_index))

    def sample_batch(self, d: int, n: int, rng: np.random.Generator) -> np.ndarray:
        Z = rng.standard_normal((n, d))
        Z /= np.sqrt(np.einsum("ij,ij->i", Z, Z))[:, None]
        u = rng.random(n)
        r = self.scale * u ** (-1.0 / self.tail_index)
        return Z * r[:, None]


def make_noise(kind: str, p: float, sigma: float, *, q: float = 0.1, tail_index: float = 1.75):
    """Build a noise model by name; ``none`` is a zero-magnitude two-point model."""
    if kind == "two_point":
        return TwoPointNoise(p=p, sigma=sigma, q=q)
    if kind == "radial_pareto":
        return RadialParetoNoise(p=p, sigma=sigma, tail_index=tail_index)
    if kind == "none":
        return TwoPointNoise(p=p, sigma=0.0, q=1.0)
    raise ValueError(f"unknown noise kind {kind!r}")


def median_of_means(samples: np.ndarray, blocks: int = 50):
    """Median of block means plus the spread of block means.

    Robust location estimate for laws whose plain sample mean has unstable
    standard error (infinite variance).  Returns ``(estimate, spread)`` where
    spread is ``std(block means) / sqrt(blocks)``.  Works coordinatewise for
    2-d input.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if n < blocks:
        raise ValueError("need at least one sample per block")
    m = n // blocks
    trimmed = samples[: m * blocks]
    shaped = trimmed.reshape(blocks, m, *samples.shape[1:])
    block_means = shaped.mean(axis=1)
    est = np.median(block_means, axis=0)
    spread = block_means.std(axis=0, ddof=1) / np.sqrt(blocks)
    return est, spread


def moment_check(model, d: int, n: int, rng: np.random.Generator, blocks: int = 50):
    """Empirical p-th moment of the dual noise norm and its uncertainty.

    The norm of a coordinate spike is the same in l2 and l-infinity, and the
    radial family is only used with l2 geometries, so the l2 norm is the
    correct dual norm for both families.  The p-th power of the norm has
    finite variance only when the 2p-th moment exists; the Pareto family
    within its allowed tail range never satisfies that, so its estimate uses
    the median of block means and reports the block spread.  For tail index
    close to p the power's own tail index a/p approaches 1 and every
    location estimate of its mean typically undershoots at feasible sample
    sizes; treat the Pareto estimate as a typical-value report and verify
    calibration through the closed-form moment identity and distributional
    checks (see the tests).
    """
    if n < 1000:
        raise ValueError("need at least 1e3 samples for a moment check")
    xi = model.sample_batch(d, n, rng)
    powers = np.sqrt(np.einsum("ij,ij->i", xi, xi)) ** model.p
    if model.finite_variance:
        return float(powers.mean()), float(powers.std(ddof=1) / np.sqrt(n))
    est, spread = median_of_means(powers, blocks=blocks)
    return float(est), float(spread)


class Oracle:
    """Stochastic first-order oracle: exact gradient plus fresh additive noise.

    Carries its own mutable generator; use one instance per run (distinct
    seeds may run concurrently).  ``noise_matrix`` presamples the full noise
    sequence of a run in one batched draw, which the run loops use so that a
    single-run trajectory and a vectorized multi-seed sweep see identical
    noise for identical seeds.
    """

    def __init__(self, problem: Problem, noise, seed: int = 0):
        if isinstance(noise, RadialParetoNoise) and problem.geometry.kind == "simplex":
            raise ValueError("radial noise is calibrated for l2 geometries only")
        self.problem = problem
        self.noise = noise
        self.seed = seed
        self.rng = make_rng(seed)

    def grad(self, x) -> np.ndarray:
        """One stochastic gradient; history independent and unbiased."""
        x = np.asarray(x, dtype=float)
        return self.problem.grad(x) + self.noise.sample(self.problem.dim, self.rng)

    def noise_matrix(self, steps: int) -> np.ndarray:
        """Presampled (steps, dim) noise block consumed by the run loops."""
        return self.noise.sample_batch(self.problem.dim, steps, self.rng)
