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
through ``SeedSequence`` (``make_rng``).  Each family writes its draw once,
in ``sample_block(d, points, n, rng)``: the stream of ``points`` successive
``sample_batch(d, n, rng)`` calls.  It makes each point's generator calls in
turn (two-point: n uniforms for the spike indicators, n integers for the
coordinates, n uniforms for the signs; radial: n * d standard normals for
the directions, n uniforms for the inverse-CDF Pareto radii) and only then
scatters the spikes or normalizes and scales the whole (points, n, d) block.
``sample_batch`` is its one-point case and can write its draw into a
caller's array (``out``).  The diagnostics draw the resamples of many steps
this way, with the stream of a per-step loop; one stochastic gradient at x
is ``problem.grad(x) + oracle.noise_matrix(1)[0]``.

Run noise: the loops read step t's (n, d) noise as ``slab(t)`` of a draws
object.  ``DenseDraws`` holds a presampled time-major (steps, d, n) block;
single runs and radial lockstep batches use it, the batch filling seed k's
strided slice ``[:, :, k]`` of an anonymous mapping of its own in place from
the seed's own generator.  ``SpikeDraws`` holds a two-point lockstep batch
as its spikes only: each seed's generator makes the calls of
``sample_batch(d, steps, rng)``, each hit is kept as one int64 key, and a
reused window of K steps is expanded from them with the dense slab's bits
and layout.  ``lockstep_draws`` builds the one a batch's noise family uses,
and the family's ``seed_step_bytes`` states its size per seed-step, by which
the harness sizes its seed chunks.
"""

from __future__ import annotations

import mmap
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

    def seed_step_bytes(self, d: int) -> float:
        """Bytes per seed-step of a lockstep batch's draws: ``q`` spikes of ``_SPIKE_BYTES``."""
        return _SPIKE_BYTES * self.q

    def sample_batch(self, d: int, n: int, rng: np.random.Generator,
                     out: np.ndarray | None = None) -> np.ndarray:
        """``n`` draws as an (n, d) array; only the spikes are written into ``out``,
        which must therefore hold zeros.  The one-point case of ``sample_block``."""
        return _one_point(self, d, n, rng, out)

    def sample_block(self, d: int, points: int, n: int, rng: np.random.Generator,
                     out: np.ndarray | None = None) -> np.ndarray:
        """``points`` successive ``sample_batch(d, n, rng)`` draws as a (points, n, d) block.

        Each point's three fields are drawn in turn, so the stream is that of
        the successive calls; the spikes of the whole block are then written
        with one scatter into ``out``, which must hold zeros.
        """
        U, S = np.empty((points, n)), np.empty((points, n))
        idx = np.empty((points, n), dtype=np.int64)
        for k in range(points):
            idx[k] = _spike_fields(rng, d, U[k], S[k])
        if out is None:
            out = np.zeros((points, n, d))
        hits = np.flatnonzero(U < self.q)
        k, i = np.divmod(hits, n)
        out[k, i, idx.ravel()[hits]] = np.where(S.ravel()[hits] < 0.5, self.spike, -self.spike)
        return out


def _spike_fields(rng: np.random.Generator, d: int, U: np.ndarray, S: np.ndarray) -> np.ndarray:
    """One point's ``len(U)`` two-point draws in stream order: the hit uniforms into ``U``,
    then the coordinates (returned), then the sign uniforms into ``S``."""
    rng.random(out=U)
    idx = rng.integers(0, d, size=U.size)
    rng.random(out=S)
    return idx


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

    def seed_step_bytes(self, d: int) -> int:
        """Bytes per seed-step of a lockstep batch's draws: d doubles of the dense block."""
        return 8 * d

    def sample_batch(self, d: int, n: int, rng: np.random.Generator,
                     out: np.ndarray | None = None) -> np.ndarray:
        """``n`` draws as an (n, d) array, written into ``out`` when it is given.
        The one-point case of ``sample_block``."""
        return _one_point(self, d, n, rng, out)

    def sample_block(self, d: int, points: int, n: int, rng: np.random.Generator,
                     out: np.ndarray | None = None) -> np.ndarray:
        """``points`` successive ``sample_batch(d, n, rng)`` draws as a (points, n, d) block.

        Each point's normals and uniforms are drawn in turn, so the stream is
        that of the successive calls; the whole block is then normalized and
        scaled at once.
        """
        Z, U = np.empty((points, n, d)), np.empty((points, n))
        for k in range(points):
            rng.standard_normal(out=Z[k])
            rng.random(out=U[k])
        rows = Z.reshape(points * n, d)
        rows /= np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
        U[U == 0.0] = 1.0  # uniform on (0, 1], as 1 - U is, and every other draw keeps its bits
        r = self.scale * U ** (-1.0 / self.tail_index)
        return np.multiply(Z, r[:, :, None], out=out)


def _one_point(model, d: int, n: int, rng: np.random.Generator, out) -> np.ndarray:
    """``sample_batch`` through ``sample_block``: ``out`` (any strided (n, d) view) is returned."""
    if out is None:
        return model.sample_block(d, 1, n, rng)[0]
    model.sample_block(d, 1, n, rng, out=out[None])
    return out


# -- lockstep draws: the noise of n seeds over a run, read one (n, d) step at a time --

# A window of steps holds K = _WINDOW_BYTES // (8 d n) steps of (n, d) doubles, so that
# the spike window, a run loop's window buffers and the temporaries of its per-window
# metrics (a few such blocks in all) stay in cache.  A spike window holds at least
# _WINDOW_MIN_STEPS steps: its expansion's fixed cost, a handful of numpy calls, would
# otherwise weigh on every step where one step's slab alone fills the budget.
_WINDOW_BYTES = 1 << 17
_WINDOW_MIN_STEPS = 8


def window_steps(steps: int, d: int, n: int) -> int:
    """K: the steps of one (K, d, n) window of doubles, at least one and at most ``steps``."""
    return max(1, min(steps, _WINDOW_BYTES // (8 * d * n)))


# Bytes a spike costs a ``SpikeDraws`` build at its peak, with a margin: its int64
# key plus the build's temporaries, which at the peak are another int64 word and a
# sign byte (about 18 bytes in all).  The margin covers what does not grow with the
# spikes: the window, one seed's draw buffers and each seed's array headers.
_SPIKE_BYTES = 32


class DenseDraws:
    """Noise presampled into a time-major (steps, d, n) block.

    Step t is ``block[t - 1].T``: the (n, d) view of a C-ordered (d, n) slab,
    whose rows are the seeds and whose coordinates each hold n adjacent values.
    """

    def __init__(self, block: np.ndarray):
        self.n = block.shape[2]
        self._slabs = block.transpose(0, 2, 1)

    def slab(self, t: int) -> np.ndarray:
        return self._slabs[t - 1]


class SpikeDraws:
    """Two-point noise of many seeds kept as its spikes, expanded K steps at a time.

    Seed k's generator (the k-th of ``rngs``) makes the generator calls of
    ``model.sample_batch(d, steps, rng)``, and only its hits are kept: each as
    one int64 key, twice the hit's flat index into the dense (steps, d, n)
    block plus 1 for a negative spike.  The keys are sorted, so they are step
    major.  ``slab(t)`` writes the spikes of t's window of K steps into a
    reused zero-filled (K, d, n) block and returns the (n, d) view of its
    C-ordered (d, n) slab: the same layout and the same +0.0 and +-M values as
    the dense block's slab, a -0.0 spike (sigma = 0) included.
    """

    def __init__(self, model: TwoPointNoise, d: int, steps: int, rngs):
        U, S = np.empty(steps), np.empty(steps)
        cells, negative = [], []
        for rng in rngs:
            idx = _spike_fields(rng, d, U, S)
            hits = np.flatnonzero(U < model.q)
            cells.append(hits * d + idx[hits])  # flat index into a seed's (steps, d) draw
            negative.append(S[hits] >= 0.5)
        self.n = n = len(cells)
        counts = [c.size for c in cells]
        keys = np.concatenate(cells)
        del cells  # the per-seed arrays go before the key arithmetic makes its temporaries
        keys *= 2 * n
        keys += np.repeat(np.arange(0, 2 * n, 2), counts)
        keys += np.concatenate(negative)
        del negative
        keys.sort()
        self.keys = keys
        self.spike = model.spike
        self._K = K = max(window_steps(steps, d, n), min(steps, _WINDOW_MIN_STEPS))
        window = np.zeros((K, d, n))
        self._flat = window.reshape(-1)
        self._slabs = [slab.T for slab in window]  # made once: a step costs no view
        self._bounds = np.searchsorted(keys, 2 * window.size * np.arange(-(-steps // K) + 1))
        self._first = -K  # first step of the window now expanded; none yet
        self._written = np.empty(0, dtype=np.int64)

    def slab(self, t: int) -> np.ndarray:
        i = t - self._first
        if not 0 <= i < self._K:
            self._expand((t - 1) // self._K)
            i = t - self._first
        return self._slabs[i]

    def _expand(self, w: int):
        flat = self._flat
        flat[self._written] = 0.0
        keys = self.keys[self._bounds[w]:self._bounds[w + 1]]
        self._written = (keys >> 1) - w * flat.size
        flat[self._written] = np.where(keys & 1, -self.spike, self.spike)
        self._first = w * self._K + 1


def lockstep_draws(model, d: int, steps: int, seeds):
    """The noise of a lockstep batch, seed k's drawn from ``make_rng(seeds[k])``: two-point
    noise kept as its spikes, radial noise into ``[:, :, k]`` of one zero-filled (steps, d, n)
    block."""
    rngs = (make_rng(int(seed)) for seed in seeds)
    if isinstance(model, TwoPointNoise):
        return SpikeDraws(model, d, steps, rngs)
    block = _zero_block((steps, d, len(seeds)))
    for k, rng in enumerate(rngs):
        model.sample_batch(d, steps, rng, out=block[:, :, k])
    return DenseDraws(block)


def _zero_block(shape) -> np.ndarray:
    """A zero-filled float block on fresh pages of its own, unmapped when the array goes.

    ``np.zeros`` puts a block below malloc's mmap threshold (which glibc raises
    to the size of the last block freed, up to 32 MiB) on the heap.  Whether it
    then reuses the resident pages of the previous batch's block or grows the
    heap depends on what small allocations landed in between, so the peak
    resident size of a run of batches could differ by a whole block from one
    process to the next.  A private anonymous mapping holds only the block and
    goes back to the system with it; like numpy for its own large blocks, it
    asks for huge pages where the platform has them, without which the page
    faults of a large block cost about twice as much.
    """
    nbytes = 8 * int(np.prod(shape))
    if nbytes == 0:
        return np.zeros(shape)
    pages = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        pages.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(pages, dtype=float).reshape(shape)


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


def check_noise_geometry(problem: Problem, noise) -> None:
    """Reject a noise model that is not calibrated for the problem's geometry."""
    if isinstance(noise, RadialParetoNoise) and problem.geometry.kind == "simplex":
        raise ValueError("radial noise is calibrated for l2 geometries only")


class Oracle:
    """One problem's seeded noise stream: the additive noise of a stochastic oracle.

    Carries its own mutable generator; use one instance per run (distinct
    seeds may run concurrently).  ``noise_matrix`` presamples the full noise
    sequence of a run in one batched draw, which the single-run loops use.
    The lockstep runners make the same ``sample_batch`` draw from
    ``make_rng(seed)`` for each seed, so a single-run trajectory and a
    vectorized multi-seed sweep see identical noise for identical seeds.
    """

    def __init__(self, problem: Problem, noise, seed: int = 0):
        check_noise_geometry(problem, noise)
        self.problem = problem
        self.noise = noise
        self.seed = seed
        self.rng = make_rng(seed)

    def noise_matrix(self, steps: int) -> np.ndarray:
        """The next ``steps`` draws of the stream as a (steps, dim) block; the run
        loops presample a run's noise this way."""
        return self.noise.sample_batch(self.problem.dim, steps, self.rng)
