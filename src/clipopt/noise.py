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
in ``sample_batch(d, n, rng)``, which can write it into a caller's array
(``out``): two-point noise draws n uniforms for the spike indicators, n
integers for the coordinates and n uniforms for the signs, then scatters the
spikes; radial noise draws n * d standard normals for the directions and n
uniforms for the inverse-CDF Pareto radii, then normalizes and scales.  One
stochastic gradient at x is ``problem.grad(x) + model.sample_batch(d, 1, rng)[0]``.

Each family also states exactly, at many points, what the clipping-error
analysis reads of its clipped draws (``clipped_moments``): their mean, their
second moment about it, and the support points past twice the level.  So the
diagnostics draw nothing: two-point noise sums over its 2d + 1 support points,
radial noise is a fixed-node Gauss-Legendre sum over the draw's radius and
its angle to the gradient.

Run noise: the loops read step t's (n, d) noise as ``slab(t)`` of a draws
object, and ``lockstep_draws`` is the one builder of a run's draws, from one
generator per seed; a single run is its n = 1 case, on its oracle's generator.
``DenseDraws`` holds a presampled time-major (steps, d, n) block; radial runs
use it, seed k's strided slice ``[:, :, k]`` of one zero-filled block filled
in place from the seed's own generator.  ``SpikeDraws`` holds a two-point run
as its spikes only: each seed's generator makes the calls of
``sample_batch(d, steps, rng)``, each hit is kept as one int64 key, and a
reused window of K steps is expanded from them with the dense slab's bits
and layout.  The family's ``seed_step_bytes`` states the draws' size per
seed-step, by which the harness sizes its seed chunks.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .clipping import clip_batch
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
        if not self.sigma >= 0:
            raise ValueError("sigma must be >= 0")
        if not (0.0 < self.q <= 1.0):
            raise ValueError("spike probability q must lie in (0, 1]")

    @property
    def spike(self) -> float:
        """Spike magnitude M = sigma * q**(-1/p), so E||xi||^p = q M^p = sigma^p."""
        return self.sigma * self.q ** (-1.0 / self.p)

    def seed_step_bytes(self, d: int) -> float:
        """Bytes per seed-step of a lockstep batch's draws: ``q`` spikes of ``_SPIKE_BYTES``."""
        return _SPIKE_BYTES * self.q

    def sample_batch(self, d: int, n: int, rng: np.random.Generator,
                     out: np.ndarray | None = None) -> np.ndarray:
        """``n`` draws as an (n, d) array; only the spikes are written into ``out``,
        which must therefore hold zeros."""
        U, S = np.empty(n), np.empty(n)
        idx = _spike_fields(rng, d, U, S)
        if out is None:
            out = np.zeros((n, d))
        hits = np.flatnonzero(U < self.q)
        out[hits, idx[hits]] = np.where(S[hits] < 0.5, self.spike, -self.spike)
        return out

    def clipped_moments(self, problem: Problem, X, levels) -> ClippedMoments:
        """The ``ClippedMoments`` of the clipped draws at each row of ``X``, exactly.

        A draw at x is one of 2d + 1 support points: grad f(x) with weight 1 - q,
        and grad f(x) +- M e_i with weight q / (2d) each.  Each point is clipped by
        ``clip_batch`` at its row's level: ``cond_mean`` and ``u_sq_mean`` are weighted
        sums over them, and ``u_over`` counts over the points of positive weight only
        (q = 1 gives the centre weight 0).  Nothing is drawn.
        """
        grad = problem.grad_many(np.asarray(X, dtype=float))
        points, d = grad.shape
        levels = np.broadcast_to(np.asarray(levels, dtype=float), (points,))
        offsets = self.spike * np.concatenate((np.zeros((1, d)), np.eye(d), -np.eye(d)))
        weight = np.full(2 * d + 1, self.q / (2 * d))
        weight[0] = 1.0 - self.q
        step = max(1, _MOMENT_BLOCK // (weight.size * d))
        chunks = [_support_moments(problem.geometry, grad[lo:lo + step, None, :] + offsets,
                                   weight, levels[lo:lo + step])
                  for lo in range(0, points, step)]
        return ClippedMoments(grad, *map(np.concatenate, zip(*chunks)))


# The moments of the clipped draws at each of P points, as (P, d) or (P,) fields: the
# gradient, the clipped draw's mean ``cond_mean``, the mean ``u_sq_mean`` of ||u||_*^2,
# u a clipped draw minus ``cond_mean``, and ``u_over``, the support points with
# ||u||_* > 2 level, which clipping rules out up to roundoff.  The clipping-error
# check reads the bias, the second moment and ``u_over``; the supermartingale weights
# read the first two.
ClippedMoments = namedtuple("ClippedMoments", "grad cond_mean u_sq_mean u_over")

# Points per chunk of either family's ``clipped_moments``: a chunk's nodes (the 2d + 1
# support points of a two-point draw, of d doubles each, or a radial draw's quadrature
# nodes) hold about this many doubles, so their temporaries stay in cache.
_MOMENT_BLOCK = 1 << 15

# Gauss-Legendre nodes per panel of the radial quadrature, in the angle and in the radius.
_QUAD_NODES = 18


def _support_moments(geom, support: np.ndarray, weight: np.ndarray, levels: np.ndarray):
    """``ClippedMoments``' fields after ``grad`` (``cond_mean``, ``u_sq_mean`` and
    ``u_over``) over a (points, k, d) ``support`` of ``weight``, clipped in place at each
    point's level.  The weighted sums reduce each point's own rows, so a point's bits do
    not depend on the chunk around it (a BLAS product's do)."""
    k, d = support.shape[1:]
    rows = support.reshape(-1, d)
    with np.errstate(over="ignore"):  # a norm past the doubles is inf: that point clips to 0,
        norms = geom.dual_norm_many(rows)  # as the run loops clip such a draw
    clip_batch(rows, np.repeat(levels, k), norms, out=rows)
    mean = np.sum(support * weight[:, None], axis=1)
    u = support - mean[:, None, :]
    # a weighted square is the square of a root-weighted value, so a tiny weight on a
    # huge spike overflows nothing whose weighted value is finite
    r = geom.dual_norm_many(u * np.sqrt(weight)[:, None])  # sqrt(w) ||u||
    norms = geom.dual_norm_many(u)[:, weight > 0]
    over = np.count_nonzero(norms > 2.0 * levels[:, None] * (1 + 1e-12), axis=1)
    return mean, np.sum(r * r, axis=1), over


def _spike_fields(rng: np.random.Generator, d: int, U: np.ndarray, S: np.ndarray) -> np.ndarray:
    """One ``sample_batch``'s ``len(U)`` two-point draws in stream order: the hit uniforms
    into ``U``, then the coordinates (returned), then the sign uniforms into ``S``."""
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
        if not self.sigma >= 0:
            raise ValueError("sigma must be >= 0")
        if not self.tail_index > self.p:
            raise ValueError("p-th moment would be infinite: tail index must exceed p")
        if self.tail_index > 2.0:
            raise ValueError("tail index must lie in (p, 2]")

    @property
    def scale(self) -> float:
        """Pareto scale s with E r^p = a s^p / (a - p) = sigma^p."""
        a = self.tail_index
        return self.sigma * ((a - self.p) / a) ** (1.0 / self.p)

    def seed_step_bytes(self, d: int) -> int:
        """Bytes per seed-step of a lockstep batch's draws: d doubles of the dense block."""
        return 8 * d

    def sample_batch(self, d: int, n: int, rng: np.random.Generator,
                     out: np.ndarray | None = None) -> np.ndarray:
        """``n`` draws as an (n, d) array, written into ``out`` when it is given."""
        Z, U = np.empty((n, d)), np.empty(n)
        rng.standard_normal(out=Z)
        rng.random(out=U)
        Z /= np.sqrt(np.einsum("ij,ij->i", Z, Z))[:, None]
        U[U == 0.0] = 1.0  # uniform on (0, 1], as 1 - U is, and every other draw keeps its bits
        r = self.scale * U ** (-1.0 / self.tail_index)
        return np.multiply(Z, r[:, None], out=out)

    def clipped_moments(self, problem: Problem, X, levels) -> ClippedMoments:
        """The ``ClippedMoments`` of the clipped draws at each row of ``X``, by quadrature.

        A draw at x is g + r u, g = grad f(x), whose clip depends only on r and the angle
        between u and g: the mean lies along g, and ``_radial_moments`` sums it and the
        second moment in units of the level.  ``u_over`` flags a mean outside the ball:
        the radius reaches the whole clip sphere, so the largest ||u|| is level +
        ||cond_mean||, past twice the level there.  An infinite level leaves the draw
        unclipped: mean g and an infinite second moment (0 at sigma = 0).  A point's bits
        do not depend on its chunk.  Nothing is drawn.
        """
        check_noise_geometry(problem, self)
        grad = problem.grad_many(np.asarray(X, dtype=float))
        points, d = grad.shape
        levels = np.broadcast_to(np.asarray(levels, dtype=float), (points,))
        if not np.all(levels > 0):
            raise ValueError("clipping level must be positive")
        unclipped = levels == np.inf
        levels = np.where(unclipped, 1.0, levels)  # a stand-in, overwritten below
        norms = problem.geometry.norm_many(grad)
        # Past 1e300 levels every draw clips to its direction, set by |g| / scale alone; a
        # floor s / level that underflows (or sigma = 0) is the least double, weighing nothing
        summed_at = np.maximum(levels, np.maximum(norms, self.scale) / 1e300)
        ratio, floor = norms / summed_at, np.maximum(self.scale / summed_at, 5e-324)
        nodes = _legendre(_QUAD_NODES)
        step = max(1, _MOMENT_BLOCK // ((2 if d == 1 else 3 * _QUAD_NODES) * 4 * _QUAD_NODES))
        along, root = map(np.concatenate, zip(*(
            _radial_moments(ratio[lo:lo + step], floor[lo:lo + step], self.tail_index, d, nodes)
            for lo in range(0, points, step))))
        mean = (levels * along)[:, None] * (grad / np.where(norms > 0, norms, 1.0)[:, None])
        with np.errstate(over="ignore"):  # level^2 v as (level sqrt(v))^2: inf past the doubles
            u_sq_mean = (levels * root) ** 2
        u_over = (problem.geometry.norm_many(mean) > levels * (1 + 2e-12)).astype(np.intp)
        mean[unclipped] = grad[unclipped]
        u_sq_mean[unclipped] = np.inf if self.sigma > 0 else 0.0
        return ClippedMoments(grad, mean, u_sq_mean, u_over)


def _legendre(n: int):
    """n Gauss-Legendre nodes and weights on [0, 1], and the same nodes and weights through
    x -> (1 - cos(pi x)) / 2, which crowds them toward both ends."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = (x + 1.0) / 2.0, w / 2.0
    return x, w, (1.0 - np.cos(np.pi * x)) / 2.0, np.pi / 2.0 * np.sin(np.pi * x) * w


def _radial_moments(G: np.ndarray, s: np.ndarray, a: float, d: int, nodes):
    """The clip at level 1 of g + r u, for ||g|| = G, u uniform on the unit sphere of R^d and
    r Pareto(a) above s, at the (P,) points ``G`` and ``s`` (finite, s > 0; a floor of the
    least double is a point without noise): its mean along g, and the root of E||v||^2,
    v the clip minus its mean.

    A Gauss-Legendre sum on the ``_legendre`` ``nodes`` over the angle phi between u and g
    (weight sin^(d-2) phi; the points 0 and pi at d = 1) and over log r.  The angle's
    panels end at the tangent angle pi - arcsin(1/G) (pi/2 for G <= 1), past which a window
    [r_-, r_+] of radii goes unclipped (its share grows as (phi - tangent)^(3/2), so that
    panel takes its nodes squared), and where the window meets the floor r = s (else at
    tangent / 2).  The radius's panels, nodes crowded to their ends, end at s, r_-, r_+
    (s when absent) and G, near which the clip is nearly singular for phi near pi; the
    tail past them takes w = w_last t^4 of the Pareto uniform w = (s/r)^a.  The clip is
    taken in units of M = max(G, s, 1), so that no product overflows.  The weights w, and
    the second moment, which gathers where w is about s^a, lose bits to underflow once s^a
    nears the doubles' floor: a point with noise and s^a < e^-600 has its weights divided
    by s^a (by at most e^690, so that none overflows) and its sums multiplied back.  Each
    deviation is weighed before it is squared, as one below 1e-154 has a square that
    underflows where its rescued weight is large.
    """
    x, wx, xc, wc = nodes
    n, G, s = G.size, G[:, None], s[:, None]
    if d == 1:
        phi, w_phi = np.tile([0.0, np.pi], (n, 1)), np.full((n, 2), 0.5)
    else:
        tangent = np.pi - np.arcsin(1.0 / np.maximum(G, 1.0))
        # |g + s u| = 1 at cos phi = (1 - (G - s)^2) / (2 G s) - 1 if |G - s| < 1 < G + s
        gap = np.clip(G - s, -1.0, 1.0)
        meets = (np.abs(gap) < 1.0) & (G + s > 1.0)
        half = np.divide((1.0 - gap) * (1.0 + gap) / 2.0, G, out=np.zeros_like(G), where=meets)
        floor_angle = np.where(meets, np.arccos(np.clip(half / s - 1.0, -1.0, 1.0)), tangent / 2)
        edges = np.sort(np.hstack([np.zeros_like(G), floor_angle, tangent,
                                   np.full_like(G, np.pi)]), axis=1)
        lo, width = edges[:, :-1, None], np.diff(edges, axis=1)[:, :, None]
        past = lo == tangent[:, :, None]
        phi = (lo + width * np.where(past, x * x, x)).reshape(n, -1)
        w_phi = (width * np.where(past, 2.0 * x * wx, wx)).reshape(n, -1) * np.sin(phi) ** (d - 2)
        w_phi /= np.sum(w_phi, axis=1, keepdims=True)
    cos, sin = np.cos(phi), np.sin(phi)
    h = np.minimum(G * sin, 1.0)  # a window of unclipped radii needs G sin phi <= 1
    r_plus = np.sqrt((1.0 - h) * (1.0 + h)) - G * cos
    window = (G * sin <= 1.0) & (r_plus > 0.0)
    # r_- r_+ = G^2 - 1, and |G - 1| <= r_+ inside the window
    r_minus = np.divide(G - 1.0, r_plus, out=np.zeros_like(r_plus), where=window) * (G + 1.0)
    edges = np.stack(np.broadcast_arrays(s, r_minus, np.where(window, r_plus, 0.0), G), axis=-1)
    log_edges = np.log(np.sort(np.maximum(edges, s[..., None]), axis=-1))  # absent: s
    log_lo, log_width = log_edges[..., :-1, None], np.diff(log_edges, axis=-1)[..., None]
    log_r = (log_lo + log_width * xc).reshape(*phi.shape, -1)
    log_s = np.log(s)[..., None]
    shift = np.where((a * log_s < -600.0) & (s[..., None] > 5e-324),
                     np.maximum(a * log_s, -690.0), 0.0)
    log_s -= shift / a  # (s/r)^a e^-shift = (s e^(-shift/a) / r)^a
    w_panels = (log_width * wc).reshape(*phi.shape, -1) * a * np.exp(a * (log_s - log_r))
    w_last = np.exp(a * (log_s - log_edges[..., -1:]))  # the Pareto mass past them
    log_r = np.concatenate((log_r, log_edges[..., -1:] - 4.0 / a * np.log(xc)), axis=-1)
    W = w_phi[..., None] * np.concatenate((w_panels, w_last * (4.0 * xc ** 3 * wc)), axis=-1)
    # the clip of v = M v' at level 1 is v' / max(1/M, |v'|)
    M = np.maximum(np.maximum(G, s), 1.0)[..., None]
    r = np.exp(log_r - np.log(M))
    along, across = G[..., None] / M + r * cos[..., None], r * sin[..., None]
    shrink = np.maximum(1.0 / M, np.hypot(along, across))
    W, along, across = (v.reshape(n, -1) for v in (W, along / shrink, across / shrink))
    clip_g, scale = np.minimum(G, 1.0), np.exp(shift.reshape(n))
    mean = clip_g[:, 0] + np.sum(W * (along - clip_g), axis=1) * scale
    along -= mean[:, None]
    m2 = np.sum(W * along * along, axis=1) + np.sum(W * across * across, axis=1)
    return mean, np.sqrt(m2) * np.sqrt(scale)


# -- lockstep draws: the noise of n seeds over a run, read one (n, d) step at a time --

# A window of steps holds K = _WINDOW_BYTES // (8 d n) steps of (n, d) doubles, so that
# the spike window, a run loop's window buffers and the temporaries of its per-window
# metrics (a few such blocks in all) stay in cache.  A spike window holds at least
# _WINDOW_MIN_STEPS steps: its expansion's fixed cost, a handful of numpy calls, would
# otherwise weigh on every step where one step's slab alone fills the budget.  A window
# holds at most _WINDOW_MAX_STEPS steps: the loops and the spike window keep one numpy
# view (~100-200 bytes) per step of it, and at one seed and d = 2 the bytes alone would
# allow 8192 steps, which is more in views than in data.  A run loop that records skips
# both caps: its one window holds every step, because its step table is made of views of
# the window buffers (one view per step, the same order as the record itself).
_WINDOW_BYTES = 1 << 17
_WINDOW_MIN_STEPS = 8
_WINDOW_MAX_STEPS = 1024


def window_steps(steps: int, d: int, n: int) -> int:
    """K: the steps of one (K, d, n) window of doubles, at least one and at most ``steps``."""
    return max(1, min(steps, _WINDOW_MAX_STEPS, _WINDOW_BYTES // (8 * d * n)))


# Bytes a spike costs a ``SpikeDraws`` build at its peak, with a margin: its int64
# key, written straight into one array (about 8 bytes in all, 16 while that array
# grows by a copy).  The margin covers what does not grow with the spikes: the
# window, one seed's draw buffers and the key array's slack.
_SPIKE_BYTES = 32

# Slack of a ``SpikeDraws`` key array past the mean spike count, in binomial standard
# deviations: the array grows by a copy only when a batch draws more spikes than that.
_SPIKE_SLACK_SD = 6


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

    Seed k's generator (the k-th of the n ``generators``) makes the generator
    calls of ``model.sample_batch(d, steps, rng)``, and only its hits are kept:
    each as one int64 key, twice the hit's flat index into the dense (steps, d,
    n) block plus 1 for a negative spike, written straight into one array sized
    for the mean spike count and a margin.  The keys are sorted, so they are step major.  ``slab(t)`` writes
    the spikes of t's window of K steps into a reused zero-filled (K, d, n)
    block and returns the (n, d) view of its C-ordered (d, n) slab: the same
    layout and the same +0.0 and +-M values as the dense block's slab, a -0.0
    spike (sigma = 0) included.
    """

    def __init__(self, model: TwoPointNoise, d: int, steps: int, generators, n: int):
        self.n = n
        U, S = np.empty(steps), np.empty(steps)
        mean = n * steps * model.q
        keys = np.empty(int(mean + _SPIKE_SLACK_SD * np.sqrt(mean * (1.0 - model.q))) + 1,
                        dtype=np.int64)
        size = 0
        for k, rng in enumerate(generators):
            idx = _spike_fields(rng, d, U, S)
            hits = np.flatnonzero(U < model.q)
            if size + hits.size > keys.size:
                keys = np.concatenate((keys[:size], np.empty(max(keys.size, hits.size), np.int64)))
            seed_keys = np.multiply(hits, d, out=keys[size:size + hits.size])
            seed_keys += idx[hits]  # flat index into a seed's (steps, d) draw
            seed_keys *= 2 * n
            seed_keys += 2 * k
            seed_keys += S[hits] >= 0.5
            size += hits.size
        keys = keys[:size]
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


def lockstep_draws(model, d: int, steps: int, generators, n: int):
    """The noise of n seeds run in lockstep, seed k's drawn from the k-th of ``generators``
    (the calls of ``model.sample_batch(d, steps, rng)``): two-point noise kept as its spikes,
    radial noise into ``[:, :, k]`` of one zero-filled (steps, d, n) block."""
    if isinstance(model, TwoPointNoise):
        return SpikeDraws(model, d, steps, generators, n)
    block = np.zeros((steps, d, n))
    for k, rng in enumerate(generators):
        model.sample_batch(d, steps, rng, out=block[:, :, k])
    return DenseDraws(block)


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
    if isinstance(model, TwoPointNoise):  # bounded support: the power's variance is finite
        return float(powers.mean()), float(powers.std(ddof=1) / np.sqrt(n))
    est, spread = median_of_means(powers, blocks=blocks)
    return float(est), float(spread)


def check_noise_geometry(problem: Problem, noise) -> None:
    """Reject a noise model that is not calibrated for the problem's geometry."""
    if isinstance(noise, RadialParetoNoise) and problem.geometry.kind == "simplex":
        raise ValueError("radial noise is calibrated for l2 geometries only")


class Oracle:
    """One problem's seeded noise stream: the additive noise of a stochastic oracle.

    Carries its own mutable generator ``rng``, ``make_rng(seed)``; use one instance
    per run (distinct seeds may run concurrently).  A single run draws its noise
    from ``rng`` as the one-seed case of ``lockstep_draws``, and a lockstep batch
    draws seed k's from ``make_rng(seeds[k])`` with the same calls, so a single-run
    trajectory and a multi-seed sweep see identical noise for identical seeds.
    ``noise_matrix`` is a one-off draw of the stream's next steps.
    """

    def __init__(self, problem: Problem, noise, seed: int = 0):
        check_noise_geometry(problem, noise)
        self.problem = problem
        self.noise = noise
        self.seed = seed
        self.rng = make_rng(seed)

    def noise_matrix(self, steps: int) -> np.ndarray:
        """The next ``steps`` draws of the stream as a (steps, dim) block."""
        return self.noise.sample_batch(self.problem.dim, steps, self.rng)
