"""Resampled references for the exact clipped moments, and the documented draw stream.

``reference_draw`` writes out the documented stream of each family's
``sample_batch`` as the samplers had it.  ``reference_point`` clips
``resamples`` such draws at one point and reduces them with numpy's own
``mean``/``var``/``std``.  ``reference_moments`` does the same for a million
draws or more at many points, in chunks, and gives each estimate's standard
error.  The exact moments of either family must lie within a few standard
errors of them.
"""

import math

import numpy as np
import pytest

from clipopt import noise
from clipopt.clipping import clip_batch
from clipopt.noise import RadialParetoNoise, TwoPointNoise, make_rng

MODELS = {"two_point": TwoPointNoise(p=1.5, sigma=1.0, q=0.2),
          "radial_pareto": RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75)}


def reference_draw(model, d, n, rng):
    """The documented stream of ``sample_batch``, written out as the samplers had it."""
    if isinstance(model, TwoPointNoise):
        return reference_spikes(model, d, n, rng)
    Z = rng.standard_normal((n, d))
    Z /= np.sqrt(np.einsum("ij,ij->i", Z, Z))[:, None]
    return Z * (model.scale * rng.random(n) ** (-1.0 / model.tail_index))[:, None]


def reference_spikes(model, d, n, rng, slack_sd=6):
    """The two-point stream one hit at a time: gaps max(1, ceil(E / lambda)) capped at n + 1,
    lambda = -log1p(-q), drawn ``mean + slack_sd sd + 1`` at a time until they pass n, then
    one uniform U per hit, whose floor(2 d U) = 2 i + s puts a spike at coordinate i,
    negative when s = 1."""
    q = model.q
    lam = -math.log1p(-q) if q < 1 else math.inf
    m = int(n * q + slack_sd * math.sqrt(n * q * (1 - q))) + 1
    hits, t = [], 0
    while t <= n:
        for e in rng.standard_exponential(m):
            t += max(1, math.ceil(min(e / lam, n + 1.0)))  # ceil(inf) has no int
            if t <= n:
                hits.append(t)
    out = np.zeros((n, d))
    for t, u in zip(hits, rng.random(len(hits))):
        i, s = divmod(math.floor(2 * d * u), 2)
        out[t - 1, i] = -model.spike if s else model.spike
    return out


def reference_point(problem, noise_model, x, level, resamples, rng):
    """Resampled estimates at one point from ``resamples`` draws of ``rng``, reduced with
    numpy's own ``mean``/``var``/``std``."""
    geom = problem.geometry
    g_true = problem.grad(x)
    raw = g_true + reference_draw(noise_model, problem.dim, resamples, rng)
    clipped = clip_batch(raw, level, geom.dual_norm_many(raw))
    cond_mean = clipped.mean(axis=0)
    u_norms = geom.dual_norm_many(clipped - cond_mean)
    u_sq = u_norms ** 2
    return {"grad": g_true, "cond_mean": cond_mean, "var": clipped.var(axis=0, ddof=1),
            "stderr": float(np.sqrt(np.sum(clipped.var(axis=0, ddof=1)) / resamples)),
            "u_sq_mean": float(u_sq.mean()), "u_sq_sd": float(u_sq.std(ddof=1)),
            "u_max": float(u_norms.max()),
            "u_over": int(np.sum(u_norms > 2.0 * level * (1 + 1e-12)))}


def reference_moments(problem, noise_model, X, levels, draws, seed, chunk=100_000):
    """Resampled estimates of the moments at each row of ``X``, and their standard errors.

    Every row clips the same ``draws`` draws of ``reference_draw`` from
    ``make_rng(seed)``, made ``chunk`` at a time, twice: once for the
    conditional mean and once for the moments about it.  Returns two dicts of
    (rows, ...) arrays keyed by field: the estimates and their standard errors
    (the spread's by the delta method)."""
    geom, d = problem.geometry, problem.dim
    grad = problem.grad_many(np.asarray(X, dtype=float))
    rows = len(grad)

    def clipped_chunks():
        rng = make_rng(seed)
        for lo in range(0, draws, chunk):
            noise = reference_draw(noise_model, d, min(chunk, draws - lo), rng)
            for k in range(rows):
                raw = grad[k] + noise
                factor = levels[k] / np.maximum(geom.dual_norm_many(raw), levels[k])
                yield k, raw, factor

    total, total_sq = np.zeros((rows, d)), np.zeros((rows, d))
    for k, raw, factor in clipped_chunks():  # column sums as matrix-vector products
        total[k] += factor @ raw
        total_sq[k] += (factor * factor) @ (raw * raw)
    mean = total / draws
    mean_se = np.sqrt(np.maximum(total_sq / draws - mean * mean, 0.0) / draws)
    dev_sum, dev_sq_sum = np.zeros((rows, d)), np.zeros((rows, d))
    u_sq = np.empty((rows, draws))
    u_max, over = np.zeros(rows), np.zeros(rows, dtype=int)
    filled = np.zeros(rows, dtype=int)
    for k, raw, factor in clipped_chunks():
        u = raw * factor[:, None] - mean[k]
        dev = u * u
        ones = np.ones(len(u))
        dev_sum[k] += ones @ dev
        dev_sq_sum[k] += ones @ (dev * dev)
        norms = geom.dual_norm_many(u)
        u_sq[k, filled[k]:filled[k] + len(u)] = norms * norms
        filled[k] += len(u)
        u_max[k] = max(u_max[k], norms.max())
        over[k] += np.count_nonzero(norms > 2.0 * levels[k] * (1 + 1e-12))
    var = dev_sum / draws
    var_se = np.sqrt(np.maximum(dev_sq_sum / draws - var * var, 0.0) / draws)
    u_sq_mean = u_sq.mean(axis=1)
    spread_sq = (u_sq - u_sq_mean[:, None]) ** 2
    u_sq_sd = np.sqrt(spread_sq.mean(axis=1))
    sd_se = spread_sq.std(axis=1) / np.sqrt(draws) / np.maximum(2.0 * u_sq_sd, 1e-300)
    estimates = {"grad": grad, "cond_mean": mean, "var": var, "u_sq_mean": u_sq_mean,
                 "u_sq_sd": u_sq_sd, "u_max": u_max, "u_over": over}
    stderr = {"cond_mean": mean_se, "var": var_se, "u_sq_mean": u_sq_sd / np.sqrt(draws),
              "u_sq_sd": sd_se}
    return estimates, stderr


@pytest.mark.parametrize("noise", MODELS)
@pytest.mark.parametrize("d", [2, 9])
def test_sample_batch_is_the_documented_stream(noise, d):
    """P successive ``sample_batch`` calls leave the values and the rng state of the
    documented stream, and write the same bits into a caller's strided array."""
    model, points, n = MODELS[noise], 7, 130
    rngs = [make_rng(3) for _ in range(3)]
    calls = np.stack([model.sample_batch(d, n, rngs[0]) for _ in range(points)])
    reference = np.stack([reference_draw(model, d, n, rngs[1]) for _ in range(points)])
    written = np.zeros((points, d, n)).transpose(0, 2, 1)  # (n, d) views, seed-strided
    for k in range(points):
        model.sample_batch(d, n, rngs[2], out=written[k])
    assert calls.shape == (points, n, d)
    assert calls.tobytes() == reference.tobytes() == np.ascontiguousarray(written).tobytes()
    for rng in rngs[1:]:
        np.testing.assert_equal(rngs[0].bit_generator.state, rng.bit_generator.state)


@pytest.mark.parametrize("q", [0.02, 0.1, 0.5])
def test_two_point_top_up_is_the_documented_stream(q, monkeypatch):
    """With no slack past the mean hit count, many draws top their gaps up and still give
    the documented stream's values and generator state."""
    monkeypatch.setattr(noise, "_SPIKE_SLACK_SD", 0)
    model, d, n = TwoPointNoise(p=1.5, sigma=1.0, q=q), 3, 150
    topped = 0
    for seed in range(30):
        rng, ref_rng = make_rng(seed), make_rng(seed)
        got, want = model.sample_batch(d, n, rng), reference_spikes(model, d, n, ref_rng,
                                                                    slack_sd=0)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)
        # the first int(n q) + 1 gaps all end inside the draw: a top-up was needed
        topped += np.count_nonzero(got) >= int(n * q) + 1
    assert 0 < topped < 30
