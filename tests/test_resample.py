"""The resampling kernel against the per-point loop it replaced.

``reference_point`` is that loop's body: one ``sample_batch`` draw at one
point (``reference_draw``, the documented stream), clipped and reduced with
numpy's own ``mean``/``var``/``std``.  The
kernel draws every point's resamples from the same stream in the same order
and reduces a whole (points, resamples, d) block at once; its numbers must
equal the loop's bit for bit.
"""

import itertools

import numpy as np
import pytest

from clipopt import clipping, problems
from clipopt.clipping import clip_batch, resample_clipped
from clipopt.noise import RadialParetoNoise, TwoPointNoise, make_rng

MODELS = {"two_point": TwoPointNoise(p=1.5, sigma=1.0, q=0.2),
          "radial_pareto": RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75)}


def reference_draw(model, d, n, rng):
    """The documented stream of ``sample_batch``, written out as the samplers had it."""
    if isinstance(model, TwoPointNoise):
        u, idx, s = rng.random(n), rng.integers(0, d, size=n), rng.random(n)
        out, hit = np.zeros((n, d)), u < model.q
        out[np.nonzero(hit)[0], idx[hit]] = np.where(s[hit] < 0.5, model.spike, -model.spike)
        return out
    Z = rng.standard_normal((n, d))
    Z /= np.sqrt(np.einsum("ij,ij->i", Z, Z))[:, None]
    return Z * (model.scale * rng.random(n) ** (-1.0 / model.tail_index))[:, None]


def reference_point(problem, noise_model, x, level, resamples, rng):
    """Per-point resampled estimates, as the diagnostics computed them step by step."""
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


def instance(geometry, d, points):
    """A problem, ``points`` query points and their clipping levels (some below the noise)."""
    rng = np.random.default_rng(100 * d + points)
    if geometry == "euclidean":
        prob = problems.make_quadratic(np.linspace(0.5, 2.0, d), np.linspace(-1.0, 1.0, d))
        X = 3.0 * rng.standard_normal((points, d))
    else:
        prob = problems.make_simplex_quadratic(np.full(d, 1.0 / d))
        X = rng.dirichlet(np.ones(d), size=points)
    return prob, X, 0.1 + 3.0 * np.abs(rng.standard_normal(points))


def assert_matches_reference(res, ref):
    for name in ("grad", "cond_mean", "var", "stderr", "u_sq_mean", "u_sq_sd",
                 "u_max", "u_over"):
        got = getattr(res, name)
        want = np.array([r[name] for r in ref], dtype=np.asarray(got).dtype)
        assert np.asarray(got).tobytes() == want.tobytes(), name


@pytest.mark.parametrize("resamples, d, noise, geometry", list(itertools.product(
    (100, 128, 1000, 10_000), (2, 3, 9), MODELS, ("euclidean", "simplex"))))
def test_kernel_equals_per_point_loop(resamples, d, noise, geometry):
    points = max(2, 40_000 // resamples)
    prob, X, lam = instance(geometry, d, points)
    model = MODELS[noise]
    rng_kernel, rng_ref = make_rng(5), make_rng(5)
    res = resample_clipped(prob, model, X, lam, resamples, rng_kernel)
    ref = [reference_point(prob, model, x, level, resamples, rng_ref) for x, level in zip(X, lam)]
    assert_matches_reference(res, ref)
    np.testing.assert_equal(rng_kernel.bit_generator.state, rng_ref.bit_generator.state)


@pytest.mark.parametrize("noise", MODELS)
@pytest.mark.parametrize("d", [2, 9])
def test_block_draw_is_successive_sample_batch_calls(noise, d):
    """``sample_block`` leaves the values and the rng state of P ``sample_batch`` calls."""
    model, points, n = MODELS[noise], 7, 130
    rngs = [make_rng(3) for _ in range(3)]
    block = model.sample_block(d, points, n, rngs[0])
    calls = np.stack([model.sample_batch(d, n, rngs[1]) for _ in range(points)])
    reference = np.stack([reference_draw(model, d, n, rngs[2]) for _ in range(points)])
    assert block.shape == (points, n, d)
    assert block.tobytes() == calls.tobytes() == reference.tobytes()
    for rng in rngs[1:]:
        np.testing.assert_equal(rngs[0].bit_generator.state, rng.bit_generator.state)


@pytest.mark.parametrize("noise", MODELS)
def test_kernel_leaves_rng_as_per_point_draws(noise):
    prob, X, lam = instance("euclidean", 3, 50)
    model = MODELS[noise]
    rng_kernel, rng_calls = make_rng(8), make_rng(8)
    resample_clipped(prob, model, X, lam, 128, rng_kernel)
    for _ in range(len(X)):
        model.sample_batch(3, 128, rng_calls)
    np.testing.assert_equal(rng_kernel.bit_generator.state, rng_calls.bit_generator.state)


@pytest.mark.parametrize("noise", MODELS)
@pytest.mark.parametrize("geometry", ["euclidean", "simplex"])
def test_kernel_independent_of_chunk_size(monkeypatch, noise, geometry):
    prob, X, lam = instance(geometry, 3, 60)
    model = MODELS[noise]
    whole = resample_clipped(prob, model, X, lam, 128, make_rng(4))
    monkeypatch.setattr(clipping, "_RESAMPLE_BLOCK", 1)  # one point per chunk
    single = resample_clipped(prob, model, X, lam, 128, make_rng(4))
    monkeypatch.setattr(clipping, "_RESAMPLE_BLOCK", 7 * 128 * 3)  # 7 points, ragged tail
    ragged = resample_clipped(prob, model, X, lam, 128, make_rng(4))
    for name in ("cond_mean", "var", "u_sq_mean", "u_sq_sd", "u_max", "u_over"):
        assert getattr(single, name).tobytes() == getattr(whole, name).tobytes(), name
        assert getattr(ragged, name).tobytes() == getattr(whole, name).tobytes(), name


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_kernel_rejects_nonpositive_level_at_any_step(bad):
    prob, X, lam = instance("euclidean", 2, 20)
    lam[13] = bad
    with pytest.raises(ValueError, match="positive"):
        resample_clipped(prob, MODELS["two_point"], X, lam, 100, make_rng(0))
