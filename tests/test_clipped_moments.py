"""Exact clipped moments of two-point noise, and the one chooser between them and resampling.

A two-point draw at x is one of 2d + 1 support points, so the moments of its
clipped value are finite weighted sums.  ``brute_force`` writes those sums out
point by point with the scalar ``clip`` and plain Python sums; the vectorized
form must agree with it to roundoff, and resampling must agree with it within
its own standard errors.
"""

import math

import numpy as np
import pytest

from clipopt import diagnostics as diag
from clipopt import noise, problems, schedules
from clipopt.algorithms import run_smd
from clipopt.clipping import clip, conditional_moments, estimate_theta, resample_clipped
from clipopt.noise import Oracle, RadialParetoNoise, TwoPointNoise, make_rng

FIELDS = ("grad", "cond_mean", "var", "stderr", "u_sq_mean", "u_sq_sd", "u_max", "u_over")


def instance(geometry, d, points, seed=0):
    """A problem, ``points`` query points and their levels (some below the spikes, some above)."""
    rng = np.random.default_rng(1000 * d + points + seed)
    if geometry == "euclidean":
        prob = problems.make_quadratic(np.linspace(0.5, 2.0, d), np.linspace(-1.0, 1.0, d))
        X = 3.0 * rng.standard_normal((points, d))
    else:
        prob = problems.make_simplex_quadratic(np.full(d, 1.0 / d))
        X = rng.dirichlet(np.ones(d), size=points)
    return prob, X, 0.1 + 3.0 * np.abs(rng.standard_normal(points))


def brute_force(problem, model, x, level):
    """The moments at one point, one support point at a time."""
    geom, d, spike, q = problem.geometry, problem.dim, model.spike, model.q
    g = problem.grad(x)
    support = [(1.0 - q, g)]
    for sign in (1.0, -1.0):
        for i in range(d):
            e = np.zeros(d)
            e[i] = sign * spike
            support.append((q / (2 * d), g + e))
    clipped = [(w, clip(s, level, geom.dual_norm)) for w, s in support]
    mean = sum(w * c for w, c in clipped)
    var = sum(w * (c - mean) ** 2 for w, c in clipped)
    norms = [(w, geom.dual_norm(c - mean)) for w, c in clipped]
    u_sq_mean = sum(w * n ** 2 for w, n in norms)
    u_sq_sd = math.sqrt(sum(w * (n ** 2 - u_sq_mean) ** 2 for w, n in norms))
    positive = [n for w, n in norms if w > 0]
    return {"grad": g, "cond_mean": mean, "var": var, "stderr": 0.0, "u_sq_mean": u_sq_mean,
            "u_sq_sd": u_sq_sd, "u_max": max(positive),
            "u_over": sum(n > 2.0 * level * (1 + 1e-12) for n in positive)}


@pytest.mark.parametrize("q", [0.1, 0.2, 1.0])
@pytest.mark.parametrize("d", [2, 3, 9])
@pytest.mark.parametrize("geometry", ["euclidean", "simplex"])
def test_exact_moments_equal_brute_force_over_the_support(geometry, d, q):
    prob, X, lam = instance(geometry, d, 40)
    model = TwoPointNoise(p=1.5, sigma=1.0, q=q)
    res = model.clipped_moments(prob, X, lam)
    ref = [brute_force(prob, model, x, level) for x, level in zip(X, lam)]
    for name in FIELDS:
        want = np.array([r[name] for r in ref])
        np.testing.assert_allclose(getattr(res, name), want, rtol=1e-14, atol=1e-14,
                                   err_msg=name)
    assert res.u_over.dtype.kind == "i" and not res.u_over.any()


@pytest.mark.parametrize("q", [0.1, 0.2])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("geometry", ["euclidean", "simplex"])
def test_resampling_lies_within_five_standard_errors(geometry, d, q):
    resamples = 20_000
    prob, X, lam = instance(geometry, d, 20, seed=1)
    model = TwoPointNoise(p=1.5, sigma=1.0, q=q)
    exact = model.clipped_moments(prob, X, lam)
    est = resample_clipped(prob, model, X, lam, resamples, make_rng(11))
    mean_se = np.sqrt(exact.var / resamples)
    assert np.all(np.abs(est.cond_mean - exact.cond_mean) <= 5.0 * mean_se + 1e-12)
    m2_se = exact.u_sq_sd / math.sqrt(resamples)
    assert np.all(np.abs(est.u_sq_mean - exact.u_sq_mean) <= 5.0 * m2_se + 1e-12)


def test_exact_second_moment_sees_rare_spikes_that_resampling_misses():
    """At q = 2e-5 and level 38.7, 128 resamples mostly see no spike and read a second
    moment and an s.e. of 0 up to the roundoff of their mean; the exact moment is about
    q * level^2 = 0.03."""
    model = TwoPointNoise(p=1.5, sigma=0.03, q=2e-5)
    assert model.spike > 38.7  # every spike is clipped
    prob = problems.make_quadratic([1.0, 1.0])
    X = 0.1 * np.random.default_rng(3).standard_normal((64, 2))
    exact = model.clipped_moments(prob, X, 38.7)
    est = resample_clipped(prob, model, X, 38.7, 128, make_rng(5))
    blind = est.u_sq_mean < 1e-20
    assert blind.sum() >= 32 and np.all(est.stderr[blind] < 1e-12)
    assert np.all(exact.u_sq_mean > 0.02) and np.all(exact.u_sq_mean < 0.04)


def test_exact_path_draws_nothing_from_rng():
    prob, X, lam = instance("euclidean", 2, 30)
    model = TwoPointNoise(p=1.5, sigma=1.0, q=0.2)
    rng, untouched = make_rng(7), make_rng(7)
    conditional_moments(prob, model, X, lam, 128, rng)
    diag.check_clipping_error_bounds(prob, model, X[0], 2.0, 10_000, rng)
    estimate_theta(Oracle(prob, model, seed=1), X[0], 2.0, 100, rng)
    tab = run_smd(prob, Oracle(prob, model, seed=2), _smd_schedule(prob, X[0], 16), 16,
                  X[0]).table
    diag.martingale_trace_smd(prob, model, tab, {"Q": 1.0}, 0.1, 128, [rng])
    np.testing.assert_equal(rng.bit_generator.state, untouched.bit_generator.state)


def test_chooser_resamples_radial_noise_and_states_two_point_noise():
    prob, X, lam = instance("euclidean", 3, 25)
    radial = RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75)
    chosen_rng, kernel_rng = make_rng(4), make_rng(4)
    chosen = conditional_moments(prob, radial, X, lam, 128, chosen_rng)
    kernel = resample_clipped(prob, radial, X, lam, 128, kernel_rng)
    two_point = TwoPointNoise(p=1.5, sigma=1.0, q=0.2)
    stated = conditional_moments(prob, two_point, X, lam, 128, make_rng(4))
    exact = two_point.clipped_moments(prob, X, lam)
    for name in FIELDS:
        assert getattr(chosen, name).tobytes() == getattr(kernel, name).tobytes(), name
        assert getattr(stated, name).tobytes() == getattr(exact, name).tobytes(), name
    np.testing.assert_equal(chosen_rng.bit_generator.state, kernel_rng.bit_generator.state)
    assert np.all(chosen.stderr > 0) and not stated.stderr.any()


def test_exact_traces_and_error_bounds_carry_no_standard_error():
    """Every spike clipped far below its size (q = 1): exact moments still never warn."""
    prob = problems.make_quadratic([1.0, 1.0])
    model = TwoPointNoise(p=1.5, sigma=1.0, q=1.0)
    x1 = np.array([0.01, 0.0])
    tab = run_smd(prob, Oracle(prob, model, seed=0), _smd_schedule(prob, x1, 32, 0.01), 32,
                  x1).table
    trace = diag.martingale_trace_smd(prob, model, tab, {"Q": 1.0}, 0.1, 100, [make_rng(1)])[0]
    assert not trace.warned and not trace.stderr.any()
    rep = diag.check_clipping_error_bounds(prob, model, x1, 0.5, 10_000, make_rng(2))
    assert rep.bias_stderr == 0.0 and rep.second_moment_stderr == 0.0 and rep.passed


def _smd_schedule(prob, x1, steps, lambda_scale=1.0):
    inputs = schedules.derive_inputs(prob, x1, p=1.5, sigma=1.0, delta=0.1, horizon=steps)
    return schedules.Schedule("smd_known_t", inputs, lambda_scale=lambda_scale)


@pytest.mark.parametrize("geometry", ["euclidean", "simplex"])
def test_exact_moments_independent_of_chunk_size(monkeypatch, geometry):
    prob, X, lam = instance(geometry, 3, 60)
    model = TwoPointNoise(p=1.5, sigma=1.0, q=0.2)
    whole = model.clipped_moments(prob, X, lam)
    monkeypatch.setattr(noise, "_MOMENT_BLOCK", 1)  # one point per chunk
    single = model.clipped_moments(prob, X, lam)
    monkeypatch.setattr(noise, "_MOMENT_BLOCK", 7 * 7 * 3)  # 7 points, ragged tail
    ragged = model.clipped_moments(prob, X, lam)
    for name in FIELDS:
        assert getattr(single, name).tobytes() == getattr(whole, name).tobytes(), name
        assert getattr(ragged, name).tobytes() == getattr(whole, name).tobytes(), name


@pytest.mark.parametrize("p, q, level, m2", [
    (2.0, 1e-300, 1e160, 1.0),  # unclipped spikes of 1e150: E||u||^2 = q M^2 = sigma^2
    (1.5, 5e-324, 10.0, 0.0),  # a spike of 3e215: its norm is inf, so it clips to 0
])
def test_exact_moments_of_huge_spikes_overflow_nothing(p, q, level, m2):
    """No RuntimeWarning (an error under this suite's filter), and every field finite."""
    prob = problems.make_quadratic([1.0, 1.0])
    model = TwoPointNoise(p=p, sigma=1.0, q=q)
    res = model.clipped_moments(prob, np.array([[0.5, 0.0], [0.0, 0.0]]), level)
    for name in FIELDS:
        assert np.all(np.isfinite(getattr(res, name))), name
    np.testing.assert_allclose(res.u_sq_mean, m2, rtol=1e-12, atol=1e-300)
    assert not res.u_over.any()
