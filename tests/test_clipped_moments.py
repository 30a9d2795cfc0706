"""Exact clipped moments of both noise families.

A two-point draw at x is one of 2d + 1 support points, so the moments of its
clipped value are finite weighted sums.  ``brute_force`` writes those sums out
point by point, clipping one row at a time, with plain Python sums; the vectorized
form must agree with it to roundoff, and resampling must agree with it within
its own standard errors.  Radial moments are a quadrature: they must agree
with a million resampled draws within their standard errors, and with the
same sum on four times the nodes to 1e-6 of each field's scale.
"""

import math

import numpy as np
import pytest

from test_clipping import clip_rows
from test_resample import reference_moments, reference_point

from clipopt import diagnostics as diag
from clipopt import noise, problems, schedules
from clipopt.algorithms import run_smd
from clipopt.noise import Oracle, RadialParetoNoise, TwoPointNoise, make_rng

FIELDS = ("grad", "cond_mean", "u_sq_mean", "u_over")


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
    clipped = [(w, clip_rows(s, level, geom)[0]) for w, s in support]
    mean = sum(w * c for w, c in clipped)
    norms = [(w, geom.dual_norm(c - mean)) for w, c in clipped]
    positive = [n for w, n in norms if w > 0]
    return {"grad": g, "cond_mean": mean, "u_sq_mean": sum(w * n ** 2 for w, n in norms),
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
    rng = make_rng(11)
    est = [reference_point(prob, model, x, level, resamples, rng) for x, level in zip(X, lam)]
    cond_mean, var, u_sq_mean, u_sq_sd = (np.array([e[name] for e in est])
                                          for name in ("cond_mean", "var", "u_sq_mean", "u_sq_sd"))
    mean_se = np.sqrt(var / resamples)  # the sample's own standard errors
    assert np.all(np.abs(cond_mean - exact.cond_mean) <= 5.0 * mean_se + 1e-12)
    m2_se = u_sq_sd / math.sqrt(resamples)
    assert np.all(np.abs(u_sq_mean - exact.u_sq_mean) <= 5.0 * m2_se + 1e-12)


def test_exact_second_moment_sees_rare_spikes_that_resampling_misses():
    """At q = 2e-5 and level 38.7, 128 resamples mostly see no spike and read a second
    moment and an s.e. of 0 up to the roundoff of their mean; the exact moment is about
    q * level^2 = 0.03."""
    model = TwoPointNoise(p=1.5, sigma=0.03, q=2e-5)
    assert model.spike > 38.7  # every spike is clipped
    prob = problems.make_quadratic([1.0, 1.0])
    X = 0.1 * np.random.default_rng(3).standard_normal((64, 2))
    exact = model.clipped_moments(prob, X, 38.7)
    rng = make_rng(5)
    est = [reference_point(prob, model, x, 38.7, 128, rng) for x in X]
    u_sq_mean, stderr = (np.array([e[name] for e in est]) for name in ("u_sq_mean", "stderr"))
    blind = u_sq_mean < 1e-20
    assert blind.sum() >= 32 and np.all(stderr[blind] < 1e-12)
    assert np.all(exact.u_sq_mean > 0.02) and np.all(exact.u_sq_mean < 0.04)


def test_exact_traces_and_error_bounds_carry_no_standard_error():
    """Every spike clipped far below its size (q = 1): the rows of exact moments read a
    standard error of 0."""
    prob = problems.make_quadratic([1.0, 1.0])
    model = TwoPointNoise(p=1.5, sigma=1.0, q=1.0)
    x1 = np.array([0.01, 0.0])
    tab = run_smd(prob, Oracle(prob, model, seed=0), _smd_schedule(prob, x1, 32, 0.01), 32,
                  x1).table
    trace = diag.martingale_trace_smd(prob, model, tab, {"Q": 1.0}, 0.1)[0]
    assert trace.row()["stderr"] == 0.0
    rep = diag.check_clipping_error_bounds(prob, model, x1, 0.5)
    assert rep.row()["stderr"] == 0.0 and rep.row()["steps"] == 1 and rep.passed


def _smd_schedule(prob, x1, steps, lambda_scale=1.0):
    inputs = schedules.derive_inputs(prob, x1, p=1.5, sigma=1.0, delta=0.1, horizon=steps)
    return schedules.Schedule("smd_known_t", inputs, lambda_scale=lambda_scale)


_RADIAL = RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75)


@pytest.mark.parametrize("geometry, model, ragged", [
    ("euclidean", TwoPointNoise(p=1.5, sigma=1.0, q=0.2), 7 * 7 * 3),
    ("simplex", TwoPointNoise(p=1.5, sigma=1.0, q=0.2), 7 * 7 * 3),
    ("euclidean", _RADIAL, 7 * (3 * noise._QUAD_NODES) * (4 * noise._QUAD_NODES)),
], ids=["euclidean", "simplex", "euclidean-radial"])
def test_exact_moments_independent_of_chunk_size(monkeypatch, geometry, model, ragged):
    prob, X, lam = instance(geometry, 3, 60)
    whole = model.clipped_moments(prob, X, lam)
    monkeypatch.setattr(noise, "_MOMENT_BLOCK", 1)  # one point per chunk
    single = model.clipped_moments(prob, X, lam)
    monkeypatch.setattr(noise, "_MOMENT_BLOCK", ragged)  # 7 points, ragged tail
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


# -- radial noise: quadrature ----------------------------------------------------------

# |grad f(x)| / level at the points of the radial checks: at the minimizer, inside the
# clip ball, on its sphere, and outside it, where a window of radii goes unclipped
RATIOS = (0.0, 0.5, 1.0, 2.0, 8.0)


def radial_points(d, level):
    """A quadratic with grad f(x) = x, and one point at each of ``RATIOS``, its gradient
    along a direction off the axes (at d > 1)."""
    direction = np.arange(1.0, d + 1.0)
    direction /= np.linalg.norm(direction)
    return problems.make_quadratic(np.ones(d)), level * np.outer(RATIOS, direction)


def _scales(res):
    """Each field's scale: the clipped draw's for the mean, and its own for the second
    moment."""
    m2 = res.u_sq_mean
    return {"cond_mean": np.linalg.norm(res.cond_mean, axis=1)[:, None] + np.sqrt(m2)[:, None],
            "u_sq_mean": m2}


@pytest.mark.parametrize("d", [1, 2, 8])
def test_radial_moments_lie_within_four_standard_errors_of_a_million_draws(d):
    level = 1.3
    prob, X = radial_points(d, level)
    levels = np.full(len(X), level)
    exact = _RADIAL.clipped_moments(prob, X, levels)
    est, stderr = reference_moments(prob, _RADIAL, X, levels, 1_000_000, seed=21 + d)
    np.testing.assert_array_equal(exact.grad, est["grad"])
    for name in ("cond_mean", "u_sq_mean"):  # the draws' own standard errors
        got = getattr(exact, name)
        assert np.all(np.abs(got - est[name]) <= 4.0 * stderr[name] + 1e-12 * level ** 2), name
    # no clipped draw lies farther than the level from 0, so none farther than level + |mean|
    # from the mean
    bound = level + np.linalg.norm(est["cond_mean"], axis=1)
    assert np.all(est["u_max"] <= bound * (1 + 1e-12))
    assert not exact.u_over.any() and not est["u_over"].any()


@pytest.mark.parametrize("d", [1, 2, 8])
def test_radial_moments_of_zero_noise_are_the_clipped_gradient(d):
    prob, X = radial_points(d, 1.3)
    res = RadialParetoNoise(p=1.5, sigma=0.0, tail_index=1.75).clipped_moments(prob, X, 1.3)
    np.testing.assert_allclose(res.cond_mean, [clip_rows(x, 1.3)[0] for x in X], rtol=1e-15)
    for name in ("u_sq_mean", "u_over"):
        assert not getattr(res, name).any(), name


@pytest.mark.parametrize("d", [1, 2, 8])
@pytest.mark.parametrize("level", [0.05, 1.3, 40.0])
def test_radial_quadrature_agrees_with_four_times_the_nodes(monkeypatch, d, level):
    prob, X = radial_points(d, level)
    shipped = _RADIAL.clipped_moments(prob, X, level)
    monkeypatch.setattr(noise, "_QUAD_NODES", 4 * noise._QUAD_NODES)
    fine = _RADIAL.clipped_moments(prob, X, level)
    for name, scale in _scales(fine).items():
        err = np.abs(getattr(shipped, name) - getattr(fine, name))
        assert np.all(err <= 1e-6 * scale), (name, np.max(err / scale))


@pytest.mark.parametrize("sigma", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("level", [5e-324, 1e-300, 1.0, 1e300, 1.7e308])
def test_radial_moments_at_extreme_scales_overflow_nothing(sigma, level):
    """No RuntimeWarning (an error under this suite's filter) and no NaN, whatever the
    sizes of the gradient, the noise and the level: a moment past the doubles is inf."""
    prob, X = radial_points(2, 1.0)
    for scale in (1e-300, 1.0, 1e300):
        res = RadialParetoNoise(p=1.5, sigma=sigma, tail_index=1.75).clipped_moments(
            prob, scale * X, level)
        for name in FIELDS:
            assert not np.isnan(getattr(res, name)).any(), (scale, name)
        assert not res.u_over.any()


def test_radial_moments_far_past_the_level_depend_on_the_ratio_alone():
    """With |grad f| and s a huge multiple of the level, every draw clips to its direction,
    so the mean in units of the level is the same at 1e-120 and 1e-300 (where the
    quadrature runs at 1e300 levels); far below, the draw goes unclipped."""
    prob, X = radial_points(2, 1.0)
    means = [_RADIAL.clipped_moments(prob, X, level).cond_mean / level
             for level in (1e-120, 1e-300)]
    np.testing.assert_allclose(means[1], means[0], rtol=1e-12, atol=1e-300)
    assert np.all(np.linalg.norm(means[0][1:], axis=1) < 1.0)  # the noise turns g's clip
    res = _RADIAL.clipped_moments(prob, X, 1e300)
    np.testing.assert_allclose(res.cond_mean, X, rtol=1e-12)


def test_radial_moments_of_a_point_without_noise_leave_its_chunk_alone():
    """A level at which s / level underflows to 0 makes that point noiseless, and the other
    points of its chunk keep the bits they have alone."""
    model = RadialParetoNoise(p=1.5, sigma=1e-150, tail_index=1.75)
    levels = np.array([1e200, 1e-150, 2e-150, 1e-149, 1e200])
    prob, X = radial_points(2, 1.0)
    X *= np.minimum(levels, 1.0)[:, None]
    whole = model.clipped_moments(prob, X, levels)
    for i in range(len(X)):
        alone = model.clipped_moments(prob, X[i:i + 1], levels[i:i + 1])
        for name in FIELDS:
            assert getattr(alone, name).tobytes() == getattr(whole, name)[i:i + 1].tobytes(), name
    np.testing.assert_allclose(whole.cond_mean[[0, 4]], X[[0, 4]], rtol=1e-15)  # unclipped
    assert not whole.u_sq_mean[[0, 4]].any()
    assert whole.u_sq_mean[1:4].all()  # the others keep their second moment


def test_radial_second_moment_far_below_the_level_does_not_underflow():
    """The second moment in units of the level is about s^a, s = scale / level, so its
    weights underflowed once the level passed ~1e176 times sigma, and it read 0.0 from
    1e200 on.  Rescaled, u_sq_mean level^-0.25 (constant in law once s is small) stays
    near its value at 1e100: within 1e-3, the drift of the quadrature itself over these
    levels (3.5e-4 at 1e300).  The rescaling is exact: the weights are rescaled where
    s^a < e^-600, here at levels above 2.1755e148, and levels on either side of that
    agree to 1e-9.  At a = 2 and grad f = 0 in one dimension the quadrature is exact:
    E||u||^2 = E min(r, level)^2 = scale^2 (2 log(level / scale) + 1), to 1e-12 at every
    level, though the squares of radii below 1e-154 level underflow."""
    prob = problems.make_quadratic([1.0, 1.0])

    def ratio(level):
        return _RADIAL.clipped_moments(prob, [[0.5, 0.0]], level).u_sq_mean[0] * level ** -0.25

    far = np.array([ratio(level) for level in (1e175, 1e200, 1e250, 1e300)])
    np.testing.assert_allclose(far, ratio(1e100), rtol=1e-3)
    np.testing.assert_allclose(ratio(2.176e148), ratio(2.175e148), rtol=1e-9)
    model, levels = RadialParetoNoise(p=1.5, sigma=1.0, tail_index=2.0), [1e100, 1e200, 1e300]
    line = problems.make_quadratic([1.0])
    got = [model.clipped_moments(line, [[0.0]], level).u_sq_mean[0] for level in levels]
    want = model.scale ** 2 * (2.0 * np.log(np.array(levels) / model.scale) + 1.0)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_radial_u_over_flags_a_mean_outside_the_ball(monkeypatch):
    """``u_over`` reads the quadrature's mean: one past the level puts u_max past 2 level,
    which the clipping-error check counts."""
    real = noise._radial_moments
    monkeypatch.setattr(noise, "_radial_moments",
                        lambda *args: (real(*args)[0] + 1.5, *real(*args)[1:]))
    prob, X = radial_points(2, 1.3)
    res = _RADIAL.clipped_moments(prob, X[1:], 1.3)
    assert res.u_over.all()


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_radial_moments_at_an_infinite_level_are_the_unclipped_draws(sigma):
    """A level that follows the run can reach inf: there the draw is g + r u whole, whose
    second moment is infinite, and the points at finite levels keep their bits."""
    model = RadialParetoNoise(p=1.5, sigma=sigma, tail_index=1.75)
    prob, X = radial_points(2, 1.3)
    levels = np.array([np.inf, 1.3, np.inf, 1.3, np.inf])
    res = model.clipped_moments(prob, X, levels)
    finite = model.clipped_moments(prob, X[1::2], 1.3)
    np.testing.assert_array_equal(res.cond_mean[::2], X[::2])
    assert np.all(res.u_sq_mean[::2] == (np.inf if sigma else 0.0))
    assert res.u_sq_mean[1::2].tobytes() == finite.u_sq_mean.tobytes()
    assert not res.u_over.any()


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_exact_moments_reject_nonpositive_level_at_any_step(bad):
    prob, X, lam = instance("euclidean", 2, 20)
    lam[13] = bad
    for model in (TwoPointNoise(p=1.5, sigma=1.0, q=0.2), _RADIAL):
        with pytest.raises(ValueError, match="positive"):
            model.clipped_moments(prob, X, lam)


def test_radial_moments_reject_the_simplex():
    """Radial noise is calibrated, and its quadrature written, for l2 geometries only."""
    prob, X, lam = instance("simplex", 3, 4)
    with pytest.raises(ValueError, match="l2"):
        _RADIAL.clipped_moments(prob, X, lam)
