"""Clipping operator properties and the error-decomposition estimators."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clipopt import clipping, geometry, noise, problems

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=6)
levels = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


def test_clip_values():
    np.testing.assert_allclose(clipping.clip([3.0, 4.0], 2.5), [1.5, 2.0])
    np.testing.assert_allclose(clipping.clip([1.0, 0.0], 5.0), [1.0, 0.0])
    np.testing.assert_allclose(clipping.clip([0.0, 0.0], 1.0), [0.0, 0.0])


def test_clip_rejects_nonpositive_level():
    with pytest.raises(ValueError):
        clipping.clip([1.0], 0.0)


@given(v=finite_vectors, lam=levels)
@settings(max_examples=200, deadline=None)
def test_clip_norm_never_exceeds_level(v, lam):
    out = clipping.clip(v, lam)
    assert np.linalg.norm(out) <= lam * (1 + 1e-12)


@given(v=finite_vectors, lam=levels, c=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_clip_positive_homogeneity(v, lam, c):
    v = np.asarray(v)
    lhs = clipping.clip(c * v, c * lam)
    rhs = c * clipping.clip(v, lam)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


@given(v=finite_vectors, lam=levels)
@settings(max_examples=200, deadline=None)
def test_clip_idempotent(v, lam):
    once = clipping.clip(v, lam)
    twice = clipping.clip(once, lam)
    np.testing.assert_allclose(once, twice, rtol=1e-12, atol=0)


def test_clip_batch_matches_scalar():
    rng = np.random.default_rng(0)
    G = rng.standard_normal((100, 3)) * 10
    batch = clipping.clip_batch(G, 2.0)
    single = np.stack([clipping.clip(g, 2.0) for g in G])
    np.testing.assert_array_equal(batch, single)


def test_clip_batch_takes_per_row_levels():
    """An (n,) array of levels clips each row at its own level, bitwise the scalar clip,
    and a nonpositive level in any row is rejected."""
    rng = np.random.default_rng(1)
    G = rng.standard_normal((50, 3)) * 10
    lam = rng.uniform(0.5, 20.0, 50)
    batch = clipping.clip_batch(G, lam)
    single = np.stack([clipping.clip(g, level) for g, level in zip(G, lam)])
    assert batch.tobytes() == single.tobytes()
    for bad in (0.0, -1.0):
        lam[37] = bad
        with pytest.raises(ValueError, match="positive"):
            clipping.clip_batch(G, lam)


def test_clip_batch_infinite_row_level_keeps_the_row():
    """A row under an infinite level keeps the factor 1, an infinite norm too, as a run that
    skips the clip keeps it; a NaN norm still gives NaN, and nothing warns."""
    G = np.array([[3.0, 4.0], [3.0, 4.0], [np.inf, 0.0], [np.nan, 1.0]])
    lam = np.array([1.0, np.inf, np.inf, np.inf])
    norms = np.sqrt(np.sum(G * G, axis=1))
    out = clipping.clip_batch(G, lam, norms)
    assert out[0].tolist() == [0.6000000000000001, 0.8] and out[1:3].tolist() == G[1:3].tolist()
    assert np.isnan(out[3]).all()


@pytest.mark.parametrize("per_row", [False, True])
def test_clip_at_an_infinite_level_keeps_every_row_but_a_nan_one(per_row):
    """An infinite level, a float or one per row, gives each row the factor 1 (its bits,
    an infinite row's too) and a NaN-norm row NaN, with no warning."""
    G = np.array([[3.0, 4.0], [-0.0, 1e150], [np.inf, 0.0], [np.nan, 1.0]])
    level = np.full(4, np.inf) if per_row else float("inf")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = clipping.clip_batch(G, level)
        one = clipping.clip(np.array([3.0, 4.0]), float("inf"))
    assert out[:3].tobytes() == G[:3].tobytes() and np.isnan(out[3]).all()
    assert one.tobytes() == np.array([3.0, 4.0]).tobytes()


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.0, np.float64(0.0), 0, -1])
def test_clip_batch_rejects_a_nonpositive_float_or_array_level(bad):
    """A level of 0 or -1 raises as a float and as an (n,) array, which take separate checks."""
    G = np.ones((4, 2))
    with pytest.raises(ValueError, match="positive"):
        clipping.clip_batch(G, bad)
    with pytest.raises(ValueError, match="positive"):
        clipping.clip_batch(G, np.full(4, bad, dtype=float))


@pytest.mark.parametrize("level", [np.nan, 1e-300])
def test_clip_batch_level_check_lets_nan_and_tiny_through(level):
    """The set of rejected levels is exactly the nonpositive ones, for a float and an array:
    a NaN level is not rejected and clips every row to NaN."""
    G = np.array([[3.0, 4.0], [0.0, 0.0]])
    as_float = clipping.clip_batch(G, level)
    as_array = clipping.clip_batch(G, np.full(2, level))
    assert as_float.tobytes() == as_array.tobytes()
    assert np.isnan(as_float).all() == np.isnan(level)


def test_clip_respects_linf_dual_norm():
    s = geometry.simplex(3)
    v = np.array([1.0, -4.0, 0.5])
    out = clipping.clip(v, 2.0, s.dual_norm)
    np.testing.assert_allclose(out, v * 0.5)


def _quadratic_noise(sigma, q=0.5):
    prob = problems.make_quadratic([1.0, 1.0])
    return prob, noise.TwoPointNoise(p=1.5, sigma=sigma, q=q)


def test_estimate_theta_noiseless_below_level():
    prob, model = _quadratic_noise(sigma=0.0)
    x = np.array([0.3, 0.4])
    est = clipping.estimate_theta(prob, model, x, 5.0, noise.make_rng(0))
    np.testing.assert_array_equal(est.theta, np.zeros(2))
    # the weighted sum over identical support points rounds in the last float bits
    np.testing.assert_allclose(est.theta_u, np.zeros(2), atol=1e-13)
    np.testing.assert_allclose(est.theta_b, np.zeros(2), atol=1e-13)


def test_estimate_theta_noiseless_clipped_bias():
    prob, model = _quadratic_noise(sigma=0.0)
    x = np.array([3.0, 4.0])  # gradient norm 5
    lam = 2.5
    est = clipping.estimate_theta(prob, model, x, lam, noise.make_rng(0))
    expected_bias = (lam / 5.0 - 1.0) * prob.grad(x)
    np.testing.assert_allclose(est.theta_b, expected_bias, rtol=1e-12)
    np.testing.assert_allclose(est.theta_u, np.zeros(2), atol=1e-12)


def test_estimate_theta_decomposition_exact_and_bounded():
    prob, model = _quadratic_noise(sigma=1.0, q=0.3)
    x = np.array([0.5, -0.25])
    rng = noise.make_rng(3)
    for _ in range(20):
        est = clipping.estimate_theta(prob, model, x, 1.5, rng)
        np.testing.assert_allclose(est.theta_u + est.theta_b, est.theta,
                                   rtol=1e-12, atol=1e-14)
        assert np.linalg.norm(est.theta_u) <= 2 * 1.5


def test_estimate_theta_symmetric_spikes_at_stationary_point():
    # all-spike noise at a stationary point: unit-norm unbiased part, vanishing bias
    prob = problems.make_quadratic([1.0, 1.0])
    model = noise.TwoPointNoise(p=1.5, sigma=1.0, q=1.0)
    lam = 0.5 * model.spike
    est = clipping.estimate_theta(prob, model, prob.minimizer, lam, noise.make_rng(5))
    assert np.linalg.norm(est.theta_b) <= 1e-12 * lam
    assert np.linalg.norm(est.theta_u) == pytest.approx(lam, rel=0.02)


@pytest.mark.parametrize("model", [noise.TwoPointNoise(p=1.5, sigma=1.0, q=0.3),
                                   noise.RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75)])
@pytest.mark.parametrize("d", [2, 3, 9])
def test_estimate_theta_primary_draw_is_the_oracles_next_draw(model, d):
    """The primary draw is the generator's next draw: theta is ``clip(grad + sample_batch(d, 1,
    rng)[0]) - grad`` bitwise, the draw an oracle's ``noise_matrix(1)[0]`` gives on the same
    stream, and the estimate leaves the generator where one ``sample_batch(d, 1)`` leaves it."""
    prob = problems.make_quadratic([1.0] * d, [0.1 * i for i in range(d)])
    x, level = np.linspace(-1.0, 2.0, d), 1.2
    for seed in range(20):
        rng, twin = noise.make_rng(seed), noise.Oracle(prob, model, seed=seed)
        model.sample_batch(d, seed % 3, rng)  # start the stream at different positions
        twin.noise_matrix(seed % 3)
        est = clipping.estimate_theta(prob, model, x, level, rng)
        g = prob.grad(x)
        expected = clipping.clip(g + twin.noise_matrix(1)[0], level, prob.geometry.dual_norm) - g
        np.testing.assert_array_equal(est.theta, expected)
        np.testing.assert_array_equal(rng.bit_generator.random_raw(4),
                                      twin.rng.bit_generator.random_raw(4))  # the same next bits


def test_geometric_median_one_dimensional_outlier():
    pts = np.array([[1.0], [2.0], [100.0]])
    med = clipping.geometric_median(pts)
    assert med[0] == pytest.approx(2.0, abs=1e-6)


def test_geometric_median_symmetric_cloud():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((500, 3))
    pts = np.vstack([pts, -pts])  # exactly symmetric around the origin
    med = clipping.geometric_median(pts)
    np.testing.assert_allclose(med, np.zeros(3), atol=1e-8)


def test_geometric_median_nonconvergence_error():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(RuntimeError, match="iterations"):
        clipping.geometric_median(pts, tol=0.0, max_iter=3)


def test_estimate_g0_noiseless():
    prob, model = _quadratic_noise(sigma=0.0)
    x0 = np.array([2.0, 1.0])
    g0, mu = clipping.estimate_g0(prob, model, x0, blocks=5, per_block=4,
                                  rng=noise.make_rng(8))
    np.testing.assert_allclose(g0, prob.grad(x0), atol=1e-9)
    assert mu == 0.0


def test_estimate_g0_observed_mu_quantile():
    # across 1000 meta-trials the observed error stays within 3 sigma 95% of the time
    prob = problems.make_quadratic([1.0, 1.0], [0.0, 0.0])
    model = noise.TwoPointNoise(p=1.5, sigma=1.0, q=0.1)
    x0 = np.array([1.0, 1.0])  # gradient (1, 1)
    rng = noise.make_rng(9)
    mus = np.array([clipping.estimate_g0(prob, model, x0, blocks=51, per_block=20, rng=rng)[1]
                    for _ in range(1000)])
    assert np.mean(mus <= 3.0) >= 0.95
