"""Noise calibration oracles: closed-form scales and Monte Carlo moments."""

import math
import tracemalloc

import numpy as np
import pytest

from clipopt import geometry as geo
from clipopt import noise as nz
from clipopt import problems, schedules


def test_two_point_spike_magnitude():
    model = nz.TwoPointNoise(p=1.5, sigma=1.0, q=0.01)
    assert model.spike == pytest.approx(0.01 ** (-1.0 / 1.5))  # = 100^(2/3)
    assert model.spike == pytest.approx(21.5443469, abs=1e-6)


def test_radial_pareto_scale():
    model = nz.RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75)
    assert model.scale == pytest.approx((0.25 / 1.75) ** (1.0 / 1.5))  # = 7^(-2/3)
    assert model.scale == pytest.approx(0.2732759, abs=1e-6)


def test_zero_sigma_gives_zero_noise():
    rng = nz.make_rng(0)
    for model in (nz.TwoPointNoise(p=1.5, sigma=0.0, q=0.5),
                  nz.RadialParetoNoise(p=1.5, sigma=0.0, tail_index=1.75)):
        assert np.all(model.sample_batch(3, 1, rng) == 0.0)
        assert np.all(model.sample_batch(3, 100, rng) == 0.0)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError, match="infinite"):
        nz.RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.4)
    with pytest.raises(ValueError):
        nz.TwoPointNoise(p=2.5, sigma=1.0, q=0.1)
    with pytest.raises(ValueError):
        nz.TwoPointNoise(p=1.5, sigma=1.0, q=0.0)
    with pytest.raises(ValueError):
        nz.make_noise("bogus", 1.5, 1.0)


def _inputs(**kw):
    return schedules.ScheduleInputs(**{"p": 1.5, "sigma": 1.0, "smoothness": 1.0, **kw})


NAN_PARAMETERS = {
    "two_point_sigma": lambda: nz.TwoPointNoise(p=1.5, sigma=math.nan, q=0.5),
    "radial_sigma": lambda: nz.RadialParetoNoise(p=1.5, sigma=math.nan, tail_index=1.75),
    "radial_tail_index": lambda: nz.RadialParetoNoise(p=1.5, sigma=1.0, tail_index=math.nan),
    "inputs_sigma": lambda: _inputs(sigma=math.nan),
    "inputs_smoothness": lambda: _inputs(smoothness=math.nan),
    "inputs_c1": lambda: _inputs(c1=math.nan),
    "inputs_c2": lambda: _inputs(c2=math.nan),
    "schedule_lambda_scale": lambda: schedules.Schedule("smd_known_t", _inputs(horizon=10, r1=1.0),
                                                        lambda_scale=math.nan),
    "ball_radius": lambda: geo.ball(2, math.nan),
    "quadratic_diag": lambda: problems.make_quadratic([1.0, math.nan]),
    "quadratic_plus_norm_coef": lambda: problems.make_quadratic_plus_norm(2, math.nan),
    "simplex_target": lambda: problems.make_simplex_quadratic([0.5, math.nan]),
}


@pytest.mark.parametrize("name", sorted(NAN_PARAMETERS))
def test_nan_parameters_rejected(name):
    """Each library range check rejects NaN, as the config layer does before it."""
    with pytest.raises(ValueError):
        NAN_PARAMETERS[name]()


def test_two_point_moment_exact_at_q_one():
    model = nz.TwoPointNoise(p=2.0, sigma=2.0, q=1.0)
    est, stderr = nz.moment_check(model, d=3, n=2000, rng=nz.make_rng(1))
    assert est == pytest.approx(4.0)
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_moment_check_degenerate_noiseless():
    model = nz.TwoPointNoise(p=1.5, sigma=0.0, q=0.5)
    est, stderr = nz.moment_check(model, d=3, n=2000, rng=nz.make_rng(2))
    assert est == 0.0
    assert stderr == 0.0


def test_two_point_moment_monte_carlo():
    model = nz.TwoPointNoise(p=1.5, sigma=1.0, q=0.05)
    est, stderr = nz.moment_check(model, d=2, n=1_000_000, rng=nz.make_rng(2))
    assert abs(est - 1.0) <= 5 * stderr


def test_radial_pareto_moment_by_quadrature():
    # independent oracle: integrate ||xi||^p against the exact radius density
    from scipy import integrate
    model = nz.RadialParetoNoise(p=1.5, sigma=1.3, tail_index=1.75)
    a, s = model.tail_index, model.scale
    val, err = integrate.quad(lambda r: r ** model.p * a * s ** a * r ** (-a - 1.0),
                              s, np.inf)
    assert err < 1e-8
    assert val == pytest.approx(model.sigma ** model.p, rel=1e-9)


def _cdf_misses(r, scale, a, levels=(0.1, 0.5, 0.9, 0.99)):
    """The levels at which the empirical CDF of the radii ``r`` at the Pareto(scale, a)
    quantile is more than 5 binomial standard deviations from the level."""
    n = r.size
    return [level for level in levels
            if abs(np.count_nonzero(r <= scale * (1.0 - level) ** (-1.0 / a)) / n - level)
            > 5.0 * np.sqrt(level * (1.0 - level) / n)]


def test_radial_pareto_sampler_matches_law():
    # the p-th power has tail index a/p = 7/6 here, so every location estimate
    # of its mean concentrates below the truth at any feasible sample size;
    # the sampler is verified distributionally instead: the CDF at exact quantiles
    # and the finite-variance log-radius moments pin down (scale, tail index), and
    # the closed-form identity (tested above) then fixes the p-th moment.
    model = nz.RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75)
    a, s = model.tail_index, model.scale
    xi = model.sample_batch(2, 1_000_000, nz.make_rng(3))
    r = np.sqrt(np.einsum("ij,ij->i", xi, xi))
    assert _cdf_misses(r, s, a) == []
    logs = np.log(r)
    stderr = logs.std(ddof=1) / np.sqrt(logs.size)
    assert abs(logs.mean() - (np.log(s) + 1.0 / a)) <= 5 * stderr  # E log r
    assert logs.std(ddof=1) == pytest.approx(1.0 / a, rel=0.01)    # sd log r


def test_radial_pareto_cdf_check_catches_a_one_percent_scale_error():
    """The CDF check is sharp enough to see a sampler whose scale is 1% off."""
    law = nz.RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75)
    off = nz.RadialParetoNoise(p=1.5, sigma=1.01, tail_index=1.75)  # the scale is linear in sigma
    xi = off.sample_batch(2, 1_000_000, nz.make_rng(3))
    r = np.sqrt(np.einsum("ij,ij->i", xi, xi))
    assert _cdf_misses(r, law.scale, law.tail_index) != []


def test_radial_pareto_moment_check_reports_block_spread():
    model = nz.RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75)
    est, spread = nz.moment_check(model, d=2, n=1_000_000, rng=nz.make_rng(3))
    assert spread > 0
    assert 0.5 < est < 2.0  # typical-value estimate of a mean with 7/6 tails


def test_radial_pareto_second_moment_diverges():
    model = nz.RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75)
    xi = model.sample_batch(2, 1_000_000, nz.make_rng(4))
    sq = np.einsum("ij,ij->i", xi, xi)
    prefix_means = [sq[:n].mean() for n in (1_000, 10_000, 100_000, 1_000_000)]
    assert all(a < b for a, b in zip(prefix_means, prefix_means[1:]))


def test_sampling_is_deterministic_per_seed():
    model = nz.TwoPointNoise(p=1.5, sigma=1.0, q=0.3)
    a = model.sample_batch(4, 50, nz.make_rng(7))
    b = model.sample_batch(4, 50, nz.make_rng(7))
    np.testing.assert_array_equal(a, b)
    prob = problems.make_quadratic([1.0] * 4)
    one, two = nz.Oracle(prob, model, seed=8), nz.Oracle(prob, model, seed=8)
    for steps in (1, 1, 7):
        np.testing.assert_array_equal(one.noise_matrix(steps), two.noise_matrix(steps))


def test_oracle_exact_when_noiseless():
    prob = problems.make_quadratic([1.0, 1.0])
    oracle = nz.Oracle(prob, nz.TwoPointNoise(p=1.5, sigma=0.0, q=1.0), seed=0)
    x = np.array([1.0, 2.0])
    np.testing.assert_array_equal(prob.grad(x) + oracle.noise_matrix(1)[0], prob.grad(x))
    assert np.all(oracle.noise_matrix(50) == 0.0)


def test_oracle_at_minimizer_returns_pure_noise():
    prob = problems.make_quadratic([1.0, 1.0])
    model = nz.TwoPointNoise(p=1.5, sigma=1.0, q=1.0)
    oracle = nz.Oracle(prob, model, seed=5)
    draws = prob.grad(prob.minimizer) + oracle.noise_matrix(200)
    norms = np.sqrt(np.einsum("ij,ij->i", draws, draws))
    np.testing.assert_allclose(norms, model.spike)


def test_oracle_unbiasedness_median_of_means():
    prob = problems.make_quadratic([1.0, 1.0], [0.3, -0.2])
    model = nz.RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75)
    oracle = nz.Oracle(prob, model, seed=9)
    x = np.array([1.0, 1.0])
    g_true = prob.grad(x)
    draws = g_true + model.sample_batch(2, 100_000, nz.make_rng(10))
    est, spread = nz.median_of_means(draws, blocks=50)
    assert np.all(np.abs(est - g_true) <= 5 * np.maximum(spread, 1e-9))
    # the oracle's own stream agrees with the model's distribution
    own = g_true + oracle.noise_matrix(1000)
    est2, spread2 = nz.median_of_means(own - g_true, blocks=50)
    assert np.all(np.abs(est2) <= 6 * np.maximum(spread2, 1e-3))


def test_oracle_empirical_moment_through_grad():
    prob = problems.make_quadratic([1.0, 1.0])
    model = nz.TwoPointNoise(p=1.5, sigma=1.0, q=0.1)
    oracle = nz.Oracle(prob, model, seed=11)
    x = np.zeros(2)
    xi = (prob.grad(x) + oracle.noise_matrix(20_000)) - prob.grad(x)
    powers = np.sqrt(np.einsum("ij,ij->i", xi, xi)) ** model.p
    stderr = powers.std(ddof=1) / np.sqrt(powers.size)
    assert abs(powers.mean() - 1.0) <= 5 * stderr


def test_radial_noise_rejected_on_simplex():
    prob = problems.make_simplex_quadratic([0.5, 0.5])
    with pytest.raises(ValueError):
        nz.Oracle(prob, nz.RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75), seed=0)


def test_moment_check_requires_enough_samples():
    model = nz.TwoPointNoise(p=1.5, sigma=1.0, q=0.5)
    with pytest.raises(ValueError):
        nz.moment_check(model, d=2, n=10, rng=nz.make_rng(0))


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("model", [nz.TwoPointNoise(p=1.5, sigma=1.0, q=0.3),
                                   nz.RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75)])
def test_sample_batch_into_strided_view(model, d):
    """A draw written into one seed's slice of a (steps, d, n) block equals a fresh draw."""
    steps, n, k = 257, 3, 1
    block = np.zeros((steps, d, n))
    view = block[:, :, k]
    rng_out, rng_fresh = nz.make_rng(11), nz.make_rng(11)
    result = model.sample_batch(d, steps, rng_out, out=view)
    fresh = model.sample_batch(d, steps, rng_fresh)
    assert result is view
    np.testing.assert_array_equal(view, fresh)
    np.testing.assert_equal(rng_out.bit_generator.state, rng_fresh.bit_generator.state)
    assert not np.any(np.delete(block, k, axis=2))  # the other seeds' slices are untouched



def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("window_steps", [None, 3])
@pytest.mark.parametrize("n", [1, 7, 300])
@pytest.mark.parametrize("d", [1, 2, 3, 32])
@pytest.mark.parametrize("model", [nz.TwoPointNoise(p=1.5, sigma=1.0, q=1e-3),
                                   nz.TwoPointNoise(p=1.5, sigma=1.0, q=0.1),
                                   nz.TwoPointNoise(p=1.5, sigma=1.0, q=1.0),
                                   nz.make_noise("none", 1.5, 0.0)],
                         ids=["q1e-3", "q0.1", "q1", "none"])
def test_spike_slabs_equal_dense_slabs(model, d, n, window_steps, monkeypatch):
    """Every step's spike slab is the dense block's slab bit for bit, in the same layout,
    and each seed's generator ends where its dense draw leaves it."""
    if window_steps is not None:  # windows of 3 steps: 10 is not a multiple
        monkeypatch.setattr(nz, "_WINDOW_BYTES", 8 * d * n * window_steps)
        monkeypatch.setattr(nz, "_WINDOW_MIN_STEPS", 1)
    steps = 10 if window_steps is not None else 50
    seeds = range(100, 100 + n)
    block = np.zeros((steps, d, n))
    dense_rngs = [nz.make_rng(s) for s in seeds]
    for k, rng in enumerate(dense_rngs):
        model.sample_batch(d, steps, rng, out=block[:, :, k])
    spike_rngs = [nz.make_rng(s) for s in seeds]
    spikes = nz.SpikeDraws(model, d, steps, spike_rngs, n)
    dense = nz.DenseDraws(block)
    assert spikes.n == dense.n == n
    for t in range(1, steps + 1):
        got, want = spikes.slab(t), dense.slab(t)
        assert got.shape == want.shape == (n, d) and got.strides == want.strides
        np.testing.assert_array_equal(_bits(got), _bits(want))
    for a, b in zip(spike_rngs, dense_rngs):
        np.testing.assert_equal(a.bit_generator.state, b.bit_generator.state)
    if model.sigma > 0:
        assert spikes.keys.size == np.count_nonzero(block)
    if model.q == 1.0:  # every row of every step is a hit: the worst case, 8 bytes a seed-step
        assert spikes.keys.nbytes == 8 * n * steps
    if model.sigma == 0.0:
        assert np.signbit(block).any()  # the compared slabs hold negative zero spikes


class _ZeroUniforms:
    """A generator stub whose normals are all 1 and whose uniforms are all exactly 0."""

    def standard_normal(self, out):
        out[...] = 1.0

    def random(self, out):
        out[...] = 0.0


def test_radial_zero_uniform_gives_finite_draw():
    """A uniform of exactly 0 is read as 1, the smallest radius, not an infinite one."""
    model = nz.RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75)
    block = model.sample_batch(3, 5, _ZeroUniforms())
    assert block.shape == (5, 3) and np.all(np.isfinite(block))
    np.testing.assert_allclose(np.sqrt(np.einsum("...i,...i->...", block, block)), model.scale)


@pytest.mark.parametrize("n, steps, d, q", [(500, 2048, 32, 0.1), (200, 1024, 4, 1.0)])
def test_spike_draws_build_within_stated_bytes(n, steps, d, q):
    """A two-point batch's build peaks within the bytes per seed-step that its model
    states (the harness's chunk budget counts those), so the budget is not understated."""
    model = nz.TwoPointNoise(p=1.5, sigma=0.5, q=q)
    tracemalloc.start()
    try:
        draws = nz.lockstep_draws(model, d, steps, map(nz.make_rng, range(n)), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(draws, nz.SpikeDraws)
    assert peak <= n * steps * model.seed_step_bytes(d), peak / (n * steps)


def test_spike_draws_build_peaks_near_its_keys():
    """Each seed's keys go straight into one array, so the build peaks at its 8-byte keys
    and little else."""
    model = nz.TwoPointNoise(p=1.5, sigma=0.5, q=1.0)
    nz.lockstep_draws(model, 4, 16, map(nz.make_rng, range(3)), 3)  # first-use allocations
    tracemalloc.start()
    try:
        draws = nz.lockstep_draws(model, 4, 1024, map(nz.make_rng, range(200)), 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws.keys.size == 200 * 1024
    assert peak <= 10 * draws.keys.size, peak / draws.keys.size
