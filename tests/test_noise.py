"""Noise calibration: closed-form scales and moment identities, and raw draws against each law."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("p, q, d", [(1.5, 0.05, 2), (1.2, 0.3, 5), (2.0, 1.0, 3)])
def test_two_point_draws_match_the_law(p, q, d):
    """Raw ``sample_batch`` draws: at most one nonzero entry per draw, of magnitude exactly
    ``spike``; the hit frequency within 5 binomial s.e. of q, and the signs and coordinates
    of the hits balanced within 5 s.e.; and the calibration q M^p = sigma^p."""
    model = nz.TwoPointNoise(p=p, sigma=1.7, q=q)
    assert q * model.spike ** model.p == pytest.approx(model.sigma ** model.p, rel=1e-12)
    n = 200_000
    xi = model.sample_batch(d, n, nz.make_rng(2))
    rows, cols = np.nonzero(xi)
    assert np.all(np.abs(xi[rows, cols]) == model.spike)
    assert np.unique(rows).size == rows.size  # one spike per draw at most
    hits = rows.size
    assert abs(hits / n - q) <= 5 * np.sqrt(q * (1 - q) / n)
    assert abs(np.count_nonzero(xi[rows, cols] > 0) - hits / 2) <= 5 * np.sqrt(hits / 4)
    per_coord = np.bincount(cols, minlength=d)
    assert np.all(np.abs(per_coord - hits / d) <= 5 * np.sqrt(hits * (1 / d) * (1 - 1 / d)))


def _seed_hits(model, d, steps, n):
    """The hit steps (1-based) of seeds 0..n-1 of a ``SpikeDraws`` build, a list per seed."""
    draws = nz.SpikeDraws(model, d, steps, range(n))
    flat = draws.keys >> 1  # (step - 1) d n + coordinate n + seed
    seeds, at = flat % n, flat // (d * n) + 1
    return [at[seeds == k] for k in range(n)]


@pytest.mark.parametrize("q, steps", [(0.05, 64), (0.4, 12)])
def test_two_point_first_hit_and_hit_count_follow_their_laws(q, steps):
    """Over 4000 seeds, the share whose first hit is at step k is within 5 s.e. of the
    geometric (1 - q)^(k - 1) q (no hit: (1 - q)^steps), and the share with j hits within 5
    s.e. of the binomial C(steps, j) q^j (1 - q)^(steps - j)."""
    model, n = nz.TwoPointNoise(p=1.5, sigma=1.0, q=q), 4000
    hits = _seed_hits(model, 3, steps, n)
    first = np.array([h[0] if h.size else steps + 1 for h in hits])
    counts = np.array([h.size for h in hits])
    k = np.arange(1, steps + 2)
    geometric = np.where(k <= steps, (1 - q) ** (k - 1) * q, (1 - q) ** steps)
    j = np.arange(steps + 1)
    binomial = np.array([math.comb(steps, i) for i in j]) * q ** j * (1 - q) ** (steps - j)
    for got, law in ((np.bincount(first, minlength=steps + 2)[1:], geometric),
                     (np.bincount(counts, minlength=steps + 1), binomial)):
        assert np.all(np.abs(got / n - law) <= 5 * np.sqrt(law * (1 - law) / n) + 1e-12)


@pytest.mark.parametrize("q", [1.0, 1e-300, 5e-324])
def test_two_point_extreme_q(q):
    """q = 1 hits every step of every seed; a q near the doubles' floor hits none, and no
    draw overflows into a warning."""
    model, d, steps, n = nz.TwoPointNoise(p=1.5, sigma=1.0, q=q), 3, 300, 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xi = model.sample_batch(d, steps, nz.make_rng(7))
        hits = _seed_hits(model, d, steps, n)
    every = q == 1.0
    assert np.array_equal(np.count_nonzero(xi, axis=1), np.full(steps, int(every)))
    for h in hits:
        assert np.array_equal(h, np.arange(1, steps + 1) if every else [])


@pytest.mark.parametrize("slack", [None, 0])
@pytest.mark.parametrize("q", [1e-3, 0.1, 0.5, 1.0])
def test_sample_batch_is_the_one_seed_spike_draws(q, slack, monkeypatch):
    """``sample_batch(d, T, make_rng(seed))`` is the one-seed ``SpikeDraws``' slabs bit for
    bit, also when a zero slack makes most seeds top up."""
    if slack is not None:
        monkeypatch.setattr(nz, "_SPIKE_SLACK_SD", slack)
    model, d, steps = nz.TwoPointNoise(p=1.5, sigma=1.0, q=q), 3, 200
    for seed in range(20):
        dense = model.sample_batch(d, steps, nz.make_rng(seed))
        spikes = nz.SpikeDraws(model, d, steps, [seed])
        slabs = np.stack([spikes.slab(t)[0] for t in range(1, steps + 1)])
        assert _bits(slabs).tobytes() == _bits(dense).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=40))
@example([0, 2**32 - 1, 2**32, 2**63 - 1])
def test_philox_keys_are_the_seed_sequence_keys(seeds):
    """The array replay of the seed hash is ``Philox(seed)``'s key for every seed in
    [0, 2^63): ``SeedSequence(seed).generate_state(2, np.uint64)``."""
    want = np.array([np.random.SeedSequence(s).generate_state(2, np.uint64) for s in seeds])
    got = nz._philox_keys(seeds)
    assert got.dtype == np.uint64 and got.tobytes() == want.tobytes()


def test_negative_seed_raises_as_make_rng_does():
    """A negative seed raises ``ValueError``: hashed on arrays, or as a build's first seed,
    whose key its own Philox hashes."""
    model = nz.TwoPointNoise(p=1.5, sigma=1.0, q=0.1)
    for raises in (lambda: nz.make_rng(-1), lambda: nz._philox_keys([3, -1]),
                   lambda: nz.SpikeDraws(model, 2, 8, [-1]),
                   lambda: nz.SpikeDraws(model, 2, 8, [0, -1])):
        with pytest.raises(ValueError, match="non-negative"):
            raises()


@pytest.mark.parametrize("slack", [None, 0])
@pytest.mark.parametrize("d", [1, 2, 32])
@pytest.mark.parametrize("q", [5e-324, 1e-3, 0.1, 0.5, 1.0])
def test_block_build_keys_are_each_seeds_own_keys(q, d, slack, monkeypatch):
    """A build's keys are those of each seed's own ``_spike_hits(make_rng(seed), ...)``, as
    flat indices into the dense (steps, d, n) block, at one seed and at a block of B seeds
    less one, B and one more; also when a zero slack makes most seeds top up."""
    if slack is not None:
        monkeypatch.setattr(nz, "_SPIKE_SLACK_SD", slack)
    model, steps, B = nz.TwoPointNoise(p=1.5, sigma=1.0, q=q), 60, 4
    monkeypatch.setattr(nz, "_BLOCK_BYTES", 8 * nz._gap_draws(q, steps)[1] * B)
    for n in (1, B - 1, B, B + 1):
        seeds = [2**32 - 2 + 7919 * k for k in range(n)]  # below and past one 32-bit word
        want = []
        for k, seed in enumerate(seeds):
            t, v = nz._spike_hits(nz.make_rng(seed), q, d, steps)
            want.append(2 * (((t - 1) * d + (v >> 1)) * n + k) + (v & 1))
        want = np.sort(np.concatenate(want))
        assert nz.SpikeDraws(model, d, steps, seeds).keys.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("d", [2, 5])
def test_radial_directions_have_mean_zero(d):
    """The unit directions xi / ||xi|| of raw ``sample_batch`` draws, which have finite
    variance, average to 0 within 5 s.e. per coordinate.  The radius, drawn apart from the
    direction, has its law pinned by the CDF and quadrature checks, so the draws are zero-mean."""
    model = nz.RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75)
    n = 100_000
    xi = model.sample_batch(d, n, nz.make_rng(10))
    u = xi / np.sqrt(np.einsum("ij,ij->i", xi, xi))[:, None]
    assert np.all(np.abs(u.mean(axis=0)) <= 5 * u.std(axis=0, ddof=1) / np.sqrt(n))


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
    """Every step's spike slab is the dense block's slab of the same seeds bit for bit, in
    the same layout."""
    if window_steps is not None:  # windows of 3 steps: 10 is not a multiple
        monkeypatch.setattr(nz, "_WINDOW_BYTES", 8 * d * n * window_steps)
        monkeypatch.setattr(nz, "_WINDOW_MIN_STEPS", 1)
    steps = 10 if window_steps is not None else 50
    seeds = range(100, 100 + n)
    block = np.zeros((steps, d, n))
    for k, seed in enumerate(seeds):
        model.sample_batch(d, steps, nz.make_rng(seed), out=block[:, :, k])
    spikes = nz.SpikeDraws(model, d, steps, seeds)
    dense = nz.DenseDraws(block)
    assert spikes.n == dense.n == n
    for t in range(1, steps + 1):
        got, want = spikes.slab(t), dense.slab(t)
        assert got.shape == want.shape == (n, d) and got.strides == want.strides
        np.testing.assert_array_equal(_bits(got), _bits(want))
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
        draws = nz.lockstep_draws(model, d, steps, range(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(draws, nz.SpikeDraws)
    assert peak <= n * steps * model.seed_step_bytes(d), peak / (n * steps)


def test_spike_draws_build_peaks_near_its_keys():
    """Each seed's keys go straight into one array, so the build peaks at its 8-byte keys
    and little else."""
    model = nz.TwoPointNoise(p=1.5, sigma=0.5, q=1.0)
    nz.lockstep_draws(model, 4, 16, range(3))  # first-use allocations
    tracemalloc.start()
    try:
        draws = nz.lockstep_draws(model, 4, 1024, range(200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws.keys.size == 200 * 1024
    assert peak <= 10 * draws.keys.size, peak / draws.keys.size
