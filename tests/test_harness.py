"""Harness oracles: trial aggregation, slope fitting, baseline comparison."""

import math

import numpy as np
import pytest

from clipopt import harness
from clipopt.config import ExperimentConfig, validate_config


def cfg(**kw):
    base = dict(experiment_id="t", algorithm="smd", mode="smd_known_t", horizon=64,
                n_seeds=40, base_seed=0, delta=0.1, problem="quadratic", dim=2,
                noise="two_point", p=1.5, sigma=1.0, q=0.2)
    base.update(kw)
    c = ExperimentConfig(**base)
    validate_config(c)
    return c


def test_fit_power_law_exact():
    horizons = np.array([64, 128, 256, 512, 1024])
    values = 7.0 * horizons ** -0.5
    slope, intercept, r2 = harness.fit_power_law(horizons, values)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert intercept == pytest.approx(math.log(7.0), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_power_law_rejects_nonpositive():
    with pytest.raises(ValueError, match="log-log"):
        harness.fit_power_law([1, 2, 4, 8], [1.0, 0.0, 0.1, 0.1])


def test_theoretical_exponents():
    assert harness.theoretical_exponent(cfg(p=1.5)) == pytest.approx(-1.0 / 3.0)
    assert harness.theoretical_exponent(cfg(p=2.0)) == pytest.approx(-0.5)
    sgd = cfg(algorithm="sgd", mode="sgd_known_t", problem="nonconvex_ratio", p=2.0)
    assert harness.theoretical_exponent(sgd) == pytest.approx(-0.5)
    sgd15 = cfg(algorithm="sgd", mode="sgd_known_t", problem="nonconvex_ratio", p=1.5)
    assert harness.theoretical_exponent(sgd15) == pytest.approx(-0.4)
    asmd = cfg(algorithm="asmd", mode="asmd_known_t", sigma=0.0)
    assert harness.theoretical_exponent(asmd) == pytest.approx(-2.0)


def test_run_trials_noiseless_failure_rate_zero():
    summary = harness.run_trials(cfg(sigma=0.0, n_seeds=32), write=False)
    assert summary.failure_rate == 0.0
    assert summary.diverged == 0
    assert summary.median <= summary.bound
    assert summary.median <= summary.upper_quantile + 1e-15


def test_run_trials_accelerated_and_baseline_paths():
    accel = harness.run_trials(cfg(algorithm="asmd", mode="asmd_known_t",
                                   sigma=0.0, noise="none", n_seeds=31), write=False)
    assert accel.failure_rate == 0.0
    assert accel.median <= accel.bound
    vanilla = harness.run_trials(cfg(algorithm="vanilla-sgd", mode="sgd_known_t",
                                     problem="nonconvex_ratio", n_seeds=31), write=False)
    assert vanilla.bound == np.inf  # no guarantee for the baseline
    assert vanilla.failure_rate == 0.0


def test_run_trials_warns_on_few_seeds():
    with pytest.warns(UserWarning, match="30 seeds"):
        harness.run_trials(cfg(n_seeds=5), write=False)


def test_run_trials_matches_seed_offsets():
    a = harness.run_trials(cfg(base_seed=0, n_seeds=35), write=False)
    b = harness.run_trials(cfg(base_seed=5, n_seeds=30), write=False)
    np.testing.assert_array_equal(a.metrics[5:], b.metrics[:30])


def test_run_trials_independent_of_chunking(monkeypatch):
    full = harness.run_trials(cfg(n_seeds=40), write=False)
    monkeypatch.setattr(harness, "_CHUNK_BUDGET", 64 * 2 * 7)  # force tiny chunks
    chunked = harness.run_trials(cfg(n_seeds=40), write=False)
    np.testing.assert_array_equal(full.metrics, chunked.metrics)


def test_seed_chunks_are_balanced():
    # the perfbench asmd sweep: n*T*d = 32.8M over the 30M budget gives two halves
    chunks = harness._seed_chunks(np.arange(500), 2048, 32)
    assert [len(c) for c in chunks] == [250, 250]
    np.testing.assert_array_equal(np.concatenate(chunks), np.arange(500))
    assert [len(c) for c in harness._seed_chunks(np.arange(7), 100, 2)] == [7]
    # a seed whose own block exceeds the budget still runs, alone
    assert [len(c) for c in harness._seed_chunks(np.arange(3), 10 ** 8, 1)] == [1, 1, 1]


def test_run_trials_writes_stable_csv(tmp_path):
    c = cfg(n_seeds=31, out_dir=str(tmp_path))
    harness.run_trials(c)
    path = tmp_path / "t" / "smd" / "p15" / "seed-results.csv"
    first = path.read_bytes()
    assert first.startswith(b"# schema=1\n")
    harness.run_trials(c)
    assert path.read_bytes() == first
    summary_path = tmp_path / "t" / "smd" / "p15" / "summary.jsonl"
    assert summary_path.exists()


def test_run_trials_median_scaling_with_horizon():
    # p = 2: doubling the horizon shrinks the median by roughly 1/sqrt(2)
    med = {}
    for horizon in (512, 1024):
        summary = harness.run_trials(
            cfg(p=2.0, sigma=0.25, q=0.1, x1=(4.0, 0.0), delta=math.exp(-1.0),
                horizon=horizon, n_seeds=100), write=False)
        med[horizon] = summary.median
    ratio = med[1024] / med[512]
    assert 0.4 <= ratio <= 0.95


def test_fit_rate_requires_grid_and_seeds():
    with pytest.raises(ValueError, match="horizon grid"):
        harness.fit_rate(cfg(n_seeds=120))
    with pytest.raises(ValueError, match="100 seeds"):
        harness.fit_rate(cfg(horizon_grid=(64, 128, 256, 512), n_seeds=50))


def test_fit_rate_noiseless_smd_slope():
    # deterministic branch decays like 1/T once the iterate has converged
    c = cfg(sigma=0.0, noise="none", n_seeds=100, horizon_grid=(256, 512, 1024, 2048))
    fit = harness.fit_rate(c)
    assert fit.horizons.size == 4
    assert fit.r_squared > 0.99
    assert fit.slope == pytest.approx(-1.0, abs=0.05)


def test_compare_requires_heavy_tails():
    with pytest.raises(ValueError, match="p < 2"):
        harness.compare_clipped_vanilla(cfg(algorithm="sgd", mode="sgd_known_t",
                                            p=2.0, sigma=1.0))


def test_compare_noiseless_identical():
    c = cfg(algorithm="sgd", mode="sgd_known_t", problem="quadratic", sigma=0.0,
            noise="none", n_seeds=31)
    comp = harness.compare_clipped_vanilla(c)
    assert comp.median_ratio == pytest.approx(1.0)
    assert comp.vanilla_diverged == 0
    assert comp.clipped_median == comp.vanilla_median


def test_compare_reports_divergence_count():
    c = cfg(algorithm="sgd", mode="sgd_known_t", p=1.5, sigma=1.0, q=1e-3,
            horizon=256, n_seeds=40, vanilla_eta=3.0)
    comp = harness.compare_clipped_vanilla(c)
    assert comp.vanilla_diverged == 40  # the 3/L step is unstable on this quadratic
    assert comp.n_pairs == 40


def test_upper_quantile_through_infinities():
    inf = math.inf
    assert harness.upper_quantile(np.array([inf, inf, inf]), 0.9) == inf
    # (11 - 1) * 0.9 = 9: weight 0, so the quantile is the 10th order statistic
    assert harness.upper_quantile(np.array([1.0] * 10 + [inf]), 0.9) == 1.0
    # a positive weight toward an infinite neighbour
    assert harness.upper_quantile(np.array([1.0, 2.0, inf]), 0.9) == inf
    rng = np.random.default_rng(3)
    for n in (1, 7, 40, 1000):
        values = rng.pareto(1.5, size=n)
        for q in (0.5, 0.9, 1.0 - math.exp(-1.0)):
            assert harness.upper_quantile(values, q) == float(np.quantile(values, q))


def test_run_trials_all_diverged_upper_quantile_inf():
    summary = harness.run_trials(cfg(n_seeds=30, eta_scale=1e300), write=False)
    assert summary.diverged == 30
    assert summary.upper_quantile == math.inf


def test_compare_upper_quantiles_with_diverged_baseline():
    c = cfg(algorithm="sgd", mode="sgd_known_t", p=1.5, sigma=1.0, q=1e-3,
            horizon=64, n_seeds=30, vanilla_eta=3.0)
    comp = harness.compare_clipped_vanilla(c)
    assert comp.vanilla_diverged == 30
    assert comp.vanilla_upper == math.inf
    assert math.isfinite(comp.clipped_upper)
