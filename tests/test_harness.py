"""Harness oracles: trial aggregation, slope fitting, baseline comparison."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from clipopt import algorithms, harness
from clipopt.config import ExperimentConfig, build_noise, validate_config
from clipopt.noise import RadialParetoNoise, TwoPointNoise


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
    """A zero, infinite or NaN median has no logarithm to fit; warnings are errors here."""
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="log-log fit undefined"):
            harness.fit_power_law([1, 2, 4, 8], [1.0, bad, 0.1, 0.1])


def test_fit_power_law_equals_linregress_bitwise():
    """The numpy fit repeats scipy's linregress arithmetic bit for bit."""
    from scipy import stats
    rng = np.random.default_rng(20)
    for _ in range(500):
        k = int(rng.integers(4, 12))
        horizons = np.sort(rng.choice(np.arange(1, 100_000), size=k, replace=False))
        values = np.exp(rng.normal(scale=rng.uniform(0.0, 3.0), size=k)
                        + rng.uniform(-3.0, 0.0) * np.log(horizons))
        res = stats.linregress(np.log(horizons.astype(float)), np.log(values))
        want = np.array([res.slope, res.intercept, res.rvalue ** 2])
        assert np.array(harness.fit_power_law(horizons, values)).tobytes() == want.tobytes()


def test_fit_power_law_degenerate_inputs():
    slope, _, r2 = harness.fit_power_law([1, 2, 4, 8], [0.5, 0.5, 0.5, 0.5])
    assert slope == 0.0 and r2 == 0.0  # a constant metric: zero variance gives r = 0
    with pytest.raises(ValueError, match="identical"):
        harness.fit_power_law([8, 8, 8, 8], [1.0, 0.5, 0.2, 0.1])


def test_cli_import_leaves_scipy_out():
    """Every CLI call imports ``clipopt.cli``; scipy is a test-only dependency."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, clipopt.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def seven_seed_budget(c) -> float:
    """A chunk budget of seven seeds' draws: six chunks of 6-7 seeds out of 40."""
    return 7 * c.horizon * build_noise(c).seed_step_bytes(c.dim)


def counted(calls, side, fn):
    def run(*args, **kwargs):
        calls[side] += 1
        return fn(*args, **kwargs)
    return run


def test_run_trials_independent_of_chunking(monkeypatch):
    c = cfg(n_seeds=40)
    full = harness.run_trials(c, write=False)
    calls = {"smd": 0}
    monkeypatch.setattr(algorithms, "run_smd_batch",
                        counted(calls, "smd", algorithms.run_smd_batch))
    monkeypatch.setattr(harness, "_CHUNK_BYTES", seven_seed_budget(c))
    chunked = harness.run_trials(c, write=False)
    np.testing.assert_array_equal(full.metrics, chunked.metrics)
    assert calls["smd"] >= 2


def test_run_trials_builds_one_schedule(monkeypatch):
    """A chunked sweep builds its schedule once, for every chunk and for the bound."""
    c = cfg(n_seeds=40)
    monkeypatch.setattr(harness, "_CHUNK_BYTES", seven_seed_budget(c))
    calls = {"schedule": 0, "smd": 0}
    monkeypatch.setattr(harness, "build_schedule",
                        counted(calls, "schedule", harness.build_schedule))
    monkeypatch.setattr(algorithms, "run_smd_batch",
                        counted(calls, "smd", algorithms.run_smd_batch))
    harness.run_trials(c, write=False)
    assert calls == {"schedule": 1, "smd": 6}


def test_seed_chunks_are_balanced():
    # the perfbench asmd sweep with a dense block: 500 * 2048 * 32 doubles (262 MB)
    # over the 240 MB budget gives two halves
    dense = RadialParetoNoise(p=1.5, sigma=0.5, tail_index=1.75).seed_step_bytes(32)
    chunks = harness._seed_chunks(np.arange(500), 2048, dense)
    assert [len(c) for c in chunks] == [250, 250]
    np.testing.assert_array_equal(np.concatenate(chunks), np.arange(500))
    # the same sweep with two-point noise keeps only its spikes: one batch
    spikes = TwoPointNoise(p=1.5, sigma=0.5, q=0.1).seed_step_bytes(32)
    assert [len(c) for c in harness._seed_chunks(np.arange(500), 2048, spikes)] == [500]
    assert [len(c) for c in harness._seed_chunks(np.arange(7), 100, 16)] == [7]
    # a seed whose own draws exceed the budget still runs, alone
    assert [len(c) for c in harness._seed_chunks(np.arange(3), 10 ** 8, 8)] == [1, 1, 1]


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


@pytest.mark.parametrize("vanilla_eta", [None, 0.3])
def test_compare_is_chunked_like_run_trials(monkeypatch, vanilla_eta):
    """Both sides of compare go through the chunked seed runner, with the same result."""
    c = cfg(algorithm="sgd", mode="sgd_known_t", p=1.5, sigma=1.0, q=0.2, n_seeds=40,
            vanilla_eta=vanilla_eta)
    whole = harness.compare_clipped_vanilla(c)
    calls = {"clipped": 0, "vanilla": 0}
    monkeypatch.setattr(algorithms, "run_sgd_batch",
                        counted(calls, "clipped", algorithms.run_sgd_batch))
    monkeypatch.setattr(algorithms, "run_vanilla_sgd_batch",
                        counted(calls, "vanilla", algorithms.run_vanilla_sgd_batch))
    monkeypatch.setattr(harness, "_CHUNK_BYTES", seven_seed_budget(c))
    assert harness.compare_clipped_vanilla(c) == whole
    assert calls["clipped"] >= 2 and calls["vanilla"] >= 2


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
