"""Harness oracles: trial aggregation, slope fitting, baseline comparison."""

import io
import math
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from clipopt import algorithms, cli, harness
from clipopt.config import (ConfigError, ExperimentConfig, build_noise, dumps_config,
                            validate_config)
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
    summary = harness.run_trials(cfg(sigma=0.0, n_seeds=32))
    assert summary.failure_rate == 0.0
    assert summary.diverged == 0
    assert summary.median <= summary.bound
    assert summary.median <= summary.upper_quantile + 1e-15


def test_run_trials_accelerated_and_baseline_paths():
    accel = harness.run_trials(cfg(algorithm="asmd", mode="asmd_known_t",
                                   sigma=0.0, noise="none", n_seeds=31))
    assert accel.failure_rate == 0.0
    assert accel.median <= accel.bound
    vanilla = harness.run_trials(cfg(algorithm="vanilla-sgd", mode="sgd_known_t",
                                     problem="nonconvex_ratio", n_seeds=31))
    assert vanilla.bound == np.inf  # no guarantee for the baseline
    assert vanilla.failure_rate == 0.0


def test_run_trials_warns_on_few_seeds():
    with pytest.warns(UserWarning, match="30 seeds"):
        harness.run_trials(cfg(n_seeds=5))


def test_run_trials_matches_seed_offsets():
    a = harness.run_trials(cfg(base_seed=0, n_seeds=35))
    b = harness.run_trials(cfg(base_seed=5, n_seeds=30))
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
    full = harness.run_trials(c)
    calls = {"smd": 0}
    monkeypatch.setattr(algorithms, "run_smd_batch",
                        counted(calls, "smd", algorithms.run_smd_batch))
    monkeypatch.setattr(harness, "_CHUNK_BYTES", seven_seed_budget(c))
    chunked = harness.run_trials(c)
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
    harness.run_trials(c)
    assert calls == {"schedule": 1, "smd": 6}


def test_seed_chunks_are_balanced():
    # the perfbench asmd sweep with a dense block: 500 * 2048 * 32 doubles (262 MB)
    # over the 240 MB budget gives two halves
    dense = RadialParetoNoise(p=1.5, sigma=0.5, tail_index=1.75).seed_step_bytes(32)
    chunks = harness._seed_chunks(np.arange(500), 2048, dense, 1)
    assert [len(c) for c in chunks] == [250, 250]
    np.testing.assert_array_equal(np.concatenate(chunks), np.arange(500))
    # two workers share the budget: each runs two chunks of half the size
    assert [len(c) for c in harness._seed_chunks(np.arange(500), 2048, dense, 2)] == [125] * 4
    # the same sweep with two-point noise keeps only its spikes: one batch, or one a worker
    spikes = TwoPointNoise(p=1.5, sigma=0.5, q=0.1).seed_step_bytes(32)
    assert [len(c) for c in harness._seed_chunks(np.arange(500), 2048, spikes, 1)] == [500]
    assert [len(c) for c in harness._seed_chunks(np.arange(500), 2048, spikes, 2)] == [250] * 2
    assert [len(c) for c in harness._seed_chunks(np.arange(7), 100, 16, 1)] == [7]
    # a seed whose own draws exceed the budget still runs, alone
    assert [len(c) for c in harness._seed_chunks(np.arange(3), 10 ** 8, 8, 2)] == [1, 1, 1]


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
                horizon=horizon, n_seeds=100))
        med[horizon] = summary.median
    ratio = med[1024] / med[512]
    assert 0.4 <= ratio <= 0.95


def test_fit_rate_requires_grid_and_seeds():
    with pytest.raises(ValueError, match="horizon grid"):
        harness.fit_rate(cfg(n_seeds=120))
    with pytest.raises(ValueError, match="100 seeds"):
        harness.fit_rate(cfg(horizon_grid=(64, 128, 256, 512), n_seeds=50))


def test_fit_rate_sweeps_each_horizon_once(monkeypatch):
    """A repeated horizon reuses its median: the fit sees every grid point, and one call
    sweeps each distinct horizon once."""
    c = cfg(sigma=0.0, noise="none", n_seeds=100, horizon_grid=(256, 256, 512, 1024, 512))
    swept = []
    sweeps = harness._sweeps

    def counted_sweeps(cfg, runs):
        swept.append(runs)
        return sweeps(cfg, runs)

    monkeypatch.setattr(harness, "_sweeps", counted_sweeps)
    fit = harness.fit_rate(c)
    assert swept == [[(256, "smd"), (512, "smd"), (1024, "smd")]]
    assert fit.horizons.tolist() == [256, 256, 512, 1024, 512]
    assert fit.medians[0] == fit.medians[1] and fit.medians[2] == fit.medians[4]
    assert (fit.slope, fit.r_squared) == harness.fit_power_law(fit.horizons, fit.medians)[::2]


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
    summary = harness.run_trials(cfg(n_seeds=30, eta_scale=1e300))
    assert summary.diverged == 30
    assert summary.upper_quantile == math.inf


def test_compare_upper_quantiles_with_diverged_baseline():
    c = cfg(algorithm="sgd", mode="sgd_known_t", p=1.5, sigma=1.0, q=1e-3,
            horizon=64, n_seeds=30, vanilla_eta=3.0)
    comp = harness.compare_clipped_vanilla(c)
    assert comp.vanilla_diverged == 30
    assert comp.vanilla_upper == math.inf
    assert math.isfinite(comp.clipped_upper)


# -- worker processes -----------------------------------------------------------------

SGD = dict(algorithm="sgd", mode="sgd_known_t", problem="nonconvex_ratio", x1=(1.0, 1.0))
CASES = {"smd": {}, "asmd": dict(algorithm="asmd", mode="asmd_known_t"), "sgd": SGD,
         "vanilla-sgd": dict(SGD, algorithm="vanilla-sgd")}
FIELDS = ("seeds", "summary", "final_gap", "clipped_fraction", "diverged")


def forking(monkeypatch) -> list:
    """From here on every sweep forks, onto three CPUs (more than this machine may have);
    returns the pids forked, appended as they are."""
    monkeypatch.setattr(harness, "_FORK_SEED_STEPS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    forked, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forked


def assert_all_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sweep_bytes(c, algorithm: str) -> list[bytes]:
    [(result, _)] = harness._sweeps(c, [(c.horizon, algorithm)])
    return [getattr(result, field).tobytes() for field in FIELDS]


def test_workers_rule(monkeypatch):
    """One worker per CPU and at most one per seed row, from the seed-step threshold on (the
    call's sweeps counted together), in a process that can fork and runs one thread; the CPU
    count stands in for affinity."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    n, steps = 100, harness._FORK_SEED_STEPS
    assert harness._workers(n, steps) == 3
    assert harness._workers(n, steps - 1) == 1
    assert harness._workers(2, steps) == 2
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert harness._workers(n, steps) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert harness._workers(n, steps) == 5
    monkeypatch.delattr(os, "fork")
    assert harness._workers(n, steps) == 1


@pytest.mark.parametrize("algorithm", sorted(CASES))
@pytest.mark.parametrize("seven", [False, True])
def test_forked_sweep_equals_the_in_process_sweep_bitwise(monkeypatch, algorithm, seven):
    """Three workers give every row of the in-process sweep, bitwise and in seed order, each
    worker running one chunk or six (the chunks dealt round the workers); run_trials'
    summary follows."""
    c = cfg(**CASES[algorithm], n_seeds=40)
    whole, trials = sweep_bytes(c, algorithm), harness.run_trials(c)
    forked = forking(monkeypatch)
    calls = {"run": 0}
    name = "run_vanilla_sgd_batch" if algorithm == "vanilla-sgd" else f"run_{algorithm}_batch"
    monkeypatch.setattr(algorithms, name, counted(calls, "run", getattr(algorithms, name)))
    if seven:
        monkeypatch.setattr(harness, "_CHUNK_BYTES", seven_seed_budget(c))
    assert sweep_bytes(c, algorithm) == whole
    again = harness.run_trials(c)
    assert again.metrics.tobytes() == trials.metrics.tobytes() and again.row() == trials.row()
    assert len(forked) == 4  # two children a sweep
    assert calls["run"] == 2 * (6 if seven else 1)  # the calling process's share
    assert_all_reaped()


def test_forked_fit_rate_and_compare_equal_the_in_process_runs_bitwise(monkeypatch):
    rates = cfg(**SGD, n_seeds=100, horizon_grid=(64, 128, 256, 512))
    pair = cfg(algorithm="sgd", mode="sgd_known_t", p=1.5, sigma=1.0, q=1e-3, horizon=256,
               n_seeds=40, vanilla_eta=3.0)
    fit, comp = harness.fit_rate(rates), harness.compare_clipped_vanilla(pair)
    forked = forking(monkeypatch)
    again = harness.fit_rate(rates)
    assert again.medians.tobytes() == fit.medians.tobytes()
    assert (again.slope, again.r_squared) == (fit.slope, fit.r_squared)
    assert harness.compare_clipped_vanilla(pair) == comp
    assert comp.vanilla_diverged == 40  # the diverged flags come back from the workers too
    assert len(forked) == 2 * 2  # one fork round a call, two children each
    assert_all_reaped()


def logged_sgd_runners(monkeypatch, log) -> None:
    """Every clipped and unclipped SGD batch call, in any process, warns ``<algorithm>
    <horizon> <first seed> <seeds>`` and appends ``<pid> <that message>`` to the file
    ``log``."""
    for algorithm in ("sgd", "vanilla-sgd"):
        name = "run_vanilla_sgd_batch" if algorithm == "vanilla-sgd" else "run_sgd_batch"

        def logged(problem, noise, rule, horizon, x1, seeds, _run=getattr(algorithms, name),
                   _algorithm=algorithm, **kwargs):
            message = f"{_algorithm} {horizon} {seeds[0]} {len(seeds)}"
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {message}\n")
            warnings.warn(message, UserWarning)
            return _run(problem, noise, rule, horizon, x1, seeds, **kwargs)
        monkeypatch.setattr(algorithms, name, logged)


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_one_fork_round_a_call_equals_one_process_bitwise(monkeypatch, tmp_path, cpus):
    """At any worker count, fit_rate (a repeated horizon in its grid) and compare give the
    one-process results bitwise from one fork round a call (W - 1 children); with at least
    as many sweeps as workers each sweep runs whole in one runner call, and every worker's
    warnings are issued again in (sweep, seed) order, the order one process gives."""
    rates = cfg(**SGD, n_seeds=100, horizon_grid=(64, 128, 64, 256, 512))
    pair = cfg(algorithm="sgd", mode="sgd_known_t", p=1.5, sigma=1.0, q=1e-3, horizon=256,
               n_seeds=40, vanilla_eta=3.0)
    calls = {"rates": (lambda: harness.fit_rate(rates),
                       [("sgd", T) for T in (64, 128, 256, 512)], rates.n_seeds),
             "compare": (lambda: harness.compare_clipped_vanilla(pair),
                         [("sgd", 256), ("vanilla-sgd", 256)], pair.n_seeds)}
    log = tmp_path / "calls.log"
    logged_sgd_runners(monkeypatch, log)
    alone = {}
    for name, (call, _, _) in calls.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alone[name] = (call(), [str(w.message) for w in caught])
    assert alone["compare"][0].vanilla_diverged == 40
    log.unlink()
    forked = forking(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for name, (call, sweeps, n) in calls.items():
        del forked[:]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            again = call()
        if name == "rates":
            fit = alone[name][0]
            assert again.medians.tobytes() == fit.medians.tobytes()
            assert (again.slope, again.r_squared) == (fit.slope, fit.r_squared)
        else:
            assert again == alone[name][0]
        workers = min(cpus, n * len(sweeps))
        assert len(forked) == workers - 1
        assert_all_reaped()
        lines = [line.split(" ", 1) for line in log.read_text().splitlines()]
        log.unlink()
        if len(sweeps) >= workers:  # each sweep whole, in one runner call
            assert sorted(message for _, message in lines) == \
                sorted(f"{algorithm} {T} 0 {n}" for algorithm, T in sweeps)
        # every worker's warnings, in the order of their rows in the results
        order = sorted((message for _, message in lines),
                       key=lambda m: (sweeps.index((m.split()[0], int(m.split()[1]))),
                                      int(m.split()[2])))
        got = [str(w.message) for w in caught]
        assert got == order
        if len(sweeps) >= workers:  # the chunks one process runs, in its order
            assert got == alone[name][1]


class LocalError(Exception):
    """Raised with an argument that cannot be pickled."""


def in_workers_only(monkeypatch, act):
    """``run_smd_batch`` calls ``act(seeds)`` first in a forked worker only."""
    parent, run = os.getpid(), algorithms.run_smd_batch

    def patched(problem, noise, rule, horizon, x1, seeds, **kwargs):
        if os.getpid() != parent:
            act(seeds)
        return run(problem, noise, rule, horizon, x1, seeds, **kwargs)

    monkeypatch.setattr(algorithms, "run_smd_batch", patched)


def _raise(exc):
    raise exc


@pytest.mark.parametrize("act, code, message", [
    (lambda seeds: _raise(ValueError("bad row")), 1, "error: bad row"),
    (lambda seeds: _raise(ConfigError("noise.q", "bad q")), 2, "config error: noise.q: bad q"),
    (lambda seeds: _raise(LocalError(threading.Lock())), 1, "error: LocalError(<unlocked "),
    (lambda seeds: os._exit(3), 1, "error: a sweep worker process exited with code 3 before "
                                   "sending its result"),
])
def test_a_worker_error_reaches_the_cli(monkeypatch, tmp_path, capsys, act, code, message):
    """A worker's exception is raised again in the calling process with its type and
    message, so the exit codes hold; one that cannot be pickled arrives as a RuntimeError
    with its repr, and a worker that dies without a reply is an error too."""
    path = tmp_path / "run.cfg"
    path.write_text(dumps_config(cfg(n_seeds=40)))
    in_workers_only(monkeypatch, act)
    forked = forking(monkeypatch)
    assert cli.main(["run", "--config", str(path)]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message)
    assert len(forked) == 2
    assert_all_reaped()


def test_an_error_in_the_calling_process_kills_and_reaps_every_worker(monkeypatch):
    """The workers would sleep a minute; the calling process's own chunk raises, and every
    worker is killed and reaped before the error leaves the sweep."""
    parent, run = os.getpid(), algorithms.run_smd_batch

    def patched(*args, **kwargs):
        if os.getpid() == parent:
            raise ValueError("bad row here")
        time.sleep(60)
        return run(*args, **kwargs)

    monkeypatch.setattr(algorithms, "run_smd_batch", patched)
    forked = forking(monkeypatch)
    start = time.monotonic()
    with pytest.raises(ValueError, match="bad row here"):
        harness.run_trials(cfg(n_seeds=40))
    assert time.monotonic() - start < 30
    assert len(forked) == 2
    assert_all_reaped()


def test_worker_warnings_are_issued_again_in_order(monkeypatch):
    """Each worker's warnings come back in its order, the workers in seed order; under an
    error filter a worker's warning is raised again here as its exception."""
    def warn(seeds):
        warnings.warn(f"from seed {seeds[0]}", UserWarning)
        warnings.warn(f"to seed {seeds[-1]}", UserWarning)

    in_workers_only(monkeypatch, warn)
    forking(monkeypatch)
    c = cfg(n_seeds=40)  # one chunk a worker: seeds 0-13 here, 14-26 and 27-39 forked
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        harness._sweeps(c, [(c.horizon, "smd")])
    assert [str(w.message) for w in caught] == ["from seed 14", "to seed 26",
                                                "from seed 27", "to seed 39"]
    assert {(w.category, w.filename) for w in caught} == {(UserWarning, __file__)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="from seed 14"):
            harness._sweeps(c, [(c.horizon, "smd")])
    assert_all_reaped()


def test_warnings_show_the_same_at_any_worker_count(monkeypatch):
    """Under the ``default`` filter, a runner that warns one text a batch call shows it once a
    call, from one process or three: the same stderr."""
    run = algorithms.run_smd_batch

    def warned(*args, **kwargs):
        warnings.warn("one batch call", UserWarning)
        return run(*args, **kwargs)

    def stderr() -> str:
        """What two calls write to stderr (pytest records warnings in place of showing them)."""
        text = io.StringIO()

        def show(message, category, filename, lineno, file=None, line=None):
            text.write(warnings.formatwarning(message, category, filename, lineno, line))

        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = show
            for _ in range(2):
                harness.run_trials(c)
        return text.getvalue()

    monkeypatch.setattr(algorithms, "run_smd_batch", warned)
    c = cfg(n_seeds=40)
    monkeypatch.setattr(harness, "_CHUNK_BYTES", seven_seed_budget(c))  # 6 batch calls a call
    alone = stderr()
    assert alone.count("UserWarning: one batch call") == 2
    forked = forking(monkeypatch)
    assert stderr() == alone
    assert len(forked) == 4
    assert_all_reaped()


def test_a_forked_cli_run_prints_once(tmp_path):
    """A worker leaves without flushing the stdout buffer it inherited: text the calling
    process had buffered before the fork (stdout to a pipe is block-buffered unless
    PYTHONUNBUFFERED is set) is written once."""
    path = tmp_path / "run.cfg"
    path.write_text(dumps_config(cfg(n_seeds=40, out_dir=str(tmp_path / "out"))))
    code = ("import os, sys\n"
            "from clipopt import cli, harness\n"
            "harness._FORK_SEED_STEPS = 0\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "print('buffered', end=' ')\n"
            f"sys.exit(cli.main(['run', '--config', {str(path)!r}]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("buffered [t] smd/smd_known_t T=64 seeds=40 ")
    assert proc.stdout.count("buffered") == 1 and proc.stdout.count("\n") == 1
