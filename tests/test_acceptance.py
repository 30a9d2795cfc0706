"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is fixed here; configurations were
chosen so the asymptotic regimes are visible at desk scale and are frozen
together with their seeds.
"""

import math
import time

import numpy as np
import pytest

from clipopt import algorithms as algos
from clipopt import diagnostics as diag
from clipopt import harness, problems, schedules
from clipopt.config import ExperimentConfig, validate_config
from clipopt.noise import Oracle, TwoPointNoise

GAMMA_ONE = math.exp(-1.0)  # delta with max(log(1/delta), 1) = 1


def announce(criterion: str, passed: bool, detail: str):
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def noiseless_oracle(prob, seed=0):
    return Oracle(prob, TwoPointNoise(p=1.5, sigma=0.0, q=1.0), seed=seed)


def base_config(**kw) -> ExperimentConfig:
    cfg = ExperimentConfig(**kw)
    validate_config(cfg)
    return cfg


# -- 1. deterministic-rate sanity ----------------------------------------------------


def test_c01_deterministic_rate_sanity():
    t0 = time.time()
    grid = [2 ** k for k in range(8, 14)]  # ratios evaluated at T = 2^8 .. 2^12
    quad = problems.make_quadratic([1.0, 1.0])
    x1q = np.array([1.0, 0.0])
    ratioprob = problems.make_nonconvex_ratio(2)

    def ratios(mode_factory, prob, x1):
        m = {}
        for horizon in grid:
            sched = mode_factory(horizon)
            runner = {"smd": algos.run_smd, "asmd": algos.run_asmd,
                      "sgd": algos.run_sgd}[sched.mode.split("_")[0]]
            m[horizon] = runner(prob, noiseless_oracle(prob), sched, horizon, x1,
                                record=False).summary
        return [m[2 * T] / m[T] for T in grid[:-1]]

    def smd_sched(horizon):
        s = schedules.derive_inputs(quad, x1q, p=1.5, sigma=0.0, delta=GAMMA_ONE,
                                    horizon=horizon)
        return schedules.Schedule("smd_known_t", s)

    r = ratios(smd_sched, quad, x1q)
    announce("criterion 1 (smd ratio <= 0.6)", max(r) <= 0.6,
             f"ratios={[round(v, 3) for v in r]}")

    def asmd_scaled(horizon):
        s = schedules.derive_inputs(quad, x1q, p=1.5, sigma=0.0, delta=GAMMA_ONE,
                                    horizon=horizon, c_override=1000.0)
        return schedules.Schedule("asmd_known_t", s)

    r = ratios(asmd_scaled, quad, x1q)
    announce("criterion 1 (asmd scaled-c ratio <= 0.35)", max(r) <= 0.35,
             f"ratios={[round(v, 3) for v in r]}")

    # the verbatim internal constant (1e4) is recorded alongside, with its bound
    for horizon in (grid[0], grid[-1]):
        s = schedules.derive_inputs(quad, x1q, p=1.5, sigma=0.0, delta=GAMMA_ONE,
                                    horizon=horizon)
        sched = schedules.Schedule("asmd_known_t", s)
        rec = algos.run_asmd(quad, noiseless_oracle(quad), sched, horizon, x1q,
                             record=False)
        bound = schedules.theorem_bound(sched, horizon)
        print(f"[acceptance] criterion 1 record: verbatim-constant asmd T={horizon} "
              f"gap={rec.summary:.3e} bound={bound:.3e} within={rec.summary <= bound}")
        assert rec.summary <= bound

    for prob, x1, tag in ((quad, x1q, "quadratic"),
                          (ratioprob, np.array([0.1, 0.1]), "nonconvex_ratio")):
        def sgd_sched(horizon, prob=prob, x1=x1):
            s = schedules.derive_inputs(prob, x1, p=1.5, sigma=0.0, delta=GAMMA_ONE,
                                        horizon=horizon)
            return schedules.Schedule("sgd_known_t", s)

        r = ratios(sgd_sched, prob, x1)
        announce(f"criterion 1 (sgd ratio <= 0.75, {tag})", max(r) <= 0.75,
                 f"ratios={[round(v, 3) for v in r]}")
    print(f"[acceptance] criterion 1 elapsed {time.time() - t0:.1f}s")


# -- 2. heavy-tailed rate exponents ---------------------------------------------------


RATE_CASES = [
    # (algorithm, p, config knobs, target exponent)
    ("smd", 1.5, dict(sigma=0.12, x1=(8.0, 0.0), problem="quadratic"), -1.0 / 3.0),
    ("smd", 2.0, dict(sigma=0.25, x1=(4.0, 0.0), problem="quadratic"), -0.5),
    ("sgd", 1.5, dict(sigma=0.1, x1=(0.5, 0.5), problem="nonconvex_ratio"), -0.4),
    ("sgd", 2.0, dict(sigma=0.1, x1=(0.1, 0.1), problem="nonconvex_ratio"), -0.5),
]


def test_c02_heavy_tailed_rate_exponents():
    t0 = time.time()
    for algorithm, p, knobs, target in RATE_CASES:
        cfg = base_config(
            experiment_id="rates", algorithm=algorithm,
            mode=f"{algorithm}_known_t", horizon_grid=(256, 1024, 4096, 16384),
            horizon=256, n_seeds=200, base_seed=0, delta=GAMMA_ONE,
            noise="two_point", p=p, q=0.1, dim=2, **knobs)
        fit = harness.fit_rate(cfg)
        ok = abs(fit.slope - target) <= 0.15
        announce(f"criterion 2 ({algorithm} p={p})", ok,
                 f"slope={fit.slope:.3f} target={target:.3f} r2={fit.r_squared:.3f}")
        assert fit.exponent == pytest.approx(target)
    print(f"[acceptance] criterion 2 elapsed {time.time() - t0:.1f}s")


# -- 3. high-probability validation ---------------------------------------------------


def test_c03_high_probability_validation():
    t0 = time.time()
    slack = 0.1 + 3.0 * math.sqrt(0.09 / 1000.0)
    cases = [
        ("smd", 1.5, dict(sigma=0.12, x1=(8.0, 0.0), problem="quadratic")),
        ("smd", 2.0, dict(sigma=0.25, x1=(4.0, 0.0), problem="quadratic")),
        ("sgd", 1.5, dict(sigma=0.1, x1=(0.5, 0.5), problem="nonconvex_ratio")),
        ("sgd", 2.0, dict(sigma=0.1, x1=(0.1, 0.1), problem="nonconvex_ratio")),
    ]
    for algorithm, p, knobs in cases:
        cfg = base_config(
            experiment_id="hp", algorithm=algorithm, mode=f"{algorithm}_known_t",
            horizon=1024, n_seeds=1000, base_seed=100, delta=0.1,
            noise="two_point", p=p, q=0.1, dim=2, **knobs)
        summary = harness.run_trials(cfg)
        ok = summary.failure_rate <= slack
        announce(f"criterion 3 ({algorithm} p={p})", ok,
                 f"failure_rate={summary.failure_rate:.4f} limit={slack:.4f} "
                 f"median={summary.median:.3e} bound={summary.bound:.3e}")
    print(f"[acceptance] criterion 3 elapsed {time.time() - t0:.1f}s")


# -- 4. clipping-error bound suite ----------------------------------------------------


def test_c04_clipping_error_bounds_grid():
    t0 = time.time()
    total_violations = 0
    prob = problems.make_quadratic([1.0, 1.0])
    for i, p in enumerate((1.2, 1.5, 2.0)):
        for j, level in enumerate((2.0, 5.0, 8.0)):
            model = TwoPointNoise(p=p, sigma=1.0, q=0.01)
            assert model.spike > level  # clipping genuinely active
            x = np.array([0.4 * level, 0.0])  # gradient norm 0.4 * level <= level/2
            rep = diag.check_clipping_error_bounds(prob, model, x, level)
            total_violations += rep.u_violations
            assert rep.applicable
            ok = rep.passed
            announce(f"criterion 4 (p={p}, level={level})", ok,
                     f"bias={rep.bias_norm:.4f}<={rep.bias_bound:.4f} "
                     f"m2={rep.second_moment:.3f}<={rep.second_moment_bound:.1f}")
    announce("criterion 4 (zero norm-bound violations)", total_violations == 0,
             f"{total_violations} violations at 9 grid points (exact two-point moments)")
    print(f"[acceptance] criterion 4 elapsed {time.time() - t0:.1f}s")


# -- 5. MGF bound suite ---------------------------------------------------------------


def test_c05_mgf_bound_suite():
    radius = 1.0
    lambdas = np.linspace(0.0, 1.0 / radius, 20)
    for name, law in (("rademacher", diag.rademacher(radius)),
                      ("asymmetric", diag.asymmetric_two_point(radius, 0.2))):
        rep = diag.check_mgf_bound(radius, lambdas, law)
        announce(f"criterion 5 ({name} 20-point grid)", rep.passed,
                 f"worst margin={min(e.rhs - e.lhs for e in rep.entries):.4f}")
    endpoint = diag.check_mgf_bound(radius, [1.0], diag.rademacher(radius)).entries[0]
    ok = (endpoint.lhs == pytest.approx(math.cosh(1.0))
          and endpoint.rhs == pytest.approx(math.exp(0.75)) and endpoint.lhs <= endpoint.rhs)
    announce("criterion 5 (cosh(1) <= e^0.75)", ok,
             f"{endpoint.lhs:.4f} <= {endpoint.rhs:.4f}")


# -- 6. pathwise inequality suites ----------------------------------------------------


def test_c06_pathwise_inequalities():
    t0 = time.time()
    steps, seeds, tol = 1000, range(50), 1e-8

    def violations(check, run, prob, sigma, mode, x1):
        """Violations over one recorded lockstep batch of all seeds."""
        s = schedules.derive_inputs(prob, x1, p=1.5, sigma=sigma, delta=0.1, horizon=steps)
        batch = run(prob, TwoPointNoise(p=1.5, sigma=sigma, q=0.2), schedules.Schedule(mode, s),
                    steps, x1, seeds, record=True)
        return sum(len(rep.violations) for rep in check(prob, batch.table, tol=tol))

    quad = problems.make_quadratic([1.0, 2.0])
    count = violations(diag.check_pathwise_smd, algos.run_smd_batch, quad, 1.0,
                       "smd_known_t", np.array([1.0, 0.5]))
    announce("criterion 6 (smd pathwise)", count == 0, f"{count} violations")

    simplex = problems.make_simplex_quadratic([0.2, 0.3, 0.5])
    count = violations(diag.check_pathwise_asmd, algos.run_asmd_batch, simplex, 0.5,
                       "asmd_known_t", np.ones(3) / 3)
    announce("criterion 6 (asmd pathwise)", count == 0, f"{count} violations")

    ratioprob = problems.make_nonconvex_ratio(2)
    count = violations(diag.check_pathwise_sgd, algos.run_sgd_batch, ratioprob, 1.0,
                       "sgd_known_t", np.array([1.0, 1.0]))
    announce("criterion 6 (sgd pathwise)", count == 0, f"{count} violations")

    nonsmooth = problems.make_quadratic_plus_norm(2, 0.25)  # additive constant G = 0.5
    count = violations(diag.check_pathwise_smd, algos.run_smd_batch, nonsmooth, 1.0,
                       "smd_known_t", np.array([0.7, 0.7]))
    announce("criterion 6 (nonsmooth-term pathwise, G=0.5)", count == 0,
             f"{count} violations")
    print(f"[acceptance] criterion 6 elapsed {time.time() - t0:.1f}s")


# -- 7. supermartingale / threshold-crossing check ------------------------------------


def test_c07_supermartingale_crossing():
    t0 = time.time()
    n_seeds, steps, delta = 1000, 128, 0.1
    limit = 0.128  # 0.1 + 3 binomial standard errors at 1000 seeds
    model = TwoPointNoise(p=1.5, sigma=1.0, q=0.1)

    def frequency(trace, run, prob, mode, x1):
        """Crossing frequency over one recorded lockstep batch, from exact moments."""
        s = schedules.derive_inputs(prob, x1, p=1.5, sigma=1.0, delta=delta, horizon=steps)
        sched = schedules.Schedule(mode, s)
        batch = run(prob, model, sched, steps, x1, range(n_seeds), record=True)
        traces = trace(prob, model, batch.table, sched.constants(), delta)
        return sum(tr.crossed for tr in traces) / n_seeds

    freq = frequency(diag.martingale_trace_smd, algos.run_smd_batch,
                     problems.make_quadratic([1.0, 1.0]), "smd_known_t", np.array([4.0, 0.0]))
    announce("criterion 7 (smd trace crossing)", freq <= limit,
             f"frequency={freq:.4f} limit={limit}")

    freq = frequency(diag.martingale_trace_sgd, algos.run_sgd_batch,
                     problems.make_nonconvex_ratio(2), "sgd_known_t", np.array([1.0, 1.0]))
    announce("criterion 7 (sgd trace crossing)", freq <= limit,
             f"frequency={freq:.4f} limit={limit}")
    print(f"[acceptance] criterion 7 elapsed {time.time() - t0:.1f}s")


# -- 8. schedule condition checker -----------------------------------------------------


def test_c08_schedule_condition_checker():
    quad = problems.make_quadratic([1.0, 1.0])
    x1 = np.array([2.0, 0.0])
    horizon = 512
    for mode, p, sigma in (("smd_known_t", 1.5, 1.0), ("smd_known_t", 2.0, 0.5),
                           ("sgd_known_t", 1.5, 1.0), ("sgd_known_t", 2.0, 2.0)):
        s = schedules.derive_inputs(quad, x1, p=p, sigma=sigma, delta=0.1,
                                    horizon=horizon)
        report = schedules.verify_schedule_conditions(
            schedules.Schedule(mode, s), horizon)
        announce(f"criterion 8 ({mode} p={p} sigma={sigma})", report.ok,
                 "all conditions hold")

    # the parameter-free mode, driven by an actual trajectory
    s = schedules.derive_inputs(quad, x1, p=1.5, sigma=1.0, delta=0.1, c1=1.0, c2=1.0)
    sched = schedules.Schedule("smd_param_free", s)
    tab = algos.run_smd(quad, Oracle(quad, TwoPointNoise(p=1.5, sigma=1.0, q=0.2), seed=0),
                        sched, horizon, x1).table
    report = schedules.verify_schedule_conditions(sched, horizon, tab)
    announce("criterion 8 (parameter-free mode)", report.ok, "all conditions hold")

    s = schedules.derive_inputs(quad, x1, p=1.5, sigma=1.0, delta=0.1, horizon=horizon)
    corrupted = schedules.Schedule("smd_known_t", s, eta_scale=2.0)
    report = schedules.verify_schedule_conditions(corrupted, horizon)
    failed = {c.name for c in report.checks if not c.passed}
    announce("criterion 8 (corrupted schedule rejected)",
             "eta_lambda_constant" in failed, f"failed={sorted(failed)}")


# -- 9. series bound --------------------------------------------------------------------


def test_c09_series_partial_sum():
    value = diag.check_log_weight_series(1_000_000)
    # frozen from an independent high-precision evaluation of the same sum
    ok = value < 1.0 and abs(value - 0.8126369364) < 1e-9
    announce("criterion 9 (series partial sum)", ok, f"sum={value:.10f} < 1")


# -- 10. anytime versus known-horizon ---------------------------------------------------


def test_c10_anytime_vs_known_horizon():
    t0 = time.time()
    horizon, n = 4096, 200
    quad = problems.make_quadratic([1.0, 1.0])
    x1 = np.array([4.0, 0.0])
    model = TwoPointNoise(p=2.0, sigma=0.25, q=0.1)
    s = schedules.derive_inputs(quad, x1, p=2.0, sigma=0.25, delta=GAMMA_ONE,
                                horizon=horizon)
    known = algos.run_smd_batch(quad, model, schedules.Schedule("smd_known_t", s), horizon, x1,
                                range(n))
    anytime = algos.run_smd_batch(quad, model, schedules.Schedule("smd_anytime", s), horizon, x1,
                                  range(n))
    ratio = float(np.median(anytime.summary) / np.median(known.summary))
    limit = 3.0 * (1.0 + math.log(horizon)) ** (2.0 / 2.0)
    announce("criterion 10 (anytime overhead)", ratio <= limit,
             f"median ratio={ratio:.2f} <= 3*(1+log T)^(2/p)={limit:.2f}")
    print(f"[acceptance] criterion 10 elapsed {time.time() - t0:.1f}s")


# -- 11. clipped versus unclipped baseline ----------------------------------------------


def test_c11_clipped_vs_vanilla():
    t0 = time.time()
    # verbatim guarantee levels never clip this noise (level > spike size for
    # every sigma and T), so the contrast runs at the guarantee step scaled up
    # and a reduced clipping level, both recorded as off-guarantee knobs
    cfg = base_config(
        experiment_id="vs", algorithm="sgd", mode="sgd_known_t", horizon=4096,
        n_seeds=200, base_seed=0, delta=0.1, problem="quadratic", dim=2,
        x1=(1.0, 1.0), noise="two_point", p=1.5, sigma=0.1, q=1e-3,
        eta_scale=8.0, lambda_scale=0.1)
    comp = harness.compare_clipped_vanilla(cfg)
    ok = comp.clipped_median < comp.vanilla_median
    announce("criterion 11 (clipped beats unclipped)", ok,
             f"clipped={comp.clipped_median:.3e} vanilla={comp.vanilla_median:.3e} "
             f"ratio={comp.median_ratio:.3f} diverged={comp.vanilla_diverged}")
    print(f"[acceptance] criterion 11 elapsed {time.time() - t0:.1f}s")
