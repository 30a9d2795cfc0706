"""Diagnostics oracles: MGF bound, clipping-error bounds, pathwise checks, traces."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from clipopt import algorithms
from clipopt import diagnostics as diag
from clipopt import noise, problems, schedules
from clipopt.noise import Oracle, RadialParetoNoise, TwoPointNoise, make_rng

GAMMA_ONE = math.exp(-1.0)


def test_series_partial_sums():
    assert diag.check_log_weight_series(1) == pytest.approx(0.5)
    assert diag.check_log_weight_series(2) == pytest.approx(
        0.5 + 1.0 / (4.0 * (1.0 + math.log(2.0)) ** 2))


def test_series_check_raises_not_asserts(monkeypatch):
    monkeypatch.setattr(diag, "log_weight_tail_sum", lambda t_max: 1.0)
    with pytest.raises(RuntimeError, match="partial sum"):
        diag.check_log_weight_series(10)


# -- MGF bound ------------------------------------------------------------------


def test_mgf_rademacher_at_endpoint():
    rep = diag.check_mgf_bound(1.0, [1.0], diag.rademacher(1.0))
    entry = rep.entries[0]
    assert entry.lhs == pytest.approx(math.cosh(1.0))
    assert entry.lhs == pytest.approx(1.54308063, abs=1e-7)
    assert entry.rhs == pytest.approx(math.exp(0.75))
    assert entry.rhs == pytest.approx(2.11700002, abs=1e-7)
    assert rep.passed


def test_mgf_equality_at_zero():
    rep = diag.check_mgf_bound(2.0, [0.0], diag.rademacher(2.0))
    assert rep.entries[0].lhs == 1.0
    assert rep.entries[0].rhs == 1.0


def test_mgf_degenerate_law():
    still = diag.DiscreteLaw(np.array([0.0]), np.array([1.0]))
    rep = diag.check_mgf_bound(5.0, np.linspace(0, 0.2, 7), still)
    assert all(e.lhs == 1.0 and e.rhs == 1.0 for e in rep.entries)


def test_mgf_grid_discrete_laws():
    radius = 2.0
    lambdas = np.linspace(0.0, 1.0 / radius, 20)
    for law in (diag.rademacher(radius), diag.asymmetric_two_point(radius, 0.1),
                diag.asymmetric_two_point(radius, 0.5)):
        rep = diag.check_mgf_bound(radius, lambdas, law)
        assert rep.passed
        assert all(not e.skipped for e in rep.entries)


def test_discrete_law_zero_mean_check_is_relative_to_the_scale():
    """The zero-mean check is relative to E|X|: the library's own asymmetric laws pass at any
    radius, and the MGF bound holds for them, while a law whose mean is large against its
    scale is rejected however small its values are; a point mass at 0 stays valid."""
    for radius in np.geomspace(1e-9, 1e9, 19):
        for p_up in (0.01, 0.3, 0.5):
            law = diag.asymmetric_two_point(radius, p_up)
            assert diag.check_mgf_bound(radius, np.linspace(0.0, 1.0 / radius, 9), law).passed
    with pytest.raises(ValueError, match="zero mean"):
        diag.DiscreteLaw(np.array([1e-12, 0.0]), np.array([0.5, 0.5]))
    diag.DiscreteLaw(np.array([0.0]), np.array([1.0]))


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("values, probs, radius, lam, match", [
    ([_NAN, 0.0], [0.5, 0.5], 1.0, 0.5, "finite"),
    ([1.0, -1.0], [_NAN, 0.5], 1.0, 0.5, "finite"),
    ([_INF, -_INF], [0.5, 0.5], 1.0, 0.5, "finite"),
    ([1.0, -1.0], [_INF, 0.5], 1.0, 0.5, "finite"),
    ([1.0, -1.0], [0.5, 0.5], _NAN, 0.5, "positive finite"),
    ([1.0, -1.0], [0.5, 0.5], _INF, 0.5, "positive finite"),
    ([1.0, -1.0], [0.5, 0.5], 0.0, 0.5, "positive finite"),
    ([1.0, -1.0], [0.5, 0.5], 1.0, _NAN, "NaN"),
], ids=["nan-value", "nan-prob", "inf-values", "inf-prob", "nan-radius", "inf-radius",
        "zero-radius", "nan-lambda"])
def test_non_finite_law_or_radius_rejected(values, probs, radius, lam, match):
    """A NaN or infinite value, probability or radius, or a NaN lambda, raises a ValueError
    naming the input, before any arithmetic warns (warnings are errors here)."""
    with pytest.raises(ValueError, match=match):
        diag.check_mgf_bound(radius, [lam], diag.DiscreteLaw(np.array(values), np.array(probs)))


def test_mgf_out_of_range_grid_points_skipped():
    rep = diag.check_mgf_bound(1.0, [0.5, 2.0], diag.rademacher(1.0))
    assert not rep.entries[0].skipped
    assert rep.entries[1].skipped
    assert rep.passed


def test_mgf_rejects_an_array_of_draws():
    """The check is exact: a sample of a law is not a law, and is refused."""
    draws = make_rng(0).uniform(-1.0, 1.0, size=1000)
    with pytest.raises(TypeError, match="DiscreteLaw"):
        diag.check_mgf_bound(1.0, [0.5], draws)


def test_mgf_strict_inequality_inside_range():
    radius = 1.0
    rep = diag.check_mgf_bound(radius, np.linspace(0.05, 1.0, 10), diag.rademacher(radius))
    for e in rep.entries:
        assert e.lhs < e.rhs


# -- clipping error bounds ---------------------------------------------------------


def test_clip_error_bounds_noiseless_pass():
    prob = problems.make_quadratic([1.0, 1.0])
    model = TwoPointNoise(p=1.5, sigma=0.0, q=1.0)
    rep = diag.check_clipping_error_bounds(prob, model, np.array([0.5, 0.0]), level=2.0)
    assert rep.applicable
    assert rep.u_violations == 0
    assert rep.passed


def test_clip_error_bounds_spiky_noise():
    prob = problems.make_quadratic([1.0, 1.0])
    model = TwoPointNoise(p=1.5, sigma=1.0, q=0.01)
    rep = diag.check_clipping_error_bounds(prob, model, prob.minimizer, level=50.0)
    assert rep.applicable
    assert rep.u_violations == 0
    assert rep.bias_bound == pytest.approx(4.0 * 50.0 ** -0.5)
    assert rep.bias_norm < rep.bias_bound
    assert rep.passed


def test_clip_error_bounds_not_applicable_branch():
    prob = problems.make_quadratic([1.0, 1.0])
    model = TwoPointNoise(p=1.5, sigma=1.0, q=0.1)
    x = np.array([10.0, 0.0])  # gradient norm 10 > level/2
    rep = diag.check_clipping_error_bounds(prob, model, x, level=3.0)
    assert not rep.applicable
    assert rep.u_violations == 0
    assert rep.passed


# -- pathwise checks -----------------------------------------------------------------


def _smd_setup(prob, x1, sigma, horizon, seed, q=0.2, p=1.5):
    s = schedules.derive_inputs(prob, x1, p=p, sigma=sigma, delta=0.1, horizon=horizon)
    sched = schedules.Schedule("smd_known_t", s)
    oracle = Oracle(prob, TwoPointNoise(p=p, sigma=sigma, q=q), seed=seed)
    return sched, oracle


def _pathwise_smd(prob, oracle, sched, steps, x1):
    """The pathwise report of one recorded single run."""
    tab = algorithms.run_smd(prob, oracle, sched, steps, x1).table
    return diag.check_pathwise_smd(prob, tab)[0]


def _trace_smd(prob, oracle, sched, steps, x1):
    """The supermartingale trace (delta = 0.1) of one recorded single run."""
    tab = algorithms.run_smd(prob, oracle, sched, steps, x1).table
    return diag.martingale_trace_smd(prob, oracle.noise, tab, sched.constants(), 0.1)[0]


def test_pathwise_smd_noiseless_and_noisy():
    prob = problems.make_quadratic([1.0, 2.0])
    x1 = np.array([1.0, 0.5])
    sched, oracle = _smd_setup(prob, x1, 0.0, 200, seed=0)
    assert _pathwise_smd(prob, oracle, sched, 200, x1).passed
    sched, oracle = _smd_setup(prob, x1, 1.0, 1000, seed=1)
    rep = _pathwise_smd(prob, oracle, sched, 1000, x1)
    assert rep.passed, rep.violations[:3]


def test_pathwise_smd_nonsmooth_term():
    prob = problems.make_quadratic_plus_norm(2, 0.25)  # condition constant 0.5
    x1 = np.array([0.7, 0.7])
    for sigma, seed in ((0.0, 0), (1.0, 7)):
        sched, oracle = _smd_setup(prob, x1, sigma, 1000, seed=seed)
        rep = _pathwise_smd(prob, oracle, sched, 1000, x1)
        assert rep.passed, rep.violations[:3]


def test_pathwise_asmd_simplex_run():
    prob = problems.make_simplex_quadratic([0.2, 0.3, 0.5])
    y1 = np.ones(3) / 3
    s = schedules.derive_inputs(prob, y1, p=1.5, sigma=0.5, delta=0.1, horizon=1000)
    sched = schedules.Schedule("asmd_known_t", s)
    oracle = Oracle(prob, TwoPointNoise(p=1.5, sigma=0.5, q=0.2), seed=3)
    tab = algorithms.run_asmd(prob, oracle, sched, 1000, y1).table
    rep = diag.check_pathwise_asmd(prob, tab)[0]
    assert rep.passed, rep.violations[:3]


def test_pathwise_asmd_noiseless():
    prob = problems.make_quadratic([1.0, 1.0])
    y1 = np.array([1.0, 0.0])
    s = schedules.derive_inputs(prob, y1, p=1.5, sigma=0.0, delta=0.1, horizon=300)
    sched = schedules.Schedule("asmd_known_t", s)
    oracle = Oracle(prob, TwoPointNoise(p=1.5, sigma=0.0, q=1.0), seed=0)
    tab = algorithms.run_asmd(prob, oracle, sched, 300, y1).table
    assert diag.check_pathwise_asmd(prob, tab)[0].passed


def test_pathwise_sgd_runs():
    prob = problems.make_nonconvex_ratio(2)
    x1 = np.array([1.0, 1.0])
    s = schedules.derive_inputs(prob, x1, p=1.5, sigma=1.0, delta=0.1, horizon=1000)
    sched = schedules.Schedule("sgd_known_t", s)
    oracle = Oracle(prob, TwoPointNoise(p=1.5, sigma=1.0, q=0.2), seed=5)
    rep = diag.check_pathwise_sgd(prob, algorithms.run_sgd(prob, oracle, sched, 1000, x1).table)[0]
    assert rep.passed, rep.violations[:3]


def test_pathwise_sgd_boundary_step_size():
    # eta = 1/L exactly: the inner-product coefficient vanishes
    prob = problems.make_quadratic([1.0, 1.0])
    x1 = np.array([1.0, 0.0])
    s = schedules.derive_inputs(prob, x1, p=1.5, sigma=1.0, delta=0.1, horizon=100)
    base = schedules.Schedule("sgd_known_t", s)
    sched = schedules.Schedule("sgd_known_t", s, eta_scale=1.0 / (base.eta(1) * 1.0))
    assert sched.eta(1) == pytest.approx(1.0)
    oracle = Oracle(prob, TwoPointNoise(p=1.5, sigma=1.0, q=0.2), seed=6)
    rep = diag.check_pathwise_sgd(prob, algorithms.run_sgd(prob, oracle, sched, 100, x1).table)[0]
    assert rep.passed, rep.violations[:3]


def test_pathwise_rejects_oversized_steps():
    prob = problems.make_quadratic([1.0, 1.0])
    x1 = np.array([1.0, 0.0])
    s = schedules.derive_inputs(prob, x1, p=1.5, sigma=0.0, delta=0.1, horizon=10)
    sched = schedules.Schedule("smd_known_t", s, eta_scale=1000.0)
    oracle = Oracle(prob, TwoPointNoise(p=1.5, sigma=0.0, q=1.0), seed=0)
    rep = _pathwise_smd(prob, oracle, sched, 10, x1)
    assert not rep.passed and rep.min_margin == -math.inf
    assert rep.violations == [(t, -math.inf) for t in range(1, 11)]  # every step is past 1/(4L)


def test_pathwise_nan_margin_fails():
    """A NaN margin is a violation, as is a step out of range (margin -inf)."""
    margins = np.array([[0.0, np.nan, -1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
    out_of_range = np.array([[False, False, False, True], [False] * 4])
    bad, good = diag._pathwise("pathwise_smd", margins, out_of_range, 1e-8)
    assert [s for s, _ in bad.violations] == [2, 3, 4] and bad.violations[2][1] == -math.inf
    assert good.passed and good.min_margin == 0.0


# -- martingale traces ----------------------------------------------------------------


def test_martingale_smd_noiseless_never_crosses():
    prob = problems.make_quadratic([1.0, 1.0])
    x1 = np.array([1.0, 0.0])
    sched, oracle = _smd_setup(prob, x1, 0.0, 100, seed=0)
    trace = _trace_smd(prob, oracle, sched, 100, x1)
    assert not trace.crossed
    assert np.max(trace.running_sum) <= 1e-12
    assert np.all(np.diff(trace.weights) <= 1e-15)  # z_t nonincreasing
    np.testing.assert_allclose(np.cumsum(trace.increments), trace.running_sum)


def test_martingale_smd_noisy_trace_fields():
    prob = problems.make_quadratic([1.0, 1.0])
    x1 = np.array([1.0, 0.0])
    sched, oracle = _smd_setup(prob, x1, 1.0, 150, seed=9)
    trace = _trace_smd(prob, oracle, sched, 150, x1)
    assert trace.threshold == pytest.approx(math.log(10.0))
    assert trace.weights.size == 150
    assert np.all(trace.cond_second_moment >= 0)
    assert np.all(np.diff(trace.weights) <= 1e-15)


def test_martingale_sgd_noiseless_never_crosses():
    prob = problems.make_nonconvex_ratio(2)
    x1 = np.array([1.0, 1.0])
    s = schedules.derive_inputs(prob, x1, p=1.5, sigma=0.0, delta=0.1, horizon=100)
    sched = schedules.Schedule("sgd_known_t", s)
    oracle = Oracle(prob, TwoPointNoise(p=1.5, sigma=0.0, q=1.0), seed=0)
    tab = algorithms.run_sgd(prob, oracle, sched, 100, x1).table
    trace = diag.martingale_trace_sgd(prob, oracle.noise, tab, sched.constants(), 0.1)[0]
    assert not trace.crossed
    assert np.max(trace.running_sum) <= 1e-12


def test_martingale_sgd_rejects_off_guarantee_schedule():
    prob = problems.make_nonconvex_ratio(2)
    x1 = np.array([1.0, 1.0])
    s = schedules.derive_inputs(prob, x1, p=1.5, sigma=1.0, delta=0.1, horizon=100)
    sched = schedules.Schedule("sgd_known_t", s, eta_scale=10.0)
    oracle = Oracle(prob, TwoPointNoise(p=1.5, sigma=1.0, q=0.2), seed=0)
    tab = algorithms.run_sgd(prob, oracle, sched, 100, x1).table
    with pytest.raises(ValueError, match="trace undefined"):
        diag.martingale_trace_sgd(prob, oracle.noise, tab, sched.constants(), 0.1)


def test_martingale_smd_first_step_exponential_moment():
    # at t = 1 the conditioning is trivial, so the exponential-moment property
    # E[exp(Z_1)] <= 1 is directly testable across independent seeds
    prob = problems.make_quadratic([1.0, 1.0])
    x1 = np.array([4.0, 0.0])
    model = TwoPointNoise(p=1.5, sigma=1.0, q=0.3)
    s = schedules.derive_inputs(prob, x1, p=1.5, sigma=1.0, delta=0.1, horizon=64)
    sched = schedules.Schedule("smd_known_t", s)
    seeds = range(2000)
    tab = algorithms.run_smd_batch(prob, model, sched, 1, x1, seeds, record=True).table
    traces = diag.martingale_trace_smd(prob, model, tab, sched.constants(), 0.1)
    e = np.exp(np.array([trace.increments[0] for trace in traces]))
    stderr = e.std(ddof=1) / math.sqrt(e.size)
    assert e.mean() <= 1.0 + 3.0 * stderr
    assert e.mean() < 1.0  # strictly below: the compensator leaves real slack


def test_martingale_radial_moments_memory_stays_per_chunk():
    """The radial quadrature goes in chunks of points: the trace's peak is a few chunks'
    nodes, not a (steps, nodes) block, and it does not grow with the steps."""
    prob = problems.make_quadratic([1.0, 1.0])
    x1 = np.array([4.0, 0.0])
    oracle = Oracle(prob, RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75), seed=0)
    nodes = 3 * noise._QUAD_NODES * 4 * noise._QUAD_NODES  # per point at d = 2
    peaks = []
    for steps in (64, 512):
        sched, _ = _smd_setup(prob, x1, 1.0, steps, seed=0)
        tab = algorithms.run_smd(prob, oracle, sched, steps, x1).table
        constants = {"Q": sched.constants()["Q"]}
        diag.martingale_trace_smd(prob, oracle.noise, tab, constants, 0.1)  # first use
        tracemalloc.start()
        try:
            diag.martingale_trace_smd(prob, oracle.noise, tab, constants, 0.1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 8 * 512 * nodes / 4, peaks[1] / (8 * 512 * nodes)
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_pathwise_smd_detects_dropped_nonsmooth_term():
    # sensitivity control: with the additive constant zeroed out, the same
    # run violates the inequality wherever a step overshoots across the kink
    import dataclasses
    nonsmooth = problems.make_quadratic_plus_norm(2, 0.25)
    wrong = dataclasses.replace(nonsmooth, lipschitz_g=0.0)
    xn = np.array([0.05, 0.0])
    oracle = lambda prob: Oracle(prob, TwoPointNoise(p=1.5, sigma=0.0, q=1.0), seed=0)
    for prob, expect_clean in ((wrong, False), (nonsmooth, True)):
        s = schedules.derive_inputs(prob, xn, p=1.5, sigma=0.0, delta=0.1, horizon=200)
        base = schedules.Schedule("smd_known_t", s)
        sched = schedules.Schedule("smd_known_t", s, eta_scale=0.25 / base.eta(1))
        rep = _pathwise_smd(prob, oracle(prob), sched, 200, xn)
        assert rep.passed == expect_clean


# -- seed-batched cores ----------------------------------------------------------------


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


_NONSMOOTH_NO_G = dataclasses.replace(problems.make_quadratic_plus_norm(2, 0.25), lipschitz_g=0.0)
_RADIAL = RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.8)
_SPIKES = TwoPointNoise(p=1.5, sigma=1.0, q=0.2)


@pytest.mark.parametrize("name, prob, x1, model", [
    ("pathwise_smd", problems.make_quadratic([1.0, 2.0]), [1.0, 0.5], _RADIAL),
    ("pathwise_smd", problems.make_simplex_quadratic([0.2, 0.3, 0.5]), [1 / 3] * 3, _SPIKES),
    ("pathwise_smd", _NONSMOOTH_NO_G, [0.05, 0.0], _SPIKES),  # violations to compare
    ("pathwise_asmd", problems.make_simplex_quadratic([0.2, 0.3, 0.5]), [1 / 3] * 3, _SPIKES),
    ("pathwise_asmd", problems.make_quadratic([1.0, 2.0, 0.5]), [1.0, 0.0, 2.0], _RADIAL),
    ("pathwise_sgd", problems.make_nonconvex_ratio(3), [1.0, 1.0, -0.5], _RADIAL),
    ("martingale_smd", problems.make_quadratic([1.0, 1.0]), [4.0, 0.0], _SPIKES),
    ("martingale_smd", problems.make_quadratic([1.0, 1.0]), [4.0, 0.0], _RADIAL),
    ("martingale_smd", problems.make_simplex_quadratic([0.2, 0.3, 0.5]), [0.6, 0.2, 0.2], _SPIKES),
    ("martingale_sgd", problems.make_nonconvex_ratio(2), [1.0, 1.0], _SPIKES),
    ("martingale_sgd", problems.make_nonconvex_ratio(2), [1.0, 1.0], _RADIAL),
])
def test_seed_batched_cores_equal_per_seed_checks_bitwise(name, prob, x1, model):
    """Seed k's report or trace from one recorded batch is, bitwise, the same check's on seed
    k's one-seed ``run_*`` record."""
    steps, seeds = 48, [0, 1, 2, 7, 123, 2 ** 31]
    kind, family = name.split("_")
    check = getattr(diag, f"check_{name}" if kind == "pathwise" else f"martingale_trace_{family}")
    x1 = np.array(x1)
    s = schedules.derive_inputs(prob, x1, p=1.5, sigma=1.0, delta=0.1, horizon=steps)
    sched = schedules.Schedule(f"{family}_known_t", s)
    if prob is _NONSMOOTH_NO_G:  # steps of 1/(4L) overshoot the kink the dropped term covers
        sched = schedules.Schedule(f"{family}_known_t", s, eta_scale=0.25 / sched.eta(1))
    batch = getattr(algorithms, f"run_{family}_batch")(prob, model, sched, steps, x1, seeds,
                                                       record=True)
    run = getattr(algorithms, f"run_{family}")
    tables = [run(prob, Oracle(prob, model, seed=seed), sched, steps, x1).table for seed in seeds]
    if kind == "pathwise":
        reports = check(prob, batch.table)
        for tab, rep in zip(tables, reports, strict=True):
            single, = check(prob, tab)
            assert rep.name == single.name == name
            assert [(t, m.hex()) for t, m in rep.violations] == [
                (t, m.hex()) for t, m in single.violations]
            assert rep.min_margin.hex() == single.min_margin.hex()
        if prob is _NONSMOOTH_NO_G:
            assert any(rep.violations for rep in reports)
        return
    traces = check(prob, model, batch.table, sched.constants(), 0.1)
    for tab, trace in zip(tables, traces, strict=True):
        single, = check(prob, model, tab, sched.constants(), 0.1)
        assert trace.row()["name"] == single.row()["name"] == name
        for field in ("weights", "increments", "running_sum", "cond_second_moment", "bias_norm"):
            assert _bits(getattr(trace, field)) == _bits(getattr(single, field)), field
        assert trace.crossed == single.crossed


# -- serialization ---------------------------------------------------------------------


def test_report_serialization(tmp_path):
    prob = problems.make_quadratic([1.0, 1.0])
    x1 = np.array([1.0, 0.0])
    sched, oracle = _smd_setup(prob, x1, 1.0, 50, seed=0)
    reports = [
        _pathwise_smd(prob, oracle, sched, 50, x1),
        diag.check_clipping_error_bounds(prob, TwoPointNoise(p=1.5, sigma=0.0, q=1.0),
                                         np.array([0.5, 0.0]), level=2.0),
    ]
    csv_path = tmp_path / "reports.csv"
    jsonl_path = tmp_path / "reports.jsonl"
    diag.write_reports_csv(reports, csv_path)
    diag.write_reports_jsonl(reports, jsonl_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1].split(",") == list(diag.REPORT_COLUMNS)
    assert len(lines) == 4
    import json
    rows = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    assert rows[0]["name"] == "pathwise_smd"
    assert rows[0]["violations"] == 0
