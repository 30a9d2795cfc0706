"""Schedule formula oracles, caps, and the condition checker."""

import math

import numpy as np
import pytest

from clipopt import problems, schedules
from clipopt.noise import Oracle, TwoPointNoise

GAMMA_ONE = math.exp(-1.0)  # delta with log(1/delta) = 1


def inputs(**kw):
    base = dict(p=2.0, sigma=1.0, smoothness=1.0, delta=GAMMA_ONE, r1=1.0, mu=0.0,
                delta1=1.0, grad1_bound=1.0)
    base.update(kw)
    return schedules.ScheduleInputs(**base)


def test_gamma_floor():
    assert inputs(delta=0.5).gamma == 1.0  # log 2 < 1
    assert inputs(delta=math.exp(-3)).gamma == pytest.approx(3.0)


def test_smd_known_horizon_example():
    sched = schedules.Schedule("smd_known_t", inputs(horizon=26))
    # sigma branch: (26 T / gamma)^(1/p) sigma = 26; deterministic branch: 2*(2 L r1) = 4
    assert sched.lam(1) == pytest.approx(26.0)
    assert sched.eta(1) == pytest.approx(1.0 / 624.0)
    assert sched.lam(26) == sched.lam(1)  # constant over t


def test_smd_known_horizon_noiseless_branch():
    sched = schedules.Schedule("smd_known_t", inputs(sigma=0.0, horizon=100, smoothness=1.25))
    det = 2.0 * (2.0 * 1.25 * 1.0)
    assert sched.lam(7) == pytest.approx(det)
    assert sched.eta(7) == pytest.approx(1.0 / (24.0 * det))


def test_smd_known_horizon_gamma_scaling():
    # sigma branch active: lambda scales as gamma^(-1/p)
    lo = schedules.Schedule("smd_known_t", inputs(horizon=10_000, delta=GAMMA_ONE))
    hi = schedules.Schedule("smd_known_t", inputs(horizon=10_000, delta=math.exp(-4.0)))
    assert hi.lam(1) / lo.lam(1) == pytest.approx((1 / 4) ** 0.5)
    # eta carries the extra 1/gamma: ratio = gamma^(1/p) / gamma = gamma^(1/p - 1)
    assert hi.eta(1) / lo.eta(1) == pytest.approx(4 ** 0.5 / 4)


def test_smd_anytime_first_step_and_monotone():
    sched = schedules.Schedule("smd_anytime", inputs(r1=0.1))
    assert sched.lam(1) == pytest.approx(math.sqrt(52.0))
    lams = np.array([sched.lam(t) for t in range(1, 10_001)])
    assert np.all(np.diff(lams) >= 0)


def test_smd_anytime_matches_substitution_formula():
    s = inputs(r1=0.5, p=1.5)
    sched = schedules.Schedule("smd_anytime", s)
    det = 2.0 * (2.0 * s.smoothness * s.r1)
    for t in (1, 2, 17, 1000):
        proxy = 2.0 * t * (1.0 + math.log(t)) ** 2
        expect = max((26.0 * proxy / s.gamma) ** (1 / 1.5) * s.sigma, det)
        assert sched.lam(t) == pytest.approx(expect, rel=1e-12)


def test_log_weight_series_values():
    assert schedules.log_weight_tail_sum(1) == pytest.approx(0.5)
    expected_two = 0.5 + 1.0 / (4.0 * (1.0 + math.log(2.0)) ** 2)
    assert schedules.log_weight_tail_sum(2) == pytest.approx(expected_two)
    assert schedules.log_weight_tail_sum(2) == pytest.approx(0.5872, abs=2e-4)
    partial = schedules.log_weight_tail_sum(1_000_000)
    assert partial < 1.0


def test_param_free_first_step():
    sched = schedules.Schedule("smd_param_free", inputs(c1=1.0, c2=1.0))
    eta, lam = sched.pair(1, 0.0)  # the first step is at displacement 0
    assert lam == sched.lam(1) == pytest.approx(math.sqrt(52.0))  # max(sqrt(52), 2, 1/6)
    assert eta * lam == pytest.approx(1.0 / 24.0)


def test_param_free_level_never_decreases():
    """Along a trajectory's running largest displacement, and in the displacement at each t."""
    sched = schedules.Schedule("smd_param_free", inputs())
    rng = np.random.default_rng(0)
    dev, prev = 0.0, sched.lam(1)
    for t in range(2, 200):
        dev = max(dev, float(np.linalg.norm(rng.standard_normal(3))))  # ||x_t - x_1||
        lam = sched.pair(t, dev)[1]
        assert lam >= prev - 1e-15
        prev = lam
    devs = np.sort(rng.exponential(3.0, 50))
    for t in (1, 7, 4096):
        lams = sched.pair(t, devs)[1]
        assert np.all(np.diff(lams) >= 0) and lams[0] >= sched.lam(t)


def test_param_free_state_discipline():
    """The schedule keeps no trajectory state: a pair depends only on (t, dev), whatever was
    asked before, and an (n,) array of displacements gives each row's float pair, bitwise;
    a NaN displacement is skipped by the level's max, as Python's max skips it."""
    sched = schedules.Schedule("smd_param_free", inputs(p=1.5), eta_scale=1.7, lambda_scale=0.3)
    attributes = dict(vars(sched))
    devs = np.array([0.0, 0.25, 3.0, 1e3, np.nan])
    first = [sched.pair(t, dev) for t in (1, 5, 2) for dev in devs.tolist()]
    assert [sched.pair(t, dev) for t in (1, 5, 2) for dev in devs.tolist()] == first
    for t in (1, 5, 2):
        eta, lam = sched.pair(t, devs)
        assert eta.shape == lam.shape == devs.shape
        for k, dev in enumerate(devs.tolist()):
            assert (eta[k], lam[k]) == sched.pair(t, dev)
            assert type(sched.pair(t, dev)[1]) is float
    assert sched.pair(3, math.nan) == sched.pair(3, 0.0) == sched.pair(3)
    assert vars(sched) == attributes


def test_accelerated_momentum_weights():
    sched = schedules.Schedule("asmd_known_t", inputs(horizon=64))
    assert sched.alpha(1) == 1.0
    assert sched.alpha(3) == 0.5


def test_accelerated_noiseless_uses_floor_constant():
    sched = schedules.Schedule("asmd_known_t", inputs(sigma=0.0, horizon=64))
    gamma, L, r1 = 1.0, 1.0, 1.0
    for t in (1, 5, 64):
        assert sched.lam(t) == pytest.approx(1e4 * r1 * gamma * L / (4.0 * (t + 1)))
        assert sched.eta(t) == pytest.approx((t + 1) / (6.0 * 1e4 * gamma ** 2 * L))


def test_accelerated_anytime_constant_growth():
    s = inputs()

    def c(t):
        return schedules._accel_c(s, t, schedules.horizon_proxy(t))

    assert c(1) == 1e4  # 8 * sqrt(52) < 1e4
    cs = np.array([c(t) for t in range(1, 2000)])
    assert np.all(np.diff(cs) >= 0)


def test_accelerated_anytime_noiseless_matches_known_horizon():
    anytime = schedules.Schedule("asmd_anytime", inputs(sigma=0.0))
    known = schedules.Schedule("asmd_known_t", inputs(sigma=0.0, horizon=64))
    for t in (1, 7, 64):
        assert anytime.lam(t) == known.lam(t)
        assert anytime.eta(t) == known.eta(t)


def test_accelerated_override_is_off_guarantee():
    sched = schedules.Schedule("asmd_known_t", inputs(horizon=64, c_override=300.0))
    assert sched.off_guarantee
    assert sched.lam(3) == pytest.approx(300.0 * 1.0 * 1.0 * 1.0 * 0.5 / 8.0)
    assert not schedules.Schedule("asmd_known_t", inputs(horizon=64)).off_guarantee


def test_sgd_known_horizon_example():
    sched = schedules.Schedule("sgd_known_t", inputs(horizon=16))
    # branches: 8 * 16^(1/4) = 16, 2 sqrt(90) = 18.9737, 32^(1/2) * 16^(1/4) = 11.3137
    assert sched.lam(1) == pytest.approx(2.0 * math.sqrt(90.0))
    assert sched.lam(1) == pytest.approx(18.97366596, abs=1e-6)
    # eta = sqrt(delta1) T^((1-p)/(3p-2)) / (8 lam sqrt(L) gamma) = 0.5 / (8 * 18.9737)
    assert sched.eta(1) == pytest.approx(16.0 ** -0.25 / (8.0 * 2.0 * math.sqrt(90.0)))
    assert sched.eta(1) == pytest.approx(0.00329412, abs=1e-7)


def test_sgd_known_horizon_noiseless_branch():
    sched = schedules.Schedule("sgd_known_t", inputs(sigma=0.0, horizon=64, delta1=2.0))
    assert sched.lam(9) == pytest.approx(2.0 * math.sqrt(180.0))


def test_sgd_anytime_first_step_and_monotonicity():
    sched = schedules.Schedule("sgd_anytime", inputs())
    # proxy(1) = 2: branches {8 * 2^(1/4), 2 sqrt(90), sqrt(32) * 2^(1/4)}
    assert sched.lam(1) == pytest.approx(2.0 * math.sqrt(90.0))
    assert 8.0 * 2.0 ** 0.25 == pytest.approx(9.51365692)
    assert math.sqrt(32.0) * 2.0 ** 0.25 == pytest.approx(6.72717132)
    etas = np.array([sched.eta(t) for t in range(1, 3000)])
    assert np.all(np.diff(etas) <= 1e-18)


def test_sgd_anytime_matches_substitution_formula():
    s = inputs(p=1.5, delta1=2.0)
    sched = schedules.Schedule("sgd_anytime", s)
    for t in (1, 3, 250):
        proxy = 2.0 * t * (1.0 + math.log(t)) ** 2
        lam = max(
            (8.0 / math.sqrt(2.0)) ** 2 * proxy ** (1 / 2.5) * 1.0 ** 3,
            2.0 * math.sqrt(180.0),
            32.0 ** (1 / 1.5) * proxy ** (1 / 2.5),
        )
        assert sched.lam(t) == pytest.approx(lam, rel=1e-12)
        assert sched.eta(t) == pytest.approx(
            math.sqrt(2.0) * proxy ** (-0.5 / 2.5) / (8.0 * lam), rel=1e-12)


STEP_CAP_CASES = [
    ("smd_known_t", dict(horizon=1000)),
    ("smd_anytime", dict()),
    ("asmd_known_t", dict(horizon=1000)),
    ("asmd_anytime", dict()),
    ("sgd_known_t", dict(horizon=1000)),
    ("sgd_anytime", dict()),
]


@pytest.mark.parametrize("mode,extra", STEP_CAP_CASES)
@pytest.mark.parametrize("p,sigma,L", [(1.5, 1.0, 1.0), (2.0, 3.0, 7.0), (1.2, 0.0, 0.3)])
def test_step_caps(mode, extra, p, sigma, L):
    sched = schedules.Schedule(mode, inputs(p=p, sigma=sigma, smoothness=L, **extra))
    ts = np.unique(np.concatenate([
        np.arange(1, 10_001),
        np.logspace(4, 6, 60).astype(int),
    ]))
    for t in ts:
        t = int(t)
        eta = sched.eta(t)
        lam = sched.lam(t)
        assert eta > 0 and lam > 0
        if mode.startswith("smd"):
            assert eta <= 0.25 / L * (1 + 1e-12)
        elif mode.startswith("asmd"):
            assert eta <= 0.5 / (L * sched.alpha(t)) * (1 + 1e-12)
        else:
            assert eta <= 1.0 / L * (1 + 1e-12)


@pytest.mark.parametrize("mode,extra", [
    ("smd_known_t", dict(horizon=512)),
    ("smd_anytime", dict()),
    ("asmd_known_t", dict(horizon=512)),
    ("asmd_anytime", dict()),
])
def test_eta_lambda_product_constant(mode, extra):
    sched = schedules.Schedule(mode, inputs(p=1.5, **extra))
    c1 = sched.constants()["C1"]
    for t in range(1, 513):
        assert abs(sched.eta(t) * sched.lam(t) - c1) <= 1e-13 * c1


@pytest.mark.parametrize("mode,extra,algo_inputs", [
    ("smd_known_t", dict(horizon=256), dict(p=1.5, sigma=1.0)),
    ("smd_known_t", dict(horizon=4096), dict(p=2.0, sigma=2.0)),
    ("smd_anytime", dict(), dict(p=1.7, sigma=1.0)),
    ("asmd_known_t", dict(horizon=256), dict(p=1.5, sigma=1.0)),
    ("asmd_anytime", dict(), dict(p=2.0, sigma=1.0)),
    ("sgd_known_t", dict(horizon=256), dict(p=1.5, sigma=1.0)),
    ("sgd_known_t", dict(horizon=4096), dict(p=2.0, sigma=0.5)),
    ("sgd_anytime", dict(), dict(p=2.0, sigma=1.0)),
    ("smd_known_t", dict(horizon=256), dict(p=2.0, sigma=0.0)),
    ("sgd_known_t", dict(horizon=256), dict(p=2.0, sigma=0.0)),
])
def test_condition_checker_passes_for_guaranteed_schedules(mode, extra, algo_inputs):
    sched = schedules.Schedule(mode, inputs(**algo_inputs, **extra))
    horizon = extra.get("horizon", 256)
    report = schedules.verify_schedule_conditions(sched, horizon)
    assert report.ok, [c for c in report.checks if not c.passed]


def test_condition_checker_vacuous_notes_when_noiseless():
    sched = schedules.Schedule("smd_known_t", inputs(sigma=0.0, horizon=64))
    report = schedules.verify_schedule_conditions(sched, 64)
    notes = {c.name: c.note for c in report.checks}
    assert "vacuous" in notes["lambda_power_sum"]
    assert report.ok


def test_condition_checker_flags_corrupted_schedule():
    sched = schedules.Schedule("smd_known_t", inputs(horizon=256), eta_scale=2.0)
    report = schedules.verify_schedule_conditions(sched, 256)
    failed = {c.name for c in report.checks if not c.passed}
    assert "eta_lambda_constant" in failed


def test_condition_checker_param_free_after_run():
    from clipopt.algorithms import run_smd
    prob = problems.make_quadratic([1.0, 1.0])
    s = schedules.derive_inputs(prob, np.array([1.0, 0.0]), p=1.5, sigma=1.0,
                                delta=0.1, c1=1.0, c2=1.0)
    sched = schedules.Schedule("smd_param_free", s)
    oracle = Oracle(prob, TwoPointNoise(p=1.5, sigma=1.0, q=0.2), seed=1)
    tab = run_smd(prob, oracle, sched, 128, np.array([1.0, 0.0])).table
    report = schedules.verify_schedule_conditions(sched, 128, tab)
    assert report.ok, [c for c in report.checks if not c.passed]


def test_condition_checker_param_free_without_run():
    """Without a run the checker reads the table at displacement 0: the largest steps and
    smallest levels any run can take, so a run's own margins are no smaller."""
    from clipopt.algorithms import run_smd
    prob = problems.make_quadratic([1.0, 1.0])
    x1 = np.array([1.0, 0.0])
    s = schedules.derive_inputs(prob, x1, p=1.5, sigma=1.0, delta=0.1, c1=1.0, c2=1.0)
    sched = schedules.Schedule("smd_param_free", s)
    worst = schedules.verify_schedule_conditions(sched, 64)
    assert worst.ok, [c for c in worst.checks if not c.passed]
    tab = run_smd(prob, Oracle(prob, TwoPointNoise(p=1.5, sigma=1.0, q=0.2), seed=1), sched,
                  64, x1).table
    run = {c.name: c.margin for c in schedules.verify_schedule_conditions(sched, 64, tab).checks}
    for check in worst.checks:
        if check.name != "eta_lambda_constant":
            assert run[check.name] >= check.margin, check.name


def test_theorem_bound_smd_hand_value():
    sched = schedules.Schedule("smd_known_t", inputs(horizon=26))
    # sigma branch: 26^(1/2) * 26^(-1/2) * 1 * 1 = 1 dominates 2*4/26
    assert schedules.theorem_bound(sched, 26) == pytest.approx(48.0)


def test_theorem_bound_smd_noiseless():
    sched = schedules.Schedule("smd_known_t", inputs(sigma=0.0, horizon=64))
    # 48 r1 * det * gamma / T with det = 4
    assert schedules.theorem_bound(sched, 64) == pytest.approx(48.0 * 4.0 / 64.0)


def test_theorem_bound_asmd_noiseless():
    sched = schedules.Schedule("asmd_known_t", inputs(sigma=0.0, horizon=64))
    assert schedules.theorem_bound(sched, 64) == pytest.approx(6e4 / 65.0 ** 2)


def test_theorem_bound_sgd_hand_value():
    sched = schedules.Schedule("sgd_known_t", inputs(horizon=16))
    lam = 2.0 * math.sqrt(90.0)
    expect = 720.0 * lam * 16.0 ** (1.0 / 4.0) / 16.0
    assert schedules.theorem_bound(sched, 16) == pytest.approx(expect)


def closed_form_bound(mode, s, T):
    """Each mode's bound written out in closed form (reference for theorem_bound)."""
    gamma, p, sigma, L = s.gamma, s.p, s.sigma, s.smoothness
    det = 2.0 * (2.0 * L * s.r1 + s.mu * sigma)
    if mode == "smd_known_t":
        return 48.0 * s.r1 * max(
            26.0 ** (1.0 / p) * T ** ((1.0 - p) / p) * sigma * gamma ** ((p - 1.0) / p),
            det * gamma / T)
    if mode == "smd_anytime":
        return 48.0 * s.r1 * max(
            52.0 ** (1.0 / p) * T ** ((1.0 - p) / p) * (1.0 + math.log(T)) ** (2.0 / p)
            * sigma * gamma ** ((p - 1.0) / p),
            det * gamma / T)
    if mode == "smd_param_free":
        a_const = gamma + 2.0 * sigma ** p / s.c2
        lead = (8.0 / (T * s.c1)) * (s.r1 + s.c1 / 3.0 * a_const) ** 2
        return lead * max(
            (52.0 * T * (1.0 + math.log(T)) ** 2 * s.c2) ** (1.0 / p),
            4.0 * s.r1 * L + (2.0 * s.c1 / 3.0) * L * a_const + 2.0 * s.grad1_bound,
            L * s.c1 / 6.0)
    if mode.startswith("asmd"):
        tau = T if mode == "asmd_known_t" else 2.0 * T * (1.0 + math.log(T)) ** 2
        return 6.0 * max(
            1e4 * L * gamma ** 2 * s.r1 ** 2 * (T + 1) ** -2,
            4.0 * s.r1 * (26.0 * tau) ** (1.0 / p) * gamma ** ((p - 1.0) / p) * sigma / (T + 1))
    tau = float(T) if mode == "sgd_known_t" else 2.0 * T * (1.0 + math.log(T)) ** 2
    e = 1.0 / (3 * p - 2)
    lam_T = max(
        (8.0 * gamma / math.sqrt(L * s.delta1)) ** (1.0 / (p - 1.0)) * tau ** e
        * sigma ** (p / (p - 1.0)),
        2.0 * math.sqrt(90.0 * L * s.delta1),
        32.0 ** (1.0 / p) * sigma * tau ** e)
    return 720.0 * math.sqrt(s.delta1 * L) * gamma * lam_T * tau ** ((p - 1.0) * e) / T


@pytest.mark.parametrize("mode", schedules.ALL_MODES)
def test_theorem_bound_matches_closed_forms(mode):
    rng = np.random.default_rng(sum(map(ord, mode)))
    for _ in range(300):
        T = int(np.exp(rng.uniform(0.0, np.log(1e6))))
        s = schedules.ScheduleInputs(
            p=rng.uniform(1.05, 2.0), sigma=rng.choice([0.0, rng.uniform(0.0, 10.0)]),
            smoothness=np.exp(rng.uniform(-3, 3)), delta=rng.uniform(0.001, 0.99), horizon=T,
            r1=np.exp(rng.uniform(-3, 3)), mu=rng.uniform(0, 2),
            delta1=np.exp(rng.uniform(-3, 3)),
            grad1_bound=np.exp(rng.uniform(-3, 3)), c1=np.exp(rng.uniform(-2, 2)),
            c2=np.exp(rng.uniform(-2, 2)),
            c_override=300.0 if rng.random() < 0.3 else None)
        sched = schedules.Schedule(mode, s, eta_scale=rng.choice([1.0, 1.7]),
                                   lambda_scale=rng.choice([1.0, 0.3]))
        expect = closed_form_bound(mode, s, T)
        assert schedules.theorem_bound(sched, T) == pytest.approx(expect, rel=1e-14, abs=0.0)


def test_missing_horizon_rejected():
    for mode in ("smd_known_t", "asmd_known_t", "sgd_known_t"):
        with pytest.raises(ValueError, match="horizon"):
            schedules.Schedule(mode, inputs(horizon=None))


def test_derive_inputs_from_problem():
    prob = problems.make_quadratic([2.0, 2.0], [1.0, 0.0])
    x1 = np.array([2.0, 0.0])
    s = schedules.derive_inputs(prob, x1, p=1.5, sigma=0.5, delta=0.2, horizon=32)
    assert s.r1 == pytest.approx(1.0)  # sqrt(2 * 0.5 * ||x1 - x*||^2)
    assert s.delta1 == pytest.approx(1.0)
    assert s.grad1_bound == pytest.approx(2.0)
    assert s.smoothness == 2.0


@pytest.mark.parametrize("mode", schedules.ALL_MODES)
def test_pair_equals_eta_and_lam_with_one_evaluation(mode, monkeypatch):
    s = inputs(p=1.5, sigma=0.7, delta=0.05, horizon=40, mu=0.2)
    sched = schedules.Schedule(mode, s, eta_scale=1.7, lambda_scale=0.3)
    calls = []
    for name in ("_smd_lam", "_pf_lam", "_sgd_lam", "_accel_c"):  # the level helpers
        helper = getattr(schedules, name)
        monkeypatch.setattr(schedules, name,
                            lambda *args, name=name, helper=helper: calls.append(name)
                            or helper(*args))
    for t in range(1, 41):
        calls.clear()
        eta, lam = sched.pair(t)
        assert len(calls) == 1  # one evaluation of the step's formulas per pair
        assert (eta, lam) == (sched.eta(t), sched.lam(t))
        calls.clear()
        dev = float(np.hypot(0.05 * t, 0.02 * t))  # the parameter-free pair at a displacement
        eta, lam = sched.pair(t, dev)
        assert len(calls) == 1
        if mode != "smd_param_free":
            assert (eta, lam) == (sched.eta(t), sched.lam(t))


@pytest.mark.parametrize("mode", schedules.ALL_MODES)
@pytest.mark.parametrize("eta_scale, lambda_scale, c_override",
                         [(1.0, 1.0, None), (1.7, 0.3, None), (1.0, 1.0, 300.0), (0.4, 2.5, 3e4)])
def test_table_equals_pair_and_alpha_bitwise(mode, eta_scale, lambda_scale, c_override):
    """``table(T)`` holds ``pair(t)`` and ``alpha(t)`` for t = 1..T with the same bits, for
    every mode and knob; the parameter-free mode's at displacement 0."""
    for T in (1, 2, 257, 4096):
        s = inputs(p=1.5, sigma=0.7, delta=0.05, horizon=T, mu=0.2, c_override=c_override)
        sched = schedules.Schedule(mode, s, eta_scale=eta_scale, lambda_scale=lambda_scale)
        tab = sched.table(T)
        pairs = np.array([sched.pair(t) for t in range(1, T + 1)])
        assert tab.eta.shape == tab.lam.shape == (T,)
        assert tab.eta.tobytes() == pairs[:, 0].tobytes()
        assert tab.lam.tobytes() == pairs[:, 1].tobytes()
        if mode in schedules.ASMD_MODES:
            alphas = np.array([sched.alpha(t) for t in range(1, T + 1)])
            assert tab.alpha.tobytes() == alphas.tobytes()
        else:
            assert tab.alpha is None


def test_param_free_table_fills_as_observed():
    """A recorded run's (n, T) step and level columns hold, at each step, the pair at the
    largest displacement ``geometry.norm(x_s - x_1)`` its row has reached by then (s <= t),
    on l2 and on the simplex."""
    from clipopt.algorithms import run_smd_batch
    for prob, x1 in ((problems.make_quadratic([1.0, 2.0]), np.array([3.0, -1.0])),
                     (problems.make_simplex_quadratic([0.1, 0.2, 0.3, 0.4]), np.full(4, 0.25))):
        # a small c2 lets the displacement term lead the level
        s = schedules.derive_inputs(prob, x1, p=1.5, sigma=1.0, c1=0.2, c2=1e-6)
        sched = schedules.Schedule("smd_param_free", s)
        tab = run_smd_batch(prob, TwoPointNoise(p=1.5, sigma=1.0, q=0.2), sched, 50, x1,
                            range(3), record=True).table
        assert tab.eta.shape == tab.lam.shape == (3, 50)
        for k in range(3):
            dev = 0.0
            for t in range(1, 51):
                dev = max(dev, prob.geometry.norm(tab.x[k, t - 1] - x1))
                assert (tab.eta[k, t - 1], tab.lam[k, t - 1]) == sched.pair(t, dev)
        assert len(set(tab.lam[:, -1].tolist())) == 3  # every row's own trajectory


@pytest.mark.parametrize("mode, names", [
    ("smd_known_t", ("lambda_power_sum", "lambda_2p_vs_p")),
    ("asmd_known_t", ("lambda_power_sum", "lambda_2p_vs_p")),
    ("sgd_known_t", ("inverse_step_moment", "weighted_power_sum")),
])
def test_condition_notes_name_an_underflowed_sigma_power(mode, names):
    """A sigma > 0 whose p-th power underflows to 0 makes the sigma-scaled conditions vacuous;
    the note says so, and keeps ``sigma = 0`` for the noiseless case."""
    for sigma, note in ((1e-300, "vacuous: sigma ** p underflows to 0 at sigma = 1e-300, p = 1.5"),
                        (0.0, "vacuous: sigma = 0")):
        sched = schedules.Schedule(mode, inputs(p=1.5, sigma=sigma, horizon=64))
        checks = {c.name: c for c in schedules.verify_schedule_conditions(sched, 64).checks}
        for name in names:
            assert checks[name].passed and checks[name].margin == math.inf
            assert checks[name].note == note, (sigma, name)
