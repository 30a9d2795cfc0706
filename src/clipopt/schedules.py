"""Step-size and clipping-level schedules with verifiable conditions.

Seven modes are provided, one per convergence guarantee, each built as
``Schedule(mode, inputs, ...)``:

* ``smd_known_t`` / ``smd_anytime``: mirror descent with a horizon-dependent
  constant pair or the horizon-free substitution ``T -> 2t(1+log t)^2``;
* ``smd_param_free``: mirror descent without knowledge of sigma, delta or the
  initial distance; its level is also a function of the trajectory's largest
  displacement from the start so far, which the run loop keeps per row;
* ``asmd_known_t`` / ``asmd_anytime``: the accelerated three-sequence method;
* ``sgd_known_t`` / ``sgd_anytime``: nonconvex gradient descent on l2 space.

Each clipping level and step size is written once, as a function of the
inputs and a horizon term ``tau`` (:func:`_horizon_at`: the known horizon,
or the anytime substitution at step t).  A schedule is pure: it evaluates
them at one step (``pair``, for the parameter-free mode at a displacement,
one per row) or at steps 1..T as arrays with the same bits (``table``, at
displacement 0, which the run loops and the condition checker read);
:func:`theorem_bound` evaluates the same level at t = T.  Every
schedule exposes the proof-level constants (C1, C2, C3, A, Q) that its
guarantee is built on, and :func:`verify_schedule_conditions` checks the
corresponding inequalities numerically over a horizon.  Logarithms are
natural throughout.  ``eta_scale`` is a fault-injection knob for the
condition checker: values other than 1 deliberately break the guarantees.
``lambda_scale`` rescales the emitted clipping level without touching the
step size; it exists for baseline contrasts where clipping must engage
below the guarantee level, and is equally off-guarantee.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .problems import Problem

SMD_MODES = ("smd_known_t", "smd_anytime", "smd_param_free")
ASMD_MODES = ("asmd_known_t", "asmd_anytime")
SGD_MODES = ("sgd_known_t", "sgd_anytime")
ALL_MODES = SMD_MODES + ASMD_MODES + SGD_MODES
KNOWN_T_MODES = ("smd_known_t", "asmd_known_t", "sgd_known_t")


# A schedule's values for steps 1..T: (T,) arrays of eta_t and lambda_t, and of alpha_t
# for the accelerated modes (None for the others).
ScheduleTable = namedtuple("ScheduleTable", "eta lam alpha")


def horizon_proxy(t: int) -> float:
    """The anytime substitution ``2 t (1 + log t)^2`` (natural log)."""
    return 2.0 * t * (1.0 + math.log(t)) ** 2


def log_weight_tail_sum(t_max: int) -> float:
    """Partial sum of ``1 / (2 t (1 + log t)^2)``; stays below 1 for all t."""
    t = np.arange(1, t_max + 1, dtype=float)
    return float(np.sum(1.0 / (2.0 * t * (1.0 + np.log(t)) ** 2)))


@dataclass(frozen=True)
class ScheduleInputs:
    """Problem and confidence constants a schedule is built from.

    ``r1`` is the Bregman radius ``sqrt(2 D(x*, x1))``; ``delta1`` is the
    initial value gap (nonconvex modes); ``grad1_bound`` upper-bounds the
    dual norm of the gradient at the start (parameter-free mode);
    ``c1``/``c2`` are its dimension constants.
    ``c_override`` replaces the accelerated modes' internal constant
    ``max(1e4, ...)`` and is off-guarantee, for illustrative runs only.
    """

    p: float
    sigma: float
    smoothness: float
    delta: float = 0.1
    horizon: int | None = None
    r1: float | None = None
    mu: float = 0.0
    delta1: float | None = None
    grad1_bound: float | None = None
    c1: float = 1.0
    c2: float = 1.0
    c_override: float | None = None

    def __post_init__(self):
        if not (1.0 < self.p <= 2.0):
            raise ValueError("p must lie in (1, 2]")
        if not (self.sigma >= 0 and self.smoothness > 0):
            raise ValueError("sigma must be >= 0 and the smoothness constant positive")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("failure probability delta must lie in (0, 1)")
        if not (self.c1 > 0 and self.c2 > 0):
            raise ValueError("dimension constants c1, c2 must be positive")

    @cached_property
    def gamma(self) -> float:
        """``max(log(1/delta), 1)``, computed once per inputs object."""
        return max(math.log(1.0 / self.delta), 1.0)


def _horizon_at(mode: str, horizon: int | None, t: int) -> tuple[int, float]:
    """``(n, tau)`` at step ``t``: the known horizon for the known-T modes, else t and its proxy.

    ``tau`` is the horizon term of every level and step size; ``n`` is the
    count the accelerated constant grows with.
    """
    if mode in KNOWN_T_MODES:
        return horizon, float(horizon)
    return t, horizon_proxy(t)


def _smd_det(s: ScheduleInputs) -> float:
    """Deterministic floor ``2 (2 L r1 + mu sigma)`` of the SMD clipping level: its reference
    point x0 is the minimizer, where the ``L r0 + ||g0||_*`` terms vanish."""
    return 2.0 * (2.0 * s.smoothness * s.r1 + s.mu * s.sigma)


def _smd_lam(s: ScheduleInputs, tau: float) -> float:
    """Mirror-descent clipping level ``max((26 tau / gamma)^(1/p) sigma, det)``."""
    return max((26.0 * tau / s.gamma) ** (1.0 / s.p) * s.sigma, _smd_det(s))


def _pf_lam(s: ScheduleInputs, tau: float, dev):
    """Parameter-free clipping level ``max((26 tau c2)^(1/p), 2 (L dev + g1), L c1 / 6)`` at
    displacement ``dev`` from the start: a float, or an (n,) array with one value per row.
    The max skips a NaN, as Python's ``max`` after its first argument does."""
    L = s.smoothness
    lam = np.fmax(np.fmax((26.0 * tau * s.c2) ** (1.0 / s.p), 2.0 * (L * dev + s.grad1_bound)),
                  L * s.c1 / 6.0)
    return lam if isinstance(dev, np.ndarray) else float(lam)


def _accel_c(s: ScheduleInputs, n: int, tau: float) -> float:
    """The accelerated modes' constant ``max(1e4, 4 (n+1) (26 tau/gamma)^(1/p) sigma / (gamma L r1))``."""
    gamma, L = s.gamma, s.smoothness
    grow = 4.0 * (n + 1) * (26.0 * tau / gamma) ** (1.0 / s.p) * s.sigma
    return max(1e4, grow / (gamma * L * s.r1))


def _sgd_lam(s: ScheduleInputs, tau: float) -> float:
    """Nonconvex clipping level at horizon (or anytime proxy) ``tau``."""
    gamma, L, p, sigma, d1 = s.gamma, s.smoothness, s.p, s.sigma, s.delta1
    return max(
        (8.0 * gamma / math.sqrt(L * d1)) ** (1.0 / (p - 1.0)) * tau ** (1.0 / (3 * p - 2)) * sigma ** (p / (p - 1.0)),
        2.0 * math.sqrt(90.0 * L * d1),
        32.0 ** (1.0 / p) * sigma * tau ** (1.0 / (3 * p - 2)),
    )


def _sgd_eta(s: ScheduleInputs, tau: float, lam: float, scale: float = 1.0) -> float:
    """Nonconvex step size ``scale sqrt(delta1) tau^((1-p)/(3p-2)) / (8 lam sqrt(L) gamma)``."""
    num = math.sqrt(s.delta1) * tau ** ((1.0 - s.p) / (3 * s.p - 2))
    return scale * num / (8.0 * lam * math.sqrt(s.smoothness) * s.gamma)


def _c1(mode: str, s: ScheduleInputs) -> float:
    """C1; for the mirror-descent modes also the product ``eta_t lambda_t`` at eta_scale 1."""
    if mode == "smd_param_free":
        return s.c1 / 24.0
    if mode in SGD_MODES:
        return math.sqrt(s.delta1) / (4.0 * math.sqrt(2.0) * s.gamma)
    return s.r1 / (24.0 * s.gamma)


def derive_inputs(problem: Problem, x1, *, p: float, sigma: float, delta: float = 0.1,
                  horizon: int | None = None, mu: float = 0.0,
                  c1: float = 1.0, c2: float = 1.0, c_override: float | None = None) -> ScheduleInputs:
    """Compute schedule inputs from a problem instance and a start point.

    The reference point x0 is the minimizer, with ``g0 = 0``, ``r0 = 0`` and by
    default ``mu = 0``, which is exact for instances whose minimizer has zero
    gradient.  The convex radius r1 requires a known minimizer; the
    value gap ``delta1`` and gradient bound are always available.  A start
    far enough out overflows a double on the way; the quantities it makes
    infinite are returned as they are, without a warning.
    """
    x1 = np.asarray(x1, dtype=float)
    geom = problem.geometry
    r1 = None
    with np.errstate(over="ignore", invalid="ignore"):
        if problem.minimizer is not None:
            r1 = math.sqrt(2.0 * geom.bregman(problem.minimizer, x1))
        delta1, grad1_bound = problem.gap(x1), geom.dual_norm(problem.grad(x1))
    return ScheduleInputs(
        p=p, sigma=sigma, smoothness=problem.smoothness, delta=delta, horizon=horizon,
        r1=r1, mu=mu,
        delta1=delta1, grad1_bound=grad1_bound, c1=c1, c2=c2, c_override=c_override,
    )


class Schedule:
    """Per-iteration ``(eta_t, lambda_t)`` generator for one mode; pure, and safe to share.

    The parameter-free mode's pair is also a function of the displacement
    ``dev`` of the trajectory from its start (the running maximum of
    ``||x_s - x_1||`` over s <= t, which its run loop keeps per row); at
    displacement 0, the default, it is each row's first step: the largest
    step and the smallest level the mode can take at ``t``.
    """

    def __init__(self, mode: str, inputs: ScheduleInputs, eta_scale: float = 1.0,
                 lambda_scale: float = 1.0):
        if mode not in ALL_MODES:
            raise ValueError(f"unknown schedule mode {mode!r}")
        if not lambda_scale > 0:
            raise ValueError("lambda_scale must be positive")
        self.mode = mode
        self.inputs = inputs
        self.eta_scale = eta_scale
        self.lambda_scale = lambda_scale
        self._validate()
        self._c1 = _c1(mode, inputs)

    def _validate(self):
        s = self.inputs
        if self.mode in KNOWN_T_MODES and s.horizon is None:
            raise ValueError(f"{self.mode} requires a known horizon")
        if self.mode in SMD_MODES + ASMD_MODES and self.mode != "smd_param_free":
            if s.r1 is None or s.r1 <= 0:
                raise ValueError("convex modes need a positive initial Bregman radius r1")
        if self.mode == "smd_param_free" and (s.grad1_bound is None):
            raise ValueError("parameter-free mode needs an upper bound on the initial gradient norm")
        if self.mode in SGD_MODES and (s.delta1 is None or s.delta1 <= 0):
            raise ValueError("nonconvex modes need a positive initial value gap delta1")

    # -- per-step values ------------------------------------------------------

    def alpha(self, t):
        """Momentum weight ``2 / (t + 1)`` of the accelerated modes (``t`` may be an array)."""
        if self.mode not in ASMD_MODES:
            raise ValueError("alpha is defined for accelerated modes only")
        return 2.0 / (t + 1)

    def table(self, steps: int) -> ScheduleTable:
        """``pair(t)`` and ``alpha(t)`` for t = 1..steps as arrays, bitwise.

        The levels and steps come from ``pair``, once for a known horizon and
        once per step otherwise (``pow`` and ``log`` stay scalar: vectorized
        ones may differ in the last ulp).  The accelerated modes' level and
        step come elementwise from ``_accel_pair``, as ``pair``'s do.  The
        parameter-free mode's are at displacement 0.
        """
        mode = self.mode
        points = [1] if mode in KNOWN_T_MODES else range(1, steps + 1)
        if mode in ASMD_MODES:
            alpha = self.alpha(np.arange(1, steps + 1))
            return ScheduleTable(*self._accel_pair(points, alpha), alpha)
        eta, lam = np.array([self.pair(t) for t in points]).reshape(-1, 2).T
        if mode in KNOWN_T_MODES:
            eta, lam = np.full(steps, eta[0]), np.full(steps, lam[0])
        return ScheduleTable(eta, lam, None)

    def lam(self, t: int) -> float:
        return self.pair(t)[1]

    def eta(self, t: int) -> float:
        return self.pair(t)[0]

    def pair(self, t: int, dev=0.0):
        """``(eta_t, lambda_t)``, each per-step quantity evaluated once; the parameter-free
        mode's at displacement ``dev`` (a float, or an (n,) array giving (n,) arrays), which
        the other modes ignore.  The step sizes follow the level before ``lambda_scale``."""
        if t < 1:
            raise ValueError("steps are 1-based")
        s, mode = self.inputs, self.mode
        _, tau = _horizon_at(mode, s.horizon, t)
        if mode in ASMD_MODES:
            return self._accel_pair([t], self.alpha(t))
        if mode in SGD_MODES:
            lam = _sgd_lam(s, tau)
            eta = _sgd_eta(s, tau, lam, self.eta_scale)
        else:
            lam = _pf_lam(s, tau, dev) if mode == "smd_param_free" else _smd_lam(s, tau)
            eta = self.eta_scale * self._c1 / lam
        return eta, self.lambda_scale * lam

    def _accel_pair(self, points, alpha):
        """The accelerated ``(eta, lambda)`` at weight ``alpha``, with ``c`` the override or
        ``_accel_c`` at each step of ``points``: Python floats for a float ``alpha`` (one
        step), else arrays over ``alpha`` (one step broadcasts)."""
        s = self.inputs
        c = [_accel_c(s, *_horizon_at(self.mode, s.horizon, t)) if s.c_override is None
             else float(s.c_override) for t in points]
        c = c[0] if isinstance(alpha, float) else np.array(c)
        gamma, L = s.gamma, s.smoothness
        return (self.eta_scale / (3.0 * c * gamma ** 2 * L * alpha),
                self.lambda_scale * (c * s.r1 * gamma * L * alpha / 8.0))

    # -- proof-level constants -------------------------------------------------

    def constants(self) -> dict:
        """The (C1, C2, C3, A, Q) pack the mode's guarantee is proved with.

        Sigma-scaled entries are infinite in the noiseless case; the
        condition checker reports the corresponding inequalities as vacuous.
        """
        s = self.inputs
        gamma, sp = s.gamma, s.sigma ** s.p
        if self.mode == "smd_param_free":
            a_const = gamma + 2.0 * sp / s.c2
            return {"C1": self._c1, "C2": 1.0 / (26.0 * s.c2), "C3": 1.0 / (52.0 * s.c2),
                    "A": a_const, "Q": a_const}
        if self.mode in SMD_MODES + ASMD_MODES:
            c2 = gamma / (26.0 * sp) if sp > 0 else math.inf
            if self.mode in KNOWN_T_MODES:
                c3 = gamma / (26.0 * s.horizon * sp) if sp > 0 else math.inf
            else:
                c3 = gamma / (52.0 * sp) if sp > 0 else math.inf
            return {"C1": self._c1, "C2": c2, "C3": c3, "A": 3.0 * gamma, "Q": 3.0 * gamma}
        c2 = 1.0 / sp if sp > 0 else math.inf
        c3 = s.delta1 / (2048.0 * sp * gamma) if sp > 0 else math.inf
        return {"C1": self._c1, "C2": c2, "C3": c3, "A": 256.0 * gamma ** 2, "Q": None}


# -- condition verification -----------------------------------------------------


@dataclass
class ConditionCheck:
    name: str
    passed: bool
    margin: float
    note: str = ""


@dataclass
class ConditionReport:
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_schedule_conditions(schedule: Schedule, horizon: int, run=None) -> ConditionReport:
    """Numerically check the gap-recursion conditions over ``[1, horizon]``.

    The steps and levels checked are the schedule's table, or, given ``run``
    (a recorded run's ``StepTable``), the ones its first seed used.  The
    parameter-free mode's depend on the trajectory; its table, at
    displacement 0, holds the largest steps and smallest levels any
    trajectory can take, so it is the worst case.

    Mirror-descent modes are checked against: a constant ``eta*lambda``
    product, the summed inverse clipping levels against C2, the 2p-versus-p
    power bound against C3, the lower bound defining A, and the step-size
    cap.  Nonconvex modes use their own condition set (product cap against
    C1, the inverse-step moment bound, the weighted power sum, the squared-A
    lower bound, and the cap ``eta <= 1/L``).  A zero sigma^p (no noise, or a
    sigma so small that its power underflows) makes the sigma-scaled
    conditions vacuous; they are reported as passed with a note saying which.
    """
    s = schedule.inputs
    consts = schedule.constants()
    c1, c2, c3, a_const = consts["C1"], consts["C2"], consts["C3"], consts["A"]
    p, sigma, L = s.p, s.sigma, s.smoothness
    sp = sigma ** p
    report = ConditionReport()
    etas, lams, alphas = (schedule.table(horizon) if run is None
                          else (run.eta[0], run.lam[0], run.alpha))
    log_term = math.log(1.0 / s.delta)
    # sigma-scaled conditions are vacuous when sigma^p is 0, which a tiny sigma > 0 underflows to
    vacuous = ("vacuous: sigma = 0" if sigma == 0 else
               f"vacuous: sigma ** p underflows to 0 at sigma = {sigma:.3g}, p = {p:.6g}")

    def add(name, passed, margin, note=""):
        report.checks.append(ConditionCheck(name, bool(passed), float(margin), note))

    def capped(name, stat, cap, rtol):
        """``stat <= cap`` up to relative slack ``rtol``; vacuous if the sigma-scaled cap is inf."""
        if math.isinf(cap):
            add(name, True, math.inf, vacuous)
        else:
            add(name, stat <= cap * (1 + rtol), cap - stat)

    if schedule.mode in SMD_MODES + ASMD_MODES:
        # a product past the doubles, or a run stopped by an infinite level: FAIL, inf or NaN
        with np.errstate(over="ignore", invalid="ignore"):
            prod_dev = np.max(np.abs(etas * lams - c1)) / c1
        add("eta_lambda_constant", prod_dev <= 1e-9, prod_dev,
            "max relative deviation of eta_t * lambda_t from C1")

        with np.errstate(over="ignore"):  # a tiny level saturates to inf: FAIL, margin -inf
            inv_powers = lams ** (-p)
        capped("lambda_power_sum", float(np.sum(inv_powers)), c2, 1e-12)
        capped("lambda_2p_vs_p", float(np.max(inv_powers)), c3, 1e-12)

        if sp == 0:
            rhs = max(log_term, 1.0)
        else:
            rhs = max(log_term + 26.0 * sp * c2 + 2.0 * sigma ** (2 * p) * c2 * c3 / a_const, 1.0)
        add("A_lower_bound", a_const >= rhs * (1 - 1e-12), a_const - rhs)

        if schedule.mode in ASMD_MODES:
            cap = float(np.max(etas * alphas * L))
            add("eta_cap", cap <= 0.5 * (1 + 1e-12), 0.5 - cap, "eta_t <= 1/(2 L alpha_t)")
            if horizon >= 2:
                lhs = etas[:-1] / alphas[:-1]
                rhs_m = etas[1:] * (1.0 - alphas[1:]) / alphas[1:]
                worst = float(np.min(lhs - rhs_m))
                add("momentum_monotone", worst >= -1e-12 * np.max(lhs), worst,
                    "eta_{t-1}/alpha_{t-1} >= eta_t (1-alpha_t)/alpha_t")
        else:
            cap = float(np.max(etas)) * L
            add("eta_cap", cap <= 0.25 * (1 + 1e-12), 0.25 - cap, "eta_t <= 1/(4L)")
    else:
        prod = float(np.max(etas * lams)) * math.sqrt(2.0 * L)
        add("eta_lambda_sqrt2L_cap", prod <= c1 * (1 + 1e-9), c1 - prod)

        with np.errstate(over="ignore"):  # a tiny level saturates to inf: FAIL, margin -inf
            capped("inverse_step_moment", float(np.max(lams ** (-p) / (L * etas))), c2, 1e-9)
        capped("weighted_power_sum", float(np.sum(L * lams ** (2.0 - p) * etas ** 2)), c3, 1e-9)

        if sp == 0:
            rhs = max(64.0 * log_term ** 2, 1.0)
        else:
            rhs = max(64.0 * (log_term + 60.0 * sp * c3 / c1 ** 2) ** 2
                      + (48.0 * sigma ** (2 * p) * c2 * c3 + 140.0 * sp * c3) / c1 ** 2, 1.0)
        add("A_lower_bound", a_const >= rhs * (1 - 1e-12), a_const - rhs)

        cap = float(np.max(etas)) * L
        add("eta_cap", cap <= 1.0 * (1 + 1e-12), 1.0 - cap, "eta_t <= 1/L")

    return report


# -- guarantee right-hand sides ---------------------------------------------------


def theorem_bound(schedule: Schedule, horizon: int) -> float:
    """Explicit high-probability bound on the run's summary metric.

    Mirror-descent modes bound the average gap over the horizon, accelerated
    modes the final gap, nonconvex modes the average squared gradient norm.
    Each bound is the mode's own level (or step) at t = T, at eta_scale and
    lambda_scale 1 and without ``c_override``, so it is the on-guarantee
    value.  The parameter-free level is taken at the displacement
    ``2 r1 + c1 A / 3`` the proof bounds the trajectory by; no trajectory
    quantities enter.
    """
    s, mode, T = schedule.inputs, schedule.mode, horizon
    n, tau = _horizon_at(mode, T, T)
    if mode in SGD_MODES:
        return 90.0 * s.delta1 / (_sgd_eta(s, tau, _sgd_lam(s, tau)) * T)
    if mode in ASMD_MODES:
        return 6.0 * s.gamma ** 2 * s.smoothness * s.r1 ** 2 * _accel_c(s, n, tau) / (T + 1) ** 2
    if mode == "smd_param_free":
        reach = s.c1 / 3.0 * schedule.constants()["A"]
        return 8.0 / (T * s.c1) * (s.r1 + reach) ** 2 * _pf_lam(s, tau, 2.0 * s.r1 + reach)
    # 2 r1^2 / (eta_T T) with eta_T = r1 / (24 gamma lambda_T)
    return 48.0 * s.gamma * s.r1 * _smd_lam(s, tau) / T
