"""Numerical verification of the analysis machinery behind the guarantees.

Four layers of checks:

* a moment-generating-function bound for bounded zero-mean variables,
  verified exactly on discrete laws and by Monte Carlo on sampled ones;
* clipping-error bounds: the zero-mean part of the clipped-gradient error is
  never larger than twice the clipping level (exact), and when the true
  gradient is at most half the level, the bias and second moment obey
  explicit powers of the level (Monte Carlo with stated slack);
* deterministic per-step descent inequalities for each algorithm, which hold
  pathwise for every realization, so any violation beyond roundoff is an
  implementation bug;
* the supermartingale trace whose threshold-crossing frequency across seeds
  is what the high-probability guarantees bound.

Reports serialize to flat rows for CSV / JSON-lines output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algorithms import run_asmd, run_sgd, run_smd
from .clipping import clip_batch
from .noise import Oracle
from .problems import Problem
from .schedules import Schedule, log_weight_tail_sum


# -- series bound ----------------------------------------------------------------


def check_log_weight_series(t_max: int) -> float:
    """Partial sum of ``1/(2t(1+log t)^2)`` through ``t_max``; always below 1."""
    total = log_weight_tail_sum(t_max)
    if not total < 1.0:
        raise RuntimeError(f"log-weight series partial sum reached {total}")
    return total


# -- MGF bound -------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteLaw:
    """Finite-support law for exact expectation evaluation."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if v.shape != p.shape or v.ndim != 1:
            raise ValueError("values and probs must be matching 1-d arrays")
        if abs(p.sum() - 1.0) > 1e-12 or np.any(p < 0):
            raise ValueError("probs must be a distribution")
        if abs(float(v @ p)) > 1e-12:
            raise ValueError("law must have zero mean")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)


def rademacher(radius: float) -> DiscreteLaw:
    return DiscreteLaw(np.array([radius, -radius]), np.array([0.5, 0.5]))


def asymmetric_two_point(radius: float, p_up: float) -> DiscreteLaw:
    """Zero-mean two-point law hitting +radius with probability ``p_up`` <= 1/2."""
    if not (0.0 < p_up <= 0.5):
        raise ValueError("p_up must lie in (0, 1/2] so that |X| <= radius")
    down = -p_up * radius / (1.0 - p_up)
    return DiscreteLaw(np.array([radius, down]), np.array([p_up, 1.0 - p_up]))


@dataclass
class MgfEntry:
    lam: float
    lhs: float
    rhs: float
    passed: bool
    skipped: bool = False


@dataclass
class MgfReport:
    radius: float
    entries: list = field(default_factory=list)
    mc_samples: int = 0
    mc_stderr_slack: float = 0.0

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries if not e.skipped)

    def row(self) -> dict:
        worst = min((e.rhs - e.lhs for e in self.entries if not e.skipped), default=math.inf)
        return {"name": "mgf_bound", "steps": len(self.entries), "violations":
                sum(not e.passed for e in self.entries if not e.skipped),
                "max_margin": worst, "stderr": self.mc_stderr_slack}


def check_mgf_bound(radius: float, lambdas, law, mc_slack_sigmas: float = 5.0) -> MgfReport:
    """Verify ``E exp(l X) <= exp(0.75 l^2 E X^2)`` for ``0 <= l <= 1/radius``.

    ``law`` is either a :class:`DiscreteLaw` (exact expectations) or a 1-d
    array of Monte Carlo draws from a bounded zero-mean law, in which case
    the comparison allows ``mc_slack_sigmas`` standard errors of slack.
    Grid points beyond ``1/radius`` are outside the bound's range and are
    reported as skipped.
    """
    report = MgfReport(radius=radius)
    exact = isinstance(law, DiscreteLaw)
    if exact:
        if np.any(np.abs(law.values) > radius * (1 + 1e-12)):
            raise ValueError("law support exceeds the stated radius")
        second = float(law.probs @ law.values ** 2)
    else:
        draws = np.asarray(law, dtype=float)
        if np.any(np.abs(draws) > radius * (1 + 1e-12)):
            raise ValueError("draws exceed the stated radius")
        second = float(np.mean(draws ** 2))
        report.mc_samples = draws.size
    for lam in np.asarray(lambdas, dtype=float):
        if lam < 0 or lam * radius > 1.0 + 1e-12:
            report.entries.append(MgfEntry(float(lam), math.nan, math.nan, True, skipped=True))
            continue
        if exact:
            lhs = float(law.probs @ np.exp(lam * law.values))
            slack = 0.0
        else:
            vals = np.exp(lam * draws)
            lhs = float(vals.mean())
            stderr = float(vals.std(ddof=1) / math.sqrt(draws.size))
            slack = mc_slack_sigmas * stderr
            report.mc_stderr_slack = max(report.mc_stderr_slack, slack)
        rhs = math.exp(0.75 * lam * lam * second)
        report.entries.append(MgfEntry(float(lam), lhs, rhs, lhs <= rhs + slack + 1e-15))
    return report


# -- clipping-error bounds ---------------------------------------------------------


@dataclass
class ClipErrorReport:
    samples: int
    level: float
    u_violations: int
    u_max_norm: float
    applicable: bool
    bias_norm: float
    bias_bound: float
    bias_stderr: float
    second_moment: float
    second_moment_bound: float
    second_moment_stderr: float

    @property
    def passed(self) -> bool:
        if self.u_violations > 0:
            return False
        if not self.applicable:
            return True
        # the epsilon absorbs float rounding of the resampled mean in the
        # degenerate noiseless case, where both sides are exactly zero
        eps = 1e-12 * max(self.level, 1.0)
        return (self.bias_norm <= self.bias_bound + 5.0 * self.bias_stderr + eps
                and self.second_moment <= self.second_moment_bound
                + 5.0 * self.second_moment_stderr + eps)

    def row(self) -> dict:
        return {"name": "clipping_error_bounds", "steps": self.samples,
                "violations": self.u_violations,
                "max_margin": self.bias_bound + 5 * self.bias_stderr - self.bias_norm,
                "stderr": self.bias_stderr}


def check_clipping_error_bounds(oracle: Oracle, x, level: float, samples: int,
                                rng: np.random.Generator) -> ClipErrorReport:
    """Monte Carlo check of the clipped-error bounds at a fixed point.

    The zero-mean error part is bounded by twice the level exactly (both the
    clipped draw and the estimated conditional mean have norm at most the
    level), so the violation count must be zero.  The bias and second-moment
    bounds apply only when the true gradient norm is at most half the level;
    otherwise they are reported as not applicable.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples for the error-bound check")
    x = np.asarray(x, dtype=float)
    problem = oracle.problem
    geom = problem.geometry
    p, sigma = oracle.noise.p, oracle.noise.sigma
    g_true = problem.grad(x)
    xi = oracle.noise.sample_batch(problem.dim, samples, rng)
    raw = g_true + xi
    clipped = clip_batch(raw, level, geom.dual_norm_many(raw))
    cond_mean = clipped.mean(axis=0)

    theta_u = clipped - cond_mean
    u_norms = geom.dual_norm_many(theta_u)
    u_violations = int(np.sum(u_norms > 2.0 * level * (1 + 1e-12)))

    theta_b = cond_mean - g_true
    bias_norm = geom.dual_norm(theta_b)
    per_coord_var = clipped.var(axis=0, ddof=1)
    bias_stderr = float(np.sqrt(np.sum(per_coord_var) / samples))

    u_sq = u_norms ** 2
    second = float(u_sq.mean())
    second_stderr = float(u_sq.std(ddof=1) / math.sqrt(samples))

    applicable = geom.dual_norm(g_true) <= level / 2.0
    return ClipErrorReport(
        samples=samples, level=level, u_violations=u_violations,
        u_max_norm=float(u_norms.max()), applicable=applicable,
        bias_norm=float(bias_norm), bias_bound=4.0 * sigma ** p * level ** (1.0 - p),
        bias_stderr=bias_stderr, second_moment=second,
        second_moment_bound=40.0 * sigma ** p * level ** (2.0 - p),
        second_moment_stderr=second_stderr,
    )


# -- pathwise per-step inequalities -------------------------------------------------


@dataclass
class PathwiseReport:
    name: str
    steps: int
    violations: list
    min_margin: float
    tol: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def row(self) -> dict:
        return {"name": self.name, "steps": self.steps, "violations": len(self.violations),
                "max_margin": self.min_margin, "stderr": None}


def check_pathwise_smd(problem: Problem, oracle: Oracle, schedule: Schedule, steps: int,
                       x1, tol: float = 1e-8) -> PathwiseReport:
    """Per-step mirror-descent inequality, deterministic given the realized noise.

    Checks ``eta*gap(x+) + D(x*,x+) - D(x*,x) <= eta*<theta, x*-x> +
    eta^2 ||theta||_*^2 + 2 G^2 eta^2`` at every step, where theta is the
    realized clipped-gradient error and G the problem's nonsmooth constant.
    Requires ``eta <= 1/(4L)``.
    """
    geom = problem.geometry
    xstar = problem.minimizer
    g_cond = problem.lipschitz_g
    violations = []
    margins = []

    def observer(info):
        if info.eta > 0.25 / problem.smoothness * (1 + 1e-12):
            raise ValueError(f"step size exceeds 1/(4L) at t={info.t}")
        theta = info.grad_clipped - problem.grad(info.x)
        lhs = (info.eta * problem.gap(info.x_next)
               + geom.bregman(xstar, info.x_next) - geom.bregman(xstar, info.x))
        rhs = (info.eta * float(theta @ (xstar - info.x))
               + info.eta ** 2 * geom.dual_norm(theta) ** 2
               + 2.0 * g_cond ** 2 * info.eta ** 2)
        margin = rhs - lhs
        margins.append(margin)
        if margin < -tol:
            violations.append((info.t, margin))

    run_smd(problem, oracle, schedule, steps, x1, observer=observer, record=False)
    return PathwiseReport("pathwise_smd", steps, violations, float(min(margins)), tol)


def check_pathwise_asmd(problem: Problem, oracle: Oracle, schedule: Schedule, steps: int,
                        y1, tol: float = 1e-8) -> PathwiseReport:
    """Per-step accelerated-descent inequality with the momentum-weighted gaps.

    Checks ``(eta/alpha) gap(y+) + D(x*,z+) - D(x*,z) <=
    (eta(1-alpha)/alpha) gap(y) + eta <theta, x*-z> +
    eta^2 ||theta||_*^2 / (2 (1 - L eta alpha))`` per step; requires
    ``eta <= 1/(2 L alpha)``.
    """
    geom = problem.geometry
    xstar = problem.minimizer
    L = problem.smoothness
    violations = []
    margins = []

    def observer(info):
        if info.eta * info.alpha * L > 0.5 * (1 + 1e-12):
            raise ValueError(f"step size exceeds 1/(2 L alpha) at t={info.t}")
        theta = info.grad_clipped - problem.grad(info.x)
        lhs = (info.eta / info.alpha * problem.gap(info.y_next)
               + geom.bregman(xstar, info.z_next) - geom.bregman(xstar, info.z))
        rhs = (info.eta * (1.0 - info.alpha) / info.alpha * problem.gap(info.y)
               + info.eta * float(theta @ (xstar - info.z))
               + info.eta ** 2 * geom.dual_norm(theta) ** 2
               / (2.0 * (1.0 - L * info.eta * info.alpha)))
        margin = rhs - lhs
        margins.append(margin)
        if margin < -tol:
            violations.append((info.t, margin))

    run_asmd(problem, oracle, schedule, steps, y1, observer=observer, record=False)
    return PathwiseReport("pathwise_asmd", steps, violations, float(min(margins)), tol)


def check_pathwise_sgd(problem: Problem, oracle: Oracle, schedule: Schedule, steps: int,
                       x1, tol: float = 1e-8) -> PathwiseReport:
    """Per-step smoothness inequality of the clipped gradient step.

    Checks ``gap(x+) - gap(x) <= -(eta - L eta^2/2)||grad f(x)||^2 +
    (L eta^2/2)||theta||^2 + (L eta^2 - eta) <grad f(x), theta>`` per step;
    requires ``eta <= 1/L``.
    """
    L = problem.smoothness
    violations = []
    margins = []

    def observer(info):
        if info.eta * L > 1.0 + 1e-12:
            raise ValueError(f"step size exceeds 1/L at t={info.t}")
        g = problem.grad(info.x)
        theta = info.grad_clipped - g
        lhs = problem.gap(info.x_next) - problem.gap(info.x)
        rhs = (-(info.eta - L * info.eta ** 2 / 2.0) * float(g @ g)
               + (L * info.eta ** 2 / 2.0) * float(theta @ theta)
               + (L * info.eta ** 2 - info.eta) * float(g @ theta))
        margin = rhs - lhs
        margins.append(margin)
        if margin < -tol:
            violations.append((info.t, margin))

    run_sgd(problem, oracle, schedule, steps, x1, observer=observer, record=False)
    return PathwiseReport("pathwise_sgd", steps, violations, float(min(margins)), tol)


# -- supermartingale trace ------------------------------------------------------------


@dataclass
class MartingaleTrace:
    """Per-step supermartingale increments and their running sum.

    ``crossed`` flags whether the running sum ever reached ``log(1/delta)``;
    across independent seeds the crossing frequency is at most delta (up to
    the Monte Carlo error of the resampled conditional moments, whose scale
    ``stderr`` records).
    """

    algorithm: str
    threshold: float
    weights: np.ndarray        # z_t
    increments: np.ndarray     # Z_t
    running_sum: np.ndarray    # S_t
    cond_second_moment: np.ndarray
    bias_norm: np.ndarray
    stderr: np.ndarray
    crossed: bool
    warned: bool
    constants: dict

    def row(self) -> dict:
        return {"name": f"martingale_{self.algorithm}", "steps": self.weights.size,
                "violations": int(self.crossed), "max_margin":
                float(self.threshold - np.max(self.running_sum)),
                "stderr": float(np.mean(self.stderr))}


def _conditional_estimates(problem, noise_model, x, level, resamples, rng):
    """Resampled conditional mean and second moment of the clipped error at x."""
    geom = problem.geometry
    g_true = problem.grad(x)
    xi = noise_model.sample_batch(problem.dim, resamples, rng)
    raw = g_true + xi
    clipped = clip_batch(raw, level, geom.dual_norm_many(raw))
    cond_mean = clipped.mean(axis=0)
    theta_b = cond_mean - g_true
    u_sq = geom.dual_norm_many(clipped - cond_mean) ** 2
    stderr = float(np.sqrt(np.sum(clipped.var(axis=0, ddof=1)) / resamples))
    return theta_b, float(u_sq.mean()), stderr


def martingale_trace_smd(problem: Problem, oracle: Oracle, schedule: Schedule, steps: int,
                         x1, delta: float, resamples: int, rng: np.random.Generator,
                         q_const: float | None = None) -> MartingaleTrace:
    """Supermartingale trace of a clipped mirror-descent run.

    The weight ``z_t`` divides by the running maximum of the Bregman radius
    seen so far plus a ``16 Q (eta lambda)^2`` floor, which is exactly what
    keeps the exponential increments integrable; conditional moments of the
    clipped error are estimated by ``resamples`` fresh draws per step from
    ``rng`` (the run's own stream is not perturbed).
    """
    geom = problem.geometry
    xstar = problem.minimizer
    q_val = schedule.constants()["Q"] if q_const is None else q_const
    threshold = math.log(1.0 / delta)
    rows = {k: [] for k in ("z", "Z", "m2", "bias", "se")}
    state = {"runmax": 0.0, "warned": False}

    def observer(info):
        breg_here = geom.bregman(xstar, info.x)
        state["runmax"] = max(state["runmax"], math.sqrt(2.0 * breg_here))
        theta_b, m2, se = _conditional_estimates(problem, oracle.noise, info.x, info.lam,
                                                 resamples, rng)
        if se > 0.1 * info.lam:
            state["warned"] = True
        el = info.eta * info.lam
        z = 1.0 / (2.0 * el * state["runmax"] + 16.0 * q_val * el ** 2)
        zinc = z * (info.eta * problem.gap(info.x_next)
                    + geom.bregman(xstar, info.x_next) - breg_here
                    - info.eta * float((xstar - info.x) @ theta_b)
                    - 2.0 * info.eta ** 2 * geom.dual_norm(theta_b) ** 2
                    - 2.0 * info.eta ** 2 * m2)
        zinc -= (3.0 / (8.0 * info.lam ** 2) + 24.0 * z ** 2 * info.eta ** 4 * info.lam ** 2) * m2
        rows["z"].append(z)
        rows["Z"].append(zinc)
        rows["m2"].append(m2)
        rows["bias"].append(geom.dual_norm(theta_b))
        rows["se"].append(se)

    run_smd(problem, oracle, schedule, steps, x1, observer=observer, record=False)
    increments = np.array(rows["Z"])
    running = np.cumsum(increments)
    return MartingaleTrace(
        algorithm="smd", threshold=threshold, weights=np.array(rows["z"]),
        increments=increments, running_sum=running,
        cond_second_moment=np.array(rows["m2"]), bias_norm=np.array(rows["bias"]),
        stderr=np.array(rows["se"]), crossed=bool(np.max(running) >= threshold),
        warned=state["warned"], constants={"Q": q_val},
    )


def martingale_trace_sgd(problem: Problem, oracle: Oracle, schedule: Schedule, steps: int,
                         x1, delta: float, resamples: int, rng: np.random.Generator) -> MartingaleTrace:
    """Supermartingale trace of a clipped gradient-descent run.

    The weight uses the running maximum of the value gap with the
    schedule-level multipliers ``P_t = C1/(lambda_t eta_t sqrt(2L))`` and
    ``Q_t = C1^2 sqrt(A)/(2 L eta_t^2 lambda_t^2)``, which collapse the
    denominator to ``2 C1 max sqrt(gap) + 4 C1^2 sqrt(A)``.  Both multipliers
    must be at least 1, so the trace is defined only for schedules meeting
    their guarantee conditions.
    """
    consts = schedule.constants()
    c1, a_const = consts["C1"], consts["A"]
    L = problem.smoothness
    sqrt_a = math.sqrt(a_const)
    for t in (1, steps):
        eta, lam = schedule.pair(t)
        if c1 / (lam * eta * math.sqrt(2.0 * L)) < 1.0 - 1e-9:
            raise ValueError("trace undefined: P_t < 1 for this schedule")
        if c1 ** 2 * sqrt_a / (2.0 * L * eta ** 2 * lam ** 2) < 1.0 - 1e-9:
            raise ValueError("trace undefined: Q_t < 1 for this schedule")
    threshold = math.log(1.0 / delta)
    rows = {k: [] for k in ("z", "Z", "m2", "bias", "se")}
    state = {"runmax": 0.0, "warned": False}

    def observer(info):
        gap_here = problem.gap(info.x)
        state["runmax"] = max(state["runmax"], math.sqrt(max(gap_here, 0.0)))
        theta_b, m2, se = _conditional_estimates(problem, oracle.noise, info.x, info.lam,
                                                 resamples, rng)
        if se > 0.1 * info.lam:
            state["warned"] = True
        g = problem.grad(info.x)
        z = 1.0 / (2.0 * c1 * state["runmax"] + 4.0 * c1 ** 2 * sqrt_a)
        zinc = z * (0.5 * info.eta * float(g @ g)
                    + problem.gap(info.x_next) - gap_here
                    - 1.5 * info.eta * float(theta_b @ theta_b)
                    - L * info.eta ** 2 * m2)
        zinc -= (3.0 * z ** 2 * L * info.eta ** 2 * gap_here
                 + 6.0 * L ** 2 * z ** 2 * info.eta ** 4 * info.lam ** 2) * m2
        rows["z"].append(z)
        rows["Z"].append(zinc)
        rows["m2"].append(m2)
        rows["bias"].append(float(np.sqrt(theta_b @ theta_b)))
        rows["se"].append(se)

    run_sgd(problem, oracle, schedule, steps, x1, observer=observer, record=False)
    increments = np.array(rows["Z"])
    running = np.cumsum(increments)
    return MartingaleTrace(
        algorithm="sgd", threshold=threshold, weights=np.array(rows["z"]),
        increments=increments, running_sum=running,
        cond_second_moment=np.array(rows["m2"]), bias_norm=np.array(rows["bias"]),
        stderr=np.array(rows["se"]), crossed=bool(np.max(running) >= threshold),
        warned=state["warned"], constants={"C1": c1, "A": a_const},
    )


# -- report serialization ---------------------------------------------------------------

REPORT_COLUMNS = ("name", "steps", "violations", "max_margin", "stderr")


def write_reports_csv(reports, path):
    """One row per report with the standard check columns."""
    with open(path, "w", newline="") as fh:
        fh.write("# schema=1\n")
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for rep in reports:
            writer.writerow(rep.row())


def write_reports_jsonl(reports, path):
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.row()) + "\n")
