"""Numerical verification of the analysis machinery behind the guarantees.

Four layers of checks:

* a moment-generating-function bound for bounded zero-mean variables,
  verified exactly on discrete laws;
* clipping-error bounds: the zero-mean part of the clipped-gradient error is
  never larger than twice the clipping level (exact), and when the true
  gradient is at most half the level, the bias and second moment obey
  explicit powers of the level;
* deterministic per-step descent inequalities for each algorithm, which hold
  pathwise for every realization, so any violation beyond roundoff is an
  implementation bug;
* the supermartingale trace whose threshold-crossing frequency across seeds
  is what the high-probability guarantees bound.

The conditional moments of the clipped error are exact, and nothing is
drawn: the noise family states them (``clipped_moments``), as weighted sums
over the support of two-point noise and by quadrature for radial noise.

Reports serialize to flat rows for CSV / JSON-lines output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algorithms import StepTable
from .geometry import coord_dot
from .noise import ClippedMoments
from .problems import Problem
from .schedules import log_weight_tail_sum


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
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(p))):
            raise ValueError("values and probs must be finite")
        # written so that a NaN (an overflowing sum) fails each check
        if not (abs(p.sum() - 1.0) <= 1e-12 and np.all(p >= 0)):
            raise ValueError("probs must be a distribution")
        if not abs(v @ p) <= 1e-12 * (np.abs(v) @ p):  # relative to E|X|: any scale passes
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
    entries: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries if not e.skipped)


def check_mgf_bound(radius: float, lambdas, law: DiscreteLaw) -> MgfReport:
    """Verify ``E exp(l X) <= exp(0.75 l^2 E X^2)`` for ``0 <= l <= 1/radius``, exactly.

    ``law`` is a :class:`DiscreteLaw` whose support lies within ``radius``.
    Grid points beyond ``1/radius`` are outside the bound's range and are
    reported as skipped.
    """
    if not isinstance(law, DiscreteLaw):
        raise TypeError(f"law must be a DiscreteLaw, got {type(law).__name__}")
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be a positive finite number")
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(np.isnan(lambdas)):
        raise ValueError("lambdas must not be NaN")
    if np.any(np.abs(law.values) > radius * (1 + 1e-12)):
        raise ValueError("law support exceeds the stated radius")
    second = float(law.probs @ law.values ** 2)
    report = MgfReport()
    for lam in lambdas:
        if lam < 0 or lam * radius > 1.0 + 1e-12:
            report.entries.append(MgfEntry(float(lam), math.nan, math.nan, True, skipped=True))
            continue
        lhs = float(law.probs @ np.exp(lam * law.values))
        rhs = math.exp(0.75 * lam * lam * second)
        report.entries.append(MgfEntry(float(lam), lhs, rhs, lhs <= rhs + 1e-15))
    return report


# -- clipping-error bounds ---------------------------------------------------------


@dataclass
class ClipErrorReport:
    level: float
    u_violations: int
    applicable: bool
    bias_norm: float
    bias_bound: float
    second_moment: float
    second_moment_bound: float

    @property
    def passed(self) -> bool:
        if self.u_violations > 0:
            return False
        if not self.applicable:
            return True
        # the epsilon absorbs float rounding of the conditional mean in the
        # degenerate noiseless case, where both sides are exactly zero
        eps = 1e-12 * max(self.level, 1.0)
        return (self.bias_norm <= self.bias_bound + eps
                and self.second_moment <= self.second_moment_bound + eps)

    def row(self) -> dict:
        return {"name": "clipping_error_bounds", "steps": 1,  # the one point checked
                "violations": self.u_violations,
                "max_margin": self.bias_bound - self.bias_norm, "stderr": 0.0}


def check_clipping_error_bounds(problem: Problem, noise_model, x, level: float) -> ClipErrorReport:
    """Check of the clipped-error bounds at a fixed point, from exact moments.

    The zero-mean error part is bounded by twice the level exactly (both the
    clipped draw and the conditional mean have norm at most the level), so
    the violation count must be zero.  The bias and second-moment bounds
    apply only when the true gradient norm is at most half the level;
    otherwise they are reported as not applicable.
    """
    geom, p, sigma = problem.geometry, noise_model.p, noise_model.sigma
    res = noise_model.clipped_moments(problem, [x], level)
    return ClipErrorReport(
        level=level, u_violations=int(res.u_over[0]),
        applicable=geom.dual_norm(res.grad[0]) <= level / 2.0,
        bias_norm=geom.dual_norm(res.cond_mean[0] - res.grad[0]),
        bias_bound=4.0 * sigma ** p * level ** (1.0 - p),
        second_moment=float(res.u_sq_mean[0]),
        second_moment_bound=40.0 * sigma ** p * level ** (2.0 - p),
    )


# -- pathwise per-step inequalities -------------------------------------------------
#
# The checks and traces below evaluate the analysis' per-step expressions over
# a recorded run of n seeds (the ``StepTable`` of a ``run_*`` or a recording
# ``run_*_batch``), one array expression per quantity.  The problem's and
# geometry's row functions and the dot products, through ``coord_dot``, reduce
# over the last axis only, so they take the record's (n, steps, d) points
# whole, each point with its one-seed bits in any layout, as they take its
# (n, steps) steps and levels.  Each check returns one report or trace per seed,
# and seed k's is bitwise that of seed k's own one-seed record.  The traces'
# conditional moments come from one exact ``clipped_moments`` call over every
# seed's points.  Powers go through ``np.float_power``, which calls libm's
# ``pow`` as Python's float ``**`` does; numpy's ``**`` squares by
# multiplication, which can differ in the last bit.


@dataclass
class PathwiseReport:
    name: str
    steps: int
    violations: list
    min_margin: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def row(self) -> dict:
        return {"name": self.name, "steps": self.steps, "violations": len(self.violations),
                "max_margin": self.min_margin, "stderr": None}


@np.errstate(all="ignore")
def check_pathwise_smd(problem: Problem, tab: StepTable, tol: float = 1e-8) -> list:
    """Per-step mirror-descent inequality over a recorded ``run_smd*``: one report per seed.

    Checks ``eta*gap(x+) + D(x*,x+) - D(x*,x) <= eta*<theta, x*-x> +
    eta^2 ||theta||_*^2 + 2 G^2 eta^2`` at every step, where theta is the
    realized clipped-gradient error and G the problem's nonsmooth constant;
    it holds deterministically given the realized noise.  Requires
    ``eta <= 1/(4L)``; a step past it fails.
    """
    eta = tab.eta
    geom, xstar = problem.geometry, problem.minimizer
    x, x_next = tab.x[:, :-1], tab.x[:, 1:]
    theta = tab.grad_clipped - problem.grad_many(x)
    eta2 = np.float_power(eta, 2)
    lhs = (eta * problem.gap_many(x_next)
           + geom.bregman_many(xstar, x_next) - geom.bregman_many(xstar, x))
    rhs = (eta * coord_dot(theta, xstar - x)
           + eta2 * np.float_power(geom.dual_norm_many(theta), 2)
           + 2.0 * problem.lipschitz_g ** 2 * eta2)
    too_large = eta > 0.25 / problem.smoothness * (1 + 1e-12)
    return _pathwise("pathwise_smd", rhs - lhs, too_large, tol)


@np.errstate(all="ignore")
def check_pathwise_asmd(problem: Problem, tab: StepTable, tol: float = 1e-8) -> list:
    """Per-step accelerated-descent inequality over a recorded ``run_asmd*``: one report per
    seed, with the momentum-weighted gaps.

    Checks ``(eta/alpha) gap(y+) + D(x*,z+) - D(x*,z) <=
    (eta(1-alpha)/alpha) gap(y) + eta <theta, x*-z> +
    eta^2 ||theta||_*^2 / (2 (1 - L eta alpha))`` per step; requires
    ``eta <= 1/(2 L alpha)``; a step past it fails.
    """
    eta, alpha, L = tab.eta, tab.alpha, problem.smoothness
    geom, xstar = problem.geometry, problem.minimizer
    y, z = tab.y, tab.z
    theta = tab.grad_clipped - problem.grad_many(tab.x)
    lhs = (eta / alpha * problem.gap_many(y[:, 1:])
           + geom.bregman_many(xstar, z[:, 1:]) - geom.bregman_many(xstar, z[:, :-1]))
    rhs = (eta * (1.0 - alpha) / alpha * problem.gap_many(y[:, :-1])
           + eta * coord_dot(theta, xstar - z[:, :-1])
           + np.float_power(eta, 2) * np.float_power(geom.dual_norm_many(theta), 2)
           / (2.0 * (1.0 - L * eta * alpha)))
    return _pathwise("pathwise_asmd", rhs - lhs, eta * alpha * L > 0.5 * (1 + 1e-12),
                     tol)


@np.errstate(all="ignore")
def check_pathwise_sgd(problem: Problem, tab: StepTable, tol: float = 1e-8) -> list:
    """Per-step smoothness inequality of the clipped gradient step over a recorded
    ``run_sgd*``: one report per seed.

    Checks ``gap(x+) - gap(x) <= -(eta - L eta^2/2)||grad f(x)||^2 +
    (L eta^2/2)||theta||^2 + (L eta^2 - eta) <grad f(x), theta>`` per step;
    requires ``eta <= 1/L``; a step past it fails.
    """
    eta, L = tab.eta, problem.smoothness
    g = problem.grad_many(tab.x[:, :-1])
    theta = tab.grad_clipped - g
    gap = problem.gap_many(tab.x)
    eta2 = np.float_power(eta, 2)
    rhs = (-(eta - L * eta2 / 2.0) * coord_dot(g, g)
           + (L * eta2 / 2.0) * coord_dot(theta, theta)
           + (L * eta2 - eta) * coord_dot(g, theta))
    margins = rhs - (gap[:, 1:] - gap[:, :-1])
    return _pathwise("pathwise_sgd", margins, eta * L > 1.0 + 1e-12, tol)


def _pathwise(name: str, margins, out_of_range, tol: float) -> list:
    """One report per seed's row of the (n, steps) ``margins``, whose columns are steps
    1..steps; a step ``out_of_range`` (its step size past the inequality's range, whose
    overflow the checks leave unwarned) has margin -inf, and a NaN margin fails."""
    margins = np.where(out_of_range, -np.inf, margins)
    t = np.arange(1, margins.shape[1] + 1)
    return [PathwiseReport(name, t.size, [(int(s), float(m)) for s, m in zip(t[bad], row[bad])],
                           float(np.min(row)))
            for row, bad in zip(margins, ~(margins >= -tol))]


# -- supermartingale trace ------------------------------------------------------------


@dataclass
class MartingaleTrace:
    """Per-step supermartingale increments and their running sum.

    ``crossed`` flags whether the running sum ever reached ``log(1/delta)``;
    across independent seeds the crossing frequency is at most delta.  The
    conditional moments are exact, so the row's ``stderr`` is 0.
    """

    algorithm: str
    threshold: float
    weights: np.ndarray        # z_t
    increments: np.ndarray     # Z_t
    running_sum: np.ndarray    # S_t
    cond_second_moment: np.ndarray
    bias_norm: np.ndarray
    crossed: bool

    def row(self) -> dict:
        return {"name": f"martingale_{self.algorithm}", "steps": self.weights.size,
                "violations": int(self.crossed), "max_margin":
                float(self.threshold - np.max(self.running_sum)), "stderr": 0.0}


@np.errstate(over="ignore")
def martingale_trace_smd(problem: Problem, noise_model, tab: StepTable, constants: dict,
                         delta: float) -> list:
    """Supermartingale trace of a recorded clipped mirror-descent run: one trace per seed.

    The weight ``z_t`` divides by the running maximum of the Bregman radius
    seen so far plus a ``16 Q (eta lambda)^2`` floor, which is exactly what
    keeps the exponential increments integrable; ``Q`` is read from
    ``constants``.  The conditional moments of the clipped error are exact,
    and nothing is drawn.  A Bregman divergence that rounds
    below zero counts as zero radius.  A step past ``eta <= 1/(4L)`` can
    overflow a power of eta; it saturates to inf, unwarned.
    """
    geom = problem.geometry
    xstar = problem.minimizer
    q_val = constants["Q"]
    x, eta, lam = tab.x[:, :-1], tab.eta, tab.lam
    res = _moments(problem, noise_model, x, lam)
    theta_b, m2 = res.cond_mean - res.grad, res.u_sq_mean
    breg = geom.bregman_many(xstar, tab.x)
    runmax = np.maximum.accumulate(np.sqrt(2.0 * np.maximum(breg[:, :-1], 0.0)), axis=1)
    el = eta * lam
    z = 1.0 / (2.0 * el * runmax + 16.0 * q_val * np.float_power(el, 2))
    bias = geom.dual_norm_many(theta_b)
    eta2, lam2 = np.float_power(eta, 2), np.float_power(lam, 2)
    increments = z * (eta * problem.gap_many(tab.x[:, 1:]) + breg[:, 1:] - breg[:, :-1]
                      - eta * coord_dot(xstar - x, theta_b)
                      - 2.0 * eta2 * np.float_power(bias, 2)
                      - 2.0 * eta2 * m2)
    increments -= (3.0 / (8.0 * lam2)
                   + 24.0 * np.float_power(z, 2) * np.float_power(eta, 4) * lam2) * m2
    return _traces("smd", delta, z, increments, m2, bias)


def martingale_trace_sgd(problem: Problem, noise_model, tab: StepTable, constants: dict,
                         delta: float) -> list:
    """Supermartingale trace of a recorded clipped gradient-descent run: one trace per seed.

    The weight uses the running maximum of the value gap with the
    schedule-level multipliers ``P_t = C1/(lambda_t eta_t sqrt(2L))`` and
    ``Q_t = C1^2 sqrt(A)/(2 L eta_t^2 lambda_t^2)``, which collapse the
    denominator to ``2 C1 max sqrt(gap) + 4 C1^2 sqrt(A)``; ``C1`` and ``A``
    are read from ``constants``.  Both multipliers must be at least 1, so the
    trace is defined only for schedules meeting their guarantee conditions
    (checked at every seed's first and last step).  The conditional moments
    are exact, as for ``martingale_trace_smd``.
    """
    c1, a_const = constants["C1"], constants["A"]
    L = problem.smoothness
    sqrt_a = math.sqrt(a_const)
    for eta, lam in zip(tab.eta[:, [0, -1]].ravel().tolist(),
                        tab.lam[:, [0, -1]].ravel().tolist()):
        if c1 / (lam * eta * math.sqrt(2.0 * L)) < 1.0 - 1e-9:
            raise ValueError("trace undefined: P_t < 1 for this schedule")
        if c1 ** 2 * sqrt_a / (2.0 * L * eta ** 2 * lam ** 2) < 1.0 - 1e-9:
            raise ValueError("trace undefined: Q_t < 1 for this schedule")
    x, eta, lam = tab.x[:, :-1], tab.eta, tab.lam
    res = _moments(problem, noise_model, x, lam)
    g, theta_b, m2 = res.grad, res.cond_mean - res.grad, res.u_sq_mean
    gap = problem.gap_many(tab.x)
    runmax = np.maximum.accumulate(np.sqrt(np.maximum(gap[:, :-1], 0.0)), axis=1)
    bias_sq = coord_dot(theta_b, theta_b)
    z = 1.0 / (2.0 * c1 * runmax + 4.0 * c1 ** 2 * sqrt_a)
    z2, eta2 = np.float_power(z, 2), np.float_power(eta, 2)
    increments = z * (0.5 * eta * coord_dot(g, g) + gap[:, 1:] - gap[:, :-1]
                      - 1.5 * eta * bias_sq - L * eta2 * m2)
    increments -= (3.0 * z2 * L * eta2 * gap[:, :-1]
                   + 6.0 * L ** 2 * z2 * np.float_power(eta, 4) * np.float_power(lam, 2)) * m2
    return _traces("sgd", delta, z, increments, m2, np.sqrt(bias_sq))


def _moments(problem, noise_model, X, levels) -> ClippedMoments:
    """The ``clipped_moments`` at the (n, steps, d) points ``X``, each clipped at its entry
    of the (n, steps) ``levels``, as (n, steps, ...) fields: one call over every seed's
    points, whose bits do not depend on the points beside them."""
    n, steps, d = X.shape
    res = noise_model.clipped_moments(problem, X.reshape(-1, d), levels.reshape(-1))
    return ClippedMoments._make(f.reshape(n, steps, *f.shape[1:]) for f in res)


def _traces(algorithm, delta, z, increments, m2, bias) -> list:
    """One trace per seed's row of the (n, steps) arrays."""
    threshold = math.log(1.0 / delta)
    running = np.cumsum(increments, axis=1)
    crossed = np.max(running, axis=1) >= threshold
    return [MartingaleTrace(algorithm, threshold, *arrays, bool(c))
            for *arrays, c in zip(z, increments, running, m2, bias, crossed)]


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
