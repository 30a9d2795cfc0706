"""Clipped first-order optimization loops and their trajectory records.

Three loops: clipped mirror descent (average-gap metric), clipped
accelerated mirror descent (final-gap metric, three-sequence update), and
clipped gradient descent on l2 space (average squared gradient norm), plus
an unclipped baseline that may diverge under heavy-tailed noise.

Each algorithm has one loop over an (n, d) state whose rows are independent
seeds.  The state is seed-contiguous: it is stored Fortran-ordered, as the
transpose of a C-ordered (d, n) block, so each coordinate's n values lie
next to each other and every elementwise op, per-coordinate constant and
per-row factor runs as one inner loop over the seeds instead of one per
row.  Reductions over coordinates go through ``geometry.coord_sum`` (numpy's
pairwise order replayed with column adds) and ``geometry.coord_dot``, whose
bits do not depend on the layout.  The accelerated loop keeps y, z and the
query point in three buffers and writes each mirror step and mix into them
(``out=``); the record copies them every step.  Seed k's
noise sequence is drawn from its own stream, and step t reads it as the
(n, d) view ``noise.slab(t)`` of a draws object: the transpose of a
C-ordered (d, n) slab.  ``run_*_batch`` advances many seeds in lockstep
(used by the experiment harness) on ``noise.lockstep_draws``: a two-point
batch keeps only its spikes, a radial batch is presampled into one
time-major (steps, d, n) block.  ``run_*`` is the one-row case, on the
oracle's dense (steps, d, 1) block.  Both run through one helper, which can
record the run into a preallocated ``StepTable`` with a leading seed axis
(read by the diagnostics); a single run's table is its n = 1 case.
Same seed, same config give bitwise-identical trajectories in either form.
A row whose final iterate, summary or final gap is not finite is reported as
diverged, with infinite summary and gap; the overflow and invalid-value
warnings that such a row raises on the way are silenced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clipping import clip_batch
from .geometry import coord_dot
from .noise import DenseDraws, Oracle, check_noise_geometry, lockstep_draws
from .problems import Problem
from .schedules import ASMD_MODES, SGD_MODES, SMD_MODES, Schedule

DIVERGENCE_LIMIT = 1e12


@dataclass
class StepTable:
    """Columnar per-step record of n seeds run in lockstep, with their paths.

    The per-step columns have one entry per step t = 1..T: ``t``, ``eta``,
    ``lam`` and ``alpha`` are (T,), shared by every seed; ``clipped``,
    ``raw_norm`` and ``metric`` are (n, T); the paths are (n, T[+1], d).
    Seed k's ``x[k]`` holds x_1..x_{T+1}, so step t queried the oracle at
    ``x[k, t - 1]`` and moved to ``x[k, t]``.  The accelerated loop queries at
    (1 - alpha_t) y_t + alpha_t z_t: its ``x`` holds those T query points,
    and ``y``, ``z`` hold y_1..y_{T+1} and z_1..z_{T+1}.  ``grad_clipped`` is
    the gradient each step used (the unclipped one for the baseline, whose
    ``lam`` is infinite).
    """

    t: np.ndarray
    eta: np.ndarray
    lam: np.ndarray
    clipped: np.ndarray
    raw_norm: np.ndarray
    metric: np.ndarray
    x: np.ndarray
    grad_clipped: np.ndarray
    alpha: np.ndarray | None = None
    y: np.ndarray | None = None
    z: np.ndarray | None = None


@dataclass
class RunRecord:
    algorithm: str
    seed: int
    steps: int
    summary: float
    final_point: np.ndarray
    final_gap: float
    clipped_fraction: float
    diverged: bool
    table: StepTable | None = None


@dataclass
class BatchResult:
    """Per-seed summary arrays from a lockstep multi-seed run."""

    algorithm: str
    seeds: np.ndarray
    summary: np.ndarray
    final_gap: np.ndarray
    clipped_fraction: np.ndarray
    diverged: np.ndarray
    table: StepTable | None = None


def run_smd(problem: Problem, oracle: Oracle, schedule: Schedule, steps: int, x1,
            record: bool = True) -> RunRecord:
    """Clipped stochastic mirror descent from ``x1`` for ``steps`` iterations.

    The per-step metric is the value gap at the new iterate; the summary is
    the average of those gaps, matching the average-gap guarantee.
    """
    return _single("smd", _smd, problem, oracle, schedule, steps, x1, record)


def run_asmd(problem: Problem, oracle: Oracle, schedule: Schedule, steps: int, y1,
             record: bool = True) -> RunRecord:
    """Clipped accelerated stochastic mirror descent started at ``y1 = z1``.

    Requires an instance whose minimizer has zero gradient.  At t = 1 the
    momentum weight is 1, so the first query point coincides with the start.
    The summary is the final-iterate gap.
    """
    return _single("asmd", _asmd, problem, oracle, schedule, steps, y1, record)


def run_sgd(problem: Problem, oracle: Oracle, schedule: Schedule, steps: int, x1,
            record: bool = True) -> RunRecord:
    """Clipped gradient descent on unconstrained l2 space.

    The per-step metric is the squared gradient norm at the visited point;
    the summary is its average over the run (the stationarity guarantee).
    """
    return _single("sgd", _sgd, problem, oracle, schedule, steps, x1, record)


def run_vanilla_sgd(problem: Problem, oracle: Oracle, eta: float, steps: int, x1,
                    record: bool = True) -> RunRecord:
    """Unclipped baseline with a fixed step; terminates early on divergence.

    A run is flagged diverged once any coordinate exceeds 1e12 in magnitude
    (or goes non-finite); the final point is the last finite iterate and the
    summary is reported as infinity.
    """
    return _single("vanilla-sgd", _vanilla, problem, oracle, eta, steps, x1, record)


def run_smd_batch(problem: Problem, noise_model, schedule: Schedule, steps: int, x1,
                  seeds, record: bool = False) -> BatchResult:
    """All seeds advanced in lockstep; identical arithmetic to ``run_smd``."""
    return _batch("smd", _smd, problem, noise_model, schedule, steps, x1, seeds, record)


def run_asmd_batch(problem: Problem, noise_model, schedule: Schedule, steps: int, y1,
                   seeds, record: bool = False) -> BatchResult:
    return _batch("asmd", _asmd, problem, noise_model, schedule, steps, y1, seeds, record)


def run_sgd_batch(problem: Problem, noise_model, schedule: Schedule, steps: int, x1,
                  seeds, record: bool = False) -> BatchResult:
    return _batch("sgd", _sgd, problem, noise_model, schedule, steps, x1, seeds, record)


def run_vanilla_sgd_batch(problem: Problem, noise_model, eta: float, steps: int, x1,
                          seeds, record: bool = False) -> BatchResult:
    """Unclipped lockstep baseline; diverged rows freeze at their last finite iterate."""
    return _batch("vanilla-sgd", _vanilla, problem, noise_model, eta, steps, x1, seeds, record)


def _single(algorithm, loop, problem, oracle, param, steps, x1, record) -> RunRecord:
    """The one-seed run fed by the oracle's dense noise block, as that seed's record."""
    noise = DenseDraws(oracle.noise_matrix(steps)[:, :, None])
    res, X, done = _run(algorithm, loop, problem, param, steps, x1, [oracle.seed], noise, record)
    return RunRecord(algorithm, oracle.seed, done, float(res.summary[0]), X[0],
                     float(res.final_gap[0]), float(res.clipped_fraction[0]),
                     bool(res.diverged[0]), res.table)


def _batch(algorithm, loop, problem, noise_model, param, steps, x1, seeds, record) -> BatchResult:
    """Seed k's noise drawn from ``make_rng(seeds[k])`` (``noise.lockstep_draws``)."""
    seeds = np.asarray(list(seeds), dtype=int)
    check_noise_geometry(problem, noise_model)
    noise = lockstep_draws(noise_model, problem.dim, steps, seeds)
    return _run(algorithm, loop, problem, param, steps, x1, seeds, noise, record)[0]


def _run(algorithm, loop, problem, param, steps, x1, seeds, noise, record):
    """The seeds' results (a row with a non-finite final iterate, summary or gap is
    flagged diverged), their final rows and the number of steps run."""
    tab = _step_table(steps, noise.n, x1, algorithm == "asmd") if record else None
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are flagged diverged
        summary, final_gap, clipped, X, done = loop(problem, param, steps, x1, noise, tab)
    if tab is not None and done < steps:  # the baseline stops once every row has diverged
        tab = StepTable(tab.t[:done], tab.eta[:done], tab.lam[:done], tab.clipped[:, :done],
                        tab.raw_norm[:, :done], tab.metric[:, :done], tab.x[:, :done + 1],
                        tab.grad_clipped[:, :done])
    diverged = ~(np.isfinite(summary) & np.isfinite(final_gap) & np.all(np.isfinite(X), axis=1))
    res = BatchResult(algorithm, np.asarray(seeds), np.where(diverged, np.inf, summary),
                      np.where(diverged, np.inf, final_gap), clipped / steps, diverged, tab)
    return res, X, done


def _step_table(steps: int, n: int, x1, accelerated: bool) -> StepTable:
    """An unfilled record of n seeds over ``steps`` steps; each path holds ``x1`` until written."""
    x1 = np.asarray(x1, dtype=float)
    rows, points, path_reps = (n, steps), (n, steps, x1.size), (n, steps + 1, 1)
    tab = StepTable(np.arange(1, steps + 1), np.empty(steps), np.empty(steps),
                    np.empty(rows, dtype=bool), np.empty(rows), np.empty(rows),
                    np.tile(x1, path_reps), np.empty(points))
    if accelerated:  # x holds the query points, y and z the paths
        tab.alpha, tab.x, tab.y, tab.z = (np.empty(steps), np.empty(points), tab.x,
                                          np.tile(x1, path_reps))
    return tab


def _log(tab: StepTable, t: int, eta, lam, norms, metric, grad):
    """Step t's columns: the shared schedule values and every seed's clip, metric and gradient."""
    tab.eta[t - 1], tab.lam[t - 1] = eta, lam
    tab.clipped[:, t - 1] = norms > lam
    tab.raw_norm[:, t - 1], tab.metric[:, t - 1], tab.grad_clipped[:, t - 1] = norms, metric, grad


def _start(problem: Problem, x1, n: int) -> np.ndarray:
    """n copies of ``x1`` as seed-contiguous rows: the transpose of a C-ordered (d, n) block."""
    x1 = np.asarray(x1, dtype=float)
    if not problem.geometry.contains(x1):
        raise ValueError("initial point outside the domain")
    return np.repeat(x1[:, None], n, axis=1).T


def _prepare_schedule(schedule: Schedule, modes, needs: str, n: int):
    if schedule.mode not in modes:
        raise ValueError(f"{needs}, got {schedule.mode!r}")
    if schedule.stateful and n != 1:
        raise ValueError("batch runners support stateless schedules only; "
                         "run the trajectory-dependent mode per seed")
    schedule.reset()


# -- the loops: noise is a draws object whose slab(t) is step t's (n, d) noise,
# the transpose of a C-ordered (d, n) block, so the state stays seed-contiguous;
# a step table, if given, gets every row of each step; each returns (summary,
# final_gap, clip counts, final rows, steps run) --


def _smd(problem, schedule, steps, x1, noise, tab):
    n = noise.n
    _prepare_schedule(schedule, SMD_MODES, "smd needs a mirror-descent schedule", n)
    geom = problem.geometry
    X = _start(problem, x1, n)
    gap_sum = np.zeros(n)
    clipped = np.zeros(n)
    gaps = problem.gap_many(X)
    for t in range(1, steps + 1):
        schedule.observe(t, X[0])
        eta, lam = schedule.pair(t)
        G = problem.grad_many(X) + noise.slab(t)
        norms = geom.dual_norm_many(G)
        Gc = clip_batch(G, lam, norms)
        X = geom.mirror_step_many(X, Gc, eta)
        gaps = problem.gap_many(X)
        gap_sum += gaps
        clipped += norms > lam
        if tab is not None:
            _log(tab, t, eta, lam, norms, gaps, Gc)
            tab.x[:, t] = X
    return gap_sum / steps, gaps, clipped, X, steps


def _asmd(problem, schedule, steps, y1, noise, tab):
    n = noise.n
    _prepare_schedule(schedule, ASMD_MODES, "asmd needs an accelerated schedule", n)
    geom = problem.geometry
    Y = _start(problem, y1, n)
    Z, Xq = Y.copy(order="K"), np.empty_like(Y)  # three buffers, updated in place
    clipped = np.zeros(n)
    for t in range(1, steps + 1):
        alpha = schedule.alpha(t)
        eta, lam = schedule.pair(t)
        geom.mix_many(Y, Z, alpha, out=Xq)
        G = problem.grad_many(Xq) + noise.slab(t)
        norms = geom.dual_norm_many(G)
        Gc = clip_batch(G, lam, norms)
        geom.mirror_step_many(Z, Gc, eta, out=Z)
        geom.mix_many(Y, Z, alpha, out=Y)
        clipped += norms > lam
        if tab is not None:
            _log(tab, t, eta, lam, norms, problem.gap_many(Y), Gc)
            tab.alpha[t - 1], tab.x[:, t - 1], tab.y[:, t], tab.z[:, t] = alpha, Xq, Y, Z
    gaps = problem.gap_many(Y)
    return gaps, gaps, clipped, Y, steps


def _sgd(problem, schedule, steps, x1, noise, tab):
    n = noise.n
    _prepare_schedule(schedule, SGD_MODES, "sgd needs a gradient-descent schedule", n)
    if problem.geometry.kind != "euclidean":
        raise ValueError("clipped gradient descent runs on unconstrained l2 geometry")
    geom = problem.geometry
    X = _start(problem, x1, n)
    metric_sum = np.zeros(n)
    clipped = np.zeros(n)
    for t in range(1, steps + 1):
        eta, lam = schedule.pair(t)
        Gt = problem.grad_many(X)
        metric = coord_dot(Gt, Gt)
        metric_sum += metric
        G = Gt + noise.slab(t)
        norms = geom.dual_norm_many(G)
        Gc = clip_batch(G, lam, norms)
        X = X - eta * Gc
        clipped += norms > lam
        if tab is not None:
            _log(tab, t, eta, lam, norms, metric, Gc)
            tab.x[:, t] = X
    return metric_sum / steps, problem.gap_many(X), clipped, X, steps


def _vanilla(problem, eta, steps, x1, noise, tab):
    n = noise.n
    if problem.geometry.kind != "euclidean":
        raise ValueError("the baseline runs on unconstrained l2 geometry")
    X = _start(problem, x1, n)
    metric_sum = np.zeros(n)
    active = np.ones(n, dtype=bool)
    for t in range(1, steps + 1):
        Gt = problem.grad_many(X)
        metric = coord_dot(Gt, Gt)
        metric_sum += np.where(active, metric, 0.0)
        G = Gt + noise.slab(t)
        X_new = X - eta * G
        active &= np.all(np.abs(X_new) <= DIVERGENCE_LIMIT, axis=1)  # NaN rows freeze too
        X = np.where(active[:, None], X_new, X)
        if tab is not None:
            _log(tab, t, eta, np.inf, problem.geometry.dual_norm_many(G), metric, G)
            tab.x[:, t] = X
        if not active.any():
            break
    summary = np.where(active, metric_sum / steps, np.inf)
    final_gap = np.where(active, problem.gap_many(X), np.inf)
    return summary, final_gap, np.zeros(n), X, t
