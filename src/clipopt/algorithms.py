"""Clipped first-order optimization loops and their trajectory records.

Three loops: clipped mirror descent (average-gap metric), clipped
accelerated mirror descent (final-gap metric, three-sequence update), and
clipped gradient descent on l2 space (average squared gradient norm), plus
an unclipped baseline that may diverge under heavy-tailed noise.

Each algorithm has one loop over an (n, d) state whose rows are independent
seeds, each consuming its own presampled noise block.  ``run_*_batch``
advances many seeds in lockstep (used by the experiment harness); ``run_*``
is the one-row case, which adds a per-step table and per-step observers
(used by the diagnostics).  Same seed, same config give bitwise-identical
trajectories in either form.  A row whose final iterate, summary or final
gap is not finite is reported as diverged, with infinite summary and gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clipping import clip_batch
from .noise import Oracle
from .problems import Problem
from .schedules import ASMD_MODES, SGD_MODES, SMD_MODES, Schedule

DIVERGENCE_LIMIT = 1e12


@dataclass
class StepInfo:
    """Per-step context handed to observers of single runs; arrays are row-0 views."""

    t: int
    eta: float
    lam: float
    x: np.ndarray                 # point the oracle was queried at
    grad_hat: np.ndarray
    grad_clipped: np.ndarray
    x_next: np.ndarray | None = None
    alpha: float | None = None    # accelerated loop extras
    y: np.ndarray | None = None
    z: np.ndarray | None = None
    y_next: np.ndarray | None = None
    z_next: np.ndarray | None = None


@dataclass
class StepTable:
    """Columnar per-iteration log: one row per step."""

    t: np.ndarray
    eta: np.ndarray
    lam: np.ndarray
    clipped: np.ndarray
    raw_norm: np.ndarray
    metric: np.ndarray


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


def run_smd(problem: Problem, oracle: Oracle, schedule: Schedule, steps: int, x1,
            observer=None, record: bool = True) -> RunRecord:
    """Clipped stochastic mirror descent from ``x1`` for ``steps`` iterations.

    The per-step metric is the value gap at the new iterate; the summary is
    the average of those gaps, matching the average-gap guarantee.
    """
    return _single("smd", _smd, problem, oracle, schedule, steps, x1, observer, record)


def run_asmd(problem: Problem, oracle: Oracle, schedule: Schedule, steps: int, y1,
             observer=None, record: bool = True) -> RunRecord:
    """Clipped accelerated stochastic mirror descent started at ``y1 = z1``.

    Requires an instance whose minimizer has zero gradient.  At t = 1 the
    momentum weight is 1, so the first query point coincides with the start.
    The summary is the final-iterate gap.
    """
    return _single("asmd", _asmd, problem, oracle, schedule, steps, y1, observer, record)


def run_sgd(problem: Problem, oracle: Oracle, schedule: Schedule, steps: int, x1,
            observer=None, record: bool = True) -> RunRecord:
    """Clipped gradient descent on unconstrained l2 space.

    The per-step metric is the squared gradient norm at the visited point;
    the summary is its average over the run (the stationarity guarantee).
    """
    return _single("sgd", _sgd, problem, oracle, schedule, steps, x1, observer, record)


def run_vanilla_sgd(problem: Problem, oracle: Oracle, eta: float, steps: int, x1,
                    record: bool = True) -> RunRecord:
    """Unclipped baseline with a fixed step; terminates early on divergence.

    A run is flagged diverged once any coordinate exceeds 1e12 in magnitude
    (or goes non-finite); the final point is the last finite iterate and the
    summary is reported as infinity.
    """
    return _single("vanilla-sgd", _vanilla, problem, oracle, eta, steps, x1, None, record)


def run_smd_batch(problem: Problem, noise_model, schedule: Schedule, steps: int, x1,
                  seeds) -> BatchResult:
    """All seeds advanced in lockstep; identical arithmetic to ``run_smd``."""
    return _batch("smd", _smd, problem, noise_model, schedule, steps, x1, seeds)


def run_asmd_batch(problem: Problem, noise_model, schedule: Schedule, steps: int, y1,
                   seeds) -> BatchResult:
    return _batch("asmd", _asmd, problem, noise_model, schedule, steps, y1, seeds)


def run_sgd_batch(problem: Problem, noise_model, schedule: Schedule, steps: int, x1,
                  seeds) -> BatchResult:
    return _batch("sgd", _sgd, problem, noise_model, schedule, steps, x1, seeds)


def run_vanilla_sgd_batch(problem: Problem, noise_model, eta: float, steps: int, x1,
                          seeds) -> BatchResult:
    """Unclipped lockstep baseline; diverged rows freeze at their last finite iterate."""
    return _batch("vanilla-sgd", _vanilla, problem, noise_model, eta, steps, x1, seeds)


def _single(algorithm, loop, problem, oracle, param, steps, x1, observer, record) -> RunRecord:
    """One row fed by the oracle's noise block; the table and observers see row 0."""
    log = [] if record else None
    summary, final_gap, clipped, X, done = loop(
        problem, param, steps, x1, oracle.noise_matrix(steps)[None], observer, log)
    res = _result(algorithm, np.array([oracle.seed]), steps, summary, final_gap, clipped, X)
    return RunRecord(
        algorithm=algorithm, seed=oracle.seed, steps=done, summary=float(res.summary[0]),
        final_point=X[0], final_gap=float(res.final_gap[0]),
        clipped_fraction=float(res.clipped_fraction[0]), diverged=bool(res.diverged[0]),
        table=StepTable(*map(np.array, zip(*log))) if record else None,
    )


def _batch(algorithm, loop, problem, noise_model, param, steps, x1, seeds) -> BatchResult:
    """Per-seed presampled noise blocks, stacked to (n_seeds, steps, dim), as the rows."""
    seeds = np.asarray(list(seeds), dtype=int)
    noise = np.stack([Oracle(problem, noise_model, seed=int(s)).noise_matrix(steps)
                      for s in seeds], axis=0)
    return _result(algorithm, seeds, steps, *loop(problem, param, steps, x1, noise, None, None)[:4])


def _result(algorithm, seeds, steps, summary, final_gap, clipped, X) -> BatchResult:
    """Rows with a non-finite final iterate, summary or gap are flagged diverged."""
    diverged = ~(np.isfinite(summary) & np.isfinite(final_gap) & np.all(np.isfinite(X), axis=1))
    return BatchResult(algorithm, seeds, np.where(diverged, np.inf, summary),
                       np.where(diverged, np.inf, final_gap), clipped / steps, diverged)


def _start(problem: Problem, x1, n: int) -> np.ndarray:
    x1 = np.asarray(x1, dtype=float)
    if not problem.geometry.contains(x1):
        raise ValueError("initial point outside the domain")
    return np.tile(x1, (n, 1))


def _prepare_schedule(schedule: Schedule, modes, needs: str, n: int):
    if schedule.mode not in modes:
        raise ValueError(f"{needs}, got {schedule.mode!r}")
    if schedule.stateful and n != 1:
        raise ValueError("batch runners support stateless schedules only; "
                         "run the trajectory-dependent mode per seed")
    schedule.reset()


# -- the loops: each returns (summary, final_gap, clip counts, final rows, steps run) --


def _smd(problem, schedule, steps, x1, noise, observer, log):
    _prepare_schedule(schedule, SMD_MODES, "smd needs a mirror-descent schedule", len(noise))
    geom = problem.geometry
    X = _start(problem, x1, len(noise))
    gap_sum = np.zeros(len(noise))
    clipped = np.zeros(len(noise))
    gaps = problem.gap_many(X)
    for t in range(1, steps + 1):
        schedule.observe(t, X[0])
        eta, lam = schedule.pair(t)
        G = problem.grad_many(X) + noise[:, t - 1, :]
        norms = geom.dual_norm_many(G)
        Gc = clip_batch(G, lam, norms)
        X_next = geom.mirror_step_many(X, Gc, eta)
        gaps = problem.gap_many(X_next)
        gap_sum += gaps
        clipped += norms > lam
        if log is not None:
            log.append((t, eta, lam, norms[0] > lam, norms[0], gaps[0]))
        if observer is not None:
            observer(StepInfo(t=t, eta=eta, lam=lam, x=X[0], grad_hat=G[0],
                              grad_clipped=Gc[0], x_next=X_next[0]))
        X = X_next
    return gap_sum / steps, gaps, clipped, X, steps


def _asmd(problem, schedule, steps, y1, noise, observer, log):
    _prepare_schedule(schedule, ASMD_MODES, "asmd needs an accelerated schedule", len(noise))
    geom = problem.geometry
    Y = Z = _start(problem, y1, len(noise))
    clipped = np.zeros(len(noise))
    gaps = problem.gap_many(Y)
    for t in range(1, steps + 1):
        alpha = schedule.alpha(t)
        eta, lam = schedule.pair(t)
        Xq = (1.0 - alpha) * Y + alpha * Z
        G = problem.grad_many(Xq) + noise[:, t - 1, :]
        norms = geom.dual_norm_many(G)
        Gc = clip_batch(G, lam, norms)
        Z_next = geom.mirror_step_many(Z, Gc, eta)
        Y_next = (1.0 - alpha) * Y + alpha * Z_next
        gaps = problem.gap_many(Y_next)
        clipped += norms > lam
        if log is not None:
            log.append((t, eta, lam, norms[0] > lam, norms[0], gaps[0]))
        if observer is not None:
            observer(StepInfo(t=t, eta=eta, lam=lam, x=Xq[0], grad_hat=G[0],
                              grad_clipped=Gc[0], alpha=alpha, y=Y[0], z=Z[0],
                              y_next=Y_next[0], z_next=Z_next[0]))
        Y, Z = Y_next, Z_next
    return gaps, gaps, clipped, Y, steps


def _sgd(problem, schedule, steps, x1, noise, observer, log):
    _prepare_schedule(schedule, SGD_MODES, "sgd needs a gradient-descent schedule", len(noise))
    if problem.geometry.kind != "euclidean":
        raise ValueError("clipped gradient descent runs on unconstrained l2 geometry")
    geom = problem.geometry
    X = _start(problem, x1, len(noise))
    metric_sum = np.zeros(len(noise))
    clipped = np.zeros(len(noise))
    for t in range(1, steps + 1):
        eta, lam = schedule.pair(t)
        Gt = problem.grad_many(X)
        metric = np.einsum("ij,ij->i", Gt, Gt)
        metric_sum += metric
        G = Gt + noise[:, t - 1, :]
        norms = geom.dual_norm_many(G)
        Gc = clip_batch(G, lam, norms)
        X_next = X - eta * Gc
        clipped += norms > lam
        if log is not None:
            log.append((t, eta, lam, norms[0] > lam, norms[0], metric[0]))
        if observer is not None:
            observer(StepInfo(t=t, eta=eta, lam=lam, x=X[0], grad_hat=G[0],
                              grad_clipped=Gc[0], x_next=X_next[0]))
        X = X_next
    return metric_sum / steps, problem.gap_many(X), clipped, X, steps


def _vanilla(problem, eta, steps, x1, noise, observer, log):
    if problem.geometry.kind != "euclidean":
        raise ValueError("the baseline runs on unconstrained l2 geometry")
    X = _start(problem, x1, len(noise))
    metric_sum = np.zeros(len(noise))
    active = np.ones(len(noise), dtype=bool)
    for t in range(1, steps + 1):
        Gt = problem.grad_many(X)
        metric = np.einsum("ij,ij->i", Gt, Gt)
        metric_sum += np.where(active, metric, 0.0)
        G = Gt + noise[:, t - 1, :]
        X_new = X - eta * G
        if log is not None:
            log.append((t, eta, np.inf, False, problem.geometry.dual_norm_many(G)[0], metric[0]))
        with np.errstate(invalid="ignore"):  # NaN rows compare false and freeze
            active &= np.all(np.abs(X_new) <= DIVERGENCE_LIMIT, axis=1)
        X = np.where(active[:, None], X_new, X)
        if not active.any():
            break
    summary = np.where(active, metric_sum / steps, np.inf)
    final_gap = np.where(active, problem.gap_many(X), np.inf)
    return summary, final_gap, np.zeros(len(noise)), X, t
