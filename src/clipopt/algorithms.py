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
row.  Reductions over coordinates go through ``geometry.coord_sum`` and
``geometry.coord_dot``, whose bits do not depend on the layout.  Seed k's
noise sequence is drawn from its own stream, and step t reads it as the
(n, d) view ``noise.slab(t)`` of a draws object: the transpose of a
C-ordered (d, n) slab.  A two-point batch keeps only its spikes
(``SpikeDraws``, expanded a cache-sized window of steps at a time); a
radial batch is presampled into one time-major (steps, d, n) block, an
anonymous mapping of its own (``_zero_block``), with seed k's draw in
``[:, :, k]`` (``DenseDraws``).  ``run_*_batch`` advances many seeds in
lockstep (used by the experiment harness); ``run_*`` is the one-row case,
a dense (steps, d, 1) block, which can also record a per-step table of the
row's path (read by the diagnostics).
Same seed, same config give bitwise-identical trajectories in either form.
A row whose final iterate, summary or final gap is not finite is reported as
diverged, with infinite summary and gap; the overflow and invalid-value
warnings that such a row raises on the way are silenced.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .clipping import clip_batch
from .geometry import coord_dot
from .noise import (DenseDraws, Oracle, SpikeDraws, TwoPointNoise, check_noise_geometry,
                    make_rng)
from .problems import Problem
from .schedules import ASMD_MODES, SGD_MODES, SMD_MODES, Schedule

DIVERGENCE_LIMIT = 1e12


@dataclass
class StepTable:
    """Columnar per-step log of a single run, with its path.

    The per-step columns have one entry per step t = 1..T.  ``x`` holds
    x_1..x_{T+1}, so step t queried the oracle at ``x[t - 1]`` and moved to
    ``x[t]``.  The accelerated loop queries at (1 - alpha_t) y_t + alpha_t z_t:
    its ``x`` holds those T query points, and ``y``, ``z`` hold y_1..y_{T+1}
    and z_1..z_{T+1}.  ``grad_clipped`` is the gradient each step used (the
    unclipped one for the baseline).
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


def _single(algorithm, loop, problem, oracle, param, steps, x1, record) -> RunRecord:
    """One row fed by the oracle's dense noise block; the table records row 0."""
    log = [] if record else None
    noise = DenseDraws(oracle.noise_matrix(steps)[:, :, None])
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are flagged diverged
        summary, final_gap, clipped, X, done = loop(problem, param, steps, x1, noise, log)
    res = _result(algorithm, np.array([oracle.seed]), steps, summary, final_gap, clipped, X)
    return RunRecord(
        algorithm=algorithm, seed=oracle.seed, steps=done, summary=float(res.summary[0]),
        final_point=X[0], final_gap=float(res.final_gap[0]),
        clipped_fraction=float(res.clipped_fraction[0]), diverged=bool(res.diverged[0]),
        table=_table(log, x1) if record else None,
    )


def _table(log, x1) -> StepTable:
    """Columns of the per-step log; each path gets the start point prepended."""
    t, eta, lam, clipped, norm, metric, grad, x_next, *accel = map(np.array, zip(*log))
    start = np.asarray(x1, dtype=float)[None, :]
    if not accel:
        return StepTable(t, eta, lam, clipped, norm, metric, np.vstack([start, x_next]), grad)
    alpha, query, z_next = accel  # the accelerated loop logs y_{t+1} as its x_next
    return StepTable(t, eta, lam, clipped, norm, metric, query, grad, alpha,
                     np.vstack([start, x_next]), np.vstack([start, z_next]))


def _batch(algorithm, loop, problem, noise_model, param, steps, x1, seeds) -> BatchResult:
    """Seed k's noise drawn from ``make_rng(seed)``: two-point noise kept as its spikes,
    radial noise into ``[:, :, k]`` of one zero-filled (steps, dim, n_seeds) block."""
    seeds = np.asarray(list(seeds), dtype=int)
    check_noise_geometry(problem, noise_model)
    rngs = (make_rng(int(seed)) for seed in seeds)
    if isinstance(noise_model, TwoPointNoise):
        noise = SpikeDraws(noise_model, problem.dim, steps, rngs)
    else:
        block = _zero_block((steps, problem.dim, seeds.size))
        for k, rng in enumerate(rngs):
            noise_model.sample_batch(problem.dim, steps, rng, out=block[:, :, k])
        noise = DenseDraws(block)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are flagged diverged
        out = loop(problem, param, steps, x1, noise, None)
    return _result(algorithm, seeds, steps, *out[:4])


def _zero_block(shape) -> np.ndarray:
    """A zero-filled float block on fresh pages of its own, unmapped when the array goes.

    ``np.zeros`` puts a block below malloc's mmap threshold (which glibc raises
    to the size of the last block freed, up to 32 MiB) on the heap.  Whether it
    then reuses the resident pages of the previous batch's block or grows the
    heap depends on what small allocations landed in between, so the peak
    resident size of a run of batches could differ by a whole block from one
    process to the next.  A private anonymous mapping holds only the block and
    goes back to the system with it; like numpy for its own large blocks, it
    asks for huge pages where the platform has them, without which the page
    faults of a large block cost about twice as much.
    """
    nbytes = 8 * int(np.prod(shape))
    if nbytes == 0:
        return np.zeros(shape)
    pages = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        pages.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(pages, dtype=float).reshape(shape)


def _result(algorithm, seeds, steps, summary, final_gap, clipped, X) -> BatchResult:
    """Rows with a non-finite final iterate, summary or gap are flagged diverged."""
    diverged = ~(np.isfinite(summary) & np.isfinite(final_gap) & np.all(np.isfinite(X), axis=1))
    return BatchResult(algorithm, seeds, np.where(diverged, np.inf, summary),
                       np.where(diverged, np.inf, final_gap), clipped / steps, diverged)


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
# a log, if given, gets row 0 of each step; each returns (summary, final_gap,
# clip counts, final rows, steps run) --


def _smd(problem, schedule, steps, x1, noise, log):
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
        if log is not None:
            log.append((t, eta, lam, norms[0] > lam, norms[0], gaps[0], Gc[0], X[0]))
    return gap_sum / steps, gaps, clipped, X, steps


def _asmd(problem, schedule, steps, y1, noise, log):
    n = noise.n
    _prepare_schedule(schedule, ASMD_MODES, "asmd needs an accelerated schedule", n)
    geom = problem.geometry
    Y = Z = _start(problem, y1, n)
    clipped = np.zeros(n)
    for t in range(1, steps + 1):
        alpha = schedule.alpha(t)
        eta, lam = schedule.pair(t)
        Xq = (1.0 - alpha) * Y + alpha * Z
        G = problem.grad_many(Xq) + noise.slab(t)
        norms = geom.dual_norm_many(G)
        Gc = clip_batch(G, lam, norms)
        Z = geom.mirror_step_many(Z, Gc, eta)
        Y = (1.0 - alpha) * Y + alpha * Z
        clipped += norms > lam
        if log is not None:
            log.append((t, eta, lam, norms[0] > lam, norms[0], problem.gap_many(Y)[0], Gc[0],
                        Y[0], alpha, Xq[0], Z[0]))
    gaps = problem.gap_many(Y)
    return gaps, gaps, clipped, Y, steps


def _sgd(problem, schedule, steps, x1, noise, log):
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
        if log is not None:
            log.append((t, eta, lam, norms[0] > lam, norms[0], metric[0], Gc[0], X[0]))
    return metric_sum / steps, problem.gap_many(X), clipped, X, steps


def _vanilla(problem, eta, steps, x1, noise, log):
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
        if log is not None:
            log.append((t, eta, np.inf, False, problem.geometry.dual_norm_many(G)[0],
                        metric[0], G[0], X[0]))
        if not active.any():
            break
    summary = np.where(active, metric_sum / steps, np.inf)
    final_gap = np.where(active, problem.gap_many(X), np.inf)
    return summary, final_gap, np.zeros(n), X, t
