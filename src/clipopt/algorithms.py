"""Clipped first-order optimization loops and their trajectory records.

Two loops: mirror descent, and accelerated mirror descent (final-gap
metric, three-sequence update).  The mirror-descent loop runs clipped SMD
(average-gap metric), clipped gradient descent on l2 space (average squared
gradient norm), whose l2 mirror step is x - eta * G, and the unclipped
baseline, which is that l2 step at the level lambda_t = +inf and may diverge
under heavy-tailed noise; they differ only in the levels and the per-window
metric they pass it.

Each algorithm has one loop over an (n, d) state whose rows are independent
seeds.  The state is seed-contiguous: it is stored Fortran-ordered, as the
transpose of a C-ordered (d, n) block, so each coordinate's n values lie
next to each other and every elementwise op between such arrays, or with a
per-row factor, runs as one inner loop over the seeds instead of one per
row (the problems lay their per-coordinate constants out the same way).
Reductions over coordinates go through ``geometry.coord_sum`` (numpy's
pairwise order replayed with column adds) and ``geometry.coord_dot``, whose
bits do not depend on the layout.  Seed k's noise sequence is drawn from its
own stream, and step t reads it as the (n, d) view ``noise.slab(t)`` of a
draws object: the transpose of a C-ordered (d, n) slab.

A step does only the work the next iterate depends on, in buffers the loop
makes before its first step, so no step allocates an (n, d) result.  Its
step size, level and momentum weight are Python floats, read from the
schedule's table (``Schedule.table``, made once before the loop) one window
at a time.  The parameter-free mode's are per row instead: the loop keeps
each row's largest displacement ``||x_t - x_1||`` so far (``norm_many``),
and each step takes the schedule's (n,) levels and steps at it.  Each (n, d)
array a step makes goes into that step's slot of a seed-contiguous window
buffer, whether or not the run is recorded: the gradient
(``grad_many(X, out=...)``), the gradient plus noise, the new iterate (the
accelerated loop's query point, y and z each have a window).  Its dual norms
go into a row of the window's norms (``dual_norm_many(G, out=...)``) and,
only when some row's norm is over the level (or NaN), the clip over the
noisy gradient and the count of the rows it clipped; eta * G (and the
accelerated mixes' alpha * z) go into one scratch array.  Everything else is
done once per window of K steps (``noise.window_steps``, the spike window's
byte rule): the metrics over the window's iterates or gradients and the
running sums, added in time order (``_running_sum``).  A recorded run is one
window of all its steps, and its step table is built from the window buffers
when the loop ends.  Window sizes do not change a bit.

``run_*_batch`` advances many seeds in lockstep (used by the experiment
harness and ``diagnose``); ``run_*`` is the one-seed batch on its oracle's
generator.  Both draw their noise through ``noise.lockstep_draws``, the one
place that knows its layout, and run through one helper, which can record
the run as a ``StepTable`` with a leading seed axis (read by the
diagnostics); a single run's table is its n = 1 case.  Same seed, same
config give bitwise-identical trajectories in either form.  A row whose
final iterate, summary or final gap is not finite is reported as diverged,
with infinite summary and gap; the overflow and invalid-value warnings that
such a row raises on the way are silenced.  The baseline's metric is +inf at a
step whose new iterate has a coordinate beyond ``DIVERGENCE_LIMIT`` in
magnitude (or a NaN), so a row that escapes is flagged even if it comes back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clipping import clip_batch
from .geometry import coord_dot
from .noise import Oracle, check_noise_geometry, lockstep_draws, make_rng, window_steps
from .problems import Problem
from .schedules import ASMD_MODES, SGD_MODES, SMD_MODES, Schedule, ScheduleTable

DIVERGENCE_LIMIT = 1e12


@dataclass
class StepTable:
    """Columnar per-step record of n seeds run in lockstep, with their paths.

    The per-step columns have one entry per step t = 1..T: ``t`` and ``alpha``
    are (T,), shared by every seed; ``eta``, ``lam``, ``clipped`` and ``metric``
    are (n, T); the paths are (n, T[+1], d).
    Seed k's ``x[k]`` holds x_1..x_{T+1}, so step t queried the oracle at
    ``x[k, t - 1]`` and moved to ``x[k, t]``.  The accelerated loop queries at
    (1 - alpha_t) y_t + alpha_t z_t: its ``x`` holds those T query points,
    and ``y``, ``z`` hold y_1..y_{T+1} and z_1..z_{T+1}.  ``grad_clipped`` is
    the gradient each step used (the unclipped one for the baseline, whose
    ``lam`` is infinite).

    A recorded run is one window of all its steps, so some fields are
    transposed views of its window buffers: ``grad_clipped``, the accelerated
    query points ``x``, mirror descent's ``metric`` and the parameter-free
    mode's ``eta`` and ``lam``.  ``alpha`` is the schedule table's.
    """

    t: np.ndarray
    eta: np.ndarray
    lam: np.ndarray
    clipped: np.ndarray
    metric: np.ndarray
    x: np.ndarray
    grad_clipped: np.ndarray
    alpha: np.ndarray | None = None
    y: np.ndarray | None = None
    z: np.ndarray | None = None


@dataclass
class RunRecord:
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
    return _single(_smd, problem, oracle, schedule, steps, x1, record)


def run_asmd(problem: Problem, oracle: Oracle, schedule: Schedule, steps: int, y1,
             record: bool = True) -> RunRecord:
    """Clipped accelerated stochastic mirror descent started at ``y1 = z1``.

    Requires an instance whose minimizer has zero gradient.  At t = 1 the
    momentum weight is 1, so the first query point coincides with the start.
    The summary is the final-iterate gap.
    """
    return _single(_asmd, problem, oracle, schedule, steps, y1, record)


def run_sgd(problem: Problem, oracle: Oracle, schedule: Schedule, steps: int, x1,
            record: bool = True) -> RunRecord:
    """Clipped gradient descent on unconstrained l2 space.

    The per-step metric is the squared gradient norm at the visited point;
    the summary is its average over the run (the stationarity guarantee).
    """
    return _single(_sgd, problem, oracle, schedule, steps, x1, record)


def run_vanilla_sgd(problem: Problem, oracle: Oracle, eta: float, steps: int, x1,
                    record: bool = True) -> RunRecord:
    """Unclipped baseline with a fixed step: clipped gradient descent at an infinite level.

    A run is flagged diverged, with infinite summary and final gap, if any
    iterate has a coordinate beyond 1e12 in magnitude (or a NaN); it still runs
    all ``steps``, and its final point and record hold its actual iterates.
    """
    return _single(_vanilla, problem, oracle, eta, steps, x1, record)


def run_smd_batch(problem: Problem, noise_model, schedule: Schedule, steps: int, x1,
                  seeds, record: bool = False) -> BatchResult:
    """All seeds advanced in lockstep; identical arithmetic to ``run_smd``."""
    return _batch(_smd, problem, noise_model, schedule, steps, x1, seeds, record)


def run_asmd_batch(problem: Problem, noise_model, schedule: Schedule, steps: int, y1,
                   seeds, record: bool = False) -> BatchResult:
    return _batch(_asmd, problem, noise_model, schedule, steps, y1, seeds, record)


def run_sgd_batch(problem: Problem, noise_model, schedule: Schedule, steps: int, x1,
                  seeds, record: bool = False) -> BatchResult:
    return _batch(_sgd, problem, noise_model, schedule, steps, x1, seeds, record)


def run_vanilla_sgd_batch(problem: Problem, noise_model, eta: float, steps: int, x1,
                          seeds, record: bool = False) -> BatchResult:
    """Unclipped lockstep baseline; identical arithmetic to ``run_vanilla_sgd``."""
    return _batch(_vanilla, problem, noise_model, eta, steps, x1, seeds, record)


def _single(loop, problem, oracle, param, steps, x1, record) -> RunRecord:
    """The one-seed batch on the oracle's generator, as that seed's record."""
    noise = lockstep_draws(oracle.noise, problem.dim, steps, [oracle.rng], 1)
    res, X = _run(loop, problem, param, steps, x1, [oracle.seed], noise, record)
    return RunRecord(steps, float(res.summary[0]), X[0], float(res.final_gap[0]),
                     float(res.clipped_fraction[0]), bool(res.diverged[0]), res.table)


def _batch(loop, problem, noise_model, param, steps, x1, seeds, record) -> BatchResult:
    """Seed k's noise drawn from ``make_rng(seeds[k])`` (``noise.lockstep_draws``)."""
    seeds = np.asarray(list(seeds), dtype=int)
    check_noise_geometry(problem, noise_model)
    noise = lockstep_draws(noise_model, problem.dim, steps,
                           (make_rng(int(s)) for s in seeds), len(seeds))
    return _run(loop, problem, param, steps, x1, seeds, noise, record)[0]


def _run(loop, problem, param, steps, x1, seeds, noise, record):
    """The seeds' results (a row with a non-finite final iterate, summary or gap is
    flagged diverged) and their final rows."""
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are flagged diverged
        summary, final_gap, clipped, X, tab = loop(problem, param, steps, x1, noise, record)
    diverged = ~(np.isfinite(summary) & np.isfinite(final_gap) & np.all(np.isfinite(X), axis=1))
    res = BatchResult(np.asarray(seeds), np.where(diverged, np.inf, summary),
                      np.where(diverged, np.inf, final_gap), clipped / steps, diverged, tab)
    return res, X


def _start(problem: Problem, x1, n: int) -> np.ndarray:
    """n copies of ``x1`` as seed-contiguous rows: the transpose of a C-ordered (d, n) block."""
    x1 = np.asarray(x1, dtype=float)
    if not problem.geometry.contains(x1):
        raise ValueError("initial point outside the domain")
    return np.repeat(x1[:, None], n, axis=1).T


def _levels(schedule: Schedule, modes, needs: str, steps: int):
    """The run's schedule table, or the parameter-free mode's per-row pair source
    ``schedule.pair``; the clipping levels are checked once, before the loop."""
    if schedule.mode not in modes:
        raise ValueError(f"{needs}, got {schedule.mode!r}")
    if schedule.mode == "smd_param_free":
        # the smallest level the mode takes is t = 1's at displacement 0: the level grows
        # with the displacement, and at a fixed one with t (tau = 2t(1 + log t)^2 grows)
        if schedule.pair(1)[1] <= 0:
            raise ValueError("clipping level must be positive")
        return schedule.pair
    table = schedule.table(steps)
    if np.any(table.lam <= 0):
        raise ValueError("clipping level must be positive")
    return table


def _rows(n: int, d: int) -> np.ndarray:
    """An (n, d) buffer of seed-contiguous rows: the transpose of a C-ordered (d, n) block."""
    return np.empty((d, n)).T


def _slots(K: int, n: int, d: int):
    """Where K steps write an (n, d) array: the (K, n, d) view of a C-ordered (K, d, n)
    window and its K seed-contiguous step views."""
    window = np.empty((K, d, n)).transpose(0, 2, 1)
    return window, list(window)


def _running_sum(total: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``total`` plus each of ``rows`` in turn, the bits of a ``+=`` loop over them.

    ``np.add.reduce`` over the slow axis of the C-ordered (k + 1, n) block adds
    one row after another, in time order.  A one-seed block it would sum
    pairwise, so there ``np.add.accumulate`` adds in sequence.
    """
    block = np.concatenate((total[None], rows))
    if total.size == 1:
        return np.add.accumulate(block, axis=0)[-1]
    return np.add.reduce(block, axis=0)


def _path(start: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Each row's path, (n, T + 1, d): its start followed by its iterates in a (T, n, d) window."""
    return np.concatenate((start[:, None], window.transpose(1, 0, 2)), axis=1)


# -- the loops: noise is a draws object whose slab(t) is step t's (n, d) noise,
# the transpose of a C-ordered (d, n) block, so the state stays seed-contiguous;
# every step writes into window slots made before the loop (``S`` holds eta * G and
# alpha * Z); a window's step sizes, levels and weights are Python floats (the
# parameter-free mode's are per row, and its skip test takes the smallest level);
# the clip runs when the largest norm is over the level or NaN (``argmax`` takes the
# first NaN as the largest, and is cheaper than a reduction); a row it leaves alone
# gets the factor 1, so skipping the clip keeps the bits (the baseline's level is
# +inf: it runs the clip only at a NaN norm); a row is counted clipped when its norm
# is over the level;
# a recorded run is one window of every step, and its step table is built from the
# window buffers at the end; each returns (summary, final_gap, clip counts, final
# rows, step table or None) --


def _smd(problem, schedule, steps, x1, noise, record):
    levels = _levels(schedule, SMD_MODES, "smd needs a mirror-descent schedule", steps)
    return _descent(problem, levels, steps, x1, noise, record,
                    lambda xw, fw, out: problem.gap_many(xw, out=out))


def _sgd(problem, schedule, steps, x1, noise, record):
    levels = _levels(schedule, SGD_MODES, "sgd needs a gradient-descent schedule", steps)
    if problem.geometry.kind != "euclidean":
        raise ValueError("clipped gradient descent runs on unconstrained l2 geometry")
    return _descent(problem, levels, steps, x1, noise, record,
                    lambda xw, fw, out: coord_dot(fw, fw, out=out))


def _vanilla(problem, eta, steps, x1, noise, record):
    if problem.geometry.kind != "euclidean":
        raise ValueError("the baseline runs on unconstrained l2 geometry")

    def metric(xw, fw, out):  # SGD's, +inf where the new iterate escapes or is NaN
        coord_dot(fw, fw, out=out)
        out[~np.all(np.abs(xw) <= DIVERGENCE_LIMIT, axis=2)] = np.inf
        return out

    levels = ScheduleTable(np.full(steps, float(eta)), np.full(steps, np.inf), None)
    return _descent(problem, levels, steps, x1, noise, record, metric)


def _descent(problem, levels, steps, x1, noise, record, metric):
    """Clipped mirror descent, whose summary is the average of ``metric(xw, fw, out)``:
    the per-step metric of a window, from its new iterates ``xw`` and the gradients
    ``fw`` its steps were queried at (the value gap for SMD, the squared gradient
    norm for SGD, where the l2 mirror step is x - eta * G).  ``levels`` is a schedule
    table (its step sizes and levels), or the parameter-free mode's ``pair(t, dev)``."""
    n = noise.n
    geom = problem.geometry
    X1 = X = _start(problem, x1, n)
    d = X.shape[1]
    K = steps if record else window_steps(steps, d, n)  # a recorded run is one window
    (xw, xs), (fw, fs), (gw, gs) = (_slots(K, n, d) for _ in range(3))
    S = _rows(n, d)
    norms, metric_rows = np.empty((K, n)), np.empty((K, n))
    norm_rows = list(norms)
    metric_sum, clipped = np.zeros(n), np.zeros(n)
    per_row = callable(levels)
    if per_row:
        start, D, dev = np.asarray(x1, dtype=float), np.empty((n, d)), np.zeros(n)
        eta_w, lam_w = np.empty((K, n)), np.empty((K, n))

        def row_pairs(lo, k):  # (n, 1) steps, (n,) levels, the least; X as each step starts
            for i in range(k):
                np.fmax(dev, geom.norm_many(np.subtract(X, start, out=D)), out=dev)
                eta_w[i], lam_w[i] = levels(lo + i + 1, dev)
                yield eta_w[i, :, None], lam_w[i], lam_w[i].min()
    else:
        etas, lams, _ = levels
    for lo in range(0, steps, max(K, 1)):  # windows of K steps, then the rest
        k = min(K, steps - lo)
        if per_row:
            pairs = row_pairs(lo, k)
        else:
            level = lams[lo:lo + k].tolist()
            pairs = zip(etas[lo:lo + k].tolist(), level, level)
        for i, (eta, lam, lowest) in enumerate(pairs):
            F = problem.grad_many(X, out=fs[i])
            G = np.add(F, noise.slab(lo + i + 1), out=gs[i])
            nrm = geom.dual_norm_many(G, out=norm_rows[i])
            if not (nrm[nrm.argmax()] <= lowest):
                clip_batch(G, lam, nrm, out=G)
                clipped += nrm > lam
            X = geom.mirror_step_many(X, G, eta, out=xs[i], scratch=S)
        metric_sum = _running_sum(metric_sum, metric(xw[:k], fw[:k], metric_rows[:k]))
    tab = None
    if record:
        eta, lam = (eta_w.T, lam_w.T) if per_row else (np.tile(a, (n, 1)) for a in (etas, lams))
        tab = StepTable(np.arange(1, steps + 1), eta, lam, norms.T > lam, metric_rows.T,
                        _path(X1, xw), gw.transpose(1, 0, 2))
    return metric_sum / steps, problem.gap_many(X), clipped, X.copy(order="K"), tab


def _asmd(problem, schedule, steps, y1, noise, record):
    n = noise.n
    etas, lams, alphas = _levels(schedule, ASMD_MODES, "asmd needs an accelerated schedule", steps)
    geom = problem.geometry
    Y1 = Y = Z = _start(problem, y1, n)  # z_1 = y_1; steps write into slots, never into the start
    d = Y.shape[1]
    K = steps if record else window_steps(steps, d, n)  # a recorded run is one window
    (yw, ys), (zw, zs), (xw, xs), (gw, gs) = (_slots(K, n, d) for _ in range(4))
    S = _rows(n, d)
    norms = np.empty((K, n))
    norm_rows, clipped = list(norms), np.zeros(n)
    for lo in range(0, steps, max(K, 1)):
        k = min(K, steps - lo)
        for i, (alpha, eta, lam) in enumerate(zip(alphas[lo:lo + k].tolist(),
                                                  etas[lo:lo + k].tolist(),
                                                  lams[lo:lo + k].tolist())):
            Xq = geom.mix_many(Y, Z, alpha, out=xs[i], scratch=S)
            G = problem.grad_many(Xq, out=gs[i])
            G += noise.slab(lo + i + 1)
            nrm = geom.dual_norm_many(G, out=norm_rows[i])
            if not (nrm[nrm.argmax()] <= lam):
                clip_batch(G, lam, nrm, out=G)
                clipped += nrm > lam
            Z = geom.mirror_step_many(Z, G, eta, out=zs[i], scratch=S)
            Y = geom.mix_many(Y, Z, alpha, out=ys[i], scratch=S)
    tab = None
    if record:  # x holds the query points, y and z the paths
        eta, lam = np.tile(etas, (n, 1)), np.tile(lams, (n, 1))
        tab = StepTable(np.arange(1, steps + 1), eta, lam, norms.T > lam,
                        problem.gap_many(yw).T, xw.transpose(1, 0, 2), gw.transpose(1, 0, 2),
                        alphas, _path(Y1, yw), _path(Y1, zw))
    gaps = problem.gap_many(Y)
    return gaps, gaps, clipped, Y.copy(order="K"), tab
