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
bits do not depend on the layout.  Seed k's noise sequence is drawn from its
own stream, and step t reads it as the (n, d) view ``noise.slab(t)`` of a
draws object: the transpose of a C-ordered (d, n) slab.

A step does only the work the next iterate depends on.  Its step size,
level and momentum weight come from the schedule's table
(``Schedule.table``), made once before the loop; the parameter-free mode
fills each step's entry as ``observe`` reaches it.  The step forms the
gradient, its dual norms and, only when some row's norm is over the level
(or NaN), the clip, and writes the step into the state (the accelerated
loop's y, z and query point are three buffers updated in place) or into a
slot of a seed-contiguous window buffer.  Everything else is done once per
window of K steps (``noise.window_steps``, the spike window's byte rule):
the metrics over the window's iterates or gradients, the running sums,
added in time order (``_running_sum``), the clip counts, and the copy of
the window into the record.  Window sizes do not change a bit.

``run_*_batch`` advances many seeds in lockstep (used by the experiment
harness) on ``noise.lockstep_draws``: a two-point batch keeps only its
spikes, a radial batch is presampled into one time-major (steps, d, n)
block.  ``run_*`` is the one-row case, on the oracle's dense (steps, d, 1)
block.  Both run through one helper, which can record the run into a
preallocated ``StepTable`` with a leading seed axis (read by the
diagnostics); a single run's table is its n = 1 case.  Same seed, same
config give bitwise-identical trajectories in either form.  A row whose
final iterate, summary or final gap is not finite is reported as diverged,
with infinite summary and gap; the overflow and invalid-value warnings that
such a row raises on the way are silenced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clipping import clip_batch
from .geometry import coord_dot
from .noise import DenseDraws, Oracle, check_noise_geometry, lockstep_draws, window_steps
from .problems import Problem
from .schedules import ASMD_MODES, SGD_MODES, SMD_MODES, Schedule

DIVERGENCE_LIMIT = 1e12

# Below this many seeds a window's running sums take one np.add.accumulate, above it
# one vector add per step: measured on 2 vCPUs, the two cost the same near 128 seeds
# at windows of 8 to 81 steps.
_ACCUMULATE_SEEDS = 128


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


def _start(problem: Problem, x1, n: int) -> np.ndarray:
    """n copies of ``x1`` as seed-contiguous rows: the transpose of a C-ordered (d, n) block."""
    x1 = np.asarray(x1, dtype=float)
    if not problem.geometry.contains(x1):
        raise ValueError("initial point outside the domain")
    return np.repeat(x1[:, None], n, axis=1).T


def _levels(schedule: Schedule, modes, needs: str, n: int, steps: int):
    """The run's schedule table; its clipping levels are checked once, before the loop."""
    if schedule.mode not in modes:
        raise ValueError(f"{needs}, got {schedule.mode!r}")
    if schedule.stateful and n != 1:
        raise ValueError("batch runners support stateless schedules only; "
                         "run the trajectory-dependent mode per seed")
    schedule.reset()
    table = schedule.table(steps)
    if np.any(table.lam <= 0):
        raise ValueError("clipping level must be positive")
    return table


def _slots(K: int, n: int, d: int, keep: bool, state=None):
    """Where K steps write an (n, d) array: the (K, n, d) view of a C-ordered (K, d, n)
    window and its K seed-contiguous step views, or, when the steps are not kept, no
    window and ``state`` at every step (an array updated in place, or None for a new
    array each step)."""
    if not keep:
        return None, [state] * K
    window = np.empty((K, d, n)).transpose(0, 2, 1)
    return window, list(window)


def _running_sum(total: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``total`` plus each of ``rows`` in turn, the bits of a ``+=`` loop over them.

    A reduction would not give them: numpy sums a column pairwise when n = 1.
    ``np.add.accumulate`` adds along time in sequence, but one element after
    another (about 10 ns each), so past ``_ACCUMULATE_SEEDS`` seeds one vector
    add per row is the cheaper.
    """
    if total.size < _ACCUMULATE_SEEDS:
        return np.add.accumulate(np.concatenate((total[None], rows)), axis=0)[-1]
    total = total.copy()
    for row in rows:
        total += row
    return total


def _record(tab: StepTable, lo: int, k: int, eta, lam, over, norms, metric, grad):
    """Steps lo + 1 .. lo + k of the columns every loop records, from its window's rows."""
    rows = slice(lo, lo + k)
    tab.eta[rows], tab.lam[rows] = eta, lam
    tab.clipped[:, rows], tab.raw_norm[:, rows], tab.metric[:, rows] = over.T, norms.T, metric.T
    tab.grad_clipped[:, rows] = grad.transpose(1, 0, 2)


# -- the loops: noise is a draws object whose slab(t) is step t's (n, d) noise,
# the transpose of a C-ordered (d, n) block, so the state stays seed-contiguous;
# the clip runs when the largest norm is over the level or NaN (``argmax`` takes the
# first NaN as the largest, and is cheaper than a reduction); a row it leaves alone
# gets the factor 1, so skipping the clip keeps the bits;
# a step table, if given, gets each window's rows; each returns (summary,
# final_gap, clip counts, final rows, steps run) --


def _smd(problem, schedule, steps, x1, noise, tab):
    n = noise.n
    etas, lams, _ = _levels(schedule, SMD_MODES, "smd needs a mirror-descent schedule", n, steps)
    geom = problem.geometry
    X = _start(problem, x1, n)
    d = X.shape[1]
    K = window_steps(steps, d, n)
    xw, xs = _slots(K, n, d, True)
    gw, gs = _slots(K, n, d, tab is not None)
    norms = np.empty((K, n))
    gap_sum, clipped = np.zeros(n), np.zeros(n)
    gaps = problem.gap_many(X)[None]
    for lo in range(0, steps, K):  # windows of K steps, then the rest
        k = min(K, steps - lo)
        for i in range(k):
            t = lo + i + 1
            schedule.observe(t, X[0])  # the stateful mode fills its table entry for step t
            eta, lam = etas[t - 1], lams[t - 1]
            G = np.add(problem.grad_many(X), noise.slab(t), out=gs[i])
            nrm = norms[i] = geom.dual_norm_many(G)
            if not (nrm[nrm.argmax()] <= lam):
                G = clip_batch(G, lam, nrm, out=G)
            X = geom.mirror_step_many(X, G, eta, out=xs[i])
        level = lams[lo:lo + k]
        over = norms[:k] > level[:, None]
        gaps = problem.gap_many(xw[:k])
        gap_sum = _running_sum(gap_sum, gaps)
        clipped += np.count_nonzero(over, axis=0)
        if tab is not None:
            _record(tab, lo, k, etas[lo:lo + k], level, over, norms[:k], gaps, gw[:k])
            tab.x[:, lo + 1:lo + k + 1] = xw[:k].transpose(1, 0, 2)
    return gap_sum / steps, gaps[-1], clipped, X.copy(order="K"), steps


def _asmd(problem, schedule, steps, y1, noise, tab):
    n = noise.n
    etas, lams, alphas = _levels(schedule, ASMD_MODES, "asmd needs an accelerated schedule", n,
                                 steps)
    geom = problem.geometry
    Y = _start(problem, y1, n)
    d = Y.shape[1]
    K = window_steps(steps, d, n)
    keep = tab is not None  # else y, z and the query point are updated in place
    Z = Y.copy(order="K")
    yw, ys = _slots(K, n, d, keep, Y)
    zw, zs = _slots(K, n, d, keep, Z)
    xw, xs = _slots(K, n, d, keep, np.empty_like(Y))
    gw, gs = _slots(K, n, d, keep)
    norms = np.empty((K, n))
    clipped = np.zeros(n)
    for lo in range(0, steps, K):
        k = min(K, steps - lo)
        for i in range(k):
            t = lo + i + 1
            alpha, eta, lam = alphas[t - 1], etas[t - 1], lams[t - 1]
            Xq = geom.mix_many(Y, Z, alpha, out=xs[i])
            G = np.add(problem.grad_many(Xq), noise.slab(t), out=gs[i])
            nrm = norms[i] = geom.dual_norm_many(G)
            if not (nrm[nrm.argmax()] <= lam):
                G = clip_batch(G, lam, nrm, out=G)
            Z = geom.mirror_step_many(Z, G, eta, out=zs[i])
            Y = geom.mix_many(Y, Z, alpha, out=ys[i])
        level = lams[lo:lo + k]
        over = norms[:k] > level[:, None]
        clipped += np.count_nonzero(over, axis=0)
        if tab is not None:
            _record(tab, lo, k, etas[lo:lo + k], level, over, norms[:k],
                    problem.gap_many(yw[:k]), gw[:k])
            tab.alpha[lo:lo + k], tab.x[:, lo:lo + k] = alphas[lo:lo + k], xw[:k].transpose(1, 0, 2)
            tab.y[:, lo + 1:lo + k + 1] = yw[:k].transpose(1, 0, 2)
            tab.z[:, lo + 1:lo + k + 1] = zw[:k].transpose(1, 0, 2)
    gaps = problem.gap_many(Y)
    return gaps, gaps, clipped, Y.copy(order="K"), steps


def _sgd(problem, schedule, steps, x1, noise, tab):
    n = noise.n
    etas, lams, _ = _levels(schedule, SGD_MODES, "sgd needs a gradient-descent schedule", n, steps)
    if problem.geometry.kind != "euclidean":
        raise ValueError("clipped gradient descent runs on unconstrained l2 geometry")
    geom = problem.geometry
    X = _start(problem, x1, n)
    d = X.shape[1]
    K = window_steps(steps, d, n)
    xw, xs = _slots(K, n, d, tab is not None, X)
    fw, fs = _slots(K, n, d, True)  # the gradient each step's metric is taken of
    gw, gs = _slots(K, n, d, tab is not None)
    norms = np.empty((K, n))
    metric_sum, clipped = np.zeros(n), np.zeros(n)
    for lo in range(0, steps, K):
        k = min(K, steps - lo)
        for i in range(k):
            t = lo + i + 1
            eta, lam = etas[t - 1], lams[t - 1]
            np.copyto(fs[i], problem.grad_many(X))
            G = np.add(fs[i], noise.slab(t), out=gs[i])
            nrm = norms[i] = geom.dual_norm_many(G)
            if not (nrm[nrm.argmax()] <= lam):
                G = clip_batch(G, lam, nrm, out=G)
            X = np.subtract(X, eta * G, out=xs[i])
        level = lams[lo:lo + k]
        over = norms[:k] > level[:, None]
        metric = coord_dot(fw[:k], fw[:k])
        metric_sum = _running_sum(metric_sum, metric)
        clipped += np.count_nonzero(over, axis=0)
        if tab is not None:
            _record(tab, lo, k, etas[lo:lo + k], level, over, norms[:k], metric, gw[:k])
            tab.x[:, lo + 1:lo + k + 1] = xw[:k].transpose(1, 0, 2)
    return metric_sum / steps, problem.gap_many(X), clipped, X.copy(order="K"), steps


def _vanilla(problem, eta, steps, x1, noise, tab):
    n = noise.n
    if problem.geometry.kind != "euclidean":
        raise ValueError("the baseline runs on unconstrained l2 geometry")
    X = _start(problem, x1, n)
    d = X.shape[1]
    K = window_steps(steps, d, n)
    paths = [None] * K  # each step's rows: a frozen row needs the rows before the step
    fw, fs = _slots(K, n, d, True)
    gw, gs = _slots(K, n, d, tab is not None)
    live = np.empty((K + 1, n), dtype=bool)  # row i: the rows active before step lo + i + 1
    active = np.ones(n, dtype=bool)
    metric_sum = np.zeros(n)
    for lo in range(0, steps, K):
        k = min(K, steps - lo)
        live[0] = active
        for i in range(k):
            t = lo + i + 1
            np.copyto(fs[i], problem.grad_many(X))
            G = np.add(fs[i], noise.slab(t), out=gs[i])
            X_new = X - eta * G
            active = np.logical_and(live[i], np.all(np.abs(X_new) <= DIVERGENCE_LIMIT, axis=1),
                                    out=live[i + 1])  # NaN rows freeze too
            X = paths[i] = np.where(active[:, None], X_new, X)
            if not active.any():
                break
        k = i + 1
        metric = coord_dot(fw[:k], fw[:k])
        metric_sum = _running_sum(metric_sum, np.where(live[:k], metric, 0.0))
        if tab is not None:
            _record(tab, lo, k, eta, np.inf, np.zeros((k, n), dtype=bool),
                    problem.geometry.dual_norm_many(gw[:k]), metric, gw[:k])
            tab.x[:, lo + 1:lo + k + 1] = np.stack(paths[:k], axis=1)
        if not active.any():
            break
    summary = np.where(active, metric_sum / steps, np.inf)
    final_gap = np.where(active, problem.gap_many(X), np.inf)
    return summary, final_gap, np.zeros(n), X, t
