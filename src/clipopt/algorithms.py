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
buffer: the gradient (``grad_many(X, out)``; the row forms take ``out`` by
position, which numpy parses faster than a keyword), the gradient plus noise,
the new iterate (the accelerated loop's query point, y and z each have a
window; an iterate's holds the start in slot 0); eta * G (and the accelerated
mixes' alpha * z) go into one scratch array.  Everything else is done once per
window of K steps (``noise.window_steps``, the spike window's byte rule): the
metrics over the window's iterates or gradients and the running sums, added in
time order (``_running_sum``).  A recorded run takes the same windows, but the
buffers its step table reads (the iterates, ASMD's query points, the clipped
gradients, the parameter-free eta and lambda) span the horizon, so the table is
views of them.  Window sizes do not change a bit.

The levels make clipping rare, so a clip test is first a bound: one
``dual_norm_bound`` over the noisy gradients it covers (their largest
coordinate magnitude, times sqrt(d) on l2) against the least of their levels.
Only when the bound is not at or below that level (an inf or NaN gradient
always fails it) does the test take the exact dual norms, into one (n,) row
(``dual_norm_many(G, out)``), and only when some row's norm is over its level
(or NaN) does it clip the noisy gradient and count the rows it clipped.  A
stretch that already clips skips the bound and takes the norms at once: a
window running tested in the mirror-descent loop, and the step after a clip
in the accelerated one.  A row under its level keeps the factor 1 and is not
counted, so a test the bound passes changes no bit.

The mirror-descent loop also checks the clip once a window.  A window's first
step is tested.  The other steps take no norm and run no test, unless the first
step or the window before clipped, which makes the whole window run tested.  (So a replay
never restarts from the state a window starts from, which an unrecorded window
overwrites, and a run that clips at every step runs no untested pass.)  The
untested steps run in a tight loop over the window's slots, step sizes and step
numbers, whose only calls are the gradient, ``np.add``, the draws' ``slab`` and
the mirror step, each bound to a local once a run (not at import, so a wrapper
installed on them before the run is what runs); the tested step is written
once, for a window's first step, a window run tested and a replay.  After the
untested steps one bound over their noisy gradients against their least level
passes the window as a rule; else one ``dual_norm_many`` over them and one
comparison with their levels find the first step with a row over its level or NaN; from it
the loop runs again, tested, from the state before it (its slot of the
iterate window, and for the parameter-free mode the displacement row it
keeps per step).  A step with no such row would keep the factor 1 for every
row and count none, so skipping its test keeps the bits, and the steps before
the replayed one are the tested ones.  The accelerated loop tests every step,
each by its bound first: at the size it runs on a worker (250 seeds, d = 32)
its window is 2 steps, too short for a once-a-window check to pay, and the
bound already makes a passing test one ``abs`` and one ``max``.

``run_*_batch`` advances many seeds in lockstep (used by the experiment
harness and ``diagnose``); ``run_*`` is the one-seed batch on its oracle's
seed, whose generator it leaves untouched.  Both draw their noise through
``noise.lockstep_draws`` from the seeds alone (seed k's noise is that of
``make_rng(seed)``), the one place that knows its layout, and run through
one helper, which can record
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
from .noise import Oracle, check_noise_geometry, lockstep_draws, window_steps
from .problems import Problem
from .schedules import ASMD_MODES, SGD_MODES, SMD_MODES, Schedule, ScheduleTable

DIVERGENCE_LIMIT = 1e12


@dataclass
class StepTable:
    """Columnar per-step record of n seeds run in lockstep, with their paths.

    The per-step columns have one entry per step t = 1..T: ``alpha`` is (T,),
    shared by every seed; ``eta`` and ``lam`` are (n, T); the paths are (n, T[+1], d).
    Seed k's ``x[k]`` holds x_1..x_{T+1}, so step t queried the oracle at
    ``x[k, t - 1]`` and moved to ``x[k, t]``.  The accelerated loop queries at
    (1 - alpha_t) y_t + alpha_t z_t: its ``x`` holds those T query points,
    and ``y``, ``z`` hold y_1..y_{T+1} and z_1..z_{T+1}.  ``grad_clipped`` is
    the gradient each step used (the unclipped one for the baseline, whose
    ``lam`` is infinite).

    Every field is a view, none computed: of the recorded loop's buffers, which span
    the horizon (the paths, ``grad_clipped``, the parameter-free ``eta`` and ``lam``),
    or of the schedule table (``alpha``; ``eta`` and ``lam`` otherwise, read-only
    broadcasts over the seeds).  A check recomputes a step's gap, norms or clip from them.
    """

    eta: np.ndarray
    lam: np.ndarray
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
    """The one-seed batch of the oracle's seed, as that seed's record."""
    noise = lockstep_draws(oracle.noise, problem.dim, steps, [oracle.seed])
    res, X = _run(loop, problem, param, steps, x1, [oracle.seed], noise, record)
    return RunRecord(steps, float(res.summary[0]), X[0], float(res.final_gap[0]),
                     float(res.clipped_fraction[0]), bool(res.diverged[0]), res.table)


def _batch(loop, problem, noise_model, param, steps, x1, seeds, record) -> BatchResult:
    """Seed k's noise drawn from ``make_rng(seeds[k])`` (``noise.lockstep_draws``)."""
    seeds = np.asarray(list(seeds), dtype=int)
    check_noise_geometry(problem, noise_model)
    noise = lockstep_draws(noise_model, problem.dim, steps, seeds)
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


def _start(problem: Problem, x1, out: np.ndarray) -> np.ndarray:
    """``x1`` written into each seed's row of the (n, d) slot ``out``, which it returns."""
    x1 = np.asarray(x1, dtype=float)
    if not problem.geometry.contains(x1):
        raise ValueError("initial point outside the domain")
    out[...] = x1
    return out


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


# -- the loops: noise is a draws object whose slab(t) is step t's (n, d) noise,
# the transpose of a C-ordered (d, n) block, so the state stays seed-contiguous;
# every step writes into window slots made before the loop (``S`` holds eta * G and
# alpha * Z); a window's step sizes, levels and weights are Python floats (the
# parameter-free mode's are per row); a tested step first compares the geometry's
# ``dual_norm_bound`` of its gradients with its least level (the parameter-free mode's
# ``lam.min()``), and only if the bound is not at or below it takes its norms into
# one reused (n,) row ``nrm`` and clips when the largest is over the level or NaN
# (``argmax`` takes the first NaN as the largest, and is cheaper than a reduction; the
# parameter-free mode compares each row with its own level); a row it leaves alone
# gets the factor 1, so skipping the clip keeps the bits (the baseline's level is
# +inf: it clips only at a NaN norm, whose bound is NaN); a row is counted clipped
# when its norm is over the level.  ``_descent`` tests a window's first step, and the
# rest only if that step or the window before clipped, and then with no bound;
# otherwise it runs the rest in a tight loop with no test (gradient, noise add,
# mirror step, each through a local bound once a run), then checks their bound, and
# their norms if it fails, at once and replays from the first that clips (module
# docstring); ``_asmd`` tests every step, by the bound unless the step before
# clipped.  A window's steps write from slot ``at`` of
# the buffers a step table reads (its first step's if they span the horizon, else 0)
# through per-window slices of their slot lists; each returns (summary, final_gap,
# clip counts, final rows, step table or None) --


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
    n, d = noise.n, problem.dim
    geom = problem.geometry
    # the calls a step makes, bound here (not at import, so a wrapper installed on the
    # problem's gradient or the geometry's step is what runs)
    grad_many, add, slab, step = problem.grad_many, np.add, noise.slab, geom.mirror_step_many
    bound = geom.dual_norm_bound
    K = window_steps(steps, d, n)
    span = K if not record else steps  # the steps held by the buffers a step table reads
    (xw, xs), (gw, gs), (fw, fs) = _slots(span + 1, n, d), _slots(span, n, d), _slots(K, n, d)
    X = _start(problem, x1, xs[0])
    S, nrm, norms, metric_rows = _rows(n, d), np.empty(n), np.empty((K, n)), np.empty((K, n))
    metric_sum, clipped = np.zeros(n), np.zeros(n)
    per_row = callable(levels)
    if per_row:
        start, D, devs = np.asarray(x1, dtype=float), np.empty((n, d)), np.zeros((K, n))
        eta_w, lam_w = np.empty((span, n)), np.empty((span, n))

        def pairs(lo, at, j, k):  # (n, 1) steps and (n,) levels from step j, at X as each starts
            for i in range(j, k):  # at i = 0, devs[-1]: the last window's last row, or zeros
                dev = np.fmax(devs[i - 1], geom.norm_many(np.subtract(X, start, out=D)),
                              out=devs[i])
                eta, lam = eta_w[at + i], lam_w[at + i]
                eta[:], lam[:] = levels(lo + i + 1, dev)
                yield eta[:, None], lam

        def sizes(lo, at, j, k):
            return (eta for eta, _ in pairs(lo, at, j, k))
    else:
        etas, lams, _ = levels
        eta_w, lam_w = (np.broadcast_to(a[:, None], (steps, n)) for a in (etas, lams))

        def pairs(lo, at, j, k):
            return zip(etas[lo + j:lo + k].tolist(), lams[lo + j:lo + k].tolist())

        def sizes(lo, at, j, k):
            return etas[lo + j:lo + k].tolist()
    hit = False  # whether a step of the window clipped: the next window runs tested
    for lo in range(0, steps, K):  # windows of K steps, then the rest
        k = min(K, steps - lo)
        at = lo if record else 0
        xo, go = xs[at + 1:at + k + 1], gs[at:at + k]
        j, tested, hit = 0, hit, False
        while True:  # tested steps from j: to the window's end if ``tested``, else step 0
            for i, (eta, lam) in enumerate(pairs(lo, at, j, k), j):
                G = add(grad_many(X, fs[i]), slab(lo + i + 1), go[i])
                if tested or not bound(G) <= (lam if not per_row else lam.min()):
                    geom.dual_norm_many(G, nrm)
                    if not (nrm[nrm.argmax()] <= lam if not per_row else (nrm <= lam).all()):
                        clip_batch(G, lam, nrm, out=G)
                        clipped += nrm > lam
                        tested = hit = True
                X = step(X, G, eta, xo[i], S)
                if not tested:
                    break
            if tested or k == 1:
                break
            for F, G, Xn, t, eta in zip(fs[1:k], go[1:k], xo[1:k], range(lo + 2, lo + k + 1),
                                        sizes(lo, at, 1, k)):  # steps 1..k-1, untested
                X = step(X, add(grad_many(X, F), slab(t), G), eta, Xn, S)
            # steps 1..k-1 ran untested: their bound, then their norms at once (the largest
            # against the least level first); if a row is over its level (or NaN) at some
            # step, the steps from the first such one run again, tested
            lam_k = lam_w[at + 1:at + k] if per_row else lams[lo + 1:lo + k, None]
            least = lam_k.min()
            if bound(gw[at + 1:at + k]) <= least:
                break
            over = geom.dual_norm_many(gw[at + 1:at + k], norms[:k - 1])
            if over.max() <= least:
                break
            clean = np.less_equal(over, lam_k).all(1)
            if clean.all():
                break
            j = 1 + int(clean.argmin())
            X, tested = xs[at + j], True  # the state before step j
        rows = metric(xw[at + 1:at + k + 1], fw[:k], metric_rows[:k])
        metric_sum = _running_sum(metric_sum, rows)
    tab = StepTable(eta_w.T, lam_w.T, xw.transpose(1, 0, 2),
                    gw.transpose(1, 0, 2)) if record else None
    return metric_sum / steps, problem.gap_many(X), clipped, X.copy(order="K"), tab


def _asmd(problem, schedule, steps, y1, noise, record):
    n, d = noise.n, problem.dim
    etas, lams, alphas = _levels(schedule, ASMD_MODES, "asmd needs an accelerated schedule", steps)
    geom = problem.geometry
    K = window_steps(steps, d, n)
    span = K if not record else steps  # the steps held by the buffers a step table reads
    (yw, ys), (zw, zs), (xw, xs), (gw, gs) = (_slots(span + s, n, d) for s in (1, 1, 0, 0))
    Y, Z = (_start(problem, y1, slots[0]) for slots in (ys, zs))  # z_1 = y_1
    S, nrm, clipped = _rows(n, d), np.empty(n), np.zeros(n)
    bound, hit = geom.dual_norm_bound, False  # whether the step before clipped
    for lo in range(0, steps, K):
        k = min(K, steps - lo)
        at = lo if record else 0
        yo, zo = ys[at + 1:at + k + 1], zs[at + 1:at + k + 1]
        xo, go = xs[at:at + k], gs[at:at + k]
        for i, (alpha, eta, lam) in enumerate(zip(alphas[lo:lo + k].tolist(),
                                                  etas[lo:lo + k].tolist(),
                                                  lams[lo:lo + k].tolist())):
            Xq = geom.mix_many(Y, Z, alpha, out=xo[i], scratch=S)
            G = problem.grad_many(Xq, out=go[i])
            G += noise.slab(lo + i + 1)
            if hit or not bound(G) <= lam:
                geom.dual_norm_many(G, out=nrm)
                hit = not (nrm[nrm.argmax()] <= lam)
                if hit:
                    clip_batch(G, lam, nrm, out=G)
                    clipped += nrm > lam
            Z = geom.mirror_step_many(Z, G, eta, out=zo[i], scratch=S)
            Y = geom.mix_many(Y, Z, alpha, out=yo[i], scratch=S)
    tab = None
    if record:  # x holds the query points, y and z the paths
        eta, lam = (np.broadcast_to(a, (n, steps)) for a in (etas, lams))
        tab = StepTable(eta, lam, *(w.transpose(1, 0, 2) for w in (xw, gw)), alphas,
                        *(w.transpose(1, 0, 2) for w in (yw, zw)))
    gaps = problem.gap_many(Y)
    return gaps, gaps, clipped, Y.copy(order="K"), tab
