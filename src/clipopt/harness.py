"""Multi-seed experiment orchestration and guarantee validation.

A seed sweep runs the independent seeds (seed i = base_seed + i) of one config
through one algorithm at one horizon, in memory-bounded lockstep chunks.  Every
call makes its sweeps through one ``_sweeps``: it builds the problem and the
noise once and each sweep's schedule once, runs the sweeps, and hands back each
one's result with the schedule it ran.  ``run_trials`` makes one sweep,
evaluates that schedule's explicit high-probability bound, and reports the
fraction of seeds whose summary exceeds it.  ``fit_rate`` makes one sweep per
distinct horizon of the grid and fits a log-log slope to the per-horizon median
metric; medians rather than means because the noise may have infinite variance
and the guarantees are quantile statements.  ``compare_clipped_vanilla`` makes
one clipped and one unclipped sweep on identical per-seed noise and compares
final gaps.

A call whose sweeps hold at least ``_FORK_SEED_STEPS`` seed-steps (n * T) between
them runs on W worker processes in one fork round: one per CPU this process may
run on and at most one per seed row, worker 0 this process and the others
children forked from it that send their results back through pipes.  The sweeps
are cut into seed chunks (jobs), each holding at most ``_CHUNK_BYTES / W`` of
draws, so that the chunks in flight at once share the budget.  With at least as
many sweeps as workers the sweeps are dealt whole, so that no two processes both
pay one sweep's per-step cost; with fewer, each sweep is also cut W ways.  Jobs
go longest first (n * T) to the least-loaded worker, and the rows are put back
per sweep in seed order.  A seed's row depends neither on its chunk nor on the
process that ran it, so every output is the same bit for bit at any W.  A
child's exception is raised again here with its type and message.  Every
worker's warnings, this process's too, are recorded and issued again here in
(sweep, seed) order through one registry a call, so that a call shows the same
warnings at any W.  A process running more than one thread, or a platform
without ``os.fork``, runs every sweep in-process.

Outputs: one CSV per experiment (row per seed) under
``<out>/<id>/<algorithm>/<pXX>/seed-results.csv`` plus a JSON-lines summary;
rows are deterministic so a rerun of the same config is byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from . import algorithms as algos
from .config import (ConfigError, ExperimentConfig, build_noise, build_problem,
                     build_schedule, config_digest, p_tag)
from .schedules import SGD_MODES, Schedule, theorem_bound

# Cap on the bytes of one lockstep batch's noise draws; larger sweeps are chunked.
# Each noise family states its draws' bytes per seed-step (``seed_step_bytes``):
# radial noise fills a dense block of d doubles a seed-step, two-point noise keeps
# its spikes only, so a two-point batch is chunked only when it has very many.
_CHUNK_BYTES = 240_000_000
# A call whose sweeps hold at least this many seed-steps (n * T) runs on every CPU
# (``_workers``).  A fork and its pipe round trip take ~1.5 ms at 100 MB resident.  One sweep
# cut across two workers makes each pay the whole per-step cost: on 2 vCPUs (Python 3.11,
# numpy 2.4; SMD and SGD, two-point noise, d = 2; ``tools/bench_layers.py`` sweep rows, best
# of 9, nine rounds on a shared host) a 100-seed sweep at 2^18 runs 0.5-1.0x as fast on two
# workers as in one process and 0.7-1.6x at 2^20, while at 1000 seeds, whose per-seed set-up
# is split too, it runs 0.9-1.7x at 1.3e5.  A call of at least W sweeps deals them to the
# workers whole instead.
_FORK_SEED_STEPS = 1 << 18


@dataclass
class TrialSummary:
    digest: str
    algorithm: str
    mode: str
    p: float
    horizon: int
    n_seeds: int
    metrics: np.ndarray
    median: float
    upper_quantile: float
    bound: float
    failure_rate: float
    failure_stderr: float
    diverged: int

    def row(self) -> dict:
        return {
            "digest": self.digest, "algorithm": self.algorithm, "mode": self.mode,
            "p": self.p, "horizon": self.horizon, "seeds": self.n_seeds,
            "median": self.median, "upper_quantile": self.upper_quantile,
            "bound": self.bound, "failure_rate": self.failure_rate,
            "failure_stderr": self.failure_stderr, "diverged": self.diverged,
        }


@dataclass
class RateFit:
    horizons: np.ndarray
    medians: np.ndarray
    slope: float
    r_squared: float
    exponent: float
    deviation: float


@dataclass
class VanillaComparison:
    n_pairs: int
    clipped_median: float
    vanilla_median: float
    clipped_upper: float
    vanilla_upper: float
    median_ratio: float
    vanilla_diverged: int


def upper_quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` (linear interpolation) of values in ``[0, inf]``.

    Where the interpolation meets an infinite order statistic numpy computes
    inf - inf and returns NaN.  The quantile is then the upper of the two
    order statistics it lies between: the infinite one when the
    interpolation weight is positive, the order statistic itself when the
    weight is 0.  Finite inputs get numpy's value unchanged.
    """
    with np.errstate(invalid="ignore"):
        value = float(np.quantile(values, q))
    if not math.isnan(value) or np.isnan(values).any():
        return value
    return float(np.sort(values)[math.ceil((len(values) - 1) * q)])


def _workers(rows: int, seed_steps: int) -> int:
    """W: the processes one call's sweeps run on, this one and W - 1 forked children.

    One per CPU this process may run on, at most one per seed row of the call (``rows``, its
    seeds times its sweeps), when the call's sweeps hold at least ``_FORK_SEED_STEPS``
    seed-steps between them, the platform can fork and this process runs a single thread (a
    child forked from a threaded process can wait forever on a lock that another thread
    held); else 1.
    """
    if (seed_steps < _FORK_SEED_STEPS or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, rows)


def _seed_chunks(seeds: np.ndarray, horizon: int, seed_step_bytes: float,
                 workers: int) -> list[np.ndarray]:
    """``workers * ceil(n * horizon * seed_step_bytes / _CHUNK_BYTES)`` chunks, at most one
    per seed.

    Their sizes differ by at most one seed, so each chunk's draws are within one seed's
    draws of ``_CHUNK_BYTES / workers``: the chunks the workers run at once hold the budget
    between them.  No chunk is left with a small remainder, and when every seed gets its
    own chunk the workers get equal counts of them.
    """
    n = len(seeds)
    sections = workers * math.ceil(n * horizon * seed_step_bytes / _CHUNK_BYTES)
    return np.array_split(seeds, max(1, min(n, sections)))  # a subnormal q rounds to 0 bytes


def _portable(exc: BaseException) -> BaseException:
    """``exc`` when it survives a pickle round trip, else a ``RuntimeError`` with its repr."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # pickling can fail in any way an exception's state allows
        return RuntimeError(repr(exc))
    return exc


def _run_share(run, jobs: list) -> list:
    """``run(job)`` for each job in turn, as one ``(status, value, warnings)`` a job: status
    ``"ok"`` with the result, or ``"err"`` with the exception it raised, which ends the list
    (the calling process raises it again).  Every warning is recorded, as ``(message,
    category, filename, lineno)``, for ``_in_workers`` to issue again: the caller's filters
    then decide which are shown."""
    replies = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for job in jobs:
            seen = len(caught)
            try:
                status, value = "ok", run(job)
            except BaseException as exc:
                status, value = "err", exc
            replies.append((status, value, [(str(w.message), w.category, w.filename,
                                             w.lineno) for w in caught[seen:]]))
            if status == "err":
                break
    return replies


def _child(run, jobs: list, write_fd: int):
    """In a forked child: the ``_run_share`` replies of ``jobs``, sent down ``write_fd``.
    Never returns: it leaves through ``os._exit``, so it flushes no output buffer and runs
    no exit hook it inherited."""
    code = 1
    try:
        replies = _run_share(run, jobs)
        if replies and replies[-1][0] == "err":
            replies[-1] = ("err", _portable(replies[-1][1]), replies[-1][2])
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(replies))
        code = 0
    finally:
        os._exit(code)


def _issue(replies, registry: dict):
    """Issue the warnings of ``replies`` again, in order, through one ``registry``, and raise
    the exception of an ``"err"`` reply after the warnings of its job."""
    for status, value, caught in replies:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno, registry=registry)
        if status == "err":
            raise value


def _in_workers(run, jobs: list, shares: list[list[int]]) -> list:
    """``[run(job) for job in jobs]``: worker w runs the jobs whose indices ``shares[w]``
    lists, in that order; worker 0 is this process, each other one a child forked from it.

    Every worker records its warnings, and all are issued again here in job order through
    one registry (a location's record of the warnings it has shown), so that a call shows
    the same warnings at any worker count.  The first child exception in job order is
    raised again here (type and message kept), after the warnings of the jobs before it.
    An exception in this process's own share is raised at once, after its own warnings;
    every child is reaped, and is then killed first, since its result has no reader.
    """
    registry = {}
    children = []  # (pid, read end of its pipe)
    replies = None
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _child(run, [jobs[k] for k in share], write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        own = _run_share(run, [jobs[k] for k in shares[0]])
        if own and own[-1][0] == "err":
            _issue(own, registry)
        # to EOF before any wait: a pipe holds 64 KB, and a child blocks on a larger reply
        replies = [pipe.read() for _, pipe in children]
    finally:
        if replies is None and children:
            import signal  # loaded only on this path
            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
        codes = []
        for pid, pipe in children:
            pipe.close()
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for code in codes:
        if code != 0:  # its reply is missing or cut short
            raise RuntimeError(f"a sweep worker process exited with code {code} before "
                               "sending its result")
    # a child stops at its first exception, so every job before it in job order has a reply
    done = dict(zip(shares[0], own))
    done.update((k, reply) for share, data in zip(shares[1:], replies)
                for k, reply in zip(share, pickle.loads(data)))
    _issue((done[k] for k in sorted(done)), registry)
    return [done[k][1] for k in range(len(jobs))]


def _sweeps(cfg: ExperimentConfig,
            runs: list[tuple[int, str]]) -> list[tuple[algos.BatchResult, Schedule]]:
    """Every seed of ``cfg`` through each run's lockstep batch, a run being a ``(horizon,
    algorithm)`` pair; returns ``(result, schedule)`` a run, in the order of ``runs``.

    The runs are cut into seed chunks (jobs) for memory and run in one fork round on
    ``_workers`` processes (a seed's row depends on neither its chunk nor its process).  With
    at least as many runs as workers a run is not split across workers; with fewer each run
    is also cut W ways.  Jobs go longest first (n * T) to the least-loaded worker.
    """
    problem, x1 = build_problem(cfg)
    noise_model = build_noise(cfg)
    step_bytes = noise_model.seed_step_bytes(problem.dim)
    seeds = cfg.base_seed + np.arange(cfg.n_seeds)
    workers = _workers(cfg.n_seeds * len(runs), cfg.n_seeds * sum(h for h, _ in runs))
    ways = workers if len(runs) < workers else 1
    schedules, plans, jobs = [], [], []  # plans: (runner, rule, horizon); jobs: (run, seeds)
    for i, (horizon, algorithm) in enumerate(runs):
        schedule = build_schedule(cfg, problem, x1, horizon=horizon)
        if algorithm == "vanilla-sgd":
            runner = algos.run_vanilla_sgd_batch
            rule = schedule.eta(1) if cfg.vanilla_eta is None else cfg.vanilla_eta
        else:  # looked up per call, so a patched runner is the one that runs
            runner = {"smd": algos.run_smd_batch, "asmd": algos.run_asmd_batch,
                      "sgd": algos.run_sgd_batch}[algorithm]
            rule = schedule
        schedules.append(schedule)
        plans.append((runner, rule, horizon))
        # ``ways`` parts, each cut into chunks of at most _CHUNK_BYTES / W
        jobs += [(i, chunk) for chunk in
                 _seed_chunks(seeds, horizon, step_bytes * workers / ways, ways)]
    cost = [len(chunk) * runs[i][0] for i, chunk in jobs]
    load, shares = [0] * workers, [[] for _ in range(workers)]
    for k in sorted(range(len(jobs)), key=lambda k: -cost[k]):
        w = load.index(min(load))
        load[w] += cost[k]
        shares[w].append(k)

    def run(job):
        runner, rule, horizon = plans[job[0]]
        return runner(problem, noise_model, rule, horizon, x1, job[1])

    # each worker runs its jobs in job order, so that a child stops at its first exception
    done = _in_workers(run, jobs, [sorted(share) for share in shares])
    parts = [[] for _ in runs]
    for (i, _), result in zip(jobs, done):
        parts[i].append(result)
    return [(algos.BatchResult(
        seeds=np.concatenate([r.seeds for r in rs]),
        summary=np.concatenate([r.summary for r in rs]),
        final_gap=np.concatenate([r.final_gap for r in rs]),
        clipped_fraction=np.concatenate([r.clipped_fraction for r in rs]),
        diverged=np.concatenate([r.diverged for r in rs]),
    ), schedule) for rs, schedule in zip(parts, schedules)]


def run_trials(cfg: ExperimentConfig) -> TrialSummary:
    """N seeded runs, quantiles, and the failure rate against the explicit bound."""
    if cfg.n_seeds < 30:
        warnings.warn("fewer than 30 seeds: the binomial failure-rate interval is wide",
                      stacklevel=2)
    [(result, schedule)] = _sweeps(cfg, [(cfg.horizon, cfg.algorithm)])
    # the baseline carries no guarantee
    bound = math.inf if cfg.algorithm == "vanilla-sgd" else theorem_bound(schedule, cfg.horizon)
    metrics = result.summary
    failures = float(np.mean(metrics > bound))
    stderr = math.sqrt(max(failures * (1 - failures), 1e-12) / cfg.n_seeds)
    summary = TrialSummary(
        digest=config_digest(cfg), algorithm=cfg.algorithm, mode=cfg.mode, p=cfg.p,
        horizon=cfg.horizon, n_seeds=cfg.n_seeds, metrics=metrics,
        median=float(np.median(metrics)), upper_quantile=upper_quantile(metrics, 1.0 - cfg.delta),
        bound=bound, failure_rate=failures, failure_stderr=stderr,
        diverged=int(np.sum(result.diverged)),
    )
    if cfg.out_dir:
        write_experiment_outputs(cfg, result, summary)
    return summary


def experiment_dir(cfg: ExperimentConfig) -> str:
    return os.path.join(cfg.out_dir, cfg.experiment_id, cfg.algorithm, p_tag(cfg.p))


def write_experiment_outputs(cfg: ExperimentConfig, result: algos.BatchResult,
                             summary: TrialSummary) -> str:
    """Per-seed CSV (schema-versioned, byte-stable) plus a JSON-lines summary."""
    out = experiment_dir(cfg)
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "seed-results.csv")
    # csv.writer's bytes (its "\r\n" line end; no field needs quoting), one line a seed
    rows = zip(result.seeds.tolist(), result.summary.tolist(), result.final_gap.tolist(),
               result.clipped_fraction.tolist(), result.diverged.tolist())
    lines = ["seed,summary,final_gap,clipped_fraction,diverged"]
    lines += [f"{seed:d},{summary!r},{final_gap!r},{clipped!r},{diverged:d}"
              for seed, summary, final_gap, clipped, diverged in rows]
    with open(csv_path, "w", newline="") as fh:
        fh.write("# schema=1\n" + "\r\n".join(lines) + "\r\n")
    with open(os.path.join(out, "summary.jsonl"), "w") as fh:
        fh.write(json.dumps(summary.row()) + "\n")
    return csv_path


# -- rate fitting -----------------------------------------------------------------


def theoretical_exponent(cfg: ExperimentConfig) -> float:
    """Predicted log-log slope of the median metric in the horizon."""
    if cfg.algorithm in ("smd",):
        return (1.0 - cfg.p) / cfg.p
    if cfg.algorithm == "asmd":
        # interpolation: the small-noise branch decays quadratically
        return -2.0 if cfg.sigma == 0 else (1.0 - cfg.p) / cfg.p
    return (2.0 - 2.0 * cfg.p) / (3.0 * cfg.p - 2.0)


def fit_power_law(horizons, values) -> tuple[float, float, float]:
    """OLS slope/intercept/R^2 of log(values) against log(horizons)."""
    horizons = np.asarray(horizons, dtype=float)
    values = np.asarray(values, dtype=float)
    if not np.all((values > 0) & np.isfinite(values)):
        raise ValueError("nonpositive or non-finite metric: log-log fit undefined")
    x, y = np.log(horizons), np.log(values)
    if np.amax(x) == np.amin(x):
        raise ValueError("all horizons identical: log-log fit undefined")
    # scipy's linregress arithmetic: the biased covariance, r clipped to [-1, 1]
    s_xx, s_xy, _, s_yy = np.cov(x, y, bias=1).flat
    r = 0.0 if s_xx == 0.0 or s_yy == 0.0 else min(max(s_xy / np.sqrt(s_xx * s_yy), -1.0), 1.0)
    slope = s_xy / s_xx
    return float(slope), float(np.mean(y) - slope * np.mean(x)), float(r ** 2)


def fit_rate(cfg: ExperimentConfig) -> RateFit:
    """Median-metric slope over the config's horizon grid versus the prediction."""
    if cfg.horizon_grid is None or len(cfg.horizon_grid) < 4:
        raise ConfigError("experiment.t_grid",
                          "rate fitting needs a horizon grid with at least 4 points")
    if len(set(cfg.horizon_grid)) == 1:
        raise ConfigError("experiment.t_grid", "all horizons identical: log-log fit undefined")
    if cfg.n_seeds < 100:
        raise ConfigError("experiment.seeds", "rate fitting needs at least 100 seeds per horizon")
    # one sweep per distinct horizon: a repeated horizon's seeds give the same median
    horizons = list(dict.fromkeys(cfg.horizon_grid))
    swept = _sweeps(cfg, [(horizon, cfg.algorithm) for horizon in horizons])
    median = {horizon: float(np.median(result.summary))
              for horizon, (result, _) in zip(horizons, swept)}
    medians = [median[horizon] for horizon in cfg.horizon_grid]
    slope, _, r2 = fit_power_law(cfg.horizon_grid, medians)
    exponent = theoretical_exponent(cfg)
    return RateFit(
        horizons=np.asarray(cfg.horizon_grid), medians=np.asarray(medians),
        slope=slope, r_squared=r2, exponent=exponent, deviation=slope - exponent,
    )


# -- clipped versus unclipped -------------------------------------------------------


def compare_clipped_vanilla(cfg: ExperimentConfig) -> VanillaComparison:
    """Paired-seed comparison of final gaps; identical noise per seed.

    The baseline takes the constant step ``schedule.vanilla_eta`` when it is set,
    else the clipped schedule's first step size eta_1; under ``sgd_known_t``, whose
    step is constant, clipping is then the only difference.  Requires a heavy-tailed configuration (p < 2) unless
    the noise is switched off entirely.
    """
    if cfg.sigma > 0 and cfg.p >= 2.0:
        raise ConfigError("noise.p", "the comparison targets heavy tails: configure p < 2 "
                                     "(or sigma = 0)")
    if cfg.mode not in SGD_MODES:
        raise ConfigError("schedule.mode", f"compare runs clipped gradient descent; {cfg.mode} "
                          f"is not one of {SGD_MODES}")
    (clipped, _), (vanilla, _) = _sweeps(cfg, [(cfg.horizon, "sgd"),
                                               (cfg.horizon, "vanilla-sgd")])
    up = 1.0 - cfg.delta
    clipped_upper = upper_quantile(clipped.final_gap, up)
    vanilla_upper = upper_quantile(vanilla.final_gap, up)
    vanilla_median = float(np.median(vanilla.final_gap))
    clipped_median = float(np.median(clipped.final_gap))
    return VanillaComparison(
        n_pairs=cfg.n_seeds,
        clipped_median=clipped_median,
        vanilla_median=vanilla_median,
        clipped_upper=clipped_upper,
        vanilla_upper=vanilla_upper,
        median_ratio=clipped_median / vanilla_median if vanilla_median > 0 else math.nan,
        vanilla_diverged=int(np.sum(vanilla.diverged)),
    )
