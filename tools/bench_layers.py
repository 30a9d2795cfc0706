"""Per-layer timings of the lockstep loops, the schedule table and the noise draws.

Prints, one line each:

* ns per seed-step of one lockstep step, for each algorithm and geometry, at
  the seed counts and dimensions of the run-smd (1000 seeds, d = 2),
  rates-sgd (100, d = 2), asmd-simplex (500, d = 32) and diagnose (one seed,
  d = 2: a single run is the one-seed batch) workloads; the loop runs on
  draws built beforehand, so the time is the loop's alone; the
  ``smd_param_free`` row is Euclidean SMD on the parameter-free schedule,
  whose steps keep each row's displacement and take per-row levels;
* beside each ``smd`` and ``sgd`` step row at the rates-sgd and diagnose sizes, a
  ``kernel`` row: the same problem's ``grad_many``, the noise add and the
  geometry's ``mirror_step_many``, called in a plain loop on fixed buffers (no
  windows, draws, schedule pairs or clip test), so that the step row less the
  kernel row is what the loop spends around the arithmetic;
* one more ``smd`` step row, at one of two workers' share of run-smd (500 seeds,
  d = 2), on a quadratic whose curvature (1, 2) and shift (0.5, -0.5) differ by
  coordinate (``smd/nonuniform``): every other quadratic here has the uniform
  defaults, which enter the row forms as 0-d operands, so this row times the
  laid-out constants;
* ns per seed-step of the mirror-descent loop's per-window metric alone, over the
  windows of a run at one of two workers' share of run-smd and at the rates-sgd
  size (d = 2): SMD's ``gap_many`` of a window's iterates on the uniform and the
  non-uniform quadratic, and SGD's ``coord_dot`` of its gradients;
* the step time of steps that clip, each at two first levels (the share of
  seed-steps clipped is printed), one that clips every step and one that clips
  few, so that a loop's clip tests find a clip at some steps: Euclidean SMD at
  the rates-sgd size and at one of two workers' share of run-smd (500 seeds),
  at 1, below the spikes (every step), and at 4.5, just over the gradient's
  norm at the start (1.1% of the seed-steps, so the once-a-window check finds a
  clip in some windows and replays their steps from it); accelerated SMD on
  the simplex at one of two workers' share of asmd-simplex (250 seeds, d = 32),
  at 1e-3 (every step) and at 500, whose levels fall below the spikes late in
  the run (1.6%);
* the exact clipped moments of each noise family at the same 256 points
  (d = 2): ``TwoPointNoise.clipped_moments``, a sum over the support, and
  ``RadialParetoNoise.clipped_moments``, a quadrature; in ms and in us per point;
* the time of ``Schedule.table(T)`` and of one ``Schedule.pair`` call, per mode;
* the time of a two-point draws build (q = 0.1) at each workload's size (run-smd's
  at one of two workers' 500 seeds), in ms, in us per seed and in ns per seed-step:
  an ``algorithms._batch`` call through a loop that takes no step, so the row
  times the batch's own ``noise.lockstep_draws`` call on any tree, whatever that
  call's arguments, repeated up to ``DRAWS_SEED_STEPS`` seed-steps a timed call;
  the per-seed part holds a fixed cost (the seed's key, its two generator calls)
  that the seed-steps do not;
* the time of one ``harness._sweeps`` call on one sweep (the seeds of one config at one
  horizon, written nowhere) at the run-smd, rates-sgd (its longest horizon) and
  asmd-simplex sizes, and of one ``harness.fit_rate`` (every horizon of the rates-sgd grid
  in one call), each run in this process (W = 1) and on the W worker processes a call past
  the fork threshold uses;
* the time of one recorded ``run_smd_batch`` and one recorded ``run_asmd_batch``
  (Euclidean, draws included), in ms, each with its traced peak and the MB its result
  holds (``tracemalloc``, from a second call): a recorded run feeds the diagnostics,
  which read its step table;
* nproc, the Python version and the numpy version.

Each time is the minimum over ``--repeat`` runs, which on a shared machine is
the least disturbed one.  The rows time the one tree the script is run from,
with each case's repeats back to back, so a slow spell of a shared host lands
on one tree's rows: to compare two trees, use ``tools/ab_layers.py``, which
runs the step, kernel, metric, clipstep, draws and one-process sweep rows of
both trees in one process, interleaved repeat by repeat.  Run from the
repository root::

    PYTHONPATH=src python tools/bench_layers.py            # about a minute
    PYTHONPATH=src python tools/bench_layers.py --tiny     # smoke sizes, well under 1 s
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import os
import platform
import time
import tracemalloc

import numpy as np

from clipopt import algorithms, geometry, harness, noise, problems, schedules
from clipopt.config import ExperimentConfig, validate_config

# (name, seeds, dimension, horizon of the draws build); one step is timed over LOOP_STEPS
SIZES = [("run-smd", 1000, 2, 4096), ("rates-sgd", 100, 2, 16384),
         ("asmd-simplex", 500, 32, 2048), ("diagnose", 1, 2, 256)]
TINY_SIZES = [("tiny", 3, 2, 16), ("tiny-simplex", 2, 4, 16)]
# the draws builds: run-smd's 1000 seeds build on two workers, 500 each
DRAWS_SIZES = [("run-smd", 500, 2, 4096)] + SIZES[1:]
TINY_DRAWS_SIZES = TINY_SIZES
DRAWS_SEED_STEPS = 1 << 14
LOOP_STEPS, TINY_LOOP_STEPS = 512, 8
TABLE_T, TINY_TABLE_T = 16384, 64
# (row name, loop, geometry, schedule mode or the baseline's step)
GEOMETRIES = ("euclidean", "ball", "simplex")
CASES = ([("smd", algorithms._smd, g, "smd_known_t") for g in GEOMETRIES]
         + [("smd_param_free", algorithms._smd, "euclidean", "smd_param_free")]
         + [("asmd", algorithms._asmd, g, "asmd_known_t") for g in GEOMETRIES]
         + [("sgd", algorithms._sgd, "euclidean", "sgd_known_t"),
            ("vanilla-sgd", algorithms._vanilla, "euclidean", 0.01)])
# the laid-out constants: a quadratic whose curvature and shift differ by coordinate (every
# other quadratic here has the uniform defaults, each of which enters as a 0-d operand)
NONUNIFORM_DIAG, NONUNIFORM_SHIFT = (1.0, 2.0), (0.5, -0.5)
# the step rows on it, beside the others: Euclidean SMD at one of two workers' share of run-smd
NONUNIFORM_CASES = [("smd", algorithms._smd, "nonuniform", "smd_known_t")]
NONUNIFORM_SIZES, TINY_NONUNIFORM_SIZES = DRAWS_SIZES[:1], TINY_SIZES[:1]
# the window metric rows: SMD's gap on the uniform and the laid-out quadratic and SGD's
# squared gradient norm, over the windows a LOOP_STEPS run takes at these sizes
METRICS = [("smd", "euclidean"), ("smd", "nonuniform"), ("sgd", "euclidean")]
METRIC_SIZES, TINY_METRIC_SIZES = DRAWS_SIZES[:2], TINY_SIZES[:1]
# the kernel rows: the step rows of these algorithms, at the sizes named here
KERNEL_ALGORITHMS = ("smd", "sgd")
KERNEL_SIZES = [size for size in SIZES if size[0] in ("rates-sgd", "diagnose")]
TINY_KERNEL_SIZES = TINY_SIZES
# the clipping steps: (name, seeds, dimension, algorithm, geometry) and the first levels its
# known-T schedule is scaled to, one that clips every seed-step and one that clips few.  SMD:
# 1, below the spikes; 4.5, just over the gradient's norm at the start (4), clips 1.1% of
# the seed-steps, most of them early in the run.  ASMD on the simplex: at 1e-3 every level
# is below the gradient's; at 500 the levels, falling 256-fold over 512 steps, pass under
# the spikes late in the run and clip 1.6%
CLIP_CASES = [("rates-sgd", 100, 2, "smd", "euclidean", (1.0, 4.5)),
              ("run-smd", 500, 2, "smd", "euclidean", (1.0, 4.5)),
              ("asmd-simplex", 250, 32, "asmd", "simplex", (1e-3, 500.0))]
TINY_CLIP_CASES = [("tiny", 3, 2, "smd", "euclidean", (1.0, 4.5)),
                   ("tiny-simplex", 2, 4, "asmd", "simplex", (1e-3, 8.0))]
# the moments: query points (d = 2)
MOMENTS, TINY_MOMENTS = 256, 16
# the sweeps: (name, config fields), as the benchmark's workloads configure them
SWEEPS = [("run-smd", dict(algorithm="smd", mode="smd_known_t", horizon=4096, n_seeds=1000,
                           diag=(1.0, 1.0), shift=(0.0, 0.0), x1=(4.0, 0.0), p=1.5,
                           sigma=0.25)),
          ("rates-sgd", dict(algorithm="sgd", mode="sgd_known_t", horizon=16384, n_seeds=100,
                             problem="nonconvex_ratio", x1=(0.1, 0.1), sigma=0.1,
                             delta=0.36787944117144233)),
          ("asmd-simplex", dict(algorithm="asmd", mode="asmd_known_t", horizon=2048,
                                n_seeds=500, problem="simplex_quadratic", dim=32, p=1.5,
                                sigma=0.5))]
TINY_SWEEPS = [("tiny", dict(algorithm="smd", mode="smd_known_t", horizon=16, n_seeds=40)),
               ("tiny-simplex", dict(algorithm="asmd", mode="asmd_known_t", horizon=16,
                                     n_seeds=8, problem="simplex_quadratic", dim=4))]
# the rate fit: (name, config fields), the rates-sgd sweep over its workload's horizon grid
RATES = ("rates-sgd", dict(SWEEPS[1][1], horizon=256, horizon_grid=(256, 1024, 4096, 16384)))
TINY_RATES = ("tiny", dict(algorithm="smd", mode="smd_known_t", horizon=16, n_seeds=100,
                           horizon_grid=(16, 32, 64, 128)))
# the recorded runs: seeds and horizon, and (algorithm, schedule mode, runner)
RECORD, TINY_RECORD = (200, 1024), (3, 16)
RECORDS = [("smd", "smd_known_t", algorithms.run_smd_batch),
           ("asmd", "asmd_known_t", algorithms.run_asmd_batch)]
TABLE_MODES = ["smd_known_t", "smd_anytime", "smd_param_free", "asmd_known_t", "asmd_anytime",
               "sgd_known_t", "sgd_anytime"]


def _best(fn, repeat: int) -> float:
    """The least wall time of ``repeat`` calls, in seconds."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _problem(kind: str, d: int):
    """The instance and start point of one geometry at dimension d."""
    if kind == "simplex":
        target = np.arange(1, d + 1) / (d * (d + 1) / 2)
        return problems.make_simplex_quadratic(target), np.ones(d) / d
    if kind == "nonuniform":
        quad = problems.make_quadratic(np.resize(NONUNIFORM_DIAG, d),
                                       np.resize(NONUNIFORM_SHIFT, d))
    else:
        quad = problems.make_quadratic(np.ones(d), np.zeros(d))
    x1 = np.full(d, 1.0 / np.sqrt(d))
    if kind == "ball":
        return dataclasses.replace(quad, geometry=geometry.ball(d, radius=2.0)), x1
    return quad, 4.0 * x1


def _draws(model, d: int, steps: int, n: int):
    """The lockstep draws of seeds 0..n-1, as a batch run makes them (``_no_step``)."""
    return _draws_run(model, d, steps, n)().table


def _draws_run(model, d: int, steps: int, n: int):
    """A call of ``algorithms._batch`` on seeds 0..n-1 and a d-dimensional quadratic that
    builds their draws and takes no step (``_no_step``)."""
    problem, x1 = problems.make_quadratic(np.ones(d), np.zeros(d)), np.zeros(d)
    return functools.partial(algorithms._batch, _no_step, problem, model, None, steps, x1,
                             range(n), False)


def _no_step(problem, param, steps, x1, draws, record):
    """A loop that takes no step: zero summaries, gaps and clips for ``draws.n`` rows at
    ``x1``, and the draws it was given in the step table's place."""
    zeros = np.zeros(draws.n)
    return zeros, zeros, zeros, np.tile(x1, (draws.n, 1)), draws


def _schedule(mode: str, problem, x1, sigma: float, horizon: int,
              level: float | None = None) -> schedules.Schedule:
    """The mode's schedule; with ``level``, its first clipping level scaled to that value."""
    inputs = schedules.derive_inputs(problem, x1, p=1.5, sigma=sigma, delta=0.1, horizon=horizon)
    sched = schedules.Schedule(mode, inputs)
    if level is None:
        return sched
    return schedules.Schedule(mode, inputs, lambda_scale=level / sched.lam(1))


def _cases(sizes, steps: int, algorithms=None, cases=CASES):
    """(row label after its kind, loop, problem, start, schedule or the baseline's step,
    noise model, seeds) of each size and case, the cases of ``algorithms`` if given."""
    for name, n, d, _ in sizes:
        for algorithm, loop, kind, param in cases:
            if algorithms is not None and algorithm not in algorithms:
                continue
            problem, x1 = _problem(kind, d)
            if algorithm == "sgd":
                problem, x1 = problems.make_nonconvex_ratio(d), np.full(d, 0.1)
            sigma = 0.5 if kind == "simplex" else 0.25
            model = noise.TwoPointNoise(p=1.5, sigma=sigma, q=0.1)
            if isinstance(param, str):
                param = _schedule(param, problem, x1, sigma, steps)
            yield (f"{name:<13} n={n:<5} d={d:<3} {algorithm}/{kind:<10}", loop, problem, x1,
                   param, model, n)


def step_rows(sizes, steps: int, nonuniform_sizes=()):
    """(label, run, seed-steps) of each lockstep step row, then of each ``NONUNIFORM_CASES``
    row at ``nonuniform_sizes``; ``run`` makes ``steps`` steps."""
    for label, loop, problem, x1, param, model, n in itertools.chain(
            _cases(sizes, steps), _cases(nonuniform_sizes, steps, cases=NONUNIFORM_CASES)):
        run = functools.partial(_loop, loop, problem, param, steps, x1,
                                _draws(model, problem.dim, steps, n))
        yield f"step {label}", run, n * steps


def _loop(loop, problem, param, steps, x1, draws):
    """One unrecorded run of ``loop`` on draws built beforehand."""
    with np.errstate(over="ignore", invalid="ignore"):
        return loop(problem, param, steps, x1, draws, False)


def kernel_rows(sizes, steps: int):
    """(label, run, seed-steps) of each kernel row: the arithmetic of ``steps`` steps of an
    ``smd`` or ``sgd`` step row, with none of the loop around it (``_kernel``)."""
    for label, _, problem, x1, schedule, model, n in _cases(sizes, steps, KERNEL_ALGORITHMS):
        noise_rows = _draws(model, problem.dim, 1, n).slab(1).copy(order="K")
        eta = float(schedule.table(steps).eta[0])
        run = functools.partial(_kernel, problem, x1, noise_rows, eta, steps)
        yield f"kernel {label}", run, n * steps


def _kernel(problem, x1, noise_rows, eta: float, steps: int):
    """``steps`` calls of the problem's ``grad_many``, the noise add and the geometry's
    ``mirror_step_many`` on fixed seed-contiguous buffers, in a plain loop: no windows, no
    draws, one step size, no clip test.  A step row's time less this one's is what the
    loop spends around the arithmetic."""
    n, d = noise_rows.shape
    X, F, G, S = (np.empty((d, n)).T for _ in range(4))
    X[...] = x1
    grad_many, add, step = problem.grad_many, np.add, problem.geometry.mirror_step_many
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            step(X, add(grad_many(X, F), noise_rows, G), eta, X, S)
    return X


def step_lines(sizes, kernel_sizes, nonuniform_sizes, steps: int, repeat: int):
    """Each step row, and after each that has one, its kernel row."""
    kernels = {label.split(None, 1)[1]: (label, run, seed_steps)
               for label, run, seed_steps in kernel_rows(kernel_sizes, steps)}
    for row in step_rows(sizes, steps, nonuniform_sizes):
        kernel = kernels.get(row[0].split(None, 1)[1])
        for label, run, seed_steps in [row] + ([kernel] if kernel else []):
            print(f"{label} {_best(run, repeat) / seed_steps * 1e9:9.1f} ns/seed-step")


def metric_rows(sizes, steps: int):
    """(label, run, seed-steps) of each window metric row: ``run`` evaluates the metric of
    ``METRICS`` over the windows of ``steps`` steps (``noise.window_steps``) on n seeds, as
    ``algorithms._descent`` does once a window: SMD's ``gap_many`` of a window's iterates,
    SGD's ``coord_dot`` of its gradients with themselves, each into a (K, n) row block."""
    for name, n, d, _ in sizes:
        K = noise.window_steps(steps, d, n)
        window, _ = algorithms._slots(K, n, d)
        window[...] = np.random.default_rng(0).standard_normal((K, n, d))
        out, windows = np.empty((K, n)), -(-steps // K)
        for algorithm, kind in METRICS:
            if algorithm == "smd":
                metric = functools.partial(_problem(kind, d)[0].gap_many, window, out)
            else:
                metric = functools.partial(geometry.coord_dot, window, window, out)
            yield (f"metric {name:<13} n={n:<5} d={d:<3} {algorithm}/{kind:<10} K={K:<4}",
                   functools.partial(_repeat, metric, windows), n * K * windows)


def metric_lines(sizes, steps: int, repeat: int):
    for label, run, seed_steps in metric_rows(sizes, steps):
        print(f"{label} {_best(run, repeat) / seed_steps * 1e9:9.2f} ns/seed-step")


def clip_rows(cases, steps: int):
    """(label, run, seed-steps, share of them clipped) of each clipping step row."""
    for name, n, d, algorithm, kind, levels in cases:
        problem, x1 = _problem(kind, d)
        sigma = 0.5 if kind == "simplex" else 0.25
        draws = _draws(noise.TwoPointNoise(p=1.5, sigma=sigma, q=0.1), d, steps, n)
        loop = getattr(algorithms, f"_{algorithm}")
        for level in levels:
            sched = _schedule(f"{algorithm}_known_t", problem, x1, sigma, steps, level=level)
            run = functools.partial(_loop, loop, problem, sched, steps, x1, draws)
            yield (f"clipstep {name:<13} n={n:<5} d={d:<3} {algorithm}/{kind:<10} "
                   f"level={level:<4g}", run, n * steps, run()[2].sum() / (n * steps))


def clip_lines(cases, steps: int, repeat: int):
    for label, run, seed_steps, share in clip_rows(cases, steps):
        print(f"{label} {_best(run, repeat) / seed_steps * 1e9:9.1f} ns/seed-step "
              f"clipped={share:.3f}")


def moments_line(points: int, repeat: int):
    problem, d = problems.make_quadratic(np.ones(2), np.zeros(2)), 2
    X = np.random.default_rng(0).standard_normal((points, d))
    line = f"moments points={points:<5} d={d:<3}"
    for name, model in (("two_point", noise.TwoPointNoise(p=1.5, sigma=1.0, q=0.2)),
                        ("radial", noise.RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75))):
        seconds = _best(lambda: model.clipped_moments(problem, X, 1.0), repeat)
        line += f"  {name} {seconds * 1e3:8.3f} ms {seconds / points * 1e6:8.2f} us/point"
    print(line)


def schedule_lines(horizon: int, repeat: int):
    problem, x1 = _problem("euclidean", 2)
    for mode in TABLE_MODES:
        if mode.startswith("sgd"):
            sched = _schedule(mode, problems.make_nonconvex_ratio(2), np.full(2, 0.1), 0.25,
                              horizon)
        else:
            sched = _schedule(mode, problem, x1, 0.25, horizon)
        calls = min(horizon, 1000)
        pair_ns = _best(lambda: [sched.pair(t) for t in range(1, calls + 1)], repeat) / calls * 1e9
        table_ms = _best(lambda: sched.table(horizon), repeat) * 1e3
        print(f"schedule {mode:<13} T={horizon:<6} table {table_ms:9.3f} ms   "
              f"pair {pair_ns:8.1f} ns/call")


def draws_rows(sizes):
    """(label, run, builds, seeds, steps) of each draws row; ``run`` builds the draws
    ``builds`` times, enough for ``DRAWS_SEED_STEPS`` seed-steps, so that a one-seed
    build's ~0.1 ms is not timed alone."""
    model = noise.TwoPointNoise(p=1.5, sigma=0.25, q=0.1)
    for name, n, d, steps in sizes:
        build, builds = _draws_run(model, d, steps, n), -(-DRAWS_SEED_STEPS // (n * steps))
        yield (f"draws {name:<13} n={n:<5} d={d:<3} T={steps:<6}",
               functools.partial(_repeat, build, builds), builds, n, steps)


def _repeat(fn, times: int):
    for _ in range(times):
        fn()


def draws_lines(sizes, repeat: int):
    for label, run, builds, n, steps in draws_rows(sizes):
        seconds = _best(run, repeat) / builds
        print(f"{label} {seconds * 1e3:9.1f} ms {seconds / n * 1e6:8.1f} us/seed "
              f"{seconds / (n * steps) * 1e9:7.2f} ns/seed-step")


def _at_threshold(fn, fork_from: float):
    """``fn`` made to run with the fork threshold at ``fork_from`` seed-steps: never at inf."""
    def run():
        threshold = harness._FORK_SEED_STEPS
        harness._FORK_SEED_STEPS = fork_from
        try:
            return fn()
        finally:
            harness._FORK_SEED_STEPS = threshold
    return run


def _forked_and_not(fn, repeat: int) -> list[float]:
    """``fn``'s best time in this process alone, then with every call forking."""
    return [_best(_at_threshold(fn, fork_from), repeat) for fork_from in (float("inf"), 0)]


def _config(fields) -> ExperimentConfig:
    cfg = ExperimentConfig(**fields)
    validate_config(cfg)
    return cfg


def sweep_rows(sweeps):
    """(label, config, run) of each sweep row; ``run`` makes the sweep, written nowhere."""
    for name, fields in sweeps:
        cfg = _config(fields)
        yield (f"sweep {name:<13} n={cfg.n_seeds:<5} d={cfg.dim:<3} T={cfg.horizon:<6} "
               f"{cfg.algorithm:<5}", cfg,
               functools.partial(harness._sweeps, cfg, [(cfg.horizon, cfg.algorithm)]))


def sweep_lines(sweeps, repeat: int):
    for label, cfg, run in sweep_rows(sweeps):
        seconds = _forked_and_not(run, repeat)
        W = harness._workers(cfg.n_seeds, harness._FORK_SEED_STEPS)  # a call past the threshold
        print(f"{label} W=1 {seconds[0] * 1e3:9.1f} ms  W={W} {seconds[1] * 1e3:9.1f} ms")


def rates_line(rates, repeat: int):
    name, fields = rates
    cfg = _config(fields)
    seconds = _forked_and_not(lambda: harness.fit_rate(cfg), repeat)
    grid = dict.fromkeys(cfg.horizon_grid)
    W = harness._workers(cfg.n_seeds * len(grid), harness._FORK_SEED_STEPS)
    print(f"rates {name:<13} n={cfg.n_seeds:<5} d={cfg.dim:<3} "
          f"T={','.join(map(str, grid))} {cfg.algorithm:<5} W=1 {seconds[0] * 1e3:9.1f} ms  "
          f"W={W} {seconds[1] * 1e3:9.1f} ms")


def record_lines(size, repeat: int):
    n, steps = size
    problem, x1 = _problem("euclidean", 2)
    model = noise.TwoPointNoise(p=1.5, sigma=0.25, q=0.1)
    for algorithm, mode, batch in RECORDS:
        sched = _schedule(mode, problem, x1, 0.25, steps)
        run = functools.partial(batch, problem, model, sched, steps, x1, range(n), record=True)
        seconds = _best(run, repeat)  # the traced call below follows the first-use allocations
        tracemalloc.start()
        try:
            result = run()  # alive while the held bytes are read
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del result
        print(f"record n={n:<5} d={problem.dim:<3} T={steps:<6} {algorithm + '/euclidean':<14} "
              f"{seconds * 1e3:9.1f} ms peak {peak / 1e6:9.3f} MB held {held / 1e6:9.3f} MB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tiny", action="store_true", help="smoke sizes (well under a second)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="runs per timing, the least kept (default 5, 1 with --tiny)")
    args = parser.parse_args(argv)
    repeat = args.repeat or (1 if args.tiny else 5)
    sizes = TINY_SIZES if args.tiny else SIZES
    print(f"machine nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={np.__version__}")
    steps = TINY_LOOP_STEPS if args.tiny else LOOP_STEPS
    step_lines(sizes, TINY_KERNEL_SIZES if args.tiny else KERNEL_SIZES,
               TINY_NONUNIFORM_SIZES if args.tiny else NONUNIFORM_SIZES, steps, repeat)
    metric_lines(TINY_METRIC_SIZES if args.tiny else METRIC_SIZES, steps, repeat)
    clip_lines(TINY_CLIP_CASES if args.tiny else CLIP_CASES, steps, repeat)
    moments_line(TINY_MOMENTS if args.tiny else MOMENTS, repeat)
    schedule_lines(TINY_TABLE_T if args.tiny else TABLE_T, repeat)
    draws_lines(TINY_DRAWS_SIZES if args.tiny else DRAWS_SIZES, repeat)
    sweep_lines(TINY_SWEEPS if args.tiny else SWEEPS, repeat)
    rates_line(TINY_RATES if args.tiny else RATES, repeat)
    record_lines(TINY_RECORD if args.tiny else RECORD, repeat)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
