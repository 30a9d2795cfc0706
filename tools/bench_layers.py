"""Per-layer timings of the lockstep loops, the schedule table and the noise draws.

Prints, one line each:

* ns per seed-step of one lockstep step, for each algorithm and geometry, at
  the seed counts and dimensions of the run-smd (1000 seeds, d = 2),
  rates-sgd (100, d = 2), asmd-simplex (500, d = 32) and diagnose (one seed,
  d = 2: a single run is the one-seed batch) workloads; the loop runs on
  draws built beforehand, so the time is the loop's alone; the
  ``smd_param_free`` row is Euclidean SMD on the parameter-free schedule,
  whose steps keep each row's displacement and take per-row levels;
* the same for a Euclidean SMD step that clips: its level is scaled down to
  1, below the spikes, so nearly every step calls ``clip_batch`` (the share of
  seed-steps clipped is printed);
* the exact clipped moments of each noise family at the same 256 points
  (d = 2): ``TwoPointNoise.clipped_moments``, a sum over the support, and
  ``RadialParetoNoise.clipped_moments``, a quadrature; in ms and in us per point;
* the time of ``Schedule.table(T)`` and of one ``Schedule.pair`` call, per mode;
* the time of ``noise.lockstep_draws`` at each workload's full size;
* the time of one ``harness._sweep`` (the seeds of one config at one horizon, written
  nowhere) at the run-smd, rates-sgd (its longest horizon) and asmd-simplex sizes, run in
  this process (W = 1) and on the W worker processes a sweep past the fork threshold uses;
* nproc, the Python version and the numpy version.

Each time is the minimum over ``--repeat`` runs, which on a shared machine is
the least disturbed one.  The rows time the one tree the script is run from,
with each case's repeats back to back, so a slow spell of a shared host lands
on one tree's rows: to compare two trees, alternate whole runs between their
checkouts (parent, change, parent, ...) and compare each row over the runs,
never one run of each.  Run from the repository root::

    PYTHONPATH=src python tools/bench_layers.py            # about a minute
    PYTHONPATH=src python tools/bench_layers.py --tiny     # smoke sizes, well under 1 s
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import platform
import time

import numpy as np

from clipopt import algorithms, geometry, harness, noise, problems, schedules
from clipopt.config import ExperimentConfig, validate_config

# (name, seeds, dimension, horizon of the draws build); one step is timed over LOOP_STEPS
SIZES = [("run-smd", 1000, 2, 4096), ("rates-sgd", 100, 2, 16384),
         ("asmd-simplex", 500, 32, 2048), ("diagnose", 1, 2, 256)]
TINY_SIZES = [("tiny", 3, 2, 16), ("tiny-simplex", 2, 4, 16)]
LOOP_STEPS, TINY_LOOP_STEPS = 512, 8
TABLE_T, TINY_TABLE_T = 16384, 64
# (row name, loop, geometry, schedule mode or the baseline's step)
GEOMETRIES = ("euclidean", "ball", "simplex")
CASES = ([("smd", algorithms._smd, g, "smd_known_t") for g in GEOMETRIES]
         + [("smd_param_free", algorithms._smd, "euclidean", "smd_param_free")]
         + [("asmd", algorithms._asmd, g, "asmd_known_t") for g in GEOMETRIES]
         + [("sgd", algorithms._sgd, "euclidean", "sgd_known_t"),
            ("vanilla-sgd", algorithms._vanilla, "euclidean", 0.01)])
# the clipping step: (name, seeds, dimension) and the level its schedule is scaled to
CLIP_SIZE, TINY_CLIP_SIZE = ("rates-sgd", 100, 2), ("tiny", 3, 2)
CLIP_LEVEL = 1.0
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
    quad = problems.make_quadratic(np.ones(d), np.zeros(d))
    x1 = np.full(d, 1.0 / np.sqrt(d))
    if kind == "ball":
        return dataclasses.replace(quad, geometry=geometry.ball(d, radius=2.0)), x1
    return quad, 4.0 * x1


def _draws(model, d: int, steps: int, n: int):
    """The lockstep draws of seeds 0..n-1, as a batch run makes them."""
    return noise.lockstep_draws(model, d, steps, (noise.make_rng(k) for k in range(n)), n)


def _schedule(mode: str, problem, x1, sigma: float, horizon: int,
              level: float | None = None) -> schedules.Schedule:
    """The mode's schedule; with ``level``, its first clipping level scaled to that value."""
    inputs = schedules.derive_inputs(problem, x1, p=1.5, sigma=sigma, delta=0.1, horizon=horizon)
    sched = schedules.Schedule(mode, inputs)
    if level is None:
        return sched
    return schedules.Schedule(mode, inputs, lambda_scale=level / sched.lam(1))


def step_lines(sizes, steps: int, repeat: int):
    for name, n, d, _ in sizes:
        for algorithm, loop, kind, param in CASES:
            problem, x1 = _problem(kind, d)
            if algorithm == "sgd":
                problem, x1 = problems.make_nonconvex_ratio(d), np.full(d, 0.1)
            sigma = 0.5 if kind == "simplex" else 0.25
            model = noise.TwoPointNoise(p=1.5, sigma=sigma, q=0.1)
            if isinstance(param, str):
                param = _schedule(param, problem, x1, sigma, steps)
            draws = _draws(model, d, steps, n)

            def run():
                with np.errstate(over="ignore", invalid="ignore"):
                    loop(problem, param, steps, x1, draws, False)

            ns = _best(run, repeat) / (n * steps) * 1e9
            print(f"step {name:<13} n={n:<5} d={d:<3} {algorithm}/{kind:<10} "
                  f"{ns:9.1f} ns/seed-step")


def clip_line(size, steps: int, repeat: int):
    name, n, d = size
    problem, x1 = _problem("euclidean", d)
    sched = _schedule("smd_known_t", problem, x1, 0.25, steps, level=CLIP_LEVEL)
    model = noise.TwoPointNoise(p=1.5, sigma=0.25, q=0.1)
    draws = _draws(model, d, steps, n)
    clipped = algorithms._smd(problem, sched, steps, x1, draws, False)[2]
    ns = _best(lambda: algorithms._smd(problem, sched, steps, x1, draws, False),
               repeat) / (n * steps) * 1e9
    print(f"clipstep {name:<13} n={n:<5} d={d:<3} smd/euclidean  {ns:9.1f} ns/seed-step "
          f"clipped={clipped.sum() / (n * steps):.3f}")


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


def draws_lines(sizes, repeat: int):
    for name, n, d, steps in sizes:
        model = noise.TwoPointNoise(p=1.5, sigma=0.25, q=0.1)
        seconds = _best(lambda: _draws(model, d, steps, n), repeat)
        print(f"draws {name:<13} n={n:<5} d={d:<3} T={steps:<6} {seconds * 1e3:9.1f} ms")


def sweep_lines(sweeps, repeat: int):
    threshold = harness._FORK_SEED_STEPS
    try:
        for name, fields in sweeps:
            cfg = ExperimentConfig(**fields)
            validate_config(cfg)
            seconds = []
            for fork_from in (float("inf"), 0):  # never, then at every size
                harness._FORK_SEED_STEPS = fork_from
                seconds.append(_best(lambda: harness._sweep(cfg, cfg.horizon, cfg.algorithm),
                                     repeat))
            W = harness._workers(cfg.n_seeds, cfg.horizon)
            print(f"sweep {name:<13} n={cfg.n_seeds:<5} d={cfg.dim:<3} T={cfg.horizon:<6} "
                  f"{cfg.algorithm:<5} W=1 {seconds[0] * 1e3:9.1f} ms  "
                  f"W={W} {seconds[1] * 1e3:9.1f} ms")
    finally:
        harness._FORK_SEED_STEPS = threshold


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
    step_lines(sizes, steps, repeat)
    clip_line(TINY_CLIP_SIZE if args.tiny else CLIP_SIZE, steps, repeat)
    moments_line(TINY_MOMENTS if args.tiny else MOMENTS, repeat)
    schedule_lines(TINY_TABLE_T if args.tiny else TABLE_T, repeat)
    draws_lines(sizes, repeat)
    sweep_lines(TINY_SWEEPS if args.tiny else SWEEPS, repeat)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
