"""clipopt benchmark: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload run-smd --seed 1 --seconds 20 --trace 0

Runs ``clipopt.cli.main`` in-process, op after op, for ``--seconds`` of wall
time (output checks included) after one warm-up cycle, then reruns op 0 and
requires byte-identical outputs.  Set-up time is measured first, in fresh
interpreters.  Times are scaled to a nominal machine speed by a speed
sampler that runs during the ops (speed.py).
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` alternate cycles are traced and it carries the per-layer
metrics (see README.md).  A full report with provenance and the unscaled
wall times goes to ``perfbench/_work/``.  Exit code 0 whenever a result is
printed, 2 when the checkout has no clipopt sources.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("run-smd", "rates-sgd", "run-asmd-simplex", "diagnose")


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a single set-up probe (the smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def declared_metrics() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json declares them."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    spec = json.loads(path.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def import_clipopt():
    if not (SRC / "clipopt" / "cli.py").is_file():
        raise BenchError(f"no clipopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import clipopt.cli

    if not Path(clipopt.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"clipopt imported from {clipopt.cli.__file__}, not from {SRC}")
    return clipopt.cli


def measure_setup(wl, repeats: int) -> list[dict]:
    """Import plus config load in fresh interpreters; the first run only warms the caches."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), str(SRC),
           str(wl.config_path), *wl.overrides(0)]
    # with the bytecode cache on, as in a normal install, so only the first probe compiles
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    samples = []
    for k in range(repeats + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT, env=env)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        if k:
            samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


# -- provenance --------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unavailable' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            sizes[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes or {"caches": "unavailable"}


def provenance(args, wl) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "git_commit": git_commit(), "inputs": wl.provenance(), "cpu_cache": cache_sizes(),
    }


# -- the closed loop ---------------------------------------------------------------


def timed_call(main, argv):
    """One op: ``main(argv)`` with its stdout captured; ``None`` exit code on an exception."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except Exception:  # an op that crashes counts as failed; the loop goes on
        traceback.print_exc()
        rc = None
    t1 = time.perf_counter()
    return {"t0": t0, "t1": t1, "wall_s": t1 - t0}, rc, buf.getvalue()


def run_ops(args, wl, cli, tracer):
    """Warm-up cycle, then whole cycles until --seconds of wall time have passed."""
    L = wl.cycle_len
    traced_main = tracer.wrap("op", cli.main) if tracer else None
    ops = []
    deadline = None
    i = 0
    while True:
        cycle = i // L
        if i % L == 0 and cycle >= 1:
            if cycle == 1:
                deadline = time.perf_counter() + args.seconds
            # at least two measured cycles: one traced and one untraced when tracing
            elif time.perf_counter() >= deadline and cycle >= 3:
                break
        traced = tracer is not None and cycle >= 1 and cycle % 2 == 0
        for path in wl.output_files(i):
            path.unlink(missing_ok=True)
        if traced:
            tracer.install(i)
        try:
            timing, rc, stdout = timed_call(traced_main if traced else cli.main, wl.argv(i))
        finally:
            if traced:
                tracer.uninstall()
        problems = wl.check(i, rc, stdout)
        if i == 0:
            first_outputs = wl.outputs(0, stdout)
        ops.append({"i": i, "cycle": cycle, "traced": traced, **timing,
                    "seed_steps": wl.seed_steps(i), "problems": problems})
        i += 1
    # rerun of op 0: the same outputs, byte for byte
    for path in wl.output_files(0):
        path.unlink(missing_ok=True)
    timing, rc, stdout = timed_call(cli.main, wl.argv(0))
    rerun_outputs = wl.outputs(0, stdout)
    problems = [] if rc == 0 else [f"rerun: exit code {rc}"]
    changed = sorted(k for k in first_outputs.keys() | rerun_outputs.keys()
                     if first_outputs.get(k) != rerun_outputs.get(k))
    if changed:
        problems.append(f"rerun of op 0 changed {changed}")
    ops.append({"i": 0, "cycle": -1, "traced": False, **timing, "seed_steps": 0,
                "problems": problems, "rerun": True})
    digests = {k: hashlib.sha256(v).hexdigest() for k, v in first_outputs.items()}
    return ops, digests


def apply_speed_scale(ops, sampler):
    """Add each op's time at nominal machine speed (``seconds``) and its ``scale`` factor."""
    for op in ops:
        op["scale"] = sampler.factor(op["t0"], op["t1"])
        op["seconds"] = sampler.nominal(op["t0"], op["t1"])


def cycle_times(ops, L, traced: bool, key: str = "seconds") -> list[float]:
    """Per-op time of each measured cycle (cycle time / ops per cycle)."""
    by_cycle: dict[int, list[float]] = {}
    for op in ops:
        if op["cycle"] >= 1 and op["traced"] == traced:
            by_cycle.setdefault(op["cycle"], []).append(op[key])
    return [sum(ts) / L for ts in by_cycle.values() if len(ts) == L]


# -- metrics -----------------------------------------------------------------------


def timing_metrics(ops, wl, setup, scaled: bool) -> dict:
    """Set-up and op-time metrics from scaled or from unscaled wall times."""
    key = "seconds" if scaled else "wall_s"
    times = cycle_times(ops, wl.cycle_len, traced=False, key=key)
    measured = [op for op in ops if op["cycle"] >= 1 and not op["traced"]]
    return {
        "setup_s": statistics.median(p["total_s_scaled" if scaled else "total_s"] for p in setup),
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
        "seed_steps_per_s": (sum(op["seed_steps"] for op in measured)
                             / sum(op[key] for op in measured)),
    }


def end_to_end(ops, wl, setup, attempted, failed) -> dict:
    return {
        **timing_metrics(ops, wl, setup, scaled=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_op_frac": (attempted - failed) / attempted,
    }


def _get(row, key):
    return row.get(key, 0.0)


def _ratio(num, den, scale):
    return num / den * scale if den else 0.0


LAYER_FROM_SPANS = {
    "harness.self_s": lambda r: _get(r, "harness:self"),
    "harness.batch_calls": lambda r: _get(r, "algorithms.batch:calls"),
    "harness.write_s": lambda r: _get(r, "harness.write:self"),
    "harness.bytes_written": lambda r: _get(r, "harness.bytes_written"),
    "noise.presample_s": lambda r: _get(r, "noise.presample:incl"),
    "noise.presample_ns_per_draw": lambda r: _ratio(_get(r, "noise.presample:incl"),
                                                    _get(r, "noise.presample_draws"), 1e9),
    "noise.resample_s": lambda r: _get(r, "noise.resample:incl"),
    "noise.draws": lambda r: _get(r, "noise.draws"),
    "algorithms.batch_self_s": lambda r: _get(r, "algorithms.batch:self"),
    "algorithms.batch_ns_per_seed_step": lambda r: _ratio(_get(r, "algorithms.batch:loop"),
                                                          _get(r, "algorithms.batch_seed_steps"), 1e9),
    "algorithms.single_self_s": lambda r: _get(r, "algorithms.single:self"),
    "algorithms.single_us_per_step": lambda r: _ratio(_get(r, "algorithms.single:loop"),
                                                      _get(r, "algorithms.single_steps"), 1e6),
    "algorithms.noise_block_mb": lambda r: _get(r, "peak:noise_block_bytes") / 1e6,
    "schedules.pair_calls": lambda r: _get(r, "schedules.pair:calls"),
    "schedules.pair_s": lambda r: _get(r, "schedules.pair:self"),
    "schedules.verify_s": lambda r: _get(r, "schedules.verify:self"),
    "schedules.bound_s": lambda r: _get(r, "schedules.bound:self"),
    "geometry.mirror_step_calls": lambda r: _get(r, "geometry.mirror_step:calls"),
    "geometry.mirror_step_s": lambda r: _get(r, "geometry.mirror_step:self"),
    "geometry.dual_norm_s": lambda r: _get(r, "geometry.dual_norm:self"),
    "geometry.bregman_calls": lambda r: _get(r, "geometry.bregman:calls"),
    "geometry.bregman_s": lambda r: _get(r, "geometry.bregman:self"),
    "problems.grad_calls": lambda r: _get(r, "problems.grad:calls"),
    "problems.grad_s": lambda r: _get(r, "problems.grad:self"),
    "problems.gap_calls": lambda r: _get(r, "problems.gap:calls"),
    "problems.gap_s": lambda r: _get(r, "problems.gap:self"),
    "clipping.clip_batch_calls": lambda r: _get(r, "clipping.clip_batch:calls"),
    "clipping.clip_batch_s": lambda r: _get(r, "clipping.clip_batch:self"),
    "diagnostics.pathwise_s": lambda r: _get(r, "diagnostics.pathwise:self"),
    "diagnostics.martingale_s": lambda r: _get(r, "diagnostics.martingale:self"),
    "diagnostics.error_bounds_s": lambda r: _get(r, "diagnostics.error_bounds:self"),
    "diagnostics.write_s": lambda r: _get(r, "diagnostics.write:self"),
}


def per_layer(ops, wl, setup, tracer) -> dict:
    """Per-op medians over traced cycles, plus set-up parts and run-level ratios."""
    import numpy as np

    L = wl.cycle_len
    traced_ops = [op for op in ops if op["traced"]]
    rows = tracer.per_op([op["i"] for op in traced_ops])
    for row, op in zip(rows, traced_ops):
        for key in row:
            if key.endswith((":self", ":incl", ":loop")):
                row[key] *= op["scale"]
    cycles = []
    for k in range(0, len(rows) - L + 1, L):
        group = rows[k:k + L]
        merged = {key: sum(r.get(key, 0.0) for r in group) / L
                  for key in set().union(*group) if not key.startswith("peak:")}
        merged.update({key: max(r.get(key, 0.0) for r in group)
                       for key in set().union(*group) if key.startswith("peak:")})
        cycles.append(merged)
    metrics = {name: statistics.median(fn(c) for c in cycles)
               for name, fn in LAYER_FROM_SPANS.items()}
    fractions = [f for op in traced_ops[:L] for f in tracer.fractions[op["i"]]]
    metrics["clipping.engaged_frac"] = (float(np.mean(np.concatenate(fractions)))
                                        if fractions else 0.0)
    metrics["diagnostics.cross_frac"] = wl.cross_frac()
    metrics["cli.import_s"] = statistics.median(p["import_s_scaled"] for p in setup)
    metrics["config.load_s"] = statistics.median(p["load_s_scaled"] for p in setup)
    metrics["trace.overhead_s"] = (statistics.median(cycle_times(ops, L, traced=True))
                                   - statistics.median(cycle_times(ops, L, traced=False)))
    return metrics


# -- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        e2e_units, layer_units = declared_metrics()
        cli = import_clipopt()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    out = WORK / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, out, args.smoke)
    try:
        setup = measure_setup(wl, 1 if args.smoke else SETUP_REPEATS)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    with speed.Sampler(wl.speed_kernels) as sampler:
        ops, digests = run_ops(args, wl, cli, tracer)
    apply_speed_scale(ops, sampler)
    run_problems = wl.check_run()

    attempted = len(ops)
    failed = sum(1 for op in ops if op["problems"])
    correct = failed == 0 and not run_problems
    if args.trace:
        values, units = per_layer(ops, wl, setup, tracer), layer_units
        tracer.save(WORK / f"spans-{args.workload}.npz")
    else:
        values, units = end_to_end(ops, wl, setup, attempted, failed), e2e_units
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")

    report = {
        "provenance": provenance(args, wl), "correct": correct, "attempted": attempted,
        "failed": failed, "failed_op_frac": failed / attempted, "run_problems": run_problems,
        "metrics": values, "unscaled_wall": timing_metrics(ops, wl, setup, scaled=False),
        "setup_probes": setup, "output_digests_op0": digests,
        "ops": ops,
    }
    report_path = WORK / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops (warm-up and rerun included), {failed} failed")
    for op in ops:
        for problem in op["problems"]:
            print(f"  op {op['i']}: {problem}")
    for problem in run_problems:
        print(f"  run: {problem}")
    print(f"  {'failed_op_frac':36s} {failed / attempted:<14.6g} frac")
    for name, value in values.items():
        print(f"  {name:36s} {value:<14.6g} {units[name]}")
    print(f"  provenance: {json.dumps(report['provenance'])}")
    print(f"  report: {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
