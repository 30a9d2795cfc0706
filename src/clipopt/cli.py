"""Command-line entry point binding config files to experiments and checks.

Commands::

    clipopt run      --config exp.cfg [--set k=v ...] [--out DIR] [--seeds N]
    clipopt rates    --config exp.cfg ...     # horizon-grid slope fit
    clipopt diagnose --config exp.cfg ...     # schedule conditions + toggled checks
    clipopt compare  --config exp.cfg ...     # clipped versus unclipped baseline

Exit codes: 0 success, 1 runtime or check failure, 2 invalid configuration
(the message names the offending section.key).  Nothing is written outside
the configured output directory.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import diagnostics as diag
from . import harness
from .algorithms import run_asmd, run_sgd, run_smd
from .config import (ConfigError, ExperimentConfig, build_noise, build_problem,
                     build_schedule, load_config)
from .noise import Oracle
from .schedules import verify_schedule_conditions


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override a config value (repeatable)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seeds", type=int, default=None, help="number of seeds")


def _load(args) -> ExperimentConfig:
    """The config file with ``--set``, then ``--out`` and ``--seeds``, applied in that order (so
    a flag wins over a ``--set`` of its key), validated once."""
    flags = [f"experiment.{key}={value}"
             for key, value in (("out", args.out), ("seeds", args.seeds)) if value is not None]
    return load_config(args.config, [*args.set, *flags])


def cmd_run(args) -> int:
    cfg = _load(args)
    summary = harness.run_trials(cfg)
    print(f"[{cfg.experiment_id}] {cfg.algorithm}/{cfg.mode} T={cfg.horizon} "
          f"seeds={cfg.n_seeds} median={summary.median:.6e} "
          f"bound={summary.bound:.6e} failure_rate={summary.failure_rate:.4f} "
          f"diverged={summary.diverged}")
    return 0


def cmd_rates(args) -> int:
    cfg = _load(args)
    fit = harness.fit_rate(cfg)
    for horizon, med in zip(fit.horizons, fit.medians):
        print(f"T={int(horizon)} median={med:.6e}")
    print(f"slope={fit.slope:.6f} target={fit.exponent:.6f} "
          f"deviation={fit.deviation:.6f} r2={fit.r_squared:.6f}")
    return 0


def cmd_diagnose(args) -> int:
    cfg = _load(args)
    check_fns = {"smd": diag.check_pathwise_smd, "asmd": diag.check_pathwise_asmd,
                 "sgd": diag.check_pathwise_sgd}
    trace_fns = {"smd": diag.martingale_trace_smd, "sgd": diag.martingale_trace_sgd}
    if cfg.pathwise and cfg.algorithm not in check_fns:
        raise ConfigError("diagnostics.pathwise", "no pathwise check for this algorithm")
    if cfg.martingale and cfg.algorithm not in trace_fns:
        raise ConfigError("diagnostics.martingale", "trace defined for smd and sgd")
    problem, x1 = build_problem(cfg)
    noise_model = build_noise(cfg)
    schedule = build_schedule(cfg, problem, x1, horizon=cfg.horizon)
    reports = []
    failed = False

    @functools.cache
    def table():
        """The n = 1 step table of the seed's one recorded run, shared by every check."""
        run = {"smd": run_smd, "asmd": run_asmd, "sgd": run_sgd}[cfg.algorithm]
        return run(problem, Oracle(problem, noise_model, seed=cfg.base_seed), schedule,
                   cfg.horizon, x1).table

    # the parameter-free steps and levels follow the run: its conditions and error-bound level
    # are read from the recorded ones
    recorded = table() if cfg.mode == "smd_param_free" else None
    cond = verify_schedule_conditions(schedule, cfg.horizon, recorded)
    for check in cond.checks:
        status = "pass" if check.passed else "FAIL"
        note = f" ({check.note})" if check.note else ""
        print(f"condition {check.name}: {status} margin={check.margin:.3e}{note}")
    failed |= not cond.ok

    if cfg.pathwise:
        rep = check_fns[cfg.algorithm](problem, table())[0]
        reports.append(rep)
        print(f"check {rep.name}: {'pass' if rep.passed else 'FAIL'} "
              f"violations={len(rep.violations)} min_margin={rep.min_margin:.3e}")
        failed |= not rep.passed

    if cfg.error_bounds:
        level = schedule.lam(1) if recorded is None else float(recorded.lam[0, -1])
        rep = diag.check_clipping_error_bounds(problem, noise_model, x1, level)
        reports.append(rep)
        print(f"check clipping_error_bounds: {'pass' if rep.passed else 'FAIL'} "
              f"violations={rep.u_violations} applicable={rep.applicable}")
        failed |= not rep.passed

    if cfg.martingale:
        trace = trace_fns[cfg.algorithm](problem, noise_model, table(), schedule.constants(),
                                         cfg.delta)[0]
        reports.append(trace)
        print(f"check martingale_{trace.algorithm}: crossed={trace.crossed} "
              f"max_sum={np.max(trace.running_sum):.4f} threshold={trace.threshold:.4f}")

    if cfg.out_dir and reports:
        out = harness.experiment_dir(cfg)
        os.makedirs(out, exist_ok=True)
        diag.write_reports_csv(reports, os.path.join(out, "diagnostics.csv"))
        diag.write_reports_jsonl(reports, os.path.join(out, "diagnostics.jsonl"))
    return 1 if failed else 0


def cmd_compare(args) -> int:
    cfg = _load(args)
    comp = harness.compare_clipped_vanilla(cfg)
    print(f"pairs={comp.n_pairs} clipped_median={comp.clipped_median:.6e} "
          f"vanilla_median={comp.vanilla_median:.6e} ratio={comp.median_ratio:.4f} "
          f"vanilla_diverged={comp.vanilla_diverged}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="clipopt", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("rates", cmd_rates),
                     ("diagnose", cmd_diagnose), ("compare", cmd_compare)):
        sp = sub.add_parser(name)
        _add_common(sp)
        sp.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
