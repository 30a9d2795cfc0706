"""Config parsing/round-trip and CLI command contracts."""

import csv
import hashlib
import json
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from clipopt import algorithms, cli, config
from clipopt import diagnostics as diag
from clipopt.config import (ConfigError, apply_override, dumps_config, load_config,
                            parse_config)

MINIMAL = """
[experiment]
id = demo
algorithm = smd
t = 64
seeds = 31
base_seed = 0
delta = 0.1

[problem]
kind = quadratic
dim = 2

[noise]
kind = none
p = 1.5
sigma = 0.0

[schedule]
mode = smd_known_t
"""

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

NOISY = MINIMAL.replace("kind = none", "kind = two_point").replace("sigma = 0.0",
                                                                   "sigma = 1.0\nq = 0.2")


def test_parse_minimal():
    cfg = parse_config(MINIMAL)
    assert cfg.experiment_id == "demo"
    assert cfg.horizon == 64
    assert cfg.sigma == 0.0


def test_round_trip_identity():
    cfg = parse_config(NOISY)
    again = parse_config(dumps_config(cfg))
    assert again == cfg
    assert parse_config(dumps_config(again)) == again


def test_round_trip_with_grid_and_overrides():
    cfg = parse_config(NOISY.replace("seeds = 31",
                                     "seeds = 120\nt_grid = 64,128,256,512"))
    apply_override(cfg, "schedule.eta_scale=2.0")
    apply_override(cfg, "problem.x1=2.0,0.0")
    again = parse_config(dumps_config(cfg))
    assert again == cfg
    assert again.horizon_grid == (64, 128, 256, 512)
    assert again.x1 == (2.0, 0.0)


def test_unknown_key_rejected():
    bad = MINIMAL.replace("base_seed = 0", "base_seed = 0\nbogus = 1")
    with pytest.raises(ConfigError, match="experiment.bogus"):
        parse_config(bad)


def test_invalid_moment_order_names_field():
    bad = MINIMAL.replace("p = 1.5", "p = 2.5")
    with pytest.raises(ConfigError, match="noise.p"):
        parse_config(bad)


def test_config_error_survives_a_pickle_round_trip():
    """A sweep's worker process sends its exception back pickled; the field path and the
    message come back whole, a colon in the message or the path repeated in it included."""
    for path, message in (("experiment.seeds", "x"), ("noise.p", "a: b"), ("p", "p: x")):
        back = pickle.loads(pickle.dumps(ConfigError(path, message)))
        assert type(back) is ConfigError
        assert str(back) == f"{path}: {message}" and back.field_path == path


def test_main_parses_each_call_afresh(monkeypatch):
    """The parser is built once; the ``--set`` list of one call reaches no other call."""
    seen = []

    def load(args):
        seen.append((args.command, args.set))
        raise ConfigError("experiment.seeds", "stop")

    monkeypatch.setattr(cli, "_load", load)
    assert cli.main(["run", "--config", "a.cfg", "--set", "experiment.seeds=5"]) == 2
    assert cli.main(["run", "--config", "a.cfg"]) == 2
    assert cli.main(["rates", "--config", "a.cfg",
                     "--set", "noise.p=1.5", "--set", "noise.q=0.1"]) == 2
    assert cli.main(["compare", "--config", "a.cfg"]) == 2
    assert seen == [("run", ["experiment.seeds=5"]), ("run", []),
                    ("rates", ["noise.p=1.5", "noise.q=0.1"]), ("compare", [])]
    assert cli._parser() is cli._parser()


def test_mode_algorithm_compatibility():
    bad = MINIMAL.replace("mode = smd_known_t", "mode = sgd_known_t")
    with pytest.raises(ConfigError, match="schedule.mode"):
        parse_config(bad)


def test_override_assignment():
    cfg = parse_config(MINIMAL)
    apply_override(cfg, "experiment.seeds=40")
    assert cfg.n_seeds == 40
    with pytest.raises(ConfigError, match="unknown configuration key"):
        apply_override(cfg, "noise.bogus=1")
    with pytest.raises(ConfigError):
        apply_override(cfg, "not-an-assignment")


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cmd_run_noiseless(tmp_path, capsys):
    cfgfile = _write(tmp_path, MINIMAL)
    out = str(tmp_path / "results")
    rc = cli.main(["run", "--config", cfgfile, "--out", out])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "failure_rate=0.0000" in printed
    csv_path = Path(out, "demo", "smd", "p15", "seed-results.csv")
    first = csv_path.read_bytes()
    rc = cli.main(["run", "--config", cfgfile, "--out", out])
    assert rc == 0
    assert csv_path.read_bytes() == first  # byte-identical rerun


ONE_PER_COMMAND = {
    "run": MINIMAL,
    "rates": MINIMAL.replace("seeds = 31", "seeds = 100\nt_grid = 16,32,64,128"),
    "diagnose": MINIMAL + "\n[diagnostics]\npathwise = true\n",
    "compare": MINIMAL.replace("algorithm = smd", "algorithm = sgd")
                      .replace("mode = smd_known_t", "mode = sgd_known_t"),
}


@pytest.mark.parametrize("command", list(ONE_PER_COMMAND))
def test_each_command_validates_its_config_once(tmp_path, monkeypatch, capsys, command):
    """The file, ``--set``, ``--out`` and ``--seeds`` are applied first and checked once."""
    calls = []
    original = config.validate_config

    def counted(cfg):
        calls.append(cfg)
        return original(cfg)

    for name, module in list(sys.modules.items()):
        if name.startswith("clipopt") and vars(module).get("validate_config") is original:
            monkeypatch.setattr(module, "validate_config", counted)
    argv = [command, "--config", _write(tmp_path, ONE_PER_COMMAND[command]), "--set",
            "experiment.t=16", "--out", str(tmp_path / "out"), "--seeds", "100"]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert len(calls) == 1


def test_a_flag_repairs_a_file_value(tmp_path, capsys):
    """``--seeds`` replaces the file's seed count before validation, and wins over a ``--set``
    of the same key; a bad file value that nothing repairs still exits 2 naming its key."""
    cfgfile = _write(tmp_path, MINIMAL.replace("seeds = 31", "seeds = 0"))
    assert cli.main(["run", "--config", cfgfile, "--seeds", "30"]) == 0
    assert "seeds=30 " in capsys.readouterr().out
    assert cli.main(["run", "--config", cfgfile, "--set", "experiment.seeds=40",
                     "--seeds", "30"]) == 0
    assert "seeds=30 " in capsys.readouterr().out
    assert cli.main(["run", "--config", cfgfile]) == 2
    assert capsys.readouterr().err.startswith("config error: experiment.seeds:")


def test_cmd_run_invalid_config_exit_2(tmp_path, capsys):
    cfgfile = _write(tmp_path, MINIMAL.replace("p = 1.5", "p = 2.5"))
    rc = cli.main(["run", "--config", cfgfile])
    assert rc == 2
    assert "noise.p" in capsys.readouterr().err


FLOAT_KEYS = {f"{section}.{key}": kind for (section, key), (_, kind) in config._SCHEMA.items()
              if kind in ("float", "float_tuple")}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", list(FLOAT_KEYS))
def test_non_finite_values_exit_2(tmp_path, capsys, key, value):
    value = f"1.0,{value}" if FLOAT_KEYS[key] == "float_tuple" else value
    rc = cli.main(["run", "--config", _write(tmp_path, MINIMAL), "--set", f"{key}={value}"])
    assert rc == 2
    assert f"config error: {key}:" in capsys.readouterr().err


@pytest.mark.parametrize("assignment", [
    "experiment.base_seed=-1", "schedule.mu=-1", "noise.sigma=1e200", "noise.sigma=1e300",
    "schedule.c1=0", "schedule.c2=-1", "schedule.c_override=-1", "problem.dim=0",
    "experiment.algorithm=asmd schedule.mode=asmd_known_t schedule.c_override=0",
    "problem.kind=nonconvex_ratio problem.dim=0",
    "problem.kind=quadratic_plus_norm problem.coef=-1",
    "problem.kind=simplex_quadratic noise.kind=radial_pareto",
    "problem.kind=simplex_quadratic problem.dim=1",
    "problem.kind=simplex_quadratic problem.x1=0.5,0.5 problem.target=0.5,0.5",
    "problem.kind=simplex_quadratic problem.x1=1,0",
    "problem.kind=simplex_quadratic problem.x1=1.0000000001,-1e-10",
    "schedule.vanilla_eta=-1", "schedule.vanilla_eta=0",
])
def test_out_of_range_values_exit_2(tmp_path, capsys, assignment):
    """Negative seeds and mu, a sigma whose 2p-th power overflows, nonpositive schedule
    constants, an empty dimension, a negative nonsmooth coefficient, radial noise on the
    simplex, a one-point simplex, a simplex whose target is its start, a simplex start on
    the boundary or just past it (the entropy map's domain is the open simplex) and a
    nonpositive baseline step are config errors named by their own key (the last of the
    space-separated assignments)."""
    argv = ["diagnose", "--config", _write(tmp_path, NOISY), "--set", "experiment.t=8"]
    for one in assignment.split():
        argv += ["--set", one]
    assert cli.main(argv) == 2
    key = assignment.split()[-1].split("=")[0]
    assert capsys.readouterr().err.startswith(f"config error: {key}:")


@pytest.mark.parametrize("command", ["run", "diagnose"])
@pytest.mark.parametrize("base_seed, seeds", [(2**63 - 30, 30), (2**63 - 29, 30), (2**63, 1)])
def test_seeds_past_int64_exit_2(tmp_path, capsys, command, base_seed, seeds):
    """Seeds run up to 2^63 - 1, the largest int64: a last seed (base seed + seeds - 1) past
    it is a config error named by experiment.base_seed, with no wrapped seed or overflow."""
    argv = [command, "--config", _write(tmp_path, NOISY), "--out", str(tmp_path / "out"),
            "--set", "experiment.t=8", "--set", f"experiment.seeds={seeds}",
            "--set", f"experiment.base_seed={base_seed}"]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    if base_seed + seeds - 1 < 2**63:
        assert rc in (0, 1) and not err, err  # diagnose exits 1 for a failing check
    else:
        assert rc == 2 and err.startswith("config error: experiment.base_seed:"), err


@pytest.mark.parametrize("command", ["run", "diagnose"])
@pytest.mark.parametrize("config_file, assignments, key", [
    ("sgd_rates.cfg", ["noise.p=1.05", "noise.sigma=1e30"], "noise.p"),
    ("sgd_rates.cfg", ["noise.p=1.01", "noise.sigma=1e10"], "noise.p"),
    ("sgd_rates.cfg", ["noise.p=1.01", "experiment.delta=1e-300"], "noise.p"),
    ("diagnose_smd.cfg", ["schedule.mu=1e308", "experiment.seeds=30", "experiment.t=16"],
     "schedule.mu"),
    ("sgd_rates.cfg", ["experiment.delta=5e-324"], "experiment.delta"),
    ("smd_heavy_tail.cfg", ["noise.p=1.0000001", "noise.q=5e-324"], "noise.q"),
    ("smd_heavy_tail.cfg", ["experiment.algorithm=asmd", "schedule.mode=asmd_known_t",
                            "experiment.t=100000", "schedule.c_override=5e-324"],
     "schedule.c_override"),
    ("smd_heavy_tail.cfg", ["experiment.algorithm=asmd", "schedule.mode=asmd_known_t",
                            "schedule.c_override=1e-10", "schedule.lambda_scale=5e-324"],
     "schedule.lambda_scale"),
    ("diagnose_smd.cfg", ["schedule.lambda_scale=5e-324"], "schedule.lambda_scale"),
    ("diagnose_smd.cfg", ["schedule.lambda_scale=1e-160"], "schedule.lambda_scale"),
    ("diagnose_smd.cfg", ["schedule.lambda_scale=1e300"], "schedule.lambda_scale"),
    ("diagnose_smd.cfg", ["schedule.eta_scale=1e-300"], "schedule.eta_scale"),
    ("diagnose_smd.cfg", ["schedule.eta_scale=-1.0"], "schedule.eta_scale"),
    # the parameter-free mode's first step, at displacement 0: its largest step, smallest level
    ("diagnose_smd.cfg", ["schedule.mode=smd_param_free", "experiment.t=16",
                          "schedule.lambda_scale=1e-300"], "schedule.lambda_scale"),
    ("diagnose_smd.cfg", ["schedule.mode=smd_param_free", "experiment.t=16",
                          "schedule.eta_scale=1e300"], "schedule.eta_scale"),
    ("diagnose_smd.cfg", ["schedule.mode=smd_param_free", "experiment.t=16",
                          "schedule.lambda_scale=1e300"], "schedule.lambda_scale"),
])
def test_non_finite_schedule_exit_2(tmp_path, capsys, command, config_file, assignments, key):
    """A schedule whose level overflows as p -> 1, or whose SMD floor, level or bound is not
    finite, is rejected at load time and the message names the key (and p, sigma, delta);
    so are a 1/delta and a two-point spike that overflow, an accelerated clipping level
    or step divisor that underflows to 0, and, with the martingale trace on, a step that is
    not positive or a level whose square, or that of the step times the level, the trace
    would divide by but is 0, infinite or too small to invert."""
    argv = [command, "--config", str(DEMO_CONFIGS / config_file), "--out", str(tmp_path)]
    for assignment in assignments:
        argv += ["--set", assignment]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: {key}:" in err
    if key == "noise.p":
        cfg = load_config(DEMO_CONFIGS / config_file)
        for assignment in assignments:
            apply_override(cfg, assignment)
        assert f"p = {cfg.p}, sigma = {cfg.sigma}, delta = {cfg.delta}" in err


EXTREMES = {
    "noise.p": ["1.0", "1.0000001", "1.01", "1.05", "1.5", "2.0", "2.0000001"],
    "noise.sigma": ["-1.0", "0.0", "5e-324", "1e-300", "1.0", "1e10", "1e30", "1e154", "1e300"],
    "noise.q": ["0.0", "5e-324", "1e-300", "1e-3", "0.5", "1.0", "1.0000001"],
    "experiment.delta": ["0.0", "5e-324", "1e-300", "0.1", "0.9999999", "1.0"],
    "schedule.mu": ["-1.0", "0.0", "1.0", "1e150", "1e300", "1e308"],
    "schedule.eta_scale": ["-1.0", "0.0", "1e-300", "1.0", "1e300", "1e308"],
    "schedule.lambda_scale": ["0.0", "5e-324", "1e-300", "1.0", "1e300", "1e308"],
    # the one mode whose level follows the run; unset, each config keeps its own mode
    "schedule.mode": ["smd_param_free"],
    # the start and the quadratic's vectors (dim = 2 in every config); a wrong length too
    "problem.x1": ["0,0", "5e-324,0", "1e-300,-1e-300", "1e150,0", "1e300,-1e300", "1e308,1e308",
                   "1,2,3"],
    "problem.diag": ["-1,1", "0,1", "5e-324,1", "1e-300,1", "1,1", "1e150,1", "1e300,1e300", "1"],
    "problem.shift": ["0,0", "5e-324,0", "-1e150,1e150", "1e300,0", "1e308,-1e308", "1,2,3"],
    # the tail index is read by the radial family only
    "noise.kind": ["two_point", "radial_pareto"],
    "noise.tail_index": ["-1.0", "1.0", "1.0000001", "1.5", "1.75", "2.0", "2.0000001", "1e300"],
    # read by diagnose only
    "diagnostics.resamples": ["-1", "0", "99", "100", "101", "1000"],
    "diagnostics.pathwise": ["true", "false", "maybe"],
    "diagnostics.error_bounds": ["true", "false", "maybe"],
    "diagnostics.martingale": ["true", "false", "maybe"],
}
# The accelerated modes' constant, which only they read.
C_OVERRIDES = ["-1.0", "0.0", "5e-324", "1e-300", "1.0", "1e4", "1e300", "1e308"]


def _extremes_argv(config_file: str, out) -> list:
    """The short run of ``config_file`` that the extreme values are set on: ``asmd`` is
    ``smd_heavy_tail.cfg`` with the accelerated loop, ``diagnose_smd.cfg`` runs ``diagnose``
    and ``rates`` runs ``rates`` on ``sgd_rates.cfg``."""
    command = {"diagnose_smd.cfg": "diagnose", "rates": "rates"}.get(config_file, "run")
    argv = [command, "--config", str(DEMO_CONFIGS / "smd_heavy_tail.cfg"), "--out", str(out),
            "--set", "experiment.t=16", "--set", "experiment.seeds=3"]
    if config_file == "rates":
        argv[2] = str(DEMO_CONFIGS / "sgd_rates.cfg")
        argv += ["--set", "experiment.seeds=100", "--set", "experiment.t_grid=16,32,64,128"]
    elif config_file == "asmd":
        argv += ["--set", "experiment.algorithm=asmd", "--set", "schedule.mode=asmd_known_t"]
    else:
        argv[2] = str(DEMO_CONFIGS / config_file)
    return argv


@given(config_file=st.sampled_from(["smd_heavy_tail.cfg", "sgd_rates.cfg", "asmd",
                                    "diagnose_smd.cfg", "rates"]),
       values=st.fixed_dictionaries({key: st.none() | st.sampled_from(choices)
                                     for key, choices in EXTREMES.items()}),
       c_override=st.none() | st.sampled_from(C_OVERRIDES))
# radial moments where |grad f| and the noise scale are ~1e299 levels, and at an infinite
# level (a parameter-free level that overflows)
@example(config_file="diagnose_smd.cfg", c_override=None,
         values={**dict.fromkeys(EXTREMES), "noise.kind": "radial_pareto",
                 "schedule.lambda_scale": "1e-300", "diagnostics.martingale": "false"})
@example(config_file="diagnose_smd.cfg", c_override=None,
         values={**dict.fromkeys(EXTREMES), "noise.kind": "radial_pareto", "noise.sigma": "1e30",
                 "schedule.lambda_scale": "1e300", "schedule.mode": "smd_param_free",
                 "diagnostics.martingale": "false"})
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_extreme_values_run_or_exit_2(tmp_path, capsys, config_file, values, c_override):
    """Boundary and extreme moment, confidence, schedule, problem and diagnostics values
    either run or are rejected with exit 2 naming a section.key; none ends in a traceback.
    ``diagnose`` may also exit 1 for a check that fails, with nothing on stderr, and
    ``rates`` for a median that has no logarithm; a slope it prints is finite."""
    argv = _extremes_argv(config_file, tmp_path)
    command = argv[0]
    if config_file == "asmd" and c_override is not None:
        argv += ["--set", f"schedule.c_override={c_override}"]
    for key, value in values.items():
        if value is not None:
            argv += ["--set", f"{key}={value}"]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "fewer than 30 seeds", UserWarning)
        rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert rc in (0, 2) or (command == "diagnose" and rc == 1 and not err) \
        or (command == "rates" and rc == 1 and "log-log fit undefined" in err), err
    if command == "rates" and rc == 0:
        last = out.splitlines()[-1]
        assert "nan" not in last and "inf" not in last, out
    if rc == 2:
        named = err.removeprefix("config error: ").split(":")[0]
        assert tuple(named.split(".")) in config._SCHEMA, err


# The single values whose rejection names another key, each for its reason: with the file's
# x1 = 4,0, the shift 1e300,0 puts the start out of range, and the start is the first suspect
# whose reset (to a default start that follows the shift) mends the config;
# on sgd_rates.cfg (p = 2), radial noise needs a tail index above its default 1.75.
OTHER_KEY = {("problem.shift", "1e300,0"): "problem.x1",
             ("noise.kind", "radial_pareto"): "noise.tail_index"}


def test_single_extreme_value_names_its_key(tmp_path, capsys):
    """Each extreme value set alone (and, on the accelerated run, each accelerated constant)
    either runs or is rejected with exit 2 naming the key that was set, or its listed
    alternate."""
    wrong = []
    for config_file in ("smd_heavy_tail.cfg", "asmd", "diagnose_smd.cfg", "rates"):
        argv = _extremes_argv(config_file, tmp_path)
        table = {**EXTREMES, "schedule.c_override": C_OVERRIDES if config_file == "asmd" else []}
        for key, values in table.items():
            for value in values:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "fewer than 30 seeds", UserWarning)
                    rc = cli.main([*argv, "--set", f"{key}={value}"])
                err = capsys.readouterr().err
                named = OTHER_KEY.get((key, value), key)
                if rc == 2 and not err.startswith(f"config error: {named}: "):
                    wrong.append((config_file, key, value, err))
    assert not wrong


PROBLEM_KINDS = ("quadratic", "simplex_quadratic", "nonconvex_ratio", "quadratic_plus_norm")


@pytest.mark.parametrize("problem", PROBLEM_KINDS)
@pytest.mark.parametrize("algorithm", config.ALGORITHMS)
def test_every_algorithm_on_every_problem_runs_or_exits_2(tmp_path, capsys, algorithm, problem):
    """Each algorithm, under its first mode, on each problem kind from the kind's own start
    either runs or is rejected with exit 2 naming a section.key before it prints, for
    ``run``, ``compare`` and ``diagnose`` with every check on; ``diagnose`` may also exit 1
    for a check that fails, with nothing on stderr."""
    text = (DEMO_CONFIGS / "diagnose_smd.cfg").read_text().replace("x1 = 2,0\n", "")
    assert "x1" not in text
    path = _write(tmp_path, text)
    sets = {"experiment.t": 8, "experiment.seeds": 3, "experiment.out": tmp_path / "out",
            "experiment.algorithm": algorithm, "problem.kind": problem,
            "schedule.mode": config.MODE_FOR_ALGORITHM[algorithm][0]}
    for command in ("run", "compare", "diagnose"):
        argv = [command, "--config", path]
        for key, value in sets.items():
            argv += ["--set", f"{key}={value}"]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "fewer than 30 seeds", UserWarning)
            rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert rc in (0, 2) or (command == "diagnose" and rc == 1 and not err), (command, err)
        if rc == 2:
            named = err.removeprefix("config error: ").split(":")[0]
            assert tuple(named.split(".")) in config._SCHEMA and not out, (command, err, out)


def test_cmd_run_writes_only_inside_out_dir(tmp_path):
    cfgfile = _write(tmp_path, MINIMAL)
    out = tmp_path / "only-here"
    before = set(os.listdir(tmp_path))
    rc = cli.main(["run", "--config", cfgfile, "--out", str(out)])
    assert rc == 0
    after = set(os.listdir(tmp_path))
    assert after - before == {"only-here"}


def test_cmd_rates_requires_grid(tmp_path, capsys):
    cfgfile = _write(tmp_path, MINIMAL)
    rc = cli.main(["rates", "--config", cfgfile])
    assert rc == 2
    assert "t_grid" in capsys.readouterr().err


def test_cmd_rates_too_few_seeds_exit_2(tmp_path, capsys):
    cfgfile = _write(tmp_path, MINIMAL.replace("seeds = 31", "seeds = 31\nt_grid = 64,128,256,512"))
    assert cli.main(["rates", "--config", cfgfile]) == 2
    assert "experiment.seeds" in capsys.readouterr().err


def test_cmd_rates_short_grid_exit_2(tmp_path, capsys):
    """Fewer than four horizons, or four identical ones, give no slope."""
    for grid in ("64,128,256", "16,16,16,16"):
        cfgfile = _write(tmp_path, MINIMAL.replace("seeds = 31", f"seeds = 100\nt_grid = {grid}"))
        assert cli.main(["rates", "--config", cfgfile]) == 2
        assert "config error: experiment.t_grid:" in capsys.readouterr().err


def test_cmd_rates_diverged_medians_exit_1(capsys):
    """Every seed diverges at every horizon: no slope is printed, and no warning leaks."""
    rc = cli.main(["rates", "--config", str(DEMO_CONFIGS / "sgd_rates.cfg"),
                   "--set", "schedule.eta_scale=1e200", "--set", "experiment.t_grid=16,32,64,128"])
    out, err = capsys.readouterr()
    assert rc == 1 and not out
    assert err.startswith("error: ") and "log-log fit undefined" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "rates"])
def test_batch_commands_run_param_free(tmp_path, capsys, command):
    """The parameter-free mode runs in batches: ``run`` writes its failure rate against the
    bound, ``rates`` its slope."""
    text = NOISY.replace("seeds = 31", "seeds = 100\nt_grid = 64,128,256,512") \
                .replace("mode = smd_known_t", "mode = smd_param_free")
    assert cli.main([command, "--config", _write(tmp_path, text), "--out", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert not err
    assert ("smd/smd_param_free T=64 seeds=100" in out and "failure_rate=" in out
            if command == "run" else "slope=" in out and "target=" in out)


def test_cmd_rates_noiseless_fixture(tmp_path, capsys):
    text = MINIMAL.replace("seeds = 31", "seeds = 100\nt_grid = 256,512,1024,2048")
    cfgfile = _write(tmp_path, text)
    rc = cli.main(["rates", "--config", cfgfile])
    assert rc == 0
    out = capsys.readouterr().out
    assert "slope=" in out and "target=" in out
    slope = float([tok for tok in out.split() if tok.startswith("slope=")][0][6:])
    assert slope == pytest.approx(-1.0, abs=0.1)  # noiseless mirror descent decays like 1/T


def test_cmd_diagnose_noiseless_passes(tmp_path, capsys):
    text = MINIMAL.replace("[schedule]\nmode = smd_known_t",
                           "[schedule]\nmode = smd_known_t\n\n[diagnostics]\n"
                           "pathwise = true\nerror_bounds = true\nmartingale = true\n"
                           "resamples = 128")
    cfgfile = _write(tmp_path, text)
    rc = cli.main(["diagnose", "--config", cfgfile, "--out", str(tmp_path / "d")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pathwise_smd: pass" in out
    assert "crossed=False" in out
    assert (tmp_path / "d" / "demo" / "smd" / "p15" / "diagnostics.csv").exists()


def test_cmd_diagnose_corrupted_schedule_fails(tmp_path, capsys):
    cfgfile = _write(tmp_path, NOISY)
    rc = cli.main(["diagnose", "--config", cfgfile, "--set", "schedule.eta_scale=2.0"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_cmd_compare_noiseless_ratio_one(tmp_path, capsys):
    text = MINIMAL.replace("algorithm = smd", "algorithm = sgd") \
                  .replace("mode = smd_known_t", "mode = sgd_known_t")
    cfgfile = _write(tmp_path, text)
    rc = cli.main(["compare", "--config", cfgfile])
    assert rc == 0
    assert "ratio=1.0000" in capsys.readouterr().out


def test_cmd_compare_heavy_tail_guard(tmp_path, capsys):
    text = NOISY.replace("algorithm = smd", "algorithm = sgd") \
                .replace("mode = smd_known_t", "mode = sgd_known_t") \
                .replace("p = 1.5", "p = 2.0")
    cfgfile = _write(tmp_path, text)
    rc = cli.main(["compare", "--config", cfgfile])
    assert rc == 2
    err = capsys.readouterr().err
    assert "noise.p" in err and "p < 2" in err


def test_cmd_compare_non_sgd_mode_exit_2(tmp_path, capsys):
    assert cli.main(["compare", "--config", _write(tmp_path, MINIMAL)]) == 2
    assert "schedule.mode" in capsys.readouterr().err


def test_shipped_compare_config_holds_criterion_11():
    """``clipopt compare`` on ``sgd_vs_vanilla.cfg`` runs acceptance criterion 11's contrast
    (and ``demos/clipped_vs_vanilla.py`` loads the same file)."""
    criterion_11 = config.ExperimentConfig(
        experiment_id="sgd-vs-vanilla", algorithm="sgd", mode="sgd_known_t", horizon=4096,
        n_seeds=200, base_seed=0, delta=0.1, problem="quadratic", dim=2,
        x1=(1.0, 1.0), noise="two_point", p=1.5, sigma=0.1, q=1e-3,
        eta_scale=8.0, lambda_scale=0.1)
    assert load_config(DEMO_CONFIGS / "sgd_vs_vanilla.cfg") == criterion_11


def test_divergent_run_flagged_under_optimize(tmp_path):
    """Non-finite rows are flagged diverged by a check that ``python -O`` keeps."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "clipopt.cli", "run",
         "--config", str(DEMO_CONFIGS / "smd_heavy_tail.cfg"), "--set", "schedule.eta_scale=1e300",
         "--set", "experiment.t=64", "--seeds", "3", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = (tmp_path / "smd-heavy-tail" / "smd" / "p15" / "summary.jsonl").read_text()
    assert '"diverged": 3' in summary
    assert '"upper_quantile": Infinity' in summary  # not NaN from inf - inf
    assert "RuntimeWarning" not in proc.stderr


# report rows of the diagnose demo and of its gradient-descent variant; their two-point
# moments are exact, so every stderr is 0
SGD_VARIANT = ["experiment.algorithm=sgd", "problem.kind=nonconvex_ratio", "problem.x1=1,1",
               "schedule.mode=sgd_known_t"]
DIAGNOSE_ROWS = {
    "smd": [("pathwise_smd", 256, 0, 0.0003266114109183871, None),
            ("clipping_error_bounds", 1, 0, 0.28079806872021634, 0.0),
            ("martingale_smd", 256, 0, 2.303832804594543, 0.0)],
    "sgd": [("pathwise_sgd", 256, 0, 4.1229006565726635e-11, None),
            ("clipping_error_bounds", 1, 0, 0.10130276991452962, 0.0),
            ("martingale_sgd", 256, 0, 2.302598697586676, 0.0)],
}


@pytest.mark.parametrize("algorithm", ["smd", "sgd"])
def test_cmd_diagnose_demo_report_values(tmp_path, capsys, algorithm):
    """Counts and crossings exactly; margins and stderr up to roundoff of the BLAS kernel."""
    overrides = [] if algorithm == "smd" else SGD_VARIANT
    args = ["diagnose", "--config", str(DEMO_CONFIGS / "diagnose_smd.cfg"), "--out", str(tmp_path)]
    for assignment in overrides:
        args += ["--set", assignment]
    assert cli.main(args) == 0
    path = tmp_path / "diagnose-smd" / algorithm / "p15" / "diagnostics.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["name"], r["steps"], r["violations"]) for r in rows] == [
        row[:3] for row in DIAGNOSE_ROWS[algorithm]]
    for r, (*_, margin, stderr) in zip(rows, DIAGNOSE_ROWS[algorithm]):
        assert r["max_margin"] == pytest.approx(margin, rel=1e-12, abs=1e-15)
        assert r["stderr"] == (None if stderr is None else pytest.approx(stderr, rel=1e-12))
    assert f"check martingale_{algorithm}: crossed=False" in capsys.readouterr().out


@pytest.mark.parametrize("overrides", [[], ["schedule.mode=smd_param_free"], SGD_VARIANT])
def test_cmd_diagnose_records_one_run(tmp_path, monkeypatch, overrides):
    """The pathwise check, the martingale trace and (parameter-free) the conditions and the
    error-bound level share one run."""
    calls = []
    run = algorithms._run

    def counting(loop, *args):
        calls.append(loop)
        return run(loop, *args)

    monkeypatch.setattr(algorithms, "_run", counting)
    args = ["diagnose", "--config", str(DEMO_CONFIGS / "diagnose_smd.cfg"), "--out", str(tmp_path)]
    for assignment in overrides:
        args += ["--set", assignment]
    assert cli.main(args) == 0
    assert calls == [algorithms._sgd if overrides == SGD_VARIANT else algorithms._smd]


def test_cmd_diagnose_baseline_checks_conditions_without_a_run(tmp_path, capsys, monkeypatch):
    """The unclipped baseline has no clipped run to record: its schedule's conditions come
    from the schedule's table."""
    monkeypatch.setattr(algorithms, "_run", None)  # a run would fail
    argv = ["diagnose", "--config", str(DEMO_CONFIGS / "sgd_rates.cfg"), "--out", str(tmp_path),
            "--set", "experiment.algorithm=vanilla-sgd", "--set", "experiment.t=16"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert "condition eta_cap: pass" in out and not err


@pytest.mark.parametrize("assignments, failed", [
    (["experiment.algorithm=asmd", "schedule.mode=asmd_known_t", "schedule.c_override=1e-300"],
     ["lambda_power_sum", "lambda_2p_vs_p"]),
    (["experiment.algorithm=sgd", "schedule.mode=sgd_known_t", "schedule.lambda_scale=1e-300"],
     ["inverse_step_moment"]),
])
def test_cmd_diagnose_overflowing_inverse_level_fails(tmp_path, capsys, assignments, failed):
    """A level whose (-p)-th power overflows fails its conditions with margin -inf, and the
    overflow saturates to inf without a RuntimeWarning (an error under this suite's filter)."""
    argv = ["diagnose", "--config", str(DEMO_CONFIGS / "smd_heavy_tail.cfg"), "--out", str(tmp_path)]
    for assignment in assignments:
        argv += ["--set", assignment]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    for name in failed:
        assert f"condition {name}: FAIL margin=-inf\n" in out


_RADIAL_DIAGNOSE = ["--set", "experiment.t=16", "--set", "noise.kind=radial_pareto",
                    "--set", "noise.tail_index=2", "--set", "problem.x1=0.01,0"]


@pytest.mark.parametrize("lambda_scale", ["1", "0.01"])
def test_cmd_diagnose_radial_prints_no_warning(tmp_path, capsys, lambda_scale):
    """Radial moments are exact, so no line flags a noisy estimate, even at a level below
    every radial draw: at tail index 2 the smallest radius is 0.40 sigma, above the scaled
    level of 0.32."""
    rc = cli.main(["diagnose", "--config", str(DEMO_CONFIGS / "diagnose_smd.cfg"),
                   "--out", str(tmp_path), *_RADIAL_DIAGNOSE,
                   "--set", f"schedule.lambda_scale={lambda_scale}",
                   "--set", "diagnostics.pathwise=false", "--set", "diagnostics.error_bounds=false"])
    out = capsys.readouterr().out
    assert rc == (0 if lambda_scale == "1" else 1)  # the scaled schedule fails its conditions
    assert "check martingale_smd: crossed=False " in out and "warned" not in out


def test_cmd_diagnose_radial_rows_read_a_standard_error_of_zero(tmp_path, capsys):
    rc = cli.main(["diagnose", "--config", str(DEMO_CONFIGS / "diagnose_smd.cfg"),
                   "--out", str(tmp_path), *_RADIAL_DIAGNOSE])
    assert rc == 0, capsys.readouterr()
    csv_path, = tmp_path.glob("*/*/*/diagnostics.csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# schema=1" and lines[1] == ",".join(diag.REPORT_COLUMNS)
    rows = {row["name"]: row for row in csv.DictReader(lines[1:])}
    assert rows.keys() == {"pathwise_smd", "clipping_error_bounds", "martingale_smd"}
    assert rows["clipping_error_bounds"]["stderr"] == rows["martingale_smd"]["stderr"] == "0.0"
    assert rows["clipping_error_bounds"]["steps"] == "1"  # the one point checked


def test_cmd_diagnose_ignores_the_resample_count(tmp_path, capsys):
    """``diagnostics.resamples`` no longer changes a byte of the output.  The key still
    loads with its old bound, so that every config that sets it keeps its meaning until
    the key goes together with the benchmark configs that set it."""
    outputs = []
    for count in ("100", "5000"):
        out = tmp_path / count
        assert cli.main(["diagnose", "--config", str(DEMO_CONFIGS / "diagnose_smd.cfg"),
                         "--out", str(out), *_RADIAL_DIAGNOSE,
                         "--set", f"diagnostics.resamples={count}"]) == 0
        outputs.append([path.read_bytes() for path in sorted(out.glob("*/*/*/diagnostics.*"))])
    assert len(outputs[0]) == 2 and outputs[0] == outputs[1]
    assert capsys.readouterr().out.count("check martingale_smd") == 2
    rc = cli.main(["diagnose", "--config", str(DEMO_CONFIGS / "diagnose_smd.cfg"),
                   "--out", str(tmp_path / "99"), "--set", "diagnostics.resamples=99"])
    assert rc == 2 and "diagnostics.resamples" in capsys.readouterr().err
    assert not (tmp_path / "99").exists()


@pytest.mark.parametrize("assignments", [
    ["noise.q=5e-324"],  # spikes of 3e215, clipped: their norms overflow to inf
    ["noise.q=1e-300", "noise.p=2", "schedule.lambda_scale=1e300",  # 1e150, unclipped
     "diagnostics.martingale=false"],
])
def test_cmd_diagnose_exact_moments_of_huge_spikes(tmp_path, capsys, assignments):
    """Spikes whose squares overflow a double run their exact moments without a warning
    (the scaled schedule fails its conditions, so that diagnose exits 1)."""
    argv = ["diagnose", "--config", str(DEMO_CONFIGS / "diagnose_smd.cfg"), "--out", str(tmp_path),
            "--set", "experiment.t=16"]
    for assignment in assignments:
        argv += ["--set", assignment]
    assert cli.main(argv) == (1 if "schedule.lambda_scale=1e300" in assignments else 0)
    out, err = capsys.readouterr()
    assert "check clipping_error_bounds: pass" in out and not err


def test_cmd_diagnose_reports_out_of_range_steps(tmp_path, capsys):
    """Steps past the pathwise inequality's range fail that check as a report (margin -inf):
    exit 1 with nothing on stderr, with every warning an error."""
    argv = ["diagnose", "--config", str(DEMO_CONFIGS / "diagnose_smd.cfg"), "--out", str(tmp_path)]
    for assignment in ("noise.p=1.0000001", "noise.sigma=1e154", "schedule.lambda_scale=1e-300",
                       "schedule.eta_scale=1e300"):
        argv += ["--set", assignment]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert "check pathwise_smd: FAIL violations=256 min_margin=-inf\n" in out and not err


def test_cmd_run_golden_digest(tmp_path):
    """The per-seed CSV of a small Euclidean demo run is pinned byte for byte.

    Euclidean SMD with two-point noise calls no exp or log in its loop.  The spike
    draws call the generator's exponential sampler and the log1p of q, both in
    numpy's own scalar code, so the bytes do not depend on the CPU's vector math
    routines.
    """
    rc = cli.main(["run", "--config", str(DEMO_CONFIGS / "smd_heavy_tail.cfg"), "--seeds", "30",
                   "--set", "experiment.t=128", "--out", str(tmp_path)])
    assert rc == 0
    csv_bytes = (tmp_path / "smd-heavy-tail" / "smd" / "p15" / "seed-results.csv").read_bytes()
    assert hashlib.sha256(csv_bytes).hexdigest() == (
        "61e7dfd73e1b0b911da4267ec5094e439dda771692c8415935f014477bbfb873")


def test_loading_from_file(tmp_path):
    cfgfile = _write(tmp_path, NOISY)
    cfg = load_config(cfgfile)
    assert cfg.sigma == 1.0
    assert cfg.q == 0.2
