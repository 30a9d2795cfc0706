"""Every configuration key: its serialized form, the key a rejection names, and the
diagnose guards that reject a config before anything is printed or run."""

import dataclasses
from pathlib import Path

import pytest

from clipopt import algorithms, cli, config
from clipopt.config import config_digest, dumps_config, parse_config

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

# Sets all 32 keys, each to a value other than its default where the config stays valid,
# in the canonical form: the document is its own serialization.
EVERY_KEY = """\
[experiment]
id = every-key
algorithm = smd
t = 64
t_grid = 64,128
seeds = 5
base_seed = 3
delta = 0.05
out = out-dir

[problem]
kind = simplex_quadratic
dim = 3
diag = 1.0,2.0,3.0
shift = 0.5,-0.5,0.0
target = 0.2,0.3,0.5
coef = 0.5
x1 = 0.25,0.25,0.5

[noise]
kind = two_point
p = 1.5
sigma = 0.5
q = 0.2
tail_index = 1.8

[schedule]
mode = smd_known_t
c1 = 2.0
c2 = 0.5
c_override = 3.0
eta_scale = 0.5
lambda_scale = 2.0
vanilla_eta = 1e-05
mu = 0.1

[diagnostics]
pathwise = true
error_bounds = true
martingale = true
resamples = 200

"""


def test_every_key_serializes_to_pinned_bytes():
    cfg = parse_config(EVERY_KEY)
    changed = {f.name for f in dataclasses.fields(cfg) if getattr(cfg, f.name) != f.default}
    assert len(config._SCHEMA) == 32
    assert changed == {attr for attr, _ in config._SCHEMA.values()} - {"algorithm", "noise",
                                                                       "mode"}
    assert dumps_config(cfg) == EVERY_KEY
    assert config_digest(cfg) == "b3a20cc4789fde76"
    assert parse_config(dumps_config(cfg)) == cfg


def test_start_overflow_names_the_start(tmp_path, capsys):
    """A start whose value gap overflows a double is blamed on ``problem.x1``, the vector whose
    reset to its default brings the schedule inputs back in range."""
    rc = cli.main(["run", "--config", str(DEMO_CONFIGS / "smd_heavy_tail.cfg"),
                   "--out", str(tmp_path), "--set", "problem.x1=1e200,0"])
    out, err = capsys.readouterr()
    assert rc == 2 and not out
    assert err.startswith("config error: problem.x1:")


@pytest.mark.parametrize("assignments, key", [
    (["experiment.algorithm=asmd", "schedule.mode=asmd_known_t"], "diagnostics.martingale"),
    (["experiment.algorithm=vanilla-sgd", "schedule.mode=sgd_known_t"], "diagnostics.pathwise"),
])
def test_diagnose_rejects_a_check_it_cannot_run_before_printing(tmp_path, capsys, monkeypatch,
                                                                 assignments, key):
    """A toggled check with no form for the algorithm is a config error up front: nothing on
    stdout, and no run recorded."""
    monkeypatch.setattr(algorithms, "_single", None)  # a run would fail
    argv = ["diagnose", "--config", str(DEMO_CONFIGS / "diagnose_smd.cfg"), "--out", str(tmp_path)]
    for assignment in assignments:
        argv += ["--set", assignment]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: {key}:")
    assert not any(tmp_path.iterdir())
