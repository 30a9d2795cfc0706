"""The benchmark's tracer finds every patch point it wraps in the package."""

import importlib.util
import sys
from pathlib import Path

from clipopt import (algorithms, clipping, diagnostics, geometry, harness,  # noqa: F401
                     noise, problems, schedules)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_bindings():
    """Every name bound in a clipopt module or class, with what it is bound to."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("clipopt"):
            found.update({(name, key): value for key, value in vars(mod).items()})
            for cls in vars(mod).values():
                if isinstance(cls, type) and cls.__module__ == name:
                    found.update({(name, cls.__name__, key): value
                                  for key, value in vars(cls).items()})
    return found


def test_tracer_install_and_uninstall_without_an_op():
    """``install`` looks up each wrapped function and method, ``uninstall`` puts them back.

    A patch point that a refactor renames or drops fails here, not only in a
    traced benchmark run.
    """
    tracer = _load_tracer().Tracer()
    before = _package_bindings()
    originals = {cls: cls.__dict__["sample_batch"]
                 for cls in (noise.TwoPointNoise, noise.RadialParetoNoise)}
    tracer.install(0)
    try:
        assert noise.Oracle.__dict__["noise_matrix"] is not before[
            ("clipopt.noise", "Oracle", "noise_matrix")]
        for cls, original in originals.items():
            assert cls.__dict__["sample_batch"] is not original
    finally:
        tracer.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_diagnose_attributes_its_checks(tmp_path, capsys):
    """A traced ``diagnose`` times the checks it runs: one pathwise check and one trace, both
    fed by the seed's one recorded one-seed batch."""
    from clipopt import cli

    cfg = Path(__file__).resolve().parent.parent / "demos" / "configs" / "diagnose_smd.cfg"
    tracer = _load_tracer().Tracer()
    tracer.install(0)
    try:
        rc = cli.main(["diagnose", "--config", str(cfg), "--set", "experiment.t=16",
                       "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert rc == 0, capsys.readouterr()
    row = tracer.per_op([0])[0]
    assert row["diagnostics.pathwise:calls"] == 1
    assert row["diagnostics.martingale:calls"] == 1
    assert row["algorithms.batch:calls"] == 1
