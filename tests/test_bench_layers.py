"""The layer bench script runs at smoke sizes and prints every layer it times."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"


def test_bench_layers_tiny_prints_every_layer(capsys):
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.main(["--tiny"]) == 0
    lines = capsys.readouterr().out.splitlines()
    machine = lines[0].split()
    assert machine[0] == "machine"
    assert [field.split("=")[0] for field in machine[1:]] == ["nproc", "python", "numpy"]
    steps = [line for line in lines if line.startswith("step ")]
    assert len(steps) == len(bench.TINY_SIZES) * len(bench.CASES)
    assert all(line.endswith("ns/seed-step") and float(line.split()[-2]) > 0 for line in steps)
    tables = [line for line in lines if line.startswith("schedule ")]
    assert len(tables) == len(bench.TABLE_MODES) and all(" table " in line for line in tables)
    assert len([line for line in lines if line.startswith("draws ")]) == len(bench.TINY_SIZES)
