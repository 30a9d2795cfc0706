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
    param_free = [line.split() for line in steps if " smd_param_free/euclidean " in line]
    assert [row[1:4] for row in param_free] == [[name, f"n={n}", f"d={d}"]
                                                for name, n, d, _ in bench.TINY_SIZES]
    clipsteps = [line.split() for line in lines if line.startswith("clipstep ")]
    assert len(clipsteps) == 1 and float(clipsteps[0][-3]) > 0
    assert float(clipsteps[0][-1].removeprefix("clipped=")) > 0.5  # the step really clips
    moments = [line.split() for line in lines if line.startswith("moments ")]
    assert len(moments) == 1 and moments[0][3::5] == ["two_point", "radial"]
    assert moments[0][5::5] == ["ms", "ms"] and moments[0][7::5] == ["us/point", "us/point"]
    assert all(float(moments[0][i]) > 0 for i in (4, 6, 9, 11))  # ms and us per point
    tables = [line for line in lines if line.startswith("schedule ")]
    assert len(tables) == len(bench.TABLE_MODES) and all(" table " in line for line in tables)
    assert len([line for line in lines if line.startswith("draws ")]) == len(bench.TINY_SIZES)
    sweeps = [line.split() for line in lines if line.startswith("sweep ")]
    assert [row[1] for row in sweeps] == [name for name, _ in bench.TINY_SWEEPS]
    assert all(row[6] == "W=1" and row[9].startswith("W=") and int(row[9][2:]) >= 1
               and row[8] == row[11] == "ms" and float(row[7]) > 0 and float(row[10]) > 0
               for row in sweeps)
