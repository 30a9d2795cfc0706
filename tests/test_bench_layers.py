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
    assert len(steps) == (len(bench.TINY_SIZES) * len(bench.CASES)
                          + len(bench.TINY_NONUNIFORM_SIZES) * len(bench.NONUNIFORM_CASES))
    assert [line.split()[1:5] for line in steps[-len(bench.TINY_NONUNIFORM_SIZES):]] == [
        [name, f"n={n}", f"d={d}", "smd/nonuniform"]
        for name, n, d, _ in bench.TINY_NONUNIFORM_SIZES]
    assert all(line.endswith("ns/seed-step") and float(line.split()[-2]) > 0 for line in steps)
    kernels = [line.split() for line in lines if line.startswith("kernel ")]
    assert [row[1:5] for row in kernels] == [
        [name, f"n={n}", f"d={d}", f"{algorithm}/{kind}"] for name, n, d, _ in
        bench.TINY_KERNEL_SIZES for algorithm, _, kind, _ in bench.CASES
        if algorithm in bench.KERNEL_ALGORITHMS]
    assert all(row[-1] == "ns/seed-step" and float(row[-2]) > 0 for row in kernels)
    for i, line in enumerate(lines):  # each kernel row follows the step row of its case
        if line.startswith("kernel "):
            assert lines[i - 1].split()[:5] == ["step"] + line.split()[1:5]
    metrics = [line.split() for line in lines if line.startswith("metric ")]
    assert [row[1:5] for row in metrics] == [
        [name, f"n={n}", f"d={d}", f"{algorithm}/{kind}"]
        for name, n, d, _ in bench.TINY_METRIC_SIZES for algorithm, kind in bench.METRICS]
    assert [row[4] for row in metrics[:3]] == ["smd/euclidean", "smd/nonuniform",
                                               "sgd/euclidean"]
    assert all(row[5].startswith("K=") and int(row[5][2:]) >= 1 and row[-1] == "ns/seed-step"
               and float(row[-2]) > 0 for row in metrics)
    param_free = [line.split() for line in steps if " smd_param_free/euclidean " in line]
    assert [row[1:4] for row in param_free] == [[name, f"n={n}", f"d={d}"]
                                                for name, n, d, _ in bench.TINY_SIZES]
    clipsteps = [line.split() for line in lines if line.startswith("clipstep ")]
    assert [row[1:6] for row in clipsteps] == [
        [name, f"n={n}", f"d={d}", f"{algorithm}/{kind}", f"level={level:g}"]
        for name, n, d, algorithm, kind, levels in bench.TINY_CLIP_CASES for level in levels]
    assert all(float(row[-3]) > 0 for row in clipsteps)
    shares = [float(row[-1].removeprefix("clipped=")) for row in clipsteps]
    for every, rare in zip(shares[::2], shares[1::2]):  # every seed-step clips, then some
        assert every == 1.0 and 0 < rare < 0.5
    moments = [line.split() for line in lines if line.startswith("moments ")]
    assert len(moments) == 1 and moments[0][3::5] == ["two_point", "radial"]
    assert moments[0][5::5] == ["ms", "ms"] and moments[0][7::5] == ["us/point", "us/point"]
    assert all(float(moments[0][i]) > 0 for i in (4, 6, 9, 11))  # ms and us per point
    tables = [line for line in lines if line.startswith("schedule ")]
    assert len(tables) == len(bench.TABLE_MODES) and all(" table " in line for line in tables)
    draws = [line.split() for line in lines if line.startswith("draws ")]
    assert [row[1:5] for row in draws] == [[name, f"n={n}", f"d={d}", f"T={steps}"]
                                           for name, n, d, steps in bench.TINY_DRAWS_SIZES]
    assert all(row[6::2] == ["ms", "us/seed", "ns/seed-step"] and
               all(float(value) > 0 for value in row[5::2]) for row in draws)
    sweeps = [line.split() for line in lines if line.startswith("sweep ")]
    assert [row[1] for row in sweeps] == [name for name, _ in bench.TINY_SWEEPS]
    rates = [line.split() for line in lines if line.startswith("rates ")]
    assert [row[1] for row in rates] == [bench.TINY_RATES[0]]
    assert rates[0][4] == "T=" + ",".join(map(str, bench.TINY_RATES[1]["horizon_grid"]))
    assert all(row[6] == "W=1" and row[9].startswith("W=") and int(row[9][2:]) >= 1
               and row[8] == row[11] == "ms" and float(row[7]) > 0 and float(row[10]) > 0
               for row in sweeps + rates)
    records = [line.split() for line in lines if line.startswith("record ")]
    assert [record[4] for record in records] == ["smd/euclidean", "asmd/euclidean"]
    for record in records:
        assert record[1:4] == [f"n={bench.TINY_RECORD[0]}", "d=2", f"T={bench.TINY_RECORD[1]}"]
        assert record[6::3] == ["ms", "MB", "MB"] and record[7::3] == ["peak", "held"]
        assert all(float(record[i]) > 0 for i in (5, 8, 11))
        assert float(record[8]) >= float(record[11])  # the peak includes what the result holds
