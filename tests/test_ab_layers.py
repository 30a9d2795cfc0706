"""The A/B layer bench runs a checkout against itself at smoke sizes and prints every row."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB, BENCH = ROOT / "tools" / "ab_layers.py", ROOT / "tools" / "bench_layers.py"
NUMBER = r"(\d+\.\d+)"
ROW = re.compile(rf"(step|kernel|metric|clipstep|draws|sweep) .+ A +{NUMBER} B +{NUMBER} "
                 rf"(ns/seed-step|us/seed|ms) "
                 rf"A/B {NUMBER} \[{NUMBER} {NUMBER}\] won (\d+)/3$")


def test_ab_layers_tiny_prints_every_row():
    """Format only: no timing is bounded, since both sides are one tree on a shared host."""
    out = subprocess.run([sys.executable, str(AB), str(ROOT), "--tiny", "--repeat", "3"],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    lines = out.splitlines()
    machine = lines[0].split()
    assert machine[0] == "machine"
    assert [field.split("=")[0] for field in machine[1:]] == ["nproc", "python", "numpy"]
    assert lines[1] == f"trees A={ROOT} B={ROOT} repeats=3"
    rows = [ROW.match(line) for line in lines[2:]]
    assert all(rows), [line for line, row in zip(lines[2:], rows) if not row]
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    kernels = len(bench.TINY_KERNEL_SIZES) * sum(algorithm in bench.KERNEL_ALGORITHMS
                                                for algorithm, *_ in bench.CASES)
    clipsteps = sum(len(case[-1]) for case in bench.TINY_CLIP_CASES)
    step_rows = (len(bench.TINY_SIZES) * len(bench.CASES)
                 + len(bench.TINY_NONUNIFORM_SIZES) * len(bench.NONUNIFORM_CASES))
    metrics = len(bench.TINY_METRIC_SIZES) * len(bench.METRICS)
    steps = step_rows + kernels + metrics + clipsteps
    assert [row[1] for row in rows] == (["step"] * step_rows
                                        + ["kernel"] * kernels
                                        + ["metric"] * metrics
                                        + ["clipstep"] * clipsteps
                                        + ["draws"] * len(bench.TINY_DRAWS_SIZES)
                                        + ["sweep"] * len(bench.TINY_SWEEPS))
    assert [row[4] for row in rows] == (["ns/seed-step"] * steps
                                        + ["us/seed"] * len(bench.TINY_DRAWS_SIZES)
                                        + ["ms"] * len(bench.TINY_SWEEPS))
    for row in rows:
        a, b, median, q1, q3 = (float(row[i]) for i in (2, 3, 5, 6, 7))
        assert a > 0 and b > 0 and q1 <= median <= q3 and int(row[8]) <= 3
