"""Smoke test of the benchmark itself: every workload at tiny sizes, checks on.

    python3 perfbench/smoke.py

Runs ``run.py --smoke`` untraced and traced for each workload (about a
minute on two cores) and fails unless every run exits 0, reports
``correct: true`` with no failed op, and prints exactly the metrics that
BENCHMARK.json declares.  Also checks that the benchmark refuses to run, with
a non-zero exit and no result, in a directory without the clipopt sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("run-smd", "rates-sgd", "run-asmd-simplex", "diagnose")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            if units != declared[trace]:
                failures.append(f"{tag}: metrics differ from BENCHMARK.json")
            print(f"{tag}: {result['attempted']} ops, correct={result['correct']}")

    work = ROOT / "perfbench" / "_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = run(bare, "run-smd", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
        print(f"without sources: exit {proc.returncode}")

    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
