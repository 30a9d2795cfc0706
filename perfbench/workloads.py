"""The four benchmark workloads: the CLI calls they make and the checks on their outputs.

An op is one ``clipopt.cli.main`` call.  Op ``i`` of a run with workload
seed ``s`` uses ``experiment.base_seed = s + i * n_seeds``, so the seed sets
of a run never overlap.  The checks reuse the acceptance rules of the
repository's test suite; each returns a list of problems (empty when the op
is correct).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
SLOPE_TOLERANCE = 0.15  # acceptance criterion 2


def binomial_limit(delta: float, n: int) -> float:
    """delta plus three binomial standard errors at n trials (criteria 3 and 7)."""
    return delta + 3.0 * math.sqrt(delta * (1.0 - delta) / n)


class Workload:
    """One CLI command over a pinned config, run in a closed loop by one caller."""

    name = ""
    command = ""
    config_file = ""
    cycle_len = 1  # ops per cycle; a cycle holds one op of each variant
    writes = True  # whether the command writes files under --out
    sizes: dict = {}  # config overrides fixing the input size
    tiny: dict = {}  # the same at smoke-test size
    n_seeds = 1  # seeds per op, read from the config in __init__
    speed_kernels = ("interp", "numpy")  # speed.py kernels that track the op's speed

    def __init__(self, seed: int, out: Path, smoke: bool):
        self.seed = seed
        self.out = out
        self.sizes = {**self.sizes, **(self.tiny if smoke else {})}
        self.config_path = CONFIGS / self.config_file
        self.cfg = self.load_cfg(0)
        self.n_seeds = self.seeds_per_op(self.cfg)
        self.delta = self.cfg.delta

    # -- inputs ----------------------------------------------------------------

    def seeds_per_op(self, cfg) -> int:
        return cfg.n_seeds

    def base_seed(self, i: int) -> int:
        return self.seed + i * self.n_seeds

    def variant(self, i: int) -> list[str]:
        """Overrides that differ between the ops of one cycle."""
        return []

    def overrides(self, i: int) -> list[str]:
        fixed = [f"{k}={v}" for k, v in self.sizes.items()]
        return fixed + self.variant(i) + [f"experiment.base_seed={self.base_seed(i)}"]

    def argv(self, i: int) -> list[str]:
        argv = [self.command, "--config", str(self.config_path)]
        for assignment in self.overrides(i):
            argv += ["--set", assignment]
        return argv + ["--out", str(self.out)] if self.writes else argv

    def load_cfg(self, i: int):
        from clipopt import config

        cfg = config.load_config(self.config_path)
        for assignment in self.overrides(i):
            config.apply_override(cfg, assignment)
        cfg.out_dir = str(self.out)
        config.validate_config(cfg)
        return cfg

    def seed_steps(self, i: int) -> int:
        raise NotImplementedError

    def output_files(self, i: int) -> list[Path]:
        return []

    def provenance(self) -> dict:
        n, d = self.n_seeds, self.cfg.dim
        horizons = list(self.cfg.horizon_grid or (self.cfg.horizon,))
        return {"n": n, "T": horizons if len(horizons) > 1 else horizons[0], "d": d,
                "nTd": n * max(horizons) * d, "noise_block_bytes_computed": 8 * n * max(horizons) * d}

    # -- checks ----------------------------------------------------------------

    def outputs(self, i: int, stdout: str) -> dict[str, bytes]:
        """The op's outputs that a rerun must reproduce byte for byte."""
        return {p.name: p.read_bytes() for p in self.output_files(i) if p.exists()}

    def check(self, i: int, rc, stdout: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            return self.check_outputs(i, stdout)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            return [f"unreadable output: {exc!r}"]

    def check_outputs(self, i: int, stdout: str) -> list[str]:
        raise NotImplementedError

    def check_run(self) -> list[str]:
        """Checks over all ops of a run."""
        return []

    def cross_frac(self) -> float:
        """Share of martingale traces that crossed their threshold (0 without traces)."""
        return 0.0


class RunWorkload(Workload):
    """``clipopt run``: a multi-seed trial with per-seed CSV and a JSON-lines summary."""

    command = "run"

    def __init__(self, seed, out, smoke):
        super().__init__(seed, out, smoke)
        from clipopt import algorithms, config, harness

        self.dir = Path(harness.experiment_dir(self.cfg))
        self.problem, self.x1 = config.build_problem(self.cfg)
        self.noise_model = config.build_noise(self.cfg)
        self.schedule = config.build_schedule(self.cfg, self.problem, self.x1,
                                              horizon=self.cfg.horizon)
        self.runner = {"smd": algorithms.run_smd, "asmd": algorithms.run_asmd}[self.cfg.algorithm]

    def seed_steps(self, i):
        return self.n_seeds * self.cfg.horizon

    def output_files(self, i):
        return [self.dir / "seed-results.csv", self.dir / "summary.jsonl"]

    def check_outputs(self, i, stdout):
        csv_path, summary_path = self.output_files(i)
        if not csv_path.exists() or not summary_path.exists():
            return ["missing seed-results.csv or summary.jsonl"]
        text = csv_path.read_text()
        if not text.startswith("# schema=1\n"):
            return ["seed-results.csv does not start with '# schema=1'"]
        rows = list(csv.reader(io.StringIO(text.split("\n", 1)[1])))
        header, rows = rows[0], rows[1:]
        problems = []
        if header != ["seed", "summary", "final_gap", "clipped_fraction", "diverged"]:
            problems.append(f"unexpected CSV header {header}")
        base = self.base_seed(i)
        if [int(r[0]) for r in rows] != list(range(base, base + self.n_seeds)):
            problems.append("CSV rows are not one per seed, in seed order")
        if not all(math.isfinite(float(r[1])) for r in rows):
            problems.append("non-finite summary in seed-results.csv")
        summary = json.loads(summary_path.read_text())
        limit = binomial_limit(self.delta, self.n_seeds)
        if summary["seeds"] != self.n_seeds or not summary["failure_rate"] <= limit:
            problems.append(f"failure_rate {summary['failure_rate']} above {limit:.4f}")
        if not problems:
            problems += self.check_bitwise(i, rows)
        return problems

    def check_bitwise(self, i, rows) -> list[str]:
        """Two seeds of the op rerun as single runs must reproduce their CSV rows bitwise."""
        from clipopt.noise import Oracle

        problems = []
        for k in random.Random(self.seed * 1_000_003 + i).sample(range(len(rows)), 2):
            row = rows[k]
            rec = self.runner(self.problem, Oracle(self.problem, self.noise_model, seed=int(row[0])),
                              self.schedule, self.cfg.horizon, self.x1, record=False)
            single = [row[0], repr(float(rec.summary)), repr(float(rec.final_gap)),
                      repr(float(rec.clipped_fraction)), str(int(rec.diverged))]
            if single != row:
                problems.append(f"seed {row[0]}: single run {single} != batch row {row}")
        return problems


class RunSmd(RunWorkload):
    name = "run-smd"
    config_file = "smd_heavy_tail.cfg"
    sizes = {"experiment.seeds": 1000, "experiment.t": 4096}
    tiny = {"experiment.seeds": 50, "experiment.t": 256}


class RunAsmdSimplex(RunWorkload):
    name = "run-asmd-simplex"
    config_file = "asmd_simplex.cfg"
    tiny = {"experiment.seeds": 30, "experiment.t": 128}


class RatesSgd(Workload):
    """``clipopt rates``: slope fit over a horizon grid; results go to stdout only."""

    name = "rates-sgd"
    command = "rates"
    config_file = "sgd_rates.cfg"
    writes = False
    tiny = {"experiment.t_grid": "256,512,1024,2048"}
    _line = re.compile(r"slope=(\S+) target=(\S+) deviation=(\S+) r2=(\S+)")

    def seed_steps(self, i):
        return self.n_seeds * sum(self.cfg.horizon_grid)

    def outputs(self, i, stdout):
        return {"stdout": stdout.encode()}

    def check_outputs(self, i, stdout):
        lines = stdout.strip().splitlines()
        match = self._line.fullmatch(lines[-1]) if lines else None
        if match is None or len(lines) != len(self.cfg.horizon_grid) + 1:
            return [f"unexpected rates output {stdout!r}"]
        medians = [float(line.split("median=")[1]) for line in lines[:-1]]
        if not all(math.isfinite(m) and m > 0 for m in medians):
            return [f"non-finite or nonpositive medians {medians}"]
        slope, target = float(match.group(1)), float(match.group(2))
        if not abs(slope - target) <= SLOPE_TOLERANCE:
            return [f"slope {slope} not within {SLOPE_TOLERANCE} of {target}"]
        return []


class Diagnose(Workload):
    """``clipopt diagnose``, alternating a mirror-descent op and a gradient-descent op."""

    name = "diagnose"
    command = "diagnose"
    config_file = "diagnose_smd.cfg"
    cycle_len = 2
    speed_kernels = ("interp",)  # an interpreter-bound observer loop on d=2 vectors
    tiny = {"experiment.t": 64, "diagnostics.resamples": 100}
    SGD = ["experiment.algorithm=sgd", "problem.kind=nonconvex_ratio", "problem.x1=1,1",
           "schedule.mode=sgd_known_t"]

    def __init__(self, seed, out, smoke):
        super().__init__(seed, out, smoke)
        from clipopt import harness

        self.dirs = [Path(harness.experiment_dir(self.load_cfg(i))) for i in range(2)]
        self.crossings = {"smd": [], "sgd": []}

    def seeds_per_op(self, cfg):
        return 1  # diagnose runs the single seed experiment.base_seed

    def variant(self, i):
        return self.SGD if i % 2 else []

    def seed_steps(self, i):
        return self.cfg.horizon

    def provenance(self):
        return {**super().provenance(), "resamples": self.cfg.resamples}

    def output_files(self, i):
        d = self.dirs[i % 2]
        return [d / "diagnostics.csv", d / "diagnostics.jsonl"]

    def check_outputs(self, i, stdout):
        csv_path, jsonl_path = self.output_files(i)
        if not csv_path.exists() or not jsonl_path.exists():
            return ["missing diagnostics.csv or diagnostics.jsonl"]
        text = csv_path.read_text()
        if not text.startswith("# schema=1\n"):
            return ["diagnostics.csv does not start with '# schema=1'"]
        rows = {r["name"]: r for r in csv.DictReader(io.StringIO(text.split("\n", 1)[1]))}
        algorithm = "sgd" if i % 2 else "smd"
        expected = {f"pathwise_{algorithm}", "clipping_error_bounds", f"martingale_{algorithm}"}
        if set(rows) != expected or len(jsonl_path.read_text().splitlines()) != len(expected):
            return [f"diagnostics rows {sorted(rows)}, expected {sorted(expected)}"]
        problems = [f"{name}: {rows[name]['violations']} violations"
                    for name in (f"pathwise_{algorithm}", "clipping_error_bounds")
                    if int(rows[name]["violations"]) != 0]
        self.crossings[algorithm].append(int(rows[f"martingale_{algorithm}"]["violations"]))
        return problems

    def cross_frac(self) -> float:
        counts = self.crossings["smd"] + self.crossings["sgd"]
        return sum(counts) / len(counts) if counts else 0.0

    def check_run(self):
        problems = []
        for algorithm, crossed in self.crossings.items():
            if crossed and sum(crossed) / len(crossed) > binomial_limit(self.delta, len(crossed)):
                problems.append(f"martingale_{algorithm}: crossing frequency "
                                f"{sum(crossed)}/{len(crossed)} above delta + 3 s.e.")
        return problems


WORKLOADS = {w.name: w for w in (RunSmd, RatesSgd, RunAsmdSimplex, Diagnose)}
