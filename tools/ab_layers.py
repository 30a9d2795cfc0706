"""A/B per-layer timings of this checkout against another, interleaved repeat by repeat.

``tools/bench_layers.py`` times one tree per process, with each row's repeats
back to back, so a slow spell of a shared host lands on one tree's rows.  This
script imports this checkout's ``src/clipopt`` and OTHER's side by side, as
the packages ``clipopt_a`` and ``clipopt_b``, and loads this checkout's
``bench_layers.py`` once against each, so both trees run the same bench code.
It then times, for both trees, the bench's lockstep ``step`` rows, its
``kernel`` rows (a step's arithmetic alone), its ``clipstep`` rows, its
``draws`` rows (a two-point draws build, through ``algorithms._batch``, so a
tree whose ``noise.lockstep_draws`` takes other arguments is timed alike) and
its ``sweep`` rows run in this process (W = 1): each
repeat runs every row once on each tree, back to back, and which tree goes
first alternates from repeat to repeat and from row to row.  Every row runs
once on each tree before the timed repeats.

Prints the machine, the two trees, then one line per row: each tree's median
(A is this checkout, B is OTHER), the median and quartiles of the per-repeat
ratio A/B (below 1: A is faster), and the repeats A won::

    PYTHONPATH=src python tools/ab_layers.py ../parent            # a few minutes
    PYTHONPATH=src python tools/ab_layers.py ../parent --tiny     # smoke sizes, a few seconds
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
BENCH = HERE / "bench_layers.py"


def load_tree(checkout: Path, name: str):
    """``checkout/src/clipopt`` imported as the package ``name``, every module of it loaded."""
    src = checkout / "src" / "clipopt"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for path in sorted(src.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{name}.{path.stem}")
    return package


def load_bench(package, name: str):
    """``bench_layers.py`` as the module ``name``, its ``clipopt`` imports bound to ``package``.

    While the bench module is executed, ``clipopt`` and its modules in ``sys.modules`` are
    the aliased package's; what was there before is put back afterwards.
    """
    prefix = package.__name__ + "."
    saved = {key: sys.modules.pop(key) for key in list(sys.modules)
             if key == "clipopt" or key.startswith("clipopt.")}
    try:
        sys.modules["clipopt"] = package
        for key in [key for key in sys.modules if key.startswith(prefix)]:
            sys.modules["clipopt." + key[len(prefix):]] = sys.modules[key]
        spec = importlib.util.spec_from_file_location(name, BENCH)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
    finally:
        for key in [key for key in sys.modules if key == "clipopt" or key.startswith("clipopt.")]:
            del sys.modules[key]
        sys.modules.update(saved)
    return bench


def rows(bench, tiny: bool):
    """(label, run, seconds per unit, unit) of each row the A/B times, from one tree's bench."""
    steps = bench.TINY_LOOP_STEPS if tiny else bench.LOOP_STEPS
    out = [(label, run, seed_steps * 1e-9, "ns/seed-step")
           for label, run, seed_steps in bench.step_rows(
               bench.TINY_SIZES if tiny else bench.SIZES, steps)]
    out += [(label, run, seed_steps * 1e-9, "ns/seed-step")
            for label, run, seed_steps in bench.kernel_rows(
                bench.TINY_KERNEL_SIZES if tiny else bench.KERNEL_SIZES, steps)]
    out += [(label, run, seed_steps * 1e-9, "ns/seed-step")
            for label, run, seed_steps, _ in bench.clip_rows(
                bench.TINY_CLIP_CASES if tiny else bench.CLIP_CASES, steps)]
    out += [(label, run, builds * n * 1e-6, "us/seed") for label, run, builds, n, _ in
            bench.draws_rows(bench.TINY_DRAWS_SIZES if tiny else bench.DRAWS_SIZES)]
    out += [(label + " W=1", bench._at_threshold(run, float("inf")), 1e-3, "ms")
            for label, _, run in bench.sweep_rows(bench.TINY_SWEEPS if tiny else bench.SWEEPS)]
    return out


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("other", type=Path, help="the checkout to compare with (B)")
    parser.add_argument("--tiny", action="store_true", help="smoke sizes (a few seconds)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="timed repeats, each a pair of runs (default 20, 3 with --tiny)")
    args = parser.parse_args(argv)
    repeat = args.repeat or (3 if args.tiny else 20)
    trees = [HERE.parent, args.other.resolve()]
    benches = [load_bench(load_tree(root, f"clipopt_{tag}"), f"bench_layers_{tag}")
               for root, tag in zip(trees, "ab")]
    a_rows, b_rows = (rows(bench, args.tiny) for bench in benches)
    if [row[0] for row in a_rows] != [row[0] for row in b_rows]:
        raise SystemExit("the two trees give different bench rows")
    print(f"machine nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={np.__version__}")
    print(f"trees A={trees[0]} B={trees[1]} repeats={repeat}")
    times = np.empty((len(a_rows), repeat, 2))
    for a_row, b_row in zip(a_rows, b_rows):  # warm caches and first-use set-up
        a_row[1](), b_row[1]()
    for r in range(repeat):
        for i, (a_row, b_row) in enumerate(zip(a_rows, b_rows)):
            first = (r + i) % 2  # the tree that runs first
            for side in (first, 1 - first):
                times[i, r, side] = _seconds((a_row, b_row)[side][1])
    for (label, _, per, unit), t in zip(a_rows, times):
        ratio = t[:, 0] / t[:, 1]
        q1, med, q3 = np.percentile(ratio, [25, 50, 75])
        a_med, b_med = np.median(t, axis=0) / per
        print(f"{label} A {a_med:9.1f} B {b_med:9.1f} {unit} A/B {med:.3f} "
              f"[{q1:.3f} {q3:.3f}] won {int((ratio < 1).sum())}/{repeat}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
