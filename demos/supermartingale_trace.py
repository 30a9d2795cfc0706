"""The supermartingale behind the high-probability guarantee, traced.

Every run carries a weighted sum of per-step inequality slacks whose
exponential is a supermartingale; the guarantee is exactly the statement
that this sum rarely reaches log(1/delta).  This demo traces it for a batch
of seeded mirror-descent runs, prints where each trace peaked, and compares
the empirical crossing frequency with delta.
"""

import numpy as np

from clipopt import algorithms, diagnostics, problems, schedules
from clipopt.noise import TwoPointNoise

SEEDS = 200
STEPS = 128
DELTA = 0.1


def main():
    prob = problems.make_quadratic([1.0, 1.0])
    x1 = np.array([4.0, 0.0])
    model = TwoPointNoise(p=1.5, sigma=1.0, q=0.1)
    s = schedules.derive_inputs(prob, x1, p=1.5, sigma=1.0, delta=DELTA, horizon=STEPS)
    sched = schedules.Schedule("smd_known_t", s)

    # one recorded lockstep run of every seed; the traces' conditional moments are exact
    batch = algorithms.run_smd_batch(prob, model, sched, STEPS, x1, range(SEEDS), record=True)
    traces = diagnostics.martingale_trace_smd(prob, model, batch.table, sched.constants(), DELTA)
    peaks = np.array([np.max(trace.running_sum) for trace in traces])
    crossings = sum(trace.crossed for trace in traces)
    trace = traces[-1]
    print(f"threshold log(1/delta) = {trace.threshold:.3f}")
    print(f"peak running sum: median {np.median(peaks):+.4f}, "
          f"90% {np.quantile(peaks, 0.9):+.4f}, max {peaks.max():+.4f}")
    print(f"crossing frequency {crossings / SEEDS:.4f} (guarantee: <= {DELTA})")
    print(f"weights are nonincreasing: {bool(np.all(np.diff(trace.weights) <= 1e-15))}")


if __name__ == "__main__":
    main()
