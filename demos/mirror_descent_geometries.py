"""Clipped mirror descent across the three geometries.

Runs the known-horizon schedule on an unconstrained quadratic, a ball-
constrained quadratic, and a simplex objective, with and without noise, and
prints the average-gap summaries next to the schedule's explicit bound.
"""

import numpy as np

from clipopt import algorithms, problems, schedules
from clipopt.geometry import ball
from clipopt.noise import Oracle, TwoPointNoise

HORIZON = 2048
SEED = 7


def run(problem, x1, sigma, label):
    s = schedules.derive_inputs(problem, x1, p=1.5, sigma=sigma, delta=0.1,
                                horizon=HORIZON)
    sched = schedules.Schedule("smd_known_t", s)
    oracle = Oracle(problem, TwoPointNoise(p=1.5, sigma=sigma, q=0.1), seed=SEED)
    rec = algorithms.run_smd(problem, oracle, sched, HORIZON, x1)
    bound = schedules.theorem_bound(sched, HORIZON)
    print(f"{label:28s} sigma={sigma:<4} avg gap={rec.summary:10.3e} "
          f"bound={bound:9.3e} final gap={rec.final_gap:9.3e} "
          f"clipped={rec.clipped_fraction:.3f}")


def main():
    quad = problems.make_quadratic([1.0, 3.0], [0.2, -0.1])
    x1 = np.array([1.2, 0.9])
    for sigma in (0.0, 0.5):
        run(quad, x1, sigma, "unconstrained quadratic")

    # same objective restricted to a ball around its minimizer
    boxed = problems.Problem(
        name="ball_quadratic", geometry=ball(2, radius=2.0, center=quad.minimizer),
        value_many=quad.value_many, grad_many=quad.grad_many, smoothness=quad.smoothness,
        optimal_value=quad.optimal_value, minimizer=quad.minimizer)
    for sigma in (0.0, 0.5):
        run(boxed, x1, sigma, "ball-constrained quadratic")

    simplex = problems.make_simplex_quadratic([0.2, 0.3, 0.5])
    y1 = np.ones(3) / 3
    for sigma in (0.0, 0.5):
        run(simplex, y1, sigma, "simplex objective")


if __name__ == "__main__":
    main()
