"""Anatomy of the clipped-gradient error at a fixed point.

Shows how each noise family is calibrated to E||xi||^p = sigma^p (two-point
noise: q M^p = sigma^p; radial noise: a s^p / (a - p) = sigma^p), then splits
the clipped error at a point with a known gradient into its zero-mean part
and the clipping bias, and compares both against their closed-form bounds
(2*level for the zero-mean part; 4 sigma^p level^(1-p) and 40 sigma^p
level^(2-p) for bias and second moment when the gradient is small enough).
The split is exact: two-point noise has 2d + 1 support points, and radial
noise's moments are a quadrature.  Nothing is sampled.
"""

import numpy as np

from clipopt import diagnostics, problems
from clipopt.noise import RadialParetoNoise, TwoPointNoise


def main():
    prob = problems.make_quadratic([1.0, 1.0])
    model = TwoPointNoise(p=1.5, sigma=1.0, q=0.01)
    print(f"two-point noise: spike magnitude M={model.spike:.2f} with probability q={model.q}; "
          f"q M^p = {model.q * model.spike ** model.p:.12f} = sigma^p")

    pareto = RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75)
    a, s = pareto.tail_index, pareto.scale
    print(f"radial pareto noise: scale s={s:.4f}, tail index a={a}; "
          f"a s^p / (a - p) = {a * s ** pareto.p / (a - pareto.p):.12f} = sigma^p "
          f"(infinite variance)")

    x = np.array([2.0, 0.0])
    level = 8.0
    print(f"\nat x={x} (gradient {prob.grad(x)}) with level {level}:")
    for name, noise_model in (("two-point", model), ("radial pareto", pareto)):
        rep = diagnostics.check_clipping_error_bounds(prob, noise_model, x, level)
        print(f"{name}: bias {rep.bias_norm:.4f} <= {rep.bias_bound:.4f}; "
              f"second moment {rep.second_moment:.4f} <= {rep.second_moment_bound:.1f}; "
              f"norm-bound violations: {rep.u_violations}")


if __name__ == "__main__":
    main()
