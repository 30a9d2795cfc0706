"""Anatomy of the clipped-gradient error at a fixed point.

Draws spiky noise at a point with a known gradient, splits the clipped
error into its zero-mean part and the clipping bias (exact: two-point noise
has 2d + 1 support points, and radial noise's moments are a quadrature), and
compares both against their closed-form bounds (2*level for the zero-mean
part; 4 sigma^p level^(1-p) and 40 sigma^p level^(2-p) for bias and second
moment when the gradient is small enough), for both noise families.  Also shows the calibrated noise
moments and the robust initial gradient estimate.
"""

import numpy as np

from clipopt import clipping, diagnostics, problems
from clipopt.noise import Oracle, RadialParetoNoise, TwoPointNoise, make_rng, moment_check


def main():
    prob = problems.make_quadratic([1.0, 1.0])
    model = TwoPointNoise(p=1.5, sigma=1.0, q=0.01)
    print(f"two-point noise: spike magnitude {model.spike:.2f} "
          f"with probability {model.q}")
    est, se = moment_check(model, d=2, n=200_000, rng=make_rng(0))
    print(f"empirical p-th moment {est:.4f} +- {se:.4f} (calibrated to 1.0)")

    pareto = RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75)
    est, spread = moment_check(pareto, d=2, n=200_000, rng=make_rng(1))
    print(f"radial pareto p-th moment {est:.4f} +- {spread:.4f} "
          f"(scale {pareto.scale:.4f}, infinite variance)")

    oracle = Oracle(prob, model, seed=3)
    x = np.array([2.0, 0.0])
    level = 8.0
    theta = clipping.estimate_theta(oracle, x, level)
    print(f"\nat x={x} with level {level}: |theta|={np.linalg.norm(theta.theta):.4f} "
          f"|theta_u|={np.linalg.norm(theta.theta_u):.4f} "
          f"|theta_b|={np.linalg.norm(theta.theta_b):.4f}")

    for name, noise_model in (("two-point", model), ("radial pareto", pareto)):
        rep = diagnostics.check_clipping_error_bounds(prob, noise_model, x, level)
        print(f"{name}: bias {rep.bias_norm:.4f} <= {rep.bias_bound:.4f}; "
              f"second moment {rep.second_moment:.4f} <= {rep.second_moment_bound:.1f}; "
              f"norm-bound violations: {rep.u_violations}")

    g0, mu = clipping.estimate_g0(prob, model, x, blocks=51, per_block=20, rng=make_rng(5))
    print(f"\nrobust initial estimate g0={g0.round(4)} vs true {prob.grad(x)} "
          f"(observed mu={mu:.4f})")


if __name__ == "__main__":
    main()
