"""Clipped stochastic gradient methods under heavy-tailed noise.

A small laboratory: geometries and mirror steps, calibrated heavy-tailed
noise oracles, the clipping operator and its error decomposition, the
schedules behind the high-probability guarantees, the three optimization
loops, exact and pathwise diagnostics for the analysis inequalities,
and a seeded experiment harness.
"""

from .algorithms import (RunRecord, run_asmd, run_sgd, run_smd, run_vanilla_sgd)
from .clipping import ThetaEstimate, clip, estimate_g0, estimate_theta, geometric_median
from .geometry import Geometry, ball, euclidean, simplex
from .noise import Oracle, RadialParetoNoise, TwoPointNoise, make_noise, make_rng, moment_check
from .problems import (Problem, make_nonconvex_ratio, make_quadratic,
                       make_quadratic_plus_norm, make_simplex_quadratic)
from .schedules import (Schedule, ScheduleInputs, derive_inputs, theorem_bound,
                        verify_schedule_conditions)

__version__ = "0.1.0"
