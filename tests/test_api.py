"""The package's public surface: one clip operator, no helpers that only tests called."""

import inspect

import clipopt
from clipopt import clipping, geometry, harness, schedules


def test_test_only_helpers_are_gone_and_kept_signatures_hold():
    """The one-vector clip, the mirror-map gradient, the step residual, the domain
    sampler and the off-guarantee flag are gone; a clip takes its dual norms, a trial
    run writes exactly when its config names an output directory, and a domain test
    takes no tolerance."""
    assert not hasattr(clipping, "clip") and not hasattr(clipopt, "clip")
    for name in ("sample", "grad_psi", "step_optimality_gap"):
        assert not hasattr(geometry.Geometry, name), name
    assert not hasattr(schedules.Schedule, "off_guarantee")
    norms = inspect.signature(clipping.clip_batch).parameters["dual_norms"]
    assert norms.default is inspect.Parameter.empty
    assert list(inspect.signature(harness.run_trials).parameters) == ["cfg"]
    assert list(inspect.signature(geometry.Geometry.contains).parameters) == ["self", "x"]
