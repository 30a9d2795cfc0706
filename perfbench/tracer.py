"""Spans around calls into clipopt's layers, recorded from outside the package.

``Tracer.install`` replaces public functions and methods of the clipopt
modules with timing wrappers for the duration of one operation and
``Tracer.uninstall`` puts the originals back, so untraced operations run the
unmodified program.  A function is replaced in every clipopt module that
holds a reference to it (``cli`` and ``diagnostics`` import some by name).

Each span is kept in memory as (name, start, end, parent, op id) in typed
arrays and written out once, at the end of the run (``save``).  A layer's
self time is its span's duration minus the durations of its child spans.
A call that re-enters a span of the same name (a scalar method delegating to
its row variant) is counted once.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

perf = time.perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.extra = defaultdict(lambda: defaultdict(float))  # op -> key -> summed value
        self.peak = defaultdict(lambda: defaultdict(float))   # op -> key -> max value
        self.fractions = defaultdict(list)                    # op -> clipped fractions
        self._undo: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current_name(self) -> str | None:
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(tracer, args, kwargs, result)`` records counts."""
        nid = self.name_id(name)
        stack, starts, ends = self.stack, self.start, self.end

        def traced(*args, **kwargs):
            if stack and self.name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(starts)
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(nid)
            self.op.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def _patch_function(self, module, attr: str, replacement):
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("clipopt"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, original))

    def _patch_method(self, cls, attr: str, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self, op_id: int):
        """Wrap every layer boundary for operation ``op_id``."""
        from clipopt import algorithms, clipping, diagnostics, geometry, harness, noise
        from clipopt import problems, schedules

        self.op_id = op_id
        fn = self._patch_function
        meth = self._patch_method

        for attr in ("run_trials", "fit_rate"):
            fn(harness, attr, self.wrap("harness", getattr(harness, attr)))
        fn(harness, "write_experiment_outputs",
           self.wrap("harness.write", harness.write_experiment_outputs, after=_bytes_written))
        for attr in ("run_smd_batch", "run_asmd_batch", "run_sgd_batch", "run_vanilla_sgd_batch"):
            fn(algorithms, attr, self.wrap("algorithms.batch", getattr(algorithms, attr),
                                           after=_batch_done))
        for attr in ("run_smd", "run_asmd", "run_sgd", "run_vanilla_sgd"):
            fn(algorithms, attr, self._single_run(getattr(algorithms, attr)))
        fn(schedules, "verify_schedule_conditions",
           self.wrap("schedules.verify", schedules.verify_schedule_conditions))
        fn(schedules, "theorem_bound", self.wrap("schedules.bound", schedules.theorem_bound))
        for attr in ("make_quadratic", "make_simplex_quadratic", "make_nonconvex_ratio",
                     "make_quadratic_plus_norm"):
            fn(problems, attr, self._problem_factory(getattr(problems, attr)))
        fn(clipping, "clip_batch", self.wrap("clipping.clip_batch", clipping.clip_batch))
        for attr in ("check_pathwise_smd", "check_pathwise_asmd", "check_pathwise_sgd"):
            fn(diagnostics, attr, self.wrap("diagnostics.pathwise", getattr(diagnostics, attr)))
        for attr in ("martingale_trace_smd", "martingale_trace_sgd"):
            fn(diagnostics, attr, self.wrap("diagnostics.martingale", getattr(diagnostics, attr)))
        fn(diagnostics, "check_clipping_error_bounds",
           self.wrap("diagnostics.error_bounds", diagnostics.check_clipping_error_bounds))
        for attr in ("write_reports_csv", "write_reports_jsonl"):
            fn(diagnostics, attr, self.wrap("diagnostics.write", getattr(diagnostics, attr)))

        meth(noise.Oracle, "noise_matrix",
             self.wrap("noise.presample", noise.Oracle.noise_matrix))
        for cls in (noise.TwoPointNoise, noise.RadialParetoNoise):
            meth(cls, "sample_batch",
                 self.wrap("noise.sample_batch", cls.sample_batch, after=_draws))
        meth(schedules.Schedule, "pair", self.wrap("schedules.pair", schedules.Schedule.pair))
        for attr, name in (("mirror_step", "geometry.mirror_step"),
                           ("mirror_step_many", "geometry.mirror_step"),
                           ("dual_norm", "geometry.dual_norm"),
                           ("dual_norm_many", "geometry.dual_norm"),
                           ("bregman", "geometry.bregman")):
            meth(geometry.Geometry, attr, self.wrap(name, getattr(geometry.Geometry, attr)))
        for attr in ("gap", "gap_many"):
            meth(problems.Problem, attr, self.wrap("problems.gap", getattr(problems.Problem, attr)))

    def uninstall(self):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()
        self.op_id = -1

    def _single_run(self, fn):
        """Single-run loop span; an observer it is given becomes a span of its caller's layer."""
        traced = self.wrap("algorithms.single", fn, after=_single_done)

        def call(*args, **kwargs):
            observer = kwargs.get("observer")
            if observer is not None:
                caller = self.current_name()
                if caller is None or not caller.startswith("diagnostics."):
                    caller = "diagnostics.observer"
                kwargs["observer"] = self.wrap(caller, observer)
            return traced(*args, **kwargs)

        return call

    def _problem_factory(self, factory):
        """The factory's Problem with its gradient closures wrapped."""

        def make(*args, **kwargs):
            prob = factory(*args, **kwargs)
            return dataclasses.replace(prob, grad=self.wrap("problems.grad", prob.grad),
                                       grad_many=self.wrap("problems.grad", prob.grad_many))

        return make

    # -- output --------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def save(self, path):
        """Write every span as columns plus the name table (numpy .npz)."""
        np.savez(path, names=np.array(self.names), **self.columns())

    def per_op(self, op_ids) -> list[dict[str, float]]:
        """Per operation: call count, self and inclusive time by span name, plus counts."""
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        parent, name, op = cols["parent"], cols["name"], cols["op"]
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        is_diag = np.array([n.startswith("diagnostics.") for n in self.names] or [False])
        via_observer = has_parent & is_diag[name]
        observer_child = np.zeros_like(dur)
        np.add.at(observer_child, parent[via_observer], dur[via_observer])
        # a row draw outside a presample is a diagnostic resample
        sample_id = self._ids.get("noise.sample_batch", -1)
        presample_id = self._ids.get("noise.presample", -2)
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        resample = (name == sample_id) & (parent_name != presample_id)

        n_ops, n_names = len(op_ids), len(self.names)
        lookup = np.full(int(op.max(initial=0)) + 1, -1)
        lookup[np.asarray(op_ids, dtype=int)] = np.arange(n_ops)
        pos = lookup[op]
        keep = pos >= 0
        key = pos[keep] * n_names + name[keep]

        def table(weights):
            w = None if weights is None else weights[keep]
            return np.bincount(key, weights=w, minlength=n_ops * n_names).reshape(n_ops, n_names)

        calls, self_s = table(None), table(dur - child)
        incl, loop = table(dur), table(dur - observer_child)
        resample_s = np.bincount(pos[keep & resample], weights=dur[keep & resample],
                                 minlength=n_ops)
        rows = []
        for k, op_id in enumerate(op_ids):
            row: dict[str, float] = {}
            for nid, label in enumerate(self.names):
                row[f"{label}:calls"] = float(calls[k, nid])
                row[f"{label}:self"] = float(self_s[k, nid])
                row[f"{label}:incl"] = float(incl[k, nid])
                row[f"{label}:loop"] = float(loop[k, nid])
            row["noise.resample:incl"] = float(resample_s[k])
            row.update(self.extra[op_id])
            row.update({f"peak:{key_}": v for key_, v in self.peak[op_id].items()})
            rows.append(row)
        return rows


def _bytes_written(tracer, args, kwargs, csv_path):
    summary_path = os.path.join(os.path.dirname(csv_path), "summary.jsonl")
    tracer.extra[tracer.op_id]["harness.bytes_written"] += (
        os.path.getsize(csv_path) + os.path.getsize(summary_path))


def _batch_done(tracer, args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    steps = _arg(args, kwargs, 3, "steps")
    n = result.seeds.size
    tracer.extra[tracer.op_id]["algorithms.batch_seed_steps"] += n * steps
    peak = tracer.peak[tracer.op_id]
    peak["noise_block_bytes"] = max(peak["noise_block_bytes"], 8.0 * n * steps * problem.dim)
    tracer.fractions[tracer.op_id].append(np.asarray(result.clipped_fraction, dtype=float))


def _single_done(tracer, args, kwargs, record):
    problem = _arg(args, kwargs, 0, "problem")
    steps = _arg(args, kwargs, 3, "steps")
    tracer.extra[tracer.op_id]["algorithms.single_steps"] += steps
    peak = tracer.peak[tracer.op_id]
    peak["noise_block_bytes"] = max(peak["noise_block_bytes"], 8.0 * steps * problem.dim)
    tracer.fractions[tracer.op_id].append(np.array([record.clipped_fraction], dtype=float))


def _draws(tracer, args, kwargs, result):
    extra = tracer.extra[tracer.op_id]
    extra["noise.draws"] += result.shape[0]
    if tracer.current_name() == "noise.presample":
        extra["noise.presample_draws"] += result.shape[0]
