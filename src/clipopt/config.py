"""Experiment configuration: a flat, sectioned key = value format.

Sections are ``[experiment]``, ``[problem]``, ``[noise]``, ``[schedule]`` and
``[diagnostics]``; ``#`` starts a comment.  Loading parses the file, applies
any ``section.key=value`` overrides in order, then validates once: every
constraint of the underlying modules (moment order range, tail index, step-size
caps, mode/algorithm compatibility, the l2 geometry gradient descent runs on) is
re-checked and reported with the offending section.key.  ``dumps_config``
writes a canonical form whose reload compares equal, so configs round-trip.

Each key is declared once, as an ``ExperimentConfig`` field that carries its
section.key and value kind.  The field's default is the value of a key no config
sets, and the value validation resets a key to when it looks for the key to blame.

The start and the schedule are checked by one fault check (``_fault``): the
start's schedule inputs must be finite doubles the schedule takes, and at each
horizon the schedule's formulas, bound, steps and levels must stay in range.
A fault is blamed on the first suspect, in the order x1, diag, shift, target,
mu, eta_scale, lambda_scale, c_override, whose reset makes the whole config
valid; with none, on the fault's own key (problem.x1 or noise.p).
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
import math

import numpy as np

from . import noise as noise_mod
from . import problems as problems_mod
from . import schedules as schedules_mod

ALGORITHMS = ("smd", "asmd", "sgd", "vanilla-sgd")
MODE_FOR_ALGORITHM = {
    "smd": schedules_mod.SMD_MODES,
    "asmd": schedules_mod.ASMD_MODES,
    "sgd": schedules_mod.SGD_MODES,
    "vanilla-sgd": schedules_mod.SGD_MODES,  # baseline borrows the clipped step size
}


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")

    def __reduce__(self):  # ``args`` holds the joined text only, so rebuild from both parts
        return type(self), (self.field_path, str(self).removeprefix(f"{self.field_path}: "))


def _key(path: str, kind: str, default):
    """A field read from the config key ``path`` (``section.key``) as a value of ``kind``;
    ``default`` is its value when no config sets it, and the value a rejection resets it to
    when looking for the key to blame."""
    return dataclasses.field(default=default, metadata={"key": path, "kind": kind})


@dataclasses.dataclass
class ExperimentConfig:
    experiment_id: str = _key("experiment.id", "str", "exp")
    algorithm: str = _key("experiment.algorithm", "str", "smd")
    horizon: int = _key("experiment.t", "int", 1024)
    horizon_grid: tuple[int, ...] | None = _key("experiment.t_grid", "int_tuple", None)
    n_seeds: int = _key("experiment.seeds", "int", 100)
    base_seed: int = _key("experiment.base_seed", "int", 0)
    delta: float = _key("experiment.delta", "float", 0.1)
    out_dir: str | None = _key("experiment.out", "str", None)
    problem: str = _key("problem.kind", "str", "quadratic")
    dim: int = _key("problem.dim", "int", 2)
    diag: tuple[float, ...] | None = _key("problem.diag", "float_tuple", None)
    shift: tuple[float, ...] | None = _key("problem.shift", "float_tuple", None)
    target: tuple[float, ...] | None = _key("problem.target", "float_tuple", None)
    coef: float = _key("problem.coef", "float", 0.25)
    x1: tuple[float, ...] | None = _key("problem.x1", "float_tuple", None)
    noise: str = _key("noise.kind", "str", "two_point")
    p: float = _key("noise.p", "float", 2.0)
    sigma: float = _key("noise.sigma", "float", 1.0)
    q: float = _key("noise.q", "float", 0.1)
    tail_index: float = _key("noise.tail_index", "float", 1.75)
    mode: str = _key("schedule.mode", "str", "smd_known_t")
    c1: float = _key("schedule.c1", "float", 1.0)
    c2: float = _key("schedule.c2", "float", 1.0)
    c_override: float | None = _key("schedule.c_override", "float", None)
    eta_scale: float = _key("schedule.eta_scale", "float", 1.0)
    lambda_scale: float = _key("schedule.lambda_scale", "float", 1.0)
    vanilla_eta: float | None = _key("schedule.vanilla_eta", "float", None)
    mu: float = _key("schedule.mu", "float", 0.0)
    pathwise: bool = _key("diagnostics.pathwise", "bool", False)
    error_bounds: bool = _key("diagnostics.error_bounds", "bool", False)
    martingale: bool = _key("diagnostics.martingale", "bool", False)
    # no computation reads it (the diagnostics' moments are exact); it stays valid so that
    # the configs that set it keep loading, and keep their digests
    resamples: int = _key("diagnostics.resamples", "int", 128)


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
# (section, key) -> (attribute, type tag), in declaration order
_SCHEMA = {tuple(f.metadata["key"].split(".")): (attr, f.metadata["kind"])
           for attr, f in _FIELDS.items()}


def _parse_value(raw: str, kind: str, path: str):
    raw = raw.strip()
    try:
        if kind == "str":
            return raw
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError("expected a boolean")
        if kind == "int_tuple":
            return tuple(int(s) for s in raw.split(",") if s.strip())
        return tuple(float(s) for s in raw.split(",") if s.strip())  # float_tuple
    except ValueError as exc:
        raise ConfigError(path, f"cannot parse {raw!r} as {kind}") from exc


def _format_value(value, kind: str) -> str:
    if kind in ("int_tuple", "float_tuple"):
        return ",".join(repr(v) for v in value)
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(value)
    return str(value)


def parse_config(text: str, overrides=()) -> ExperimentConfig:
    """Parse a config document, apply the ``section.key=value`` ``overrides`` in order, then
    validate once; raises ConfigError on any problem."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("<document>", str(exc)) from exc
    cfg = ExperimentConfig()
    for section in parser.sections():
        for key, raw in parser.items(section):
            _assign(cfg, f"{section}.{key}", raw)
    for assignment in overrides:
        apply_override(cfg, assignment)
    validate_config(cfg)
    return cfg


def load_config(path, overrides=()) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read(), overrides)


def dumps_config(cfg: ExperimentConfig) -> str:
    """Canonical serialization; reloading it yields an equal config."""
    out = configparser.ConfigParser()
    for (section, key), (attr, kind) in _SCHEMA.items():
        if not out.has_section(section):
            out.add_section(section)
        value = getattr(cfg, attr)
        if value is not None:
            out.set(section, key, _format_value(value, kind))
    buf = io.StringIO()
    out.write(buf)
    return buf.getvalue()


def _assign(cfg: ExperimentConfig, path: str, raw: str) -> None:
    """Parse ``raw`` as the value of the ``section.key`` at ``path`` and set it on ``cfg``."""
    section, _, key = path.partition(".")
    if (section, key.lower()) not in _SCHEMA:
        raise ConfigError(path, "unknown configuration key")
    attr, kind = _SCHEMA[(section, key.lower())]
    setattr(cfg, attr, _parse_value(raw, kind, path))


def apply_override(cfg: ExperimentConfig, assignment: str) -> ExperimentConfig:
    """Apply one ``section.key=value`` override string."""
    path, eq, raw = assignment.partition("=")
    if not eq:
        raise ConfigError("<override>", f"expected section.key=value, got {assignment!r}")
    path = path.strip()
    if "." not in path:
        raise ConfigError(path, "override key must be section.key")
    _assign(cfg, path, raw)
    return cfg


def config_digest(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(dumps_config(cfg).encode()).hexdigest()[:16]


def p_tag(p: float) -> str:
    """Directory tag for the moment order, e.g. 1.5 -> p15."""
    return f"p{round(p * 10):02d}"


def validate_config(cfg: ExperimentConfig) -> None:
    for (section, key), (attr, kind) in _SCHEMA.items():
        value = getattr(cfg, attr)
        if kind in ("float", "float_tuple") and value is not None and not np.all(np.isfinite(value)):
            raise ConfigError(f"{section}.{key}", f"must be finite, got {value!r}")
    if cfg.algorithm not in ALGORITHMS:
        raise ConfigError("experiment.algorithm", f"must be one of {ALGORITHMS}")
    if cfg.horizon < 1:
        raise ConfigError("experiment.t", "horizon must be >= 1")
    if cfg.horizon_grid is not None and any(t < 1 for t in cfg.horizon_grid):
        raise ConfigError("experiment.t_grid", "all horizons must be >= 1")
    if cfg.n_seeds < 1:
        raise ConfigError("experiment.seeds", "need at least one seed")
    if cfg.base_seed < 0:
        raise ConfigError("experiment.base_seed", "base seed must be >= 0")
    if not (0.0 < cfg.delta < 1.0):
        raise ConfigError("experiment.delta", "delta must lie in (0, 1)")
    if math.isinf(1.0 / cfg.delta):
        raise ConfigError("experiment.delta", "1/delta overflows a double")
    if not (1.0 < cfg.p <= 2.0):
        raise ConfigError("noise.p", "moment order p must lie in (1, 2]")
    if cfg.sigma < 0:
        raise ConfigError("noise.sigma", "sigma must be >= 0")
    try:
        cfg.sigma ** (2 * cfg.p)  # the largest power of sigma the schedule conditions take
    except OverflowError:
        raise ConfigError("noise.sigma", f"sigma^(2p) overflows a double at p = {cfg.p}") from None
    if cfg.noise == "two_point" and not (0.0 < cfg.q <= 1.0):
        raise ConfigError("noise.q", "spike probability must lie in (0, 1]")
    if cfg.noise == "radial_pareto":
        if cfg.tail_index <= cfg.p:
            raise ConfigError("noise.tail_index", "tail index must exceed p")
        if cfg.tail_index > 2.0:
            raise ConfigError("noise.tail_index", "tail index must lie in (p, 2]")
    if cfg.noise not in ("two_point", "radial_pareto", "none"):
        raise ConfigError("noise.kind", "unknown noise kind")
    if cfg.mode not in schedules_mod.ALL_MODES:
        raise ConfigError("schedule.mode", f"must be one of {schedules_mod.ALL_MODES}")
    if cfg.mode not in MODE_FOR_ALGORITHM[cfg.algorithm]:
        raise ConfigError("schedule.mode",
                          f"mode {cfg.mode!r} does not drive algorithm {cfg.algorithm!r}")
    if cfg.mu < 0:
        raise ConfigError("schedule.mu", "mu is a ratio of norms and must be >= 0")
    for key, value in (("c1", cfg.c1), ("c2", cfg.c2), ("c_override", cfg.c_override),
                       ("lambda_scale", cfg.lambda_scale), ("vanilla_eta", cfg.vanilla_eta)):
        if value is not None and value <= 0:
            raise ConfigError(f"schedule.{key}", "must be positive")
    if cfg.resamples < 100:
        raise ConfigError("diagnostics.resamples", "need at least 100 resamples")
    # build everything once so module-level constraints surface at load time
    try:
        problem, _ = build_problem(cfg)
        if cfg.algorithm in ("sgd", "vanilla-sgd") and problem.geometry.kind != "euclidean":
            raise ConfigError("problem.kind", f"{cfg.algorithm} runs on unconstrained l2 "
                                              f"geometry, not on {cfg.problem!r}")
        noise_model = build_noise(cfg)
        _check_spike(cfg, noise_model)
        try:
            noise_mod.check_noise_geometry(problem, noise_model)
        except ValueError as exc:
            raise ConfigError("noise.kind", str(exc)) from exc
        fault = _fault(cfg)
        if fault is not None:
            fallback, message, detail = fault
            key = _first_reset(cfg, lambda c: _fault(c) is None)
            raise ConfigError(key or fallback, message if key else message + detail)
    except ConfigError:
        raise
    except (ValueError, RuntimeError) as exc:
        raise ConfigError("<config>", str(exc)) from exc


def _check_spike(cfg: ExperimentConfig, noise_model) -> None:
    """Reject a two-point spike magnitude sigma q^(-1/p) that overflows a double."""
    if not isinstance(noise_model, noise_mod.TwoPointNoise):
        return
    try:
        finite = math.isfinite(noise_model.spike)
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError("noise.q", f"the spike sigma q^(-1/p) overflows a double at "
                                     f"p = {cfg.p}, sigma = {cfg.sigma}, q = {cfg.q}")


def _invertible(x: float) -> bool:
    """Whether ``x`` and ``1 / x`` are positive finite doubles."""
    return 0 < x < math.inf and 1.0 / x < math.inf


def _fault(cfg: ExperimentConfig):
    """The first fault of the config's start or schedule as ``(key, message, detail)``, else
    None: ``key`` is named when no suspect's reset mends the config, and its message then
    gains ``detail``.  The faults, in order: the start's value gap, gradient norm or
    distance to the minimizer is not a finite double; the schedule refuses the start (a
    convex mode needs r1 > 0, a nonconvex one delta1 > 0); and, at each horizon T, a
    schedule formula overflows, or the bound or the step and level at t = 1 and t = T (the
    parameter-free mode's at displacement 0: each row's first step, its largest step and
    smallest level) are not finite doubles, or a level is 0, or, when the martingale trace
    is on, a step is not positive or the squares lambda_t^2 and (eta_t lambda_t)^2 it
    divides by are not positive finite doubles with finite reciprocals."""
    problem, x1 = build_problem(cfg)
    s = schedules_mod.derive_inputs(problem, x1, p=cfg.p, sigma=cfg.sigma, delta=cfg.delta)
    if not all(math.isfinite(v) for v in (s.delta1, s.grad1_bound, s.r1 or 0.0)):
        return ("problem.x1", "the value gap, gradient or distance to the minimizer at the "
                              "start overflows a double", "")
    at = f" at p = {cfg.p}, sigma = {cfg.sigma}, delta = {cfg.delta}"
    for horizon in sorted({cfg.horizon, *(cfg.horizon_grid or ())}):
        try:
            schedule = build_schedule(cfg, problem, x1, horizon=horizon)
            bound = schedules_mod.theorem_bound(schedule, horizon)
            pairs = [schedule.pair(1), schedule.pair(horizon)]
        except ConfigError as exc:  # the schedule refuses the start
            return "problem.x1", str(exc.__cause__), ""
        except OverflowError:
            return "noise.p", "the schedule overflows a double", at
        except ZeroDivisionError:  # a step size, or the divisor of one, that underflowed to 0
            bound, pairs = math.nan, []
        if not (math.isfinite(bound) and all(
                math.isfinite(eta) and 0 < lam < math.inf
                and (not cfg.martingale or (eta > 0 and _invertible(lam * lam)
                                            and _invertible((eta * lam) * (eta * lam))))
                for eta, lam in pairs)):
            return ("noise.p", "the schedule's step, clipping level or bound is not finite, or "
                               "the level is 0 (or, for the martingale trace, the step is not "
                               "positive, or the square of the level or of step times level "
                               f"is 0 or too small to invert), at T = {horizon}", at)
    return None


# The keys a fault of the start or schedule is blamed on, in the order tried: the problem
# vectors that place the start relative to the minimizer, then the schedule's knobs.
_SUSPECTS = ("x1", "diag", "shift", "target", "mu", "eta_scale", "lambda_scale", "c_override")


def _first_reset(cfg: ExperimentConfig, in_range) -> str | None:
    """The ``section.key`` of the first suspect away from its default whose reset to the
    default makes ``in_range`` hold for the config, else None."""
    for attr in _SUSPECTS:
        default = _FIELDS[attr].default
        if getattr(cfg, attr) != default and in_range(
                dataclasses.replace(cfg, **{attr: default})):
            return _FIELDS[attr].metadata["key"]
    return None


def build_problem(cfg: ExperimentConfig):
    """Instantiate the problem and its start point."""
    if cfg.dim < 1:
        raise ConfigError("problem.dim", "dimension must be >= 1")
    if cfg.problem == "quadratic":
        diag = cfg.diag if cfg.diag is not None else tuple(1.0 for _ in range(cfg.dim))
        if len(diag) != cfg.dim:
            raise ConfigError("problem.diag", "length must equal problem.dim")
        shift = cfg.shift if cfg.shift is not None else tuple(0.0 for _ in range(cfg.dim))
        if len(shift) != cfg.dim:
            raise ConfigError("problem.shift", "length must equal problem.dim")
        try:
            prob = problems_mod.make_quadratic(diag, shift)
        except ValueError as exc:
            raise ConfigError("problem.diag", str(exc)) from exc
        x1 = np.asarray(shift) + np.ones(cfg.dim) / math.sqrt(cfg.dim)
    elif cfg.problem == "simplex_quadratic":
        if cfg.dim < 2:  # the one-point simplex starts on its minimizer
            raise ConfigError("problem.dim", "the simplex needs at least two coordinates")
        target = cfg.target
        if target is None:
            # interior but non-uniform, so the start point is not the minimizer
            raw = np.arange(1, cfg.dim + 1, dtype=float)
            target = tuple(raw / raw.sum())
        if len(target) != cfg.dim:
            raise ConfigError("problem.target", "length must equal problem.dim")
        try:
            prob = problems_mod.make_simplex_quadratic(target)
        except ValueError as exc:
            raise ConfigError("problem.target", str(exc)) from exc
        x1 = np.ones(cfg.dim) / cfg.dim
    elif cfg.problem == "nonconvex_ratio":
        prob = problems_mod.make_nonconvex_ratio(cfg.dim)
        x1 = np.ones(cfg.dim)
    elif cfg.problem == "quadratic_plus_norm":
        try:
            prob = problems_mod.make_quadratic_plus_norm(cfg.dim, cfg.coef)
        except ValueError as exc:
            raise ConfigError("problem.coef", str(exc)) from exc
        x1 = np.ones(cfg.dim) / math.sqrt(cfg.dim)
    else:
        raise ConfigError("problem.kind", f"unknown problem {cfg.problem!r}")
    if cfg.x1 is not None:
        if len(cfg.x1) != cfg.dim:
            raise ConfigError("problem.x1", "length must equal problem.dim")
        x1 = np.asarray(cfg.x1, dtype=float)
        if not prob.geometry.contains(x1):
            raise ConfigError("problem.x1", "start point outside the domain")
    return prob, x1


def build_noise(cfg: ExperimentConfig):
    try:
        return noise_mod.make_noise(cfg.noise, cfg.p, cfg.sigma, q=cfg.q,
                                    tail_index=cfg.tail_index)
    except ValueError as exc:
        raise ConfigError("noise.kind", str(exc)) from exc


def build_schedule(cfg: ExperimentConfig, problem, x1, horizon: int | None = None):
    """Schedule for this config at the given horizon (known-horizon modes need it)."""
    try:
        inputs = schedules_mod.derive_inputs(
            problem, x1, p=cfg.p, sigma=cfg.sigma, delta=cfg.delta,
            horizon=horizon if horizon is not None else cfg.horizon,
            mu=cfg.mu, c1=cfg.c1, c2=cfg.c2, c_override=cfg.c_override,
        )
        return schedules_mod.Schedule(cfg.mode, inputs, eta_scale=cfg.eta_scale,
                                      lambda_scale=cfg.lambda_scale)
    except ValueError as exc:
        raise ConfigError("schedule.mode", str(exc)) from exc
