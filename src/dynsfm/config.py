"""Run configuration: a single JSON document with strict validation.

Unknown keys are rejected by name so typos in sweep studies fail loudly
instead of silently falling back to defaults.
"""

import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .simulate import NoiseSpec
from .solver import SolverOptions

CONFIG_SCHEMA_VERSION = 1

REFERENCE_NOISE = {"gyro_std": math.radians(3.0),  # 3 deg/s
               "accel_std": 0.2,               # m/s^2
               "image_rel_std": 0.005}         # 0.5 % of peak coordinate


@dataclass
class RunConfig:
    """Everything needed to produce one dataset and solve it."""
    duration: float = 5.0
    t_s: float = 1.0 / 30.0
    points: int = 24
    extent: float = 2.0
    amp_trans: float = 0.35
    amp_rot: float = math.radians(30.0)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    solver: SolverOptions = field(default_factory=SolverOptions)
    flow_mode: str = "analytic"
    flow_filter: tuple = (2, 5)
    seed: int = 0

    def validate(self):
        n = self.noise
        if not all(math.isfinite(v) for v in (
                self.duration, self.t_s, self.extent, self.amp_trans,
                self.amp_rot, n.gyro_std, n.accel_std, n.image_rel_std)):
            raise ConfigError("duration, t_s, extent, amp_trans, amp_rot and "
                              "noise: must be finite")
        if self.seed < 0 or n.seed < 0:
            raise ConfigError("seed: must be nonnegative")
        if self.duration < 3 * self.t_s:
            raise ConfigError("duration: must cover at least 3 samples")
        if self.t_s <= 0:
            raise ConfigError("t_s: must be positive")
        if self.points < 4:
            raise ConfigError("points: need at least 4")
        if self.extent <= 0:
            raise ConfigError("extent: must be positive")
        if self.amp_trans < 0 or self.amp_rot < 0:
            raise ConfigError("amp_trans/amp_rot: must be nonnegative")
        if min(self.noise.gyro_std, self.noise.accel_std,
               self.noise.image_rel_std) < 0:
            raise ConfigError("noise: std values must be nonnegative")
        if self.flow_mode not in ("analytic", "numeric"):
            raise ConfigError(f"flow_mode: unknown mode {self.flow_mode!r}")
        order, window = self.flow_filter
        if window % 2 == 0 or not (2 <= order < window):
            raise ConfigError("flow_filter: need odd window and "
                              "2 <= order < window")
        frames = int(round(self.duration / self.t_s))
        if self.flow_mode == "numeric" and window > frames:
            raise ConfigError(f"flow_filter: window {window} is longer than "
                              f"the run's {frames} frames")
        try:
            self.solver.validate()
        except ValueError as err:
            raise ConfigError(f"solver: {err}") from err
        return self


_NOISE_KEYS = {"gyro_std", "accel_std", "image_rel_std", "seed"}
_SOLVER_NUMBERS = ("lambda_R", "lambda_tau", "lambda_nu")
_SOLVER_FILTERS = ("omega_dot_filter", "reg_filter")
_SOLVER_KEYS = {*_SOLVER_NUMBERS, *_SOLVER_FILTERS, "omega_dot_mode",
                "reflection_resolution"}
_TOP_KEYS = {"schema_version", "duration", "t_s", "points", "extent",
             "amp_trans", "amp_rot", "noise", "solver", "flow_mode",
             "flow_filter", "seed"}


def _object(d, allowed, where):
    """d itself, once it is a JSON object with no key outside allowed."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: must be a JSON object, not "
                          f"{type(d).__name__}")
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown field {key!r}")
    return d


def _number(value, name):
    """A JSON number as a float; not a string, a boolean or null."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{name}: must be a number, got {value!r}")


def _integer(value, name):
    """An integral JSON number (5 or 5.0) as an int; 5.5 is rejected, not
    truncated."""
    if (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ConfigError(f"{name}: must be an integer, got {value!r}")


def options_from_dict(d, where="options"):
    """SolverOptions of a JSON object: a solver-options file, or the
    solver section of a config (where="solver"). Every error is a
    ConfigError that names where."""
    _object(d, _SOLVER_KEYS, where)
    fields = {}
    for key, value in d.items():
        name = f"{where}.{key}"
        if key in _SOLVER_NUMBERS:
            fields[key] = _number(value, name)
        elif key in _SOLVER_FILTERS:
            if not isinstance(value, (list, tuple)) or len(value) != 2:
                raise ConfigError(f"{name}: need [order, window], "
                                  f"got {value!r}")
            fields[key] = tuple(_integer(v, name) for v in value)
        else:
            fields[key] = value
    opts = SolverOptions(**fields)
    try:
        opts.validate()
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err
    return opts


def options_to_dict(opts):
    return {"lambda_R": float(opts.lambda_R),
            "lambda_tau": float(opts.lambda_tau),
            "lambda_nu": float(opts.lambda_nu),
            "omega_dot_mode": opts.omega_dot_mode,
            "omega_dot_filter": [int(v) for v in opts.omega_dot_filter],
            "reg_filter": [int(v) for v in opts.reg_filter],
            "reflection_resolution": opts.reflection_resolution}


def config_from_dict(d):
    _object(d, _TOP_KEYS, "config")
    if d.get("schema_version", CONFIG_SCHEMA_VERSION) != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: unsupported value {d.get('schema_version')!r}")
    cfg = RunConfig()
    for key in ("duration", "t_s", "extent", "amp_trans", "amp_rot"):
        if key in d:
            setattr(cfg, key, _number(d[key], key))
    for key in ("points", "seed"):
        if key in d:
            setattr(cfg, key, _integer(d[key], key))
    if "flow_mode" in d:
        cfg.flow_mode = d["flow_mode"]
    if "flow_filter" in d:
        ff = _object(d["flow_filter"], {"order", "window"}, "flow_filter")
        if len(ff) != 2:
            raise ConfigError("flow_filter: need order and window")
        cfg.flow_filter = (_integer(ff["order"], "flow_filter.order"),
                           _integer(ff["window"], "flow_filter.window"))
    if "noise" in d:
        n = _object(d["noise"], _NOISE_KEYS, "noise")
        cfg.noise = NoiseSpec(
            **{key: _number(n.get(key, 0.0), f"noise.{key}")
               for key in ("gyro_std", "accel_std", "image_rel_std")},
            seed=_integer(n.get("seed", 0), "noise.seed"))
    if "solver" in d:
        cfg.solver = options_from_dict(d["solver"], "solver")
    return cfg.validate()


def config_to_dict(cfg):
    return {"schema_version": CONFIG_SCHEMA_VERSION,
            "duration": cfg.duration,
            "t_s": cfg.t_s,
            "points": cfg.points,
            "extent": cfg.extent,
            "amp_trans": cfg.amp_trans,
            "amp_rot": cfg.amp_rot,
            "noise": {"gyro_std": cfg.noise.gyro_std,
                      "accel_std": cfg.noise.accel_std,
                      "image_rel_std": cfg.noise.image_rel_std,
                      "seed": cfg.noise.seed},
            "solver": options_to_dict(cfg.solver),
            "flow_mode": cfg.flow_mode,
            "flow_filter": {"order": cfg.flow_filter[0],
                            "window": cfg.flow_filter[1]},
            "seed": cfg.seed}


def reference_config(seed=0):
    """Noiseless reference instance: 5 s at 30 Hz tracking 24 points."""
    return RunConfig(seed=seed).validate()


def reference_noise_config(seed=0):
    """Reference instance at the reported noise point.

    Flows come from numerically differentiating the noisy tracks (the
    physically meaningful pipeline); an 11-tap quadratic filter keeps the
    derivative noise amplification manageable at 30 Hz.
    """
    cfg = RunConfig(seed=seed,
                    noise=NoiseSpec(seed=seed + 10_000_019, **REFERENCE_NOISE),
                    flow_mode="numeric",
                    flow_filter=(2, 11))
    return cfg.validate()
