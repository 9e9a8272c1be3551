"""Run configuration: a single JSON document with strict validation.

The dataclasses are the schema. The fields of RunConfig, and of the
NoiseSpec and SolverOptions in its noise and solver sections, are the
allowed keys, read and written by jsonio's one reader and writer: each
field's declared type picks its parser (float, int, an [order, window]
tuple, or a str that validate() checks), and a key the document leaves
out keeps its default. Unknown keys are rejected by name so typos in
sweep studies fail loudly instead of silently falling back to defaults.
A config file holds flow_filter as {"order", "window"}.
"""

import math
from dataclasses import dataclass, field, fields, replace

from .derivatives import check_filter_spec
from .errors import BadFilterSpec, ConfigError
from .jsonio import from_json, integer, json_object, to_json
from .simulate import MAX_FRAMES, MAX_W_BYTES, NoiseSpec
from .solver import SolverOptions

CONFIG_SCHEMA_VERSION = 1

NOISE_SEED_OFFSET = 10_000_019  # noise seed of a run = run seed + this

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
        try:
            check_filter_spec(*self.flow_filter, 2, "flow_filter")
        except BadFilterSpec as err:
            raise ConfigError(str(err)) from err
        frames = self.duration / self.t_s
        if not math.isfinite(frames):
            raise ConfigError(f"t_s: {self.t_s!r} is too small for a "
                              f"{self.duration!r} s run")
        frames = int(round(frames))
        if frames > MAX_FRAMES:
            raise ConfigError(f"duration/t_s: {self.duration / self.t_s:.6g}"
                              f" frames, above the budget of {MAX_FRAMES}")
        if 6 * frames * self.points * 8 > MAX_W_BYTES:
            raise ConfigError(f"duration/t_s/points: W of {frames} frames x "
                              f"{self.points} points is above the budget of "
                              f"{MAX_W_BYTES} bytes")
        if self.flow_mode == "numeric" and self.flow_filter[1] > frames:
            raise ConfigError(f"flow_filter: window {self.flow_filter[1]} is "
                              f"longer than the run's {frames} frames")
        try:
            self.solver.validate()
        except ValueError as err:
            raise ConfigError(f"solver: {err}") from err
        # a simulated run carries torque: only "numeric" mode filters the gyro
        windows = {"reg_filter": self.solver.reg_filter[1]}
        if self.solver.omega_dot_mode == "numeric":
            windows["omega_dot_filter"] = self.solver.omega_dot_filter[1]
        for name, window in windows.items():
            if window > frames:
                raise ConfigError(f"solver.{name}: window {window} is longer "
                                  f"than the run's {frames} frames")
        return self


def options_from_dict(d):
    """SolverOptions of a solver-options JSON object; every error is a
    ConfigError that names options.<field>."""
    return from_json(SolverOptions, d, "options", "options")


def config_from_dict(d):
    doc = dict(json_object(d, {"schema_version", *(
        f.name for f in fields(RunConfig))}, "config"))
    version = doc.pop("schema_version", CONFIG_SCHEMA_VERSION)
    if integer(version, "schema_version") != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"schema_version: unsupported value {version!r}")
    if "flow_filter" in doc:
        ff = json_object(doc["flow_filter"], {"order", "window"},
                         "flow_filter")
        if len(ff) != 2:
            raise ConfigError("flow_filter: need order and window")
        doc["flow_filter"] = [integer(ff[key], f"flow_filter.{key}")
                              for key in ("order", "window")]
    return from_json(RunConfig, doc, "config", defaults=True).validate()


def config_to_dict(cfg):
    order, window = cfg.flow_filter
    return {"schema_version": CONFIG_SCHEMA_VERSION, **to_json(cfg),
            "flow_filter": {"order": order, "window": window}}


def reseeded(cfg, seed):
    """cfg run with seed, its noise drawn with seed + NOISE_SEED_OFFSET."""
    return replace(cfg, seed=seed,
                   noise=replace(cfg.noise, seed=seed + NOISE_SEED_OFFSET))


def reference_config(seed=0):
    """Noiseless reference instance: 5 s at 30 Hz tracking 24 points."""
    return RunConfig(seed=seed).validate()


def reference_noise_config(seed=0):
    """Reference instance at the reported noise point.

    Flows come from numerically differentiating the noisy tracks (the
    physically meaningful pipeline); an 11-tap quadratic filter keeps the
    derivative noise amplification manageable at 30 Hz.
    """
    cfg = RunConfig(noise=NoiseSpec(**REFERENCE_NOISE), flow_mode="numeric",
                    flow_filter=(2, 11))
    return reseeded(cfg, seed).validate()
