"""Deterministic JSON/CSV serialization for datasets and results.

Floats are printed with 17 significant digits (lossless for IEEE-754
doubles), so identical inputs produce byte-identical files. Line endings
are LF everywhere.
"""

import json
import math
from dataclasses import asdict

import numpy as np

from .config import options_from_dict
from .errors import DimensionMismatch
from .simulate import (Dataset, MeasurementSet, NoiseSpec, Scene, Trajectory)
from .solver import Reconstruction

SCHEMA_VERSION = 1
FLOAT = "%.17g"  # printf form of format(x, ".17g")


def _fmt_float(x):
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    return format(x, ".17g")


def _require_finite(values):
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(
            f"cannot serialize non-finite float {a[~np.isfinite(a)][0]}")


def _dumps_floats(a):
    """A float ndarray (at least 1-d, not empty) as nested JSON lists,
    each value as _fmt_float prints it: one finiteness check, one FLOAT
    template per last-axis row, then joins over the leading axes."""
    _require_finite(a)
    n = a.shape[-1]
    row = "[" + ",".join([FLOAT] * n) + "]"
    text = [row % tuple(r) for r in a.reshape(-1, n).tolist()]
    for size in reversed(a.shape[:-1]):
        text = ["[" + ",".join(text[i:i + size]) + "]"
                for i in range(0, len(text), size)]
    return text[0]


class _FrameRecords:
    """A JSON list of one object per frame, {name: row f of fields[name]}
    for (F, k) float arrays, which dumps formats with one finiteness check
    (frame by frame, fields in order) and one FLOAT template per frame."""

    def __init__(self, fields):
        self.fields = fields

    def dumps(self):
        table = np.hstack([np.asarray(a, dtype=float)
                           for a in self.fields.values()])
        _require_finite(table)
        record = "{" + ",".join(
            f"{json.dumps(name)}:[" + ",".join([FLOAT] * a.shape[1]) + "]"
            for name, a in self.fields.items()) + "}"
        return "[" + ",".join(record % tuple(r) for r in table.tolist()) + "]"


def dumps(obj):
    """Serialize nested dict/list/scalar structures deterministically."""
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}:{dumps(v)}" for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, _FrameRecords):
        return obj.dumps()
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim and obj.size:
            return _dumps_floats(obj)
        return dumps(obj.tolist())
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path, obj):
    with open(path, "w", newline="") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_csv(path, header, rows):
    """CSV with a header row, 17-significant-digit floats, LF endings."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(_csv_row(row) + "\n")


def _csv_row(row):
    """One CSV line: floats by the FLOAT template of dumps, other cells
    by str."""
    is_float = [isinstance(v, (float, np.floating)) for v in row]
    _require_finite([v for v, f in zip(row, is_float) if f])
    return ",".join(FLOAT if f else "%s" for f in is_float) % tuple(row)


def noise_spec_from_dict(d):
    return NoiseSpec(gyro_std=d["gyro_std"], accel_std=d["accel_std"],
                     image_rel_std=d["image_rel_std"], seed=d["seed"])


def dataset_to_dict(ds):
    """The dataset document; its "trajectory" entry is written by dumps."""
    traj = ds.trajectory
    frames = _FrameRecords({"R": traj.rotations.reshape(-1, 9), "T": traj.T,
                            "dT": traj.dT, "ddT": traj.ddT,
                            "omega": traj.omega, "domega": traj.domega})
    meas = ds.measurements
    mdict = {
        "tracks": meas.tracks,
        "flows": meas.flows,
        "double_flows": meas.double_flows,
        "gyro": meas.gyro,
        "accel": meas.accel}
    if meas.torque is not None:
        mdict["torque"] = meas.torque
        mdict["inertia"] = np.asarray(meas.inertia).reshape(9)
    return {"schema_version": SCHEMA_VERSION,
            "t_s": float(ds.t_s),
            "gravity": ds.gravity,
            "scene": ds.scene.points,
            "trajectory": frames,
            "measurements": mdict,
            "noise_spec": asdict(ds.noise_spec),
            "seed": int(ds.seed)}


def dataset_from_dict(d):
    if not isinstance(d, dict):
        raise TypeError(f"a dataset is a JSON object, not {type(d).__name__}")
    if d.get("schema_version") != SCHEMA_VERSION:
        raise DimensionMismatch(
            f"unsupported dataset schema_version {d.get('schema_version')!r}")
    frames = d["trajectory"]
    traj = Trajectory(
        t_s=d["t_s"],
        rotations=np.array([np.reshape(fr["R"], (3, 3)) for fr in frames]),
        T=np.array([fr["T"] for fr in frames]),
        dT=np.array([fr["dT"] for fr in frames]),
        ddT=np.array([fr["ddT"] for fr in frames]),
        omega=np.array([fr["omega"] for fr in frames]),
        domega=np.array([fr["domega"] for fr in frames]))
    m = d["measurements"]
    meas = MeasurementSet(
        t_s=d["t_s"],
        tracks=np.asarray(m["tracks"], dtype=float),
        flows=np.asarray(m["flows"], dtype=float),
        double_flows=np.asarray(m["double_flows"], dtype=float),
        gyro=np.asarray(m["gyro"], dtype=float),
        accel=np.asarray(m["accel"], dtype=float),
        torque=(np.asarray(m["torque"], dtype=float)
                if "torque" in m else None),
        inertia=(np.reshape(np.asarray(m["inertia"], dtype=float), (3, 3))
                 if "inertia" in m else None))
    return Dataset(t_s=d["t_s"],
                   gravity=np.asarray(d["gravity"], dtype=float),
                   scene=Scene(points=np.asarray(d["scene"], dtype=float)),
                   trajectory=traj,
                   measurements=meas,
                   noise_spec=noise_spec_from_dict(d["noise_spec"]),
                   seed=d["seed"])


def reconstruction_to_dict(recon):
    return {
        "rotations": recon.rotations.reshape(-1, 9),
        "tau": recon.tau,
        "nu": recon.nu,
        "gravity": recon.gravity,
        "structure": recon.structure,
        "residuals": {k: float(v) for k, v in recon.residuals.items()},
        "options": asdict(recon.options)}


def reconstruction_from_dict(d):
    """Reconstruction of a document; ValueError unless its arrays are
    finite and of consistent shapes."""
    recon = Reconstruction(
        rotations=np.array([np.reshape(r, (3, 3)) for r in d["rotations"]],
                           dtype=float),
        tau=np.asarray(d["tau"], dtype=float),
        nu=np.asarray(d["nu"], dtype=float),
        gravity=np.asarray(d["gravity"], dtype=float),
        structure=np.asarray(d["structure"], dtype=float),
        residuals=dict(d["residuals"]),
        options=options_from_dict(d["options"]))
    F, P = len(recon.rotations), len(recon.structure)
    shapes = {"rotations": (F, 3, 3), "tau": (F, 3), "nu": (F, 3),
              "gravity": (3,), "structure": (P, 3)}
    for name, shape in shapes.items():
        value = getattr(recon, name)
        if value.shape != shape:
            raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
        if not np.isfinite(value).all():
            raise ValueError(f"{name} is not finite")
    return recon


def report_to_dict(report, extra=None):
    d = {"rot_err": report.rot_err.tolist(),
         "rot_err_mean": report.rot_err_mean,
         "trans_rmse": float(report.trans_rmse),
         "struct_rmse": float(report.struct_rmse),
         "gravity_angle_err": float(report.gravity_angle_err),
         "per_axis_err": report.per_axis_err.tolist()}
    if extra:
        d.update(extra)
    return d
