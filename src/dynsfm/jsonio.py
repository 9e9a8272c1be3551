"""Deterministic JSON/CSV serialization for datasets and results.

Floats are printed with 17 significant digits (lossless for IEEE-754
doubles), so identical inputs produce byte-identical files. Line endings
are LF everywhere. Each array, frame table and CSV table is printed by
one printf template with one % over a flat tuple of its values, in full
before its file is opened.
"""

import json
from dataclasses import asdict, fields
from functools import lru_cache
from itertools import chain, compress, repeat

import numpy as np

from .config import _PARSERS, _integer, _number, _object, options_from_dict
from .errors import ConfigError, DimensionMismatch, NonFiniteInput
from .simulate import (Dataset, MeasurementSet, NoiseSpec, Scene, Trajectory,
                       check_shape)
from .solver import Reconstruction, SolverOptions

SCHEMA_VERSION = 1
FLOAT = "%.17g"  # printf form of format(x, ".17g")
FLOATS = (float, np.floating)  # the types FLOAT prints


def _require_finite(values):
    """Name the first non-finite value, in C order, of values."""
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(
            f"cannot serialize non-finite float {a[~np.isfinite(a)][0]}")


def _template(shape, leaf=FLOAT):
    """The printf template of nested JSON lists of shape, leaf per value."""
    for size in reversed(shape):
        leaf = "[" + ",".join([leaf] * size) + "]"
    return leaf


def _dumps_floats(a, template=None):
    """A float ndarray as nested JSON lists (a 0-d one as a number), each
    value printed by FLOAT; or by a template of a's size, in C order."""
    _require_finite(a)
    return (template or _template(a.shape)) % tuple(a.ravel().tolist())


class _FrameRecords:
    """A JSON list of one object per frame, {name: row f of fields[name]}
    for (F, k) float arrays; the first non-finite value named is the first
    in frame order, fields in order."""

    def __init__(self, fields):
        self.fields = fields

    def dumps(self):
        table = np.hstack([np.asarray(a, dtype=float)
                           for a in self.fields.values()])
        record = "{" + ",".join(
            json.dumps(name).replace("%", "%%") + ":" + _template(a.shape[1:])
            for name, a in self.fields.items()) + "}"
        return _dumps_floats(table, _template(table.shape[:1], record))


def dumps(obj):
    """Serialize nested dict/list/scalar structures deterministically."""
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}:{dumps(v)}" for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, _FrameRecords):
        return obj.dumps()
    if isinstance(obj, FLOATS):
        obj = np.asarray(obj, dtype=float)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            return _dumps_floats(obj)
        return dumps(obj.tolist())
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path, obj):
    text = dumps(obj)
    with open(path, "w", newline="") as fh:
        fh.write(text)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@lru_cache
def _csv_cell(cell_type):
    """A CSV cell's template: FLOAT for a float, %s (as str) for any other."""
    return FLOAT if issubclass(cell_type, FLOATS) else "%s"


def write_csv(path, header, rows):
    """CSV with a header row, 17-significant-digit floats, LF endings; one
    template for the table from its cells' types (rows is read twice)."""
    cells = tuple(chain.from_iterable(rows))
    _require_finite([*compress(cells, map(isinstance, cells, repeat(FLOATS)))])
    text = "".join([",".join(map(_csv_cell, map(type, r))) + "\n"
                    for r in rows]) % cells
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(text)


def _array(value, dims, name, sizes, finite):
    """value as a float array: nested lists of JSON numbers (no str, bool
    or null) of shape dims by check_shape, a trailing (3, 3) written as 9."""
    written = dims[:-2] + (9,) if dims[-2:] == (3, 3) else dims
    try:  # a ragged list, or no list, raises here
        a = np.array(value, dtype=float)
        leaves = value
        for _ in range(a.ndim - 1):
            leaves = chain.from_iterable(leaves)
        if not set(map(type, leaves)) <= {int, float}:
            raise TypeError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name}: must be an array of numbers") from None
    check_shape(name, a.shape, written, sizes)
    if finite and not np.isfinite(a).all():
        raise NonFiniteInput(f"{name} holds a non-finite value")
    return a if written == dims else a.reshape(*a.shape[:-1], 3, 3)


def _read(cls, d, path, sizes, **given):
    """The cls of the JSON object d, keyed by the fields of cls but given;
    only one defaulting to None may be missing. An array field goes
    through _array, with one F and P per document in sizes, and must be
    finite unless it is a measurement (validate() checks those). path
    prefixes the names in messages; None is the top of a document."""
    own = [f for f in fields(cls) if f.name not in given]
    _object(d, {f.name for f in own}, path or cls.__name__.lower(),
            [f.name for f in own if f.default is not None])
    values = dict(given)
    for f in (f for f in own if f.name in d):
        value, name = d[f.name], f"{path}.{f.name}" if path else f.name
        if "shape" in f.metadata:
            value = _array(value, f.metadata["shape"], name, sizes,
                           cls is not MeasurementSet)
        elif f.type in _PARSERS:
            value = _PARSERS[f.type](value, name)
        elif f.type is dict:  # the residuals
            value = {k: _number(v, f"{name}.{k}")
                     for k, v in _object(value, value, name).items()}
        elif f.type is SolverOptions:
            value = options_from_dict(value)
        else:  # a dataset writes its scene as the points, t_s at its top
            if f.type is Scene:
                value = {"points": value}
            if f.type is Trajectory:
                value = _frame_columns(value, name)
            t_s = ({"t_s": values["t_s"]}
                   if f.type in (Trajectory, MeasurementSet) else {})
            value = _read(f.type, value, name, sizes, **t_s)
        values[f.name] = value
    return cls(**values)


def _frame_columns(records, name):
    """A trajectory's per-frame records, its rotations as "R", as one
    list of rows per Trajectory field."""
    keys = {("R" if f.name == "rotations" else f.name): f.name
            for f in fields(Trajectory) if "shape" in f.metadata}
    if not isinstance(records, list):
        raise ConfigError(f"{name}: must be a JSON array of frames")
    for i, record in enumerate(records):
        _object(record, keys, f"{name}[{i}]", keys)
    return {field: [r[key] for r in records] for key, field in keys.items()}


def dataset_to_dict(ds):
    """The dataset document; its "trajectory" entry is written by dumps."""
    traj = ds.trajectory
    frames = _FrameRecords({"R": traj.rotations.reshape(-1, 9), "T": traj.T,
                            "dT": traj.dT, "ddT": traj.ddT,
                            "omega": traj.omega, "domega": traj.domega})
    meas = ds.measurements
    mdict = {f.name: getattr(meas, f.name) for f in fields(meas)
             if "shape" in f.metadata and getattr(meas, f.name) is not None}
    if meas.inertia is not None:
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
    doc = dict(_object(d, d, "dataset", ["schema_version"]))
    version = doc.pop("schema_version")
    if _integer(version, "schema_version") != SCHEMA_VERSION:
        raise DimensionMismatch(f"unsupported schema_version {version!r}")
    return _read(Dataset, doc, None, {})


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
    return _read(Reconstruction, d, None, {})


def report_to_dict(report, extra=None):
    return {"rot_err": report.rot_err,
            "rot_err_mean": report.rot_err_mean,
            "trans_rmse": float(report.trans_rmse),
            "struct_rmse": float(report.struct_rmse),
            "gravity_angle_err": float(report.gravity_angle_err),
            "per_axis_err": report.per_axis_err, **(extra or {})}
