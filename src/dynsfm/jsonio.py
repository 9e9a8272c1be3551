"""Deterministic JSON/CSV serialization, and the one reader and writer of
the dataclass documents.

Floats are printed with 17 significant digits (lossless for IEEE-754
doubles), so identical inputs produce byte-identical files. Line endings
are LF everywhere. Each array, frame table and CSV table is printed by
one printf template with one % over a flat tuple of its values, in full
before its file is opened. The fields of a dataclass are its document's
schema: from_json reads every document into one, and to_json writes it.
"""

import json
from dataclasses import MISSING, fields, is_dataclass
from functools import lru_cache
from itertools import chain, compress, repeat

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonFiniteInput
from .simulate import Dataset, MeasurementSet, Trajectory, check_shape
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


def json_object(d, allowed, where, required=()):
    """d itself, once it is a JSON object with no key outside allowed and
    every key of required."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: must be a JSON object, not "
                          f"{type(d).__name__}")
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown field {key!r}")
    for key in required:
        if key not in d:
            raise ConfigError(f"{where}: missing field {key!r}")
    return d


def number(value, name):
    """A JSON number as a float; not a string, a boolean or null."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{name}: must be a number, got {value!r}")


def integer(value, name):
    """An integral JSON number (5 or 5.0) as an int; 5.5 is rejected, not
    truncated."""
    if (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ConfigError(f"{name}: must be an integer, got {value!r}")


def _pair(value, name):
    """An [order, window] filter spec as a tuple of two ints."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{name}: need [order, window], got {value!r}")
    return tuple(integer(v, name) for v in value)


# the reader of a field by its declared type; validate() checks a str, and
# a dict (the residuals) holds numbers
_PARSERS = {float: number, int: integer, tuple: _pair,
            str: lambda value, name: value,
            dict: lambda value, name: {
                k: number(v, f"{name}.{k}")
                for k, v in json_object(value, value, name).items()}}


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


def from_json(cls, d, where, path="", defaults=False, sizes=None, **given):
    """The cls of the JSON object d, keyed by the fields of cls but those
    given (the t_s a document holds once, at its top). A field left out
    keeps its default if defaults (configs; a SolverOptions always), else
    only one defaulting to None may be left out. Each value is read by its
    field's type: an array by its shape, one F and P per document in
    sizes, finite unless a measurement (validate() checks those); a
    nested dataclass by this reader. where names d in messages, a field
    is path.name (name if path is ""). A SolverOptions is validated as it
    is read."""
    defaults = defaults or cls is SolverOptions
    sizes = {} if sizes is None else sizes
    own = [f for f in fields(cls) if f.name not in given]
    json_object(d, {f.name for f in own}, where, [
        f.name for f in own if f.default is not None and not defaults
        or f.default is f.default_factory is MISSING])
    values = {f.name: given[f.name] for f in fields(cls) if f.name in given}
    for f in (f for f in own if f.name in d):
        value, name = d[f.name], f"{path}.{f.name}" if path else f.name
        if "shape" in f.metadata:
            value = _array(value, f.metadata["shape"], name, sizes,
                           cls is not MeasurementSet)
        elif f.type in _PARSERS:
            value = _PARSERS[f.type](value, name)
        else:  # a nested dataclass, handed the document's t_s
            value = from_json(f.type, value, name, name, defaults, sizes, **{
                k: values[k] for k in {"t_s"} & values.keys()})
        values[f.name] = value
    obj = cls(**values)
    if cls is SolverOptions:
        try:
            obj.validate()
        except ValueError as err:
            raise ConfigError(f"{where}: {err}") from err
    return obj


def to_json(obj, given=()):
    """The JSON object of the dataclass obj, the mirror of from_json: its
    fields but those given and those that are None, a (..., 3, 3) array as
    (..., 9), a nested dataclass without the t_s that obj holds."""
    doc = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name in given or value is None:
            continue
        if f.metadata.get("shape", ())[-2:] == (3, 3):
            value = np.reshape(value, np.shape(value)[:-2] + (9,))
        elif is_dataclass(value):
            value = to_json(value, {"t_s"} & vars(obj).keys())
        doc[f.name] = value
    return doc


def _frame_columns(records, name):
    """A trajectory's per-frame records, its rotations as "R", as one
    list of rows per Trajectory field."""
    keys = {("R" if f.name == "rotations" else f.name): f.name
            for f in fields(Trajectory) if "shape" in f.metadata}
    if not isinstance(records, list):
        raise ConfigError(f"{name}: must be a JSON array of frames")
    for i, record in enumerate(records):
        json_object(record, keys, f"{name}[{i}]", keys)
    return {field: [r[key] for r in records] for key, field in keys.items()}


def dataset_to_dict(ds):
    """The dataset document: the scene as its points, the trajectory as
    one record per frame (written by dumps)."""
    doc = to_json(ds)
    frames = {("R" if k == "rotations" else k): v
              for k, v in doc["trajectory"].items()}
    return {"schema_version": SCHEMA_VERSION, **doc,
            "scene": doc["scene"]["points"],
            "trajectory": _FrameRecords(frames)}


def dataset_from_dict(d):
    doc = dict(json_object(d, d, "dataset", ["schema_version"]))
    version = doc.pop("schema_version")
    if integer(version, "schema_version") != SCHEMA_VERSION:
        raise DimensionMismatch(f"unsupported schema_version {version!r}")
    if "scene" in doc:
        doc["scene"] = {"points": doc["scene"]}
    if "trajectory" in doc:
        doc["trajectory"] = _frame_columns(doc["trajectory"], "trajectory")
    return from_json(Dataset, doc, "dataset")


def reconstruction_to_dict(recon):
    return to_json(recon)


def reconstruction_from_dict(d):
    return from_json(Reconstruction, d, "reconstruction")


def report_to_dict(report, extra=None):
    return {"rot_err": report.rot_err,
            "rot_err_mean": report.rot_err_mean,
            "trans_rmse": float(report.trans_rmse),
            "struct_rmse": float(report.struct_rmse),
            "gravity_angle_err": float(report.gravity_angle_err),
            "per_axis_err": report.per_axis_err, **(extra or {})}
