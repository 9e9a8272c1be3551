"""Deterministic JSON/CSV serialization, and the one reader and writer of
the dataclass documents.

Every float is printed as FLOAT ("%.17g") prints it: 17 significant
digits, lossless for IEEE-754 doubles, so identical inputs produce
byte-identical files. Line endings are LF everywhere. An array, frame
table or CSV table of at least KERNEL_MIN floats is printed by _print, a
numpy kernel that does printf's exact decimal rounding on a block of
values at once (Dekker's error-free product, no Python per value); a
smaller one by FLOAT and %, with one template for an array or a frame
table. Each is printed in full before its file is opened. The fields of a dataclass are
its document's schema: from_json reads every document into one, and
to_json writes it.
"""

import json
import math
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from itertools import chain, compress, repeat

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonFiniteInput
from .simulate import Dataset, MeasurementSet, Trajectory, check_shape
from .solver import Reconstruction, SolverOptions

SCHEMA_VERSION = 1
FLOAT = "%.17g"  # printf form of format(x, ".17g")
FLOATS = (float, np.floating)  # the types FLOAT prints
# _print's fixed cost, ~100 numpy calls on one block, is what FLOAT %
# takes for ~350 values; the best of 1500 on 2 vCPUs (numpy 2.4) was 0.27
# ms by % and 0.25 ms by _print at 384 values, 0.14 and 0.21 ms at 256
KERNEL_MIN = 384
# values per _print block: the largest that leaves dumps' peak, the join of
# its pieces, where it is. dumps of the reference dataset (26172 floats)
# peaked at 1.16 MB in blocks of 1024 and 2048, 1.33 MB of 4096 and 2.03
# MB of 8192, and took 8.5, 7.0, 6.2 and 7.3 ms (the best of 60)
BLOCK = 2048
# cells per write_csv chunk, ~100 bytes each while the chunk is printed: a
# table of 12000 rows of 17 cells (192K floats) peaked at 9.4 MB above its
# rows in one printf template, 7.8 MB in these chunks and 25.9 MB in one
CSV_CELLS = 8192
ASCII_ZEROS = 0x3030303030303030  # "00000000"


def _require_finite(values):
    """values as a float array, once every one is finite; else a ValueError
    naming the first non-finite value, in C order."""
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(
            f"cannot serialize non-finite float {a[~np.isfinite(a)][0]}")
    return a


def _template(shape, leaf=FLOAT):
    """The printf template of nested JSON lists of shape, leaf per value."""
    for size in reversed(shape):
        leaf = "[" + ",".join([leaf] * size) + "]"
    return leaf


def _halves(v):
    """v = high + low, each of at most 26 significant bits, so that the
    product of two halves is exact (Veltkamp's split by 2^27 + 1)."""
    c = v * 134217729.0
    high = c - (c - v)
    return high, v - high


def _two_product(a, b):
    """(p, e): p = a * b rounded and p + e = a * b exactly, without an FMA
    (T. J. Dekker, Numer. Math. 18, 1971)."""
    (ah, al), (bh, bl) = _halves(a), _halves(b)
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _digit_words(v):
    """The 8 decimal digits of each uint32 v < 1e8 as byte values 0-9 of a
    uint64, the first digit in the lowest byte: v splits into two 4-digit
    halves, each half into two 2-digit quarters (x * 10486 >> 20 is
    x // 100 for x < 43699), each quarter into digits (x * 103 >> 10 is
    x // 10 for x < 179), all in 32-bit lanes (where // by a constant is
    fast, and % is not)."""
    x = np.empty(v.shape + (2,), np.uint32)
    x[..., 0] = v // 10000
    x[..., 1] = v - x[..., 0] * 10000
    y = x * 10486 >> 20
    x = y | (x - y * 100) << 16
    y = x * 103 >> 10 & 0x000F000F
    return (y | (x - y * 10) << 8).view(np.uint64)[..., 0]


@cache
def _print_tables():
    """The small tables of _print_block, read-only: 10^k for k <= 22
    (exact), the masks of the k lowest bytes of a word for k <= 8, and per
    (exponent E in -4..15, sign) a column of the masks of the integer
    digits among digits 1-8 and 9-16, the word of the sign and the "0.000"
    that leads a value below 1, and the word of the point that follows an
    integer part."""
    low = [(1 << 8 * k) - 1 for k in range(9)]
    by_exponent = [
        [low[min(max(E, 0), 8)], low[min(max(E - 8, 0), 8)],
         int.from_bytes(sign + (b"0.000"[:1 - E] if E < 0 else b""), "little"),
         (E >= 0) * (ord(".") << 56)]
        for E in range(-4, 16) for sign in (b"\0", b"-")]
    tables = (np.array([float(10 ** k) for k in range(23)]),
              np.array(low, np.uint64), np.array(by_exponent, np.uint64).T)
    for table in tables:
        table.flags.writeable = False
    return tables


def _print_block(x, out):
    """out[i] = FLOAT % x[i] as ASCII bytes with NULs between and after them:
    out is (n, 5) uint64, x a float64 array.

    For 1e-4 <= |x| < 1e16, where %.17g writes fixed notation, it does
    printf's arithmetic: E = floor(log10 |x|), the exact |x| 10^(16 - E)
    (10^k is exact for k <= 22) and its rounding half to even, D, of 17
    digits. The words are the sign with the "0." and zeros of |x| < 1 and
    the first digit; digits 1-8 and 9-16 of the integer part, then the
    point; digits 1-8 and 9-16 of the fraction, whose trailing zeros (and
    so a bare point) are dropped. Zeros, subnormals and the rest are
    printed by FLOAT one at a time."""
    pow10, low, by_exponent = _print_tables()
    a = np.abs(x)
    other = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)))
    a[other] = 1.0
    # log10 may be one off next to a power of ten: the exact product
    # p + e must lie in [1e16, 1e17)
    E = np.floor(np.log10(a)).astype(np.intp)
    p, e = _two_product(a, np.take(pow10, 16 - E))
    under = (p < 1e16) | (p == 1e16) & (e < 0)
    over = (p > 1e17) | (p == 1e17) & (e >= 0)
    if under.any() or over.any():
        E += over.astype(np.intp) - under
        p, e = _two_product(a, np.take(pow10, 16 - E))
    # p >= 1e16 > 2^53 is an integer and e is exact, so D = p + floor(e)
    # plus a carry of the remainder e - floor(e), half to even. D < 1e17:
    # the largest double below each 10^k, 1e-3 <= 10^k <= 1e16, is at
    # least 8.3e-17 of it below, and only 5e-18 would round up to it
    r = np.floor(e)
    D = p.astype(np.int64) + r.astype(np.int64)
    r += 0.5
    D += (e > r) | (e == r) & (D & 1 == 1)
    # the first digit, and the words of digits 1-8 and 9-16
    split = np.empty((3, len(D)), np.int64)
    split[1] = D // 10 ** 8
    split[2] = D - split[1] * 10 ** 8
    split[0] = split[1] // 10 ** 8
    split[1] -= split[0] * 10 ** 8
    digits = _digit_words(split[1:].astype(np.uint32))
    # a word's digits end at its last nonzero byte: the (bit length + 7) // 8
    # of frexp's exponent; the fraction's first word ends at 8 if the second
    # holds a digit
    kept = (np.frexp(digits)[1] + 7) // 8
    kept[0] = np.where(kept[1] > 0, 8, kept[0])
    t = np.take(by_exponent, 2 * (E + 4) + np.signbit(x), axis=1)
    digits += np.uint64(ASCII_ZEROS)
    fraction = digits & np.take(low, kept) & ~t[:2]
    out[:, 0] = t[2] | (split[0].astype(np.uint64) + ord("0")) << 48
    out[:, 1:3] = (digits & t[:2]).T
    out[:, 2] |= t[3] * ((fraction[0] | fraction[1]) != 0)
    out[:, 3:5] = fraction.T
    for i in other:
        text = (FLOAT % x[i]).encode()
        row = out[i].view(np.uint8)
        row[:] = 0
        row[:len(text)] = np.frombuffer(text, np.uint8)


def _print(x, seps):
    """The text of the float64 array x, each value printed as FLOAT prints
    it and value i followed by seps[i % len(seps)] (bytes, no NUL), the
    last one by none, as a list of str. BLOCK values at a time are printed
    into NUL-padded rows of words, which lose their NULs as one bytes."""
    width = -(-max(map(len, seps)) // 8)
    sep_rows = np.frombuffer(b"".join(s.ljust(8 * width, b"\0") for s in seps),
                             np.uint64).reshape(len(seps), width)
    rows = np.empty((min(len(x), BLOCK), 5 + width), np.uint64)
    parts = []
    for start in range(0, len(x), BLOCK):
        chunk = x[start:start + BLOCK]
        block = rows[:len(chunk)]
        _print_block(chunk, block[:, :5])
        block[:, 5:] = sep_rows[
            np.arange(start, start + len(chunk)) % len(seps)]
        if start + len(chunk) == len(x):
            block[-1, 5:] = 0
        parts.append(block.tobytes().translate(None, b"\0").decode())
    return parts


def _dumps_floats(a, record=None):
    """A float ndarray as nested JSON lists (a 0-d one as a number), each
    value printed as FLOAT prints it. Given record, the text of one row of
    the 2-d a with a NUL for each of its values, a JSON list of one record
    per row."""
    values = _require_finite(a).ravel()
    if record is None:
        record = _template(a.shape[1:], "\0")
    if values.size < KERNEL_MIN:
        leaf = record.replace("%", "%%").replace("\0", FLOAT)
        return _template(a.shape[:1], leaf) % tuple(values.tolist())
    head, *inner, tail = record.encode().split(b"\0")
    return "".join(["[", head.decode(),
                    *_print(values, [*inner, tail + b"," + head]),
                    tail.decode(), "]"])


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
            json.dumps(name) + ":" + _template(a.shape[1:], "\0")
            for name, a in self.fields.items()) + "}"
        return _dumps_floats(table, record)


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


def _print_each(values):
    """Each value of the float array values as FLOAT prints it, a list of
    str."""
    if values.size < KERNEL_MIN:
        return [FLOAT % v for v in values.tolist()]
    return "".join(_print(values, [b"\n"])).split("\n")


def _csv_lines(rows):
    """The CSV lines of rows: floats printed as FLOAT prints them, other
    cells as str."""
    cells = tuple(chain.from_iterable(rows))
    is_float = [*map(isinstance, cells, repeat(FLOATS))]
    printed = iter(_print_each(_require_finite([*compress(cells, is_float)])))
    return "".join([",".join(["%s"] * len(r)) + "\n" for r in rows]) % tuple(
        [next(printed) if f else c for c, f in zip(cells, is_float)])


def write_csv(path, header, rows):
    """CSV with a header row and LF endings, formatted in full before the
    file is opened. The sequence rows is printed in chunks of about
    CSV_CELLS cells, whose printed floats are held at once as str."""
    step = CSV_CELLS // max(len(rows[0]), 1) + 1 if rows else 1
    text = "".join([_csv_lines(rows[i:i + step])
                    for i in range(0, len(rows), step)])
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


def number(value, name, finite=False):
    """A JSON number as a float; not a string, a boolean or null, and if
    finite, not a NaN or an infinity (json reads NaN, Infinity and 1e400
    as floats) either: NonFiniteInput names it."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            pass
        else:
            if finite and not math.isfinite(x):
                raise NonFiniteInput(f"{name}: must be finite, got {value!r}")
            return x
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


# the reader of a field by its declared type, told whether its numbers must
# be finite; validate() checks a str, and a dict (the residuals) holds numbers
_PARSERS = {float: number,
            int: lambda value, name, finite: integer(value, name),
            tuple: lambda value, name, finite: _pair(value, name),
            str: lambda value, name, finite: value,
            dict: lambda value, name, finite: {
                k: number(v, f"{name}.{k}", finite)
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
    sizes; a nested dataclass by this reader. Every number is finite but
    a config's (validate() names those) and a measurement's, t_s included
    (MeasurementSet.validate() checks those). where names d in messages,
    a field is path.name (name if path is ""). A SolverOptions is
    validated as it is read."""
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
            value = _PARSERS[f.type](value, name,
                                     not defaults and f.name != "t_s")
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
