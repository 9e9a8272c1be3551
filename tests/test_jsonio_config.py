import functools
import json
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import (csv_text, per_frame_records_dumps,
                      row_template_dumps_floats)
from dynsfm import jsonio
from dynsfm.config import (MAX_FRAMES, MAX_W_BYTES, RunConfig,
                           config_from_dict, config_to_dict,
                           options_from_dict, reference_config,
                           reference_noise_config)
from dynsfm.errors import ConfigError, DynSfmError
from dynsfm.simulate import NoiseSpec, simulate_dataset
from dynsfm.solver import SolverOptions, reconstruct


def test_dumps_17_significant_digits():
    out = jsonio.dumps({"x": 1.0 / 3.0, "n": 5, "s": "ab", "b": True,
                        "none": None, "v": [0.1, 2.0]})
    assert out == ('{"x":0.33333333333333331,"n":5,"s":"ab","b":true,'
                   '"none":null,"v":[0.10000000000000001,2]}')
    # round-trips exactly through the standard parser
    assert json.loads(out)["x"] == 1.0 / 3.0
    assert json.loads(out)["v"][0] == 0.1


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        jsonio.dumps({"x": float("nan")})


def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    jsonio.write_csv(path, ["a", "b"], [[1, 0.5], [2, 1.0 / 3.0]])
    raw = path.read_bytes().decode()
    assert raw == "a,b\n1,0.5\n2,0.33333333333333331\n"
    assert b"\r" not in path.read_bytes()


# where %.17g switches notation, the extremes, and values that print
# as integers
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e16, 1e17, 1e-4, 1e-5, 1.0, -3.0,
               2.0 ** 53, 123456789.0]
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    EDGE_FLOATS)


@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=4, min_side=1,
                                       max_side=4), elements=FLOATS))
def test_dumps_prints_arrays_as_the_row_template_writer(a):
    assert jsonio.dumps(a) == row_template_dumps_floats(a)
    assert jsonio.dumps(a.T) == row_template_dumps_floats(a.T)


@pytest.mark.parametrize("shape", [(), (0,), (2, 0), (0, 3), (1, 0, 2)])
def test_dumps_prints_empty_and_0d_arrays_as_their_lists(shape):
    a = np.full(shape, 0.1)
    assert jsonio.dumps(a) == jsonio.dumps(a.tolist())


@given(st.integers(0, 5).flatmap(lambda frames: st.lists(
    arrays(np.float64, st.tuples(st.just(frames), st.integers(1, 9)),
           elements=FLOATS), min_size=1, max_size=4)))
def test_frame_records_print_as_the_per_frame_writer(columns):
    fields = {f"f{i}": a for i, a in enumerate(columns)}
    written = jsonio.dumps(jsonio._FrameRecords(fields))
    assert written == per_frame_records_dumps(fields)


CELLS = st.one_of(st.integers(-10 ** 20, 10 ** 20),
                  st.text("ab,%s\"", max_size=4), FLOATS,
                  FLOATS.map(np.float64),
                  st.floats(width=32, allow_nan=False,
                            allow_infinity=False).map(np.float32))


@given(st.lists(st.lists(CELLS, max_size=6), max_size=6))
def test_write_csv_prints_as_the_row_writer(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    header = ["a", "b", "c"]
    jsonio.write_csv(path, header, rows)
    assert path.read_bytes() == csv_text(header, rows).encode()


def test_percent_signs_in_text_are_written_verbatim(tmp_path):
    path = tmp_path / "t.csv"
    jsonio.write_csv(path, ["a%s", "%%b", "%"],
                     [["x%s", 1.5, "%%"], [2, "%", 0.25]])
    assert path.read_text() == "a%s,%%b,%\nx%s,1.5,%%\n2,%,0.25\n"
    assert jsonio.dumps({"k%s": "v%%", "%": ["%s", 1.0]}) == (
        '{"k%s":"v%%","%":["%s",1]}')
    frames = jsonio._FrameRecords({"a%s": np.ones((2, 1)),
                                   "%%": np.zeros((2, 1))})
    assert jsonio.dumps(frames) == (
        '[{"a%s":[1],"%%":[0]},{"a%s":[1],"%%":[0]}]')


def test_non_finite_error_names_the_first_value_in_c_order(tmp_path):
    a = np.zeros((2, 3, 4))
    a[1, 0, 0] = np.nan   # first in Fortran order
    a[0, 2, 1] = -np.inf  # first in C order
    path = tmp_path / "a.json"
    with pytest.raises(ValueError, match="non-finite float -inf$"):
        jsonio.write_json(path, {"a": a})
    assert not path.exists()  # formatted in full before the file is opened
    path = tmp_path / "t.csv"
    rows = [[0, 1.0, "x", np.float64(np.nan)], [1, -np.inf, "y", 2.0]]
    with pytest.raises(ValueError, match="non-finite float nan$"):
        jsonio.write_csv(path, ["f", "a", "s", "b"], rows)
    assert not path.exists()


def _dataset():
    return simulate_dataset(duration=0.5, t_s=1 / 30, n_points=5, extent=1.5,
                            amp_trans=0.2, amp_rot=0.3, seed=2,
                            noise=NoiseSpec(0.01, 0.05, 0.001, seed=7))


def test_dataset_roundtrip(tmp_path):
    ds = _dataset()
    path = tmp_path / "d.json"
    jsonio.write_json(path, jsonio.dataset_to_dict(ds))
    back = jsonio.dataset_from_dict(jsonio.read_json(path))
    assert back.t_s == ds.t_s
    assert back.seed == ds.seed
    assert np.array_equal(back.scene.points, ds.scene.points)
    assert np.array_equal(back.measurements.tracks, ds.measurements.tracks)
    assert np.array_equal(back.measurements.torque, ds.measurements.torque)
    assert np.array_equal(back.trajectory.rotations, ds.trajectory.rotations)
    assert back.noise_spec == ds.noise_spec


def _per_frame_trajectory(traj):
    """The trajectory entry as one dict of arrays per frame."""
    return [{"R": traj.rotations[f].reshape(9), "T": traj.T[f],
             "dT": traj.dT[f], "ddT": traj.ddT[f], "omega": traj.omega[f],
             "domega": traj.domega[f]} for f in range(traj.n_frames)]


def test_dataset_trajectory_written_as_per_frame_objects():
    ds = _dataset()
    doc = jsonio.dataset_to_dict(ds)
    oracle = dict(doc, trajectory=_per_frame_trajectory(ds.trajectory))
    assert jsonio.dumps(doc) == jsonio.dumps(oracle)
    # the first non-finite value in frame order, fields in order, is named
    ds.trajectory.domega[2, 1] = np.inf
    ds.trajectory.T[3, 0] = np.nan
    doc = jsonio.dataset_to_dict(ds)
    oracle = dict(doc, trajectory=_per_frame_trajectory(ds.trajectory))
    for written in (doc, oracle):
        with pytest.raises(ValueError, match="non-finite float inf"):
            jsonio.dumps(written)


def test_reconstruction_roundtrip(tmp_path):
    ds = _dataset()
    recon = reconstruct(ds.measurements)
    path = tmp_path / "r.json"
    jsonio.write_json(path, jsonio.reconstruction_to_dict(recon))
    back = jsonio.reconstruction_from_dict(jsonio.read_json(path))
    assert np.array_equal(back.rotations, recon.rotations)
    assert np.array_equal(back.structure, recon.structure)
    assert np.array_equal(back.gravity, recon.gravity)
    assert back.residuals == {k: float(v)
                              for k, v in recon.residuals.items()}
    assert back.options == recon.options


@pytest.mark.parametrize("drop", ["torque", "inertia"])
def test_dataset_roundtrip_with_one_optional_series(drop):
    # torque and inertia are written each when present, not as a pair
    ds = _dataset()
    ds.measurements = replace(ds.measurements, **{drop: None})
    doc = json.loads(jsonio.dumps(jsonio.dataset_to_dict(ds)))
    assert drop not in doc["measurements"]
    back = jsonio.dataset_from_dict(doc).measurements
    assert getattr(back, drop) is None
    for name in ({"torque", "inertia"} - {drop}):
        assert np.array_equal(getattr(back, name),
                              getattr(ds.measurements, name))


def _bits(value):
    """The shape and the bytes of value as float64: equal for two values
    that read the same bit for bit, -0.0 and 0.0 told apart."""
    a = np.asarray(value, dtype=float)
    return a.shape, a.tobytes()


def _assert_same_fields(back, orig, path=""):
    """Every field of the dataclass back, nested ones field by field, is
    the same as orig's: arrays and numbers bit for bit, in their order."""
    for f in fields(orig):
        a, b = getattr(back, f.name), getattr(orig, f.name)
        name = path + f.name
        if is_dataclass(b):
            _assert_same_fields(a, b, name + ".")
        elif isinstance(b, dict):
            assert list(a) == list(b), name
            assert [_bits(v) for v in a.values()] == [
                _bits(v) for v in b.values()], name
        elif b is None or isinstance(b, str):
            assert a == b, name
        else:
            assert _bits(a) == _bits(b), name


def _assert_roundtrip(obj, to_dict, from_dict):
    """obj written, read back and written again: every field the same, the
    second document byte-identical to the first."""
    text = jsonio.dumps(to_dict(obj))
    back = from_dict(json.loads(text))
    _assert_same_fields(back, obj)
    assert jsonio.dumps(to_dict(back)) == text


@pytest.mark.parametrize("drop", [(), ("torque",), ("inertia",),
                                  ("torque", "inertia")])
def test_dataset_roundtrip_of_every_field(drop):
    ds = _dataset()
    ds.measurements = replace(ds.measurements, **dict.fromkeys(drop))
    assert all(getattr(ds.measurements, name) is not None
               for name in {"torque", "inertia"} - set(drop))
    _assert_roundtrip(ds, jsonio.dataset_to_dict, jsonio.dataset_from_dict)


def test_reconstruction_roundtrip_of_every_field():
    recon = reconstruct(_dataset().measurements,
                        SolverOptions(lambda_R=2.0, reg_filter=(2, 5),
                                      reflection_resolution="positive"))
    _assert_roundtrip(recon, jsonio.reconstruction_to_dict,
                      jsonio.reconstruction_from_dict)


@pytest.mark.parametrize("cfg", [
    reference_config(seed=3), reference_noise_config(seed=4),
    RunConfig(duration=4.0, t_s=0.025, points=10, extent=3.0,
              amp_trans=0.2, amp_rot=0.4,
              noise=NoiseSpec(0.01, 0.02, 0.003, seed=5),
              solver=SolverOptions(2.0, 3.0, 4.0, "numeric", (3, 7), (2, 5),
                                   "positive"),
              flow_mode="numeric", flow_filter=(3, 9), seed=7)],
    ids=["noiseless", "noise", "every-field-changed"])
def test_config_roundtrip_of_every_field(cfg):
    _assert_roundtrip(cfg, config_to_dict, config_from_dict)


@pytest.mark.parametrize("name, make", [
    ("reference_noiseless", reference_config),
    ("reference_noise", reference_noise_config)])
def test_shipped_configs_are_the_writers_output(name, make, tmp_path):
    path = tmp_path / "config.json"
    jsonio.write_json(path, config_to_dict(make()))
    shipped = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    assert shipped.read_bytes() == path.read_bytes()


@functools.cache
def _documents_json():
    ds = _dataset()
    return jsonio.dumps({"dataset": jsonio.dataset_to_dict(ds),
                         "reconstruction": jsonio.reconstruction_to_dict(
                             reconstruct(ds.measurements))})


def _documents():
    """A dataset and a reconstruction document of _dataset, as plain JSON,
    new on every call."""
    return json.loads(_documents_json())


READERS = {"dataset": jsonio.dataset_from_dict,
           "reconstruction": jsonio.reconstruction_from_dict}


def _entries(doc, path=()):
    """The path of every number-holding entry of a document: the scalars
    and arrays, one frame's trajectory fields standing for all."""
    for key, value in doc.items():
        if key == "options":
            continue  # the config parser's, covered by the config tests
        if isinstance(value, dict):
            yield from _entries(value, path + (key,))
        elif key == "trajectory":
            yield from _entries(value[0], path + (key, 0))
        elif key != "schema_version":
            yield path + (key,)


ENTRIES = [(kind, path) for kind, doc in _documents().items()
           for path in _entries(doc)]


@pytest.mark.parametrize("kind, path", ENTRIES,
                         ids=[".".join(map(str, [kind[0], *path]))
                              for kind, path in ENTRIES])
def test_readers_reject_wrong_type_in_every_entry(kind, path):
    # an entry that holds a str, a bool or a null, at the top or inside
    # an array, is an error naming its key: no value is coerced
    key = "rotations" if path[-1] == "R" else path[-1]
    for bad in ("1.5", True, None):
        doc = _documents()[kind]
        *head, last = path
        target = doc
        for k in head:
            target = target[k]
        if isinstance(target[last], list):
            target, last = target[last], 0
            while isinstance(target[last], list):
                target = target[last]
        target[last] = bad
        with pytest.raises(DynSfmError, match=key):
            READERS[kind](doc)


@pytest.mark.parametrize("kind, key", [
    ("dataset", "t_s"), ("dataset", "measurements"), ("dataset", "seed"),
    ("dataset", "noise_spec.gyro_std"), ("dataset", "measurements.gyro"),
    ("dataset", "trajectory.0.T"), ("reconstruction", "tau"),
    ("reconstruction", "options")])
def test_readers_name_a_missing_field(kind, key):
    doc = _documents()[kind]
    *head, last = key.split(".")
    target = doc
    for k in head:
        target = target[int(k) if k.isdigit() else k]
    del target[last]
    with pytest.raises(ConfigError, match=f"missing field '{last}'"):
        READERS[kind](doc)


def test_dataset_schema_version_checked():
    ds_dict = jsonio.dataset_to_dict(_dataset())
    ds_dict["schema_version"] = 999
    from dynsfm.errors import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        jsonio.dataset_from_dict(ds_dict)


def test_config_roundtrip():
    for cfg in (reference_config(seed=3), reference_noise_config(seed=4)):
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg


def test_config_rejects_unknowns():
    doc = config_to_dict(reference_config())
    doc["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict(doc)
    doc = config_to_dict(reference_config())
    doc["noise"]["bogus_noise"] = 1
    with pytest.raises(ConfigError, match="bogus_noise"):
        config_from_dict(doc)
    doc = config_to_dict(reference_config())
    doc["solver"]["bogus_solver"] = 1
    with pytest.raises(ConfigError, match="bogus_solver"):
        config_from_dict(doc)


def test_config_validation_names_field():
    doc = config_to_dict(reference_config())
    doc["duration"] = 0.01
    with pytest.raises(ConfigError, match="duration"):
        config_from_dict(doc)
    doc = config_to_dict(reference_config())
    doc["flow_mode"] = "psychic"
    with pytest.raises(ConfigError, match="flow_mode"):
        config_from_dict(doc)
    doc = config_to_dict(reference_config())
    doc["solver"]["omega_dot_mode"] = "wrong"
    with pytest.raises(ConfigError, match="solver"):
        config_from_dict(doc)


def test_reference_noise_config_values():
    cfg = reference_noise_config(seed=0)
    assert np.isclose(cfg.noise.gyro_std, np.radians(3.0))
    assert cfg.noise.accel_std == 0.2
    assert cfg.noise.image_rel_std == 0.005
    assert cfg.flow_mode == "numeric"


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(lambda_R=-1.0).validate()
    with pytest.raises(ValueError):
        SolverOptions(omega_dot_mode="nope").validate()
    with pytest.raises(ValueError):
        SolverOptions(reflection_resolution="maybe").validate()


@pytest.mark.parametrize("spec, rule", [
    ((11, 13), "order <= 10"), ((0, 3), "<= order"), ((2, 4), "odd window"),
    ((3, 3), "order < window")])
def test_filter_specs_follow_one_rule(spec, rule):
    # SolverOptions filters take the first derivative, the flow filter the
    # second too; each message names its field and the rule it breaks
    for name in ("omega_dot_filter", "reg_filter"):
        with pytest.raises(ValueError, match=f"{name}: .*{rule}"):
            SolverOptions(**{name: spec}).validate()
    with pytest.raises(ConfigError, match=f"flow_filter: .*{rule}"):
        RunConfig(flow_filter=spec).validate()
    with pytest.raises(ConfigError, match="flow_filter: .*2 <= order"):
        RunConfig(flow_filter=(1, 3)).validate()
    RunConfig(flow_filter=(10, 11), solver=SolverOptions(
        omega_dot_filter=(10, 11), reg_filter=(1, 11))).validate()


def test_solver_options_parsed_alike_in_config_and_options_file():
    doc = {"lambda_R": 1e8, "lambda_tau": 2, "omega_dot_mode": "numeric",
           "reg_filter": [1, 5], "omega_dot_filter": [2.0, 7]}
    opts = options_from_dict(doc)
    assert opts == SolverOptions(lambda_R=1e8, lambda_tau=2.0,
                                 omega_dot_mode="numeric", reg_filter=(1, 5),
                                 omega_dot_filter=(2, 7))
    cfg_doc = config_to_dict(reference_config())
    cfg_doc["solver"] = doc
    assert config_from_dict(cfg_doc).solver == opts
    for bad in ({"lambda_R": "1e8"}, {"lambda_nu": True},
                {"reg_filter": [1, 3.5]}, {"reg_filter": 3}):
        with pytest.raises(ConfigError, match="options"):
            options_from_dict(bad)
        cfg_doc["solver"] = bad
        with pytest.raises(ConfigError, match="solver"):
            config_from_dict(cfg_doc)


def test_config_accepts_integral_numbers():
    doc = dict(config_to_dict(reference_config()), points=8.0, seed=3.0,
               duration=5)
    cfg = config_from_dict(doc)
    assert (cfg.points, cfg.seed, cfg.duration) == (8, 3, 5.0)
    assert type(cfg.points) is int and type(cfg.duration) is float


# every field of a config document as (its section, its name); read from
# the dataclasses, so a field declared later is covered too
CONFIG_FIELDS = [(section, f.name) for section, cls in (
    (None, RunConfig), ("noise", NoiseSpec), ("solver", SolverOptions))
    for f in fields(cls)]


@pytest.mark.parametrize("section, name", CONFIG_FIELDS,
                         ids=[".".join(filter(None, key))
                              for key in CONFIG_FIELDS])
def test_config_rejects_wrong_type_in_every_field(section, name):
    for value in (True, "x", None, [1]):
        doc = json.loads(jsonio.dumps(config_to_dict(reference_config())))
        (doc[section] if section else doc)[name] = value
        with pytest.raises(ConfigError, match=name):
            config_from_dict(doc)


def test_config_roundtrip_with_every_field_changed():
    cfg = RunConfig(duration=4.0, t_s=0.025, points=10, extent=3.0,
                    amp_trans=0.2, amp_rot=0.4,
                    noise=NoiseSpec(0.01, 0.02, 0.003, seed=5),
                    solver=SolverOptions(2.0, 3.0, 4.0, "numeric", (3, 7),
                                         (2, 5), "positive"),
                    flow_mode="numeric", flow_filter=(3, 9), seed=7)
    for value, default in ((cfg, RunConfig()), (cfg.noise, NoiseSpec()),
                           (cfg.solver, SolverOptions())):
        for f in fields(value):
            assert getattr(value, f.name) != getattr(default, f.name), f.name
    doc = json.loads(jsonio.dumps(config_to_dict(cfg)))
    assert config_from_dict(doc) == cfg.validate()


def test_config_schema_version_is_an_integer():
    doc = config_to_dict(reference_config())
    for version in (1, 1.0):
        assert (config_from_dict(dict(doc, schema_version=version))
                == reference_config())
    for version in (True, "1", 2):
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict(dict(doc, schema_version=version))


@pytest.mark.parametrize("duration, t_s, points, field", [
    (MAX_FRAMES / 200 + 1.0, 1 / 200, 4, "duration/t_s:"),
    (1e300, 1 / 30, 24, "duration/t_s:"),
    (MAX_FRAMES / 200, 1 / 200, 25, "duration/t_s/points:"),
    (2.0, 1 / 30, MAX_W_BYTES // (48 * 60) + 1, "duration/t_s/points:"),
    (1.0, 1 / 30, 10 ** 40, "duration/t_s/points:")])
def test_config_rejects_run_above_size_budget(duration, t_s, points, field):
    # the budget is checked before anything is allocated: frames, and the
    # 6 F P doubles of W
    cfg = RunConfig(duration=duration, t_s=t_s, points=points)
    with pytest.raises(ConfigError, match=field):
        cfg.validate()


def test_config_size_budget_is_ten_times_the_200hz_regime():
    # 60 s at 200 Hz with 24 points (F = 12000) is the largest run the
    # README measures; ten times its frames, and ten times its W, pass
    assert MAX_FRAMES >= 10 * 12_000
    assert MAX_W_BYTES >= 10 * 6 * 12_000 * 24 * 8
    RunConfig(duration=MAX_FRAMES / 200, t_s=1 / 200, points=24).validate()
    RunConfig(duration=2.0, t_s=1 / 30,
              points=MAX_W_BYTES // (48 * 60)).validate()
