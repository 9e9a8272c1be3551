import argparse
import copy
import functools
import json
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from dynsfm import cli, jsonio, solver
from dynsfm.cli import SWEEP_HEADER, main
from dynsfm.config import (MAX_FRAMES, MAX_W_BYTES, config_to_dict,
                           reference_config, reference_noise_config)
from dynsfm.errors import NumericalFailure
from dynsfm.solver import SolverOptions, reconstruct

from conftest import csv_text, make_dataset


def run_cli(*args):
    """Run the CLI in-process, capturing the exit code."""
    return main([str(a) for a in args])


@pytest.fixture()
def reference_cfg_path(tmp_path):
    path = tmp_path / "config.json"
    jsonio.write_json(path, config_to_dict(reference_config(seed=0)))
    return path


@pytest.fixture()
def small_cfg_path(tmp_path):
    cfg = reference_config(seed=1)
    cfg.duration = 2.0
    cfg.points = 8
    path = tmp_path / "small.json"
    jsonio.write_json(path, config_to_dict(cfg))
    return path


def test_simulate_reference_scale(reference_cfg_path, tmp_path, capsys):
    out = tmp_path / "dataset.json"
    assert run_cli("simulate", "--config", reference_cfg_path, "--out", out) == 0
    printed = capsys.readouterr().out
    assert "frames=150" in printed and "points=24" in printed
    ds = jsonio.dataset_from_dict(jsonio.read_json(out))
    assert ds.measurements.tracks.shape == (150, 24, 2)


def test_simulate_deterministic_bytes(small_cfg_path, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli("simulate", "--config", small_cfg_path, "--out", out1,
                   "--quiet") == 0
    assert run_cli("simulate", "--config", small_cfg_path, "--out", out2,
                   "--quiet") == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_zero_noise_tracks_are_clean(small_cfg_path, tmp_path):
    from dynsfm.simulate import synthesize_images
    out = tmp_path / "d.json"
    run_cli("simulate", "--config", small_cfg_path, "--out", out, "--quiet")
    ds = jsonio.dataset_from_dict(jsonio.read_json(out))
    tracks, _, _ = synthesize_images(ds.trajectory, ds.scene, ds.gravity)
    assert np.abs(ds.measurements.tracks - tracks).max() < 1e-15


def test_simulate_rejects_unknown_field(tmp_path, capsys):
    doc = config_to_dict(reference_config())
    doc["typo_field"] = 1
    path = tmp_path / "bad.json"
    jsonio.write_json(path, doc)
    code = run_cli("simulate", "--config", path, "--out", tmp_path / "x.json")
    assert code == 2
    assert "typo_field" in capsys.readouterr().err


def test_simulate_rejects_bad_value(tmp_path, capsys):
    doc = config_to_dict(reference_config())
    doc["points"] = 2
    path = tmp_path / "bad.json"
    jsonio.write_json(path, doc)
    assert run_cli("simulate", "--config", path,
                   "--out", tmp_path / "x.json") == 2
    assert "points" in capsys.readouterr().err


def test_missing_config_is_io_error(tmp_path):
    assert run_cli("simulate", "--config", tmp_path / "nope.json",
                   "--out", tmp_path / "x.json") == 3


def test_solve_and_eval_roundtrip(reference_cfg_path, tmp_path, capsys):
    ds_path = tmp_path / "dataset.json"
    rec_path = tmp_path / "recon.json"
    out_dir = tmp_path / "eval"
    assert run_cli("simulate", "--config", reference_cfg_path, "--out", ds_path,
                   "--quiet") == 0
    assert run_cli("solve", "--dataset", ds_path, "--out", rec_path) == 0
    assert "sigma_ratio" in capsys.readouterr().out
    assert run_cli("eval", "--recon", rec_path, "--dataset", ds_path,
                   "--out", out_dir, "--quiet") == 0
    report = jsonio.read_json(out_dir / "report.json")
    assert report["struct_rmse"] < 1e-6
    traj_csv = (out_dir / "trajectory.csv").read_text().splitlines()
    ds = jsonio.dataset_from_dict(jsonio.read_json(ds_path))
    assert len(traj_csv) == ds.trajectory.n_frames + 1  # header + F rows
    header = traj_csv[0].split(",")
    assert header[:2] == ["frame", "t"]
    assert "est_T_x" in header and "imu_T_z" in header
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in traj_csv[1:]])
    cols = {name: i for i, name in enumerate(header)}
    for axis in "xyz":
        logR_gt = rows[:, cols[f"gt_logR_{axis}"]]
        logR_est = rows[:, cols[f"est_logR_{axis}"]]
        assert np.abs(logR_gt - logR_est).max() < 1e-5
        gt = rows[:, cols[f"gt_T_{axis}"]]
        est = rows[:, cols[f"est_T_{axis}"]]
        # translation recovery at 30 Hz floors near 1e-5 (regularizer
        # finite-difference bias); see the 240 Hz test for the exact regime
        assert np.abs(gt - est).max() < 1e-4
    struct_csv = (out_dir / "structure.csv").read_text().splitlines()
    assert len(struct_csv) == ds.scene.n_points + 1


def test_solve_deterministic_bytes(small_cfg_path, tmp_path):
    ds_path = tmp_path / "dataset.json"
    run_cli("simulate", "--config", small_cfg_path, "--out", ds_path,
            "--quiet")
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("solve", "--dataset", ds_path, "--out", r1,
                   "--quiet") == 0
    assert run_cli("solve", "--dataset", ds_path, "--out", r2,
                   "--quiet") == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_solve_exit_code_on_solver_failure(small_cfg_path, tmp_path, capsys):
    ds_path = tmp_path / "dataset.json"
    run_cli("simulate", "--config", small_cfg_path, "--out", ds_path,
            "--quiet")
    doc = jsonio.read_json(ds_path)
    # zero out the image data: W becomes rank deficient
    F = len(doc["trajectory"])
    P = len(doc["scene"])
    zeros = np.zeros((F, P, 2)).tolist()
    doc["measurements"]["tracks"] = zeros
    doc["measurements"]["flows"] = zeros
    doc["measurements"]["double_flows"] = zeros
    broken = tmp_path / "broken.json"
    jsonio.write_json(broken, doc)
    code = run_cli("solve", "--dataset", broken, "--out", tmp_path / "r.json")
    assert code == 4
    assert "factor_rank4" in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [
    (("measurements", "tracks", 3, 5, 0), float("nan")),
    (("measurements", "accel", 7, 1), float("inf")),
    (("t_s",), 0.0),
    (("t_s",), -1 / 30)], ids=["nan-track", "inf-accel", "zero-t_s",
                               "negative-t_s"])
def test_solve_exit_code_on_invalid_input(path, value, tmp_path, capfd):
    # invalid input is rejected at the solver boundary, before numpy can
    # warn or LAPACK print to the process's stderr: one error line only
    cfg_path = tmp_path / "noise.json"
    jsonio.write_json(cfg_path, config_to_dict(reference_noise_config(seed=0)))
    ds_path = tmp_path / "dataset.json"
    run_cli("simulate", "--config", cfg_path, "--out", ds_path, "--quiet")
    doc = jsonio.read_json(ds_path)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))  # jsonio refuses to write non-finite
    out = tmp_path / "r.json"
    code = run_cli("solve", "--dataset", broken, "--out", out, "--quiet")
    err = capfd.readouterr().err
    assert code == 4
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "[validate]" in errors[0]
    assert "Traceback" not in err
    assert "Warning" not in err
    assert not out.exists()


@functools.cache
def _one_second_dataset_json():
    cfg = reference_noise_config(seed=0)
    cfg.duration = 1.0
    cfg.points = 8
    return jsonio.dumps(jsonio.dataset_to_dict(make_dataset(cfg)))


def _one_second_dataset_doc():
    """A valid 1 s, 8-point dataset document with plain JSON lists, a new
    one on every call, so a caller may mutate it."""
    return json.loads(_one_second_dataset_json())


def _solve_doc(doc, tmp_path, capfd, command="solve"):
    """Run `dynsfm solve` on a dataset document, or `dynsfm eval` of
    _one_second_reconstruction_doc against it; return (exit code, the
    stderr lines, whether an output was written)."""
    ds_path, recon = tmp_path / "dataset.json", tmp_path / "recon.json"
    ds_path.write_text(json.dumps(doc))  # json writes NaN and Infinity
    args = ["solve"]
    if command == "eval":
        recon.write_text(json.dumps(_one_second_reconstruction_doc()))
        args = ["eval", "--recon", recon]
    shutil.rmtree(tmp_path / "out", ignore_errors=True)
    out = tmp_path / "out" / ("r.json" if command == "solve" else "eval")
    capfd.readouterr()
    code = run_cli(*args, "--dataset", ds_path, "--out", out, "--quiet")
    return code, capfd.readouterr().err.splitlines(), out.exists()


def test_auto_omega_dot_without_inertia_falls_back_to_numeric(tmp_path,
                                                              capfd):
    # torque alone does not give the Euler equation: auto mode needs the
    # inertia too, and without it differentiates the gyro
    doc = _one_second_dataset_doc()
    del doc["measurements"]["inertia"]
    code, err, written = _solve_doc(doc, tmp_path, capfd)
    assert (code, err, written) == (0, [], True)
    meas = jsonio.dataset_from_dict(doc).measurements
    assert meas.torque is not None and meas.inertia is None
    auto = reconstruct(meas, SolverOptions(omega_dot_mode="auto"))
    numeric = reconstruct(meas, SolverOptions(omega_dot_mode="numeric"))
    for name in ("rotations", "tau", "nu", "gravity", "structure"):
        assert np.array_equal(getattr(auto, name), getattr(numeric, name))


def test_solve_stops_overflow_at_the_stage_that_made_it(tmp_path):
    # torque x 1e200 is finite and passes validate; the rotation solve's
    # normal matrix overflows and is stopped at [recover_rotation_blocks],
    # before LAPACK sees it and prints to stdout. A subprocess, because
    # the suite turns numpy's overflow RuntimeWarning into an exception.
    doc = _one_second_dataset_doc()
    doc["measurements"]["torque"] = [[1e200 * v for v in row]
                                     for row in doc["measurements"]["torque"]]
    ds_path, out = tmp_path / "dataset.json", tmp_path / "r.json"
    ds_path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "dynsfm", "solve", "--dataset", str(ds_path),
         "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith(
        "error: solver failed: [recover_rotation_blocks] ")
    assert not out.exists()


def test_pipeline_prints_a_warning_as_one_line(tmp_path):
    # with translation regularizers of 1e-12 the translation solve warns
    # that it is ill-conditioned (cond ~1e13, stably between COND_LIMIT
    # and singular) and the pipeline goes on: one "warning:" line, not
    # Python's two-line warning with its source line. A subprocess, whose
    # stderr no test harness's warning capture stands in front of.
    config = Path(__file__).resolve().parents[1] / "configs"
    doc = json.loads((config / "reference_noise.json").read_text())
    doc["solver"].update(lambda_tau=1e-12, lambda_nu=1e-12)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "dynsfm", "pipeline", "--config",
         str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "warning: recover_translations: normal-equation condition number")


def test_solve_stops_non_finite_residual(tmp_path):
    # accel x 1e300 leaves the translation solve's arrays finite but
    # overflows its residual norm: exit 4 at the stage, not a traceback
    # from the JSON writer, and no file
    doc = _one_second_dataset_doc()
    doc["measurements"]["accel"] = [[1e300 * v for v in row]
                                    for row in doc["measurements"]["accel"]]
    ds_path, out = tmp_path / "dataset.json", tmp_path / "r.json"
    ds_path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "dynsfm", "solve", "--dataset", str(ds_path),
         "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == (
        "error: solver failed: [recover_translations] FloatingPointError: "
        "overflow encountered in dot")
    assert not out.exists()


@pytest.mark.parametrize("command, field, scale", [
    ("pipeline", "extent", 1e200), ("pipeline", "amp_trans", 1e160),
    ("solve", "tracks", 1e300)])
def test_extreme_image_bands_stop_at_validate(command, field, scale,
                                              tmp_path):
    # finite image bands large enough to overflow W's Gram in factor_rank4
    # stop at [validate]: exit 4 with one error line, no numpy warning
    # before it, and no file. A subprocess, as the suite turns numpy's
    # RuntimeWarnings into exceptions.
    if command == "pipeline":  # example-config's config, one field scaled
        doc = config_to_dict(reference_config())
        doc[field] *= scale
        flag, out = "--config", tmp_path / "out"
    else:  # the 1 s dataset, its tracks scaled
        doc = _one_second_dataset_doc()
        meas = doc["measurements"]
        meas[field] = (np.array(meas[field]) * scale).tolist()
        flag, out = "--dataset", tmp_path / "r.json"
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "dynsfm", command, flag, str(path), "--out",
         str(out), "--quiet"], capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: solver failed: [validate] ")
    assert not out.exists()


def test_eval_stops_non_finite_dead_reckoning(tmp_path):
    # accel x 1e200 is finite and passes validate, but the dead reckoning's
    # terminal RMSE overflows: exit 5 naming the overflow, not a traceback
    # from the writer, and no report or table written. A subprocess, as
    # the suite turns numpy's overflow RuntimeWarning into an exception.
    doc = _one_second_dataset_doc()
    doc["measurements"]["accel"] = [[1e200 * v for v in row]
                                    for row in doc["measurements"]["accel"]]
    ds_path, recon = tmp_path / "dataset.json", tmp_path / "recon.json"
    ds_path.write_text(json.dumps(doc))
    recon.write_text(json.dumps(_one_second_reconstruction_doc()))
    out = tmp_path / "eval"
    proc = subprocess.run(
        [sys.executable, "-m", "dynsfm", "eval", "--recon", str(recon),
         "--dataset", str(ds_path), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 5
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        "error: evaluation failed: overflow encountered in square")
    assert not out.exists()


@pytest.mark.parametrize("command, field, value", [
    ("simulate", "extent", 1.7e308), ("pipeline", "extent", 1.7e308),
    ("sweep", "extent", 1.7e308), ("simulate", "amp_rot", 1e308),
    ("pipeline", "amp_rot", 1e308), ("eval", "tau", 1e300),
    ("eval", "gravity", 1e300)])
def test_overflowing_simulation_or_evaluation_exits_with_one_line(
        command, field, value, tmp_path):
    # a finite config field the simulation overflows on (set to value), or
    # a reconstruction field the evaluation overflows on (scaled by value):
    # the phase's exit code with one stderr line, no numpy warning, LAPACK
    # message or traceback around it, and no file from the failed run. A
    # subprocess, as the suite turns numpy's RuntimeWarnings into
    # exceptions.
    out = tmp_path / "out"
    if command == "eval":  # a reference pipeline's own files
        ref = tmp_path / "ref"
        config = Path(__file__).resolve().parents[1] / "configs"
        assert run_cli("pipeline", "--config", config / "reference_noise.json",
                       "--out", ref, "--quiet") == 0
        doc = json.loads((ref / "reconstruction.json").read_text())
        doc[field] = (np.array(doc[field]) * value).tolist()
        recon = tmp_path / "recon.json"
        recon.write_text(json.dumps(doc))
        args = ["--recon", recon, "--dataset", ref / "dataset.json"]
    else:  # example-config's config, one field set
        doc = config_to_dict(reference_config())
        doc[field] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        args = ["--config", path]
        if command == "sweep":  # one run: the config's seed, noise scale 1
            (tmp_path / "sweep.json").write_text("{}")
            args += ["--sweep", tmp_path / "sweep.json"]
    proc = subprocess.run(
        [sys.executable, "-m", "dynsfm", command,
         *map(str, args), "--out", str(out), "--quiet"],
        capture_output=True, text=True)
    code, message = {"simulate": (2, "error: simulation failed: "),
                     "pipeline": (2, "error: simulation failed: "),
                     "sweep": (4, "error: all sweep runs failed"),
                     "eval": (5, "error: evaluation failed: ")}[command]
    assert proc.returncode == code
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(message), proc.stderr
    if command == "sweep":  # the table the failed run is recorded in
        assert [p.name for p in out.iterdir()] == ["aggregate.csv"]
        assert (out / "aggregate.csv").read_text() == csv_text(
            SWEEP_HEADER, [[0, 1.0, "failed", *[""] * 9]])
    else:
        assert not out.exists()


def test_solve_names_the_stage_an_arithmetic_error_stops(tmp_path):
    # t_s = 1e298 is finite and passes validate, with the gyro scaled by
    # 1e-300 so one sample turns ~0.01 rad; the rotation regularizer
    # squares t_s as a Python float, which raises OverflowError. _stage
    # maps it to NumericalFailure at its stage: exit 4 and one error line,
    # not exit 1 with a traceback.
    doc = _one_second_dataset_doc()
    doc["t_s"] = 1e298
    doc["measurements"]["gyro"] = [[1e-300 * v for v in row]
                                   for row in doc["measurements"]["gyro"]]
    ds_path, out = tmp_path / "dataset.json", tmp_path / "r.json"
    ds_path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "dynsfm", "solve", "--dataset", str(ds_path),
         "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: solver failed: [recover_rotation_blocks] OverflowError: ")
    assert not out.exists()


def test_memory_error_in_a_stage_exits_4_naming_it(tmp_path, capfd,
                                                  monkeypatch):
    # a MemoryError is not an ArithmeticError or a LAPACK failure; _stage
    # maps it to OverBudget at its stage, so it is one error line
    def exhausted(W):
        raise MemoryError("cannot allocate the Gram")

    monkeypatch.setattr(solver, "factor_rank4", exhausted)
    code, err, written = _solve_doc(_one_second_dataset_doc(), tmp_path,
                                    capfd)
    assert code == 4 and not written
    assert err == ["error: solver failed: [factor_rank4] MemoryError: "
                   "cannot allocate the Gram"]


@pytest.mark.parametrize("config", ["reference_noise", "reference_noiseless"])
def test_pipeline_and_separate_commands_write_the_same_bytes(config,
                                                             tmp_path):
    # simulate -> solve -> eval reads back what pipeline holds in memory;
    # the evaluation must round alike on both, so the five files match
    cfg = Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"
    one, apart = tmp_path / "pipeline", tmp_path / "apart"
    assert run_cli("pipeline", "--config", cfg, "--out", one, "--quiet") == 0
    for args in (
            ["simulate", "--config", cfg, "--out", apart / "dataset.json"],
            ["solve", "--dataset", apart / "dataset.json", "--out",
             apart / "reconstruction.json"],
            ["eval", "--recon", apart / "reconstruction.json", "--dataset",
             apart / "dataset.json", "--out", apart]):
        assert run_cli(*args, "--quiet") == 0
    for name in ("dataset.json", "reconstruction.json", "report.json",
                 "trajectory.csv", "structure.csv"):
        assert (one / name).read_bytes() == (apart / name).read_bytes(), name


@pytest.mark.parametrize("command, flag, code", [
    ("solve", "--dataset", 3), ("pipeline", "--config", 2)])
def test_deeply_nested_document_exits_with_one_error_line(tmp_path, command,
                                                          flag, code):
    # a JSON array nested past the interpreter's recursion limit raises
    # RecursionError in the reader: the document's exit code (3 for data,
    # 2 for a config) and one error line, not exit 1 with a traceback
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    proc = subprocess.run(
        [sys.executable, "-m", "dynsfm", command, flag, str(path), "--out",
         str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad ")
    assert "RecursionError" in err[0]


def _ragged_tracks(doc):
    doc["measurements"]["tracks"][4].pop()
    return doc


def _short_inertia(doc):
    doc["measurements"]["inertia"] = doc["measurements"]["inertia"][:2]
    return doc


def _array_document(doc):
    return [doc]


@pytest.mark.parametrize("mutate", [_ragged_tracks, _short_inertia,
                                    _array_document],
                         ids=["ragged-tracks", "short-inertia", "array"])
def test_solve_exit_code_on_malformed_dataset(mutate, tmp_path, capfd):
    # a dataset file numpy cannot shape is an I/O error, not a traceback
    doc = mutate(_one_second_dataset_doc())
    code, err, written = _solve_doc(doc, tmp_path, capfd)
    assert code == 3
    assert len(err) == 1 and err[0].startswith("error: bad dataset file:")
    assert not written


@pytest.mark.parametrize("document, where, command", [
    ("dataset", (), "solve"), ("dataset", (), "eval"),
    ("dataset", ("measurements",), "solve"),
    ("dataset", ("measurements",), "eval"),
    ("dataset", ("noise_spec",), "solve"),
    ("dataset", ("trajectory", 3), "solve"),
    ("dataset", ("trajectory", 3), "eval"),
    ("reconstruction", (), "eval")],
    ids=["dataset-solve", "dataset-eval", "measurements-solve",
         "measurements-eval", "noise_spec-solve", "trajectory-solve",
         "trajectory-eval", "reconstruction-eval"])
def test_readers_reject_unknown_key(document, where, command, tmp_path,
                                    capfd):
    # a stray key is more likely a typo or a foreign schema than data
    # the reader may drop: it exits 3 and names the key
    docs = {"dataset": _one_second_dataset_doc(),
            "reconstruction": copy.deepcopy(_one_second_reconstruction_doc())}
    target = docs[document]
    for key in where:
        target = target[key]
    target["bogus"] = 1.0
    paths = {name: tmp_path / f"{name}.json" for name in docs}
    for name, doc in docs.items():
        paths[name].write_text(json.dumps(doc))
    out = tmp_path / "out"
    args = (["solve", "--dataset", paths["dataset"]] if command == "solve"
            else ["eval", "--recon", paths["reconstruction"], "--dataset",
                  paths["dataset"]])
    capfd.readouterr()
    assert run_cli(*args, "--out", out, "--quiet") == 3
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad ")
    assert "unknown field 'bogus'" in err[0]
    assert not out.exists()


MEASUREMENT_ARRAYS = ("tracks", "flows", "double_flows", "gyro", "accel",
                      "torque", "inertia")
FRAME_ARRAYS = ("R", "T", "dT", "ddT", "omega", "domega")
NOISE_FIELDS = ("gyro_std", "accel_std", "image_rel_std", "seed")
REQUIRED_KEYS = ([("schema_version",), ("t_s",), ("trajectory",),
                  ("measurements",), ("noise_spec",), ("seed",),
                  ("gravity",), ("scene",), ("noise_spec", "seed")]
                 + [("measurements", k) for k in MEASUREMENT_ARRAYS[:5]])
BAD_LEAVES = [math.nan, math.inf, -math.inf, "0.5", True, None]
BAD_SCALARS = ["0.03", True, False, None, [1.0], {}]


def _leaf_path(draw, value):
    """Indices from an array down to one number in it."""
    path = []
    while isinstance(value, list):
        i = draw(st.integers(0, len(value) - 1))
        path.append(i)
        value = value[i]
    return path


def _array_entry(draw, doc):
    """(the object holding it, its key) of one array of the dataset
    document: a measurement, the scene, gravity or a field of one
    trajectory frame."""
    where = draw(st.sampled_from(["measurements", "trajectory", "scene",
                                  "gravity"]))
    if where == "measurements":
        return doc[where], draw(st.sampled_from(MEASUREMENT_ARRAYS))
    if where == "trajectory":
        return (draw(st.sampled_from(doc[where])),
                draw(st.sampled_from(FRAME_ARRAYS)))
    return doc, where


def _mutate(draw, doc):
    """Apply one drawn invalidating edit to the dataset document."""
    meas = doc["measurements"]
    kind = draw(st.sampled_from(["bad_leaf", "truncate", "ragged",
                                 "drop_key", "t_s", "wrong_type",
                                 "gyro_length", "nest"]))
    holder, name = _array_entry(draw, doc)
    array = holder[name]
    if kind == "bad_leaf":
        *head, last = _leaf_path(draw, array)
        for i in head:
            array = array[i]
        array[last] = draw(st.sampled_from(BAD_LEAVES))
    elif kind == "truncate":
        holder[name] = array[:draw(st.integers(0, len(array) - 1))]
    elif kind == "ragged" and isinstance(array[0], list):
        row = array[draw(st.integers(0, len(array) - 1))]
        del row[draw(st.integers(0, len(row) - 1)):]
    elif kind == "ragged":
        array.append(array[0])
    elif kind == "drop_key":
        *head, last = draw(st.sampled_from(REQUIRED_KEYS))
        target = doc
        for key in head:
            target = target[key]
        del target[last]
    elif kind == "t_s":
        doc["t_s"] = draw(st.one_of(st.floats(max_value=0.0),
                                    st.sampled_from([math.nan, math.inf])))
    elif kind == "wrong_type":
        name = draw(st.sampled_from(["t_s", "seed", *NOISE_FIELDS]))
        holder = doc["noise_spec"] if name in NOISE_FIELDS else doc
        holder[name] = draw(st.sampled_from(BAD_SCALARS))
    elif kind == "nest":
        # json.dumps cannot write past ~1000 levels; the 100000-deep
        # document has its own subprocess test
        outer, key = holder, name
        if isinstance(array[0], list) and draw(st.booleans()):
            outer, key = array, draw(st.integers(0, len(array) - 1))
        for _ in range(draw(st.integers(1, 50))):
            outer[key] = [outer[key]]
    else:
        F = len(meas["gyro"])
        n = draw(st.integers(0, 2 * F).filter(lambda n: n != F))
        meas["gyro"] = (meas["gyro"] * 2)[:n]
    return f"{kind} {name}"


@settings(max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_solve_rejects_every_invalid_dataset(data, tmp_path, capfd):
    # the CLI contract: an invalid dataset exits with exactly one error
    # line, never 1 with a traceback; solve exits 2, 3 or 4, and eval 3
    # for a bad document or 5 for invalid measurements
    command = data.draw(st.sampled_from(["solve", "eval"]))
    doc = _one_second_dataset_doc()
    note(f"{command}: {_mutate(data.draw, doc)}")
    code, err, written = _solve_doc(doc, tmp_path, capfd, command)
    assert code in {"solve": (2, 3, 4), "eval": (3, 5)}[command]
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not written


@pytest.mark.parametrize("path, value", [
    (("measurements", "gyro", 3, 1), math.nan),
    (("measurements", "accel", 7, 1), math.inf),
    (("t_s",), math.nan), (("measurements", "gyro", 3, 1), 1e300)],
    ids=["nan-gyro", "inf-accel", "nan-t_s", "huge-gyro"])
def test_eval_exit_code_on_invalid_measurements(path, value, tmp_path,
                                                capfd):
    # eval dead-reckons the measurements it reads, so it validates them:
    # exit 5 with one error line, not a traceback when the CSV is written
    doc = _one_second_dataset_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    code, err, written = _solve_doc(doc, tmp_path, capfd, "eval")
    assert code == 5
    assert len(err) == 1 and err[0].startswith("error: evaluation failed: ")
    assert not written


@functools.cache
def _one_second_config_doc():
    """The run config of _one_second_dataset_doc, as a JSON document."""
    cfg = reference_noise_config(seed=0)
    cfg.duration = 1.0
    cfg.points = 8
    return json.loads(jsonio.dumps(config_to_dict(cfg)))


@functools.cache
def _one_second_reconstruction_doc():
    """A valid reconstruction document of _one_second_dataset_doc."""
    ds = jsonio.dataset_from_dict(_one_second_dataset_doc())
    recon = reconstruct(ds.measurements)
    return json.loads(jsonio.dumps(jsonio.reconstruction_to_dict(recon)))


NOT_OBJECTS = [[], [1], "x", 3, None]
BAD_NUMBERS = ["abc", "1e8", True, [1.0], None, {}, math.nan, math.inf,
               -math.inf, -1.0]
BAD_MODES = ["bogus", 3, None, ["auto"]]
BAD_FILTERS = [[2], [2, 5, 7], ["a", 5], [2, 4], [5, 5], [0, 3], 7, None,
               [2.5, 5]]
RECON_ARRAYS = ("rotations", "tau", "nu", "gravity", "structure")
TYPO_OPTION = "lamda_R"   # a valid value under a misspelled key


def _bad_options(draw):
    """A solver-options document with one invalid entry."""
    key = draw(st.sampled_from(["lambda_R", "lambda_tau", "lambda_nu",
                                "omega_dot_mode", "reflection_resolution",
                                "omega_dot_filter", "reg_filter",
                                TYPO_OPTION]))
    if key == TYPO_OPTION:
        return {key: 1e8}
    pool = (BAD_NUMBERS if key.startswith("lambda") else
            BAD_FILTERS if key.endswith("filter") else BAD_MODES)
    return {key: draw(st.sampled_from(pool))}


def _bad_config(draw):
    doc = copy.deepcopy(_one_second_config_doc())
    key, pool = draw(st.sampled_from([
        ("duration", BAD_NUMBERS), ("t_s", BAD_NUMBERS),
        ("extent", BAD_NUMBERS), ("amp_trans", BAD_NUMBERS),
        ("amp_rot", BAD_NUMBERS),
        ("points", [2, "x", "8", None, math.nan, [8], 8.7]),
        ("seed", [-1, "x", None, 3.9]), ("flow_mode", ["bogus", 3]),
        ("noise", ["x", 5, {"gyro_std": -1.0}, {"seed": -3}, {"oops": 1},
                   {"accel_std": math.nan}, {"seed": 3.9},
                   {"gyro_std": "0.1"}]),
        ("flow_filter", [{"order": 2}, 7, {"order": 2, "window": 4},
                         {"order": 2, "window": 5, "x": 1},
                         {"order": 2, "window": 5.5}]),
        ("solver", [5, "solver"]), ("schema_version", [99]),
        ("typo_field", [1])]))
    doc[key] = draw(st.sampled_from(pool))
    if key == "solver" and draw(st.booleans()):
        doc[key] = _bad_options(draw)
    return doc


def _bad_reconstruction(draw):
    doc = copy.deepcopy(_one_second_reconstruction_doc())
    kind = draw(st.sampled_from(["non_finite", "truncate", "ragged",
                                 "drop_key", "wrong_type", "options"]))
    name = draw(st.sampled_from(RECON_ARRAYS))
    if kind == "non_finite":
        *head, last = _leaf_path(draw, doc[name])
        target = doc[name]
        for i in head:
            target = target[i]
        target[last] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "truncate":
        doc[name] = doc[name][:draw(st.integers(0, len(doc[name]) - 1))]
    elif kind == "ragged" and name != "gravity":
        row = doc[name][draw(st.integers(0, len(doc[name]) - 1))]
        del row[draw(st.integers(0, len(row) - 1)):]
    elif kind == "ragged":
        doc[name].append([1.0])
    elif kind == "drop_key":
        del doc[draw(st.sampled_from(RECON_ARRAYS + ("residuals", "options")))]
    elif kind == "wrong_type":
        key = draw(st.sampled_from(RECON_ARRAYS + ("residuals", "options")))
        doc[key] = draw(st.sampled_from(["abc", 5, None]))
    else:
        doc["options"] = _bad_options(draw)
    return doc


def _bad_sweep(draw):
    key = draw(st.sampled_from(["seeds", "noise_scales", "oops"]))
    pool = {"seeds": ["ab", 5, None, [], [-1], ["x"], [[1]], [3.9], [True]],
            "noise_scales": ["ab", 5, None, [], [-1.0], [math.nan],
                             [math.inf], ["x"], ["0.5"]],
            "oops": [1]}[key]
    return {key: draw(st.sampled_from(pool))}


# document kind -> (draw an invalid document, CLI arguments given its
# path, the exit codes allowed)
INVALID_DOCUMENTS = {
    "config": (_bad_config, lambda path: ["simulate", "--config", path],
               (2,)),
    "options": (_bad_options, lambda path: ["solve", "--options", path],
                (2,)),
    "reconstruction": (_bad_reconstruction,
                       lambda path: ["eval", "--recon", path], (3, 5)),
    "sweep": (_bad_sweep, lambda path: ["sweep", "--sweep", path], (2,)),
}


@settings(max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_rejects_every_invalid_document(data, tmp_path, capfd):
    # the CLI contract for the other input documents: an invalid config,
    # solver options, reconstruction or sweep spec exits 2, 3 or 5 with
    # exactly one error line, never 1 with a traceback
    kind = data.draw(st.sampled_from(sorted(INVALID_DOCUMENTS)))
    make, command, codes = INVALID_DOCUMENTS[kind]
    if data.draw(st.integers(0, 4)) == 0:
        doc = data.draw(st.sampled_from(NOT_OBJECTS))
    else:
        doc = make(data.draw)
    note(f"{kind}: {doc!r}"[:300])
    paths = {name: tmp_path / f"{name}.json"
             for name in ("doc", "dataset", "config")}
    paths["doc"].write_text(json.dumps(doc))
    paths["dataset"].write_text(json.dumps(_one_second_dataset_doc()))
    paths["config"].write_text(json.dumps(_one_second_config_doc()))
    args = command(paths["doc"])
    if kind in ("options", "reconstruction"):
        args += ["--dataset", paths["dataset"]]
    if kind == "sweep":
        args += ["--config", paths["config"]]
    out = tmp_path / "out"
    capfd.readouterr()
    code = run_cli(*args, "--out", out, "--quiet")
    err = capfd.readouterr().err.splitlines()
    assert code in codes
    assert len(err) == 1 and err[0].startswith("error: ")
    if TYPO_OPTION in json.dumps(doc):
        assert repr(TYPO_OPTION) in err[0]
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("points", 8.7), ("seed", 3.9), ("solver", {"lambda_R": "1e8"}),
    ("noise", {"seed": 2.5}), ("flow_filter", {"order": 2, "window": 5.5}),
    ("duration", "5")],
    ids=["fractional-points", "fractional-seed", "string-lambda",
         "fractional-noise-seed", "fractional-window", "string-duration"])
def test_pipeline_rejects_value_it_would_coerce(key, value, tmp_path, capfd):
    # truncating 8.7 points to 8 or parsing "1e8" would run a study other
    # than the one the document describes
    doc = dict(_one_second_config_doc(), **{key: value})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    capfd.readouterr()
    code = run_cli("pipeline", "--config", path, "--out", out, "--quiet")
    err = capfd.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
    assert not out.exists()


def _error_run(*args, capfd):
    """Exit code and stderr lines of one in-process CLI run."""
    capfd.readouterr()
    code = run_cli(*args)
    return code, capfd.readouterr().err.splitlines()


def test_example_config_unwritable_out_is_io_error(tmp_path, capfd):
    # the parent of --out is a regular file
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, err = _error_run("example-config", "--out", blocker / "cfg.json",
                           capfd=capfd)
    assert code == 3
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_seed_override_reseeds_the_noise(command, tmp_path):
    # --seed N runs the config as sweep runs seed N, its noise drawn with
    # seed N + NOISE_SEED_OFFSET, so it writes the dataset of the config
    # that holds seed N
    datasets = []
    for seed, override in ((0, ["--seed", 3]), (3, [])):
        path = tmp_path / f"config{seed}.json"
        jsonio.write_json(path, config_to_dict(reference_noise_config(seed)))
        out = tmp_path / f"out{seed}"
        assert run_cli(command, "--config", path, "--out", out, *override,
                       "--quiet") == 0
        datasets.append((out / "dataset.json" if command == "pipeline"
                         else out).read_bytes())
    assert datasets[0] == datasets[1]


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_negative_seed_override_is_config_error(command, small_cfg_path,
                                                tmp_path, capfd):
    out = tmp_path / "out"
    code, err = _error_run(command, "--config", small_cfg_path, "--out", out,
                           "--seed", -1, "--quiet", capfd=capfd)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and "seed" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "pipeline", "sweep"])
def test_flow_window_longer_than_run_is_config_error(command, tmp_path,
                                                     capfd):
    # 5 s at 30 Hz is 150 frames, too few for a 301-tap numeric flow filter
    doc = dict(_one_second_config_doc(), duration=5.0,
               flow_filter={"order": 2, "window": 301})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"seeds": [0, 1]}))
    extra = ["--sweep", spec] if command == "sweep" else []
    out = tmp_path / "out"
    code, err = _error_run(command, "--config", path, *extra, "--out", out,
                           "--quiet", capfd=capfd)
    assert code == 2
    assert (len(err) == 1 and err[0].startswith("error: ")
            and "flow_filter" in err[0])
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("t_s", 5e-324), ("solver", {"reg_filter": [1, 31]}),
    ("schema_version", True), ("schema_version", "1")],
    ids=["t_s-overflows-frame-count", "reg-window-longer-than-run",
         "boolean-schema-version", "string-schema-version"])
def test_pipeline_rejects_config_out_of_range(key, value, tmp_path, capfd):
    # duration / t_s overflows to inf; a 31-tap regularizer filter has no
    # center in 30 frames, so no regularizer row would be built; True and
    # "1" are not the schema version 1
    doc = dict(_one_second_config_doc(), **{key: value})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, err = _error_run("pipeline", "--config", path, "--out", out,
                           "--quiet", capfd=capfd)
    assert code == 2
    name = "reg_filter" if key == "solver" else key
    assert len(err) == 1 and err[0].startswith("error: ") and name in err[0]
    assert not out.exists()


@pytest.mark.parametrize("mode, expected", [("numeric", 2), ("auto", 0)])
def test_pipeline_omega_dot_window_longer_than_run(mode, expected, tmp_path,
                                                   capfd):
    # 1 s at 30 Hz is 30 frames, too few for a 31-tap numeric omega-dot
    # filter; in auto mode the simulated dataset carries torque, so the
    # Euler equation gives omega-dot and the filter is never applied
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "schema_version": 1, "duration": 1.0,
        "solver": {"omega_dot_mode": mode, "omega_dot_filter": [2, 31]}}))
    out = tmp_path / "out"
    code, err = _error_run("pipeline", "--config", path, "--out", out,
                           "--quiet", capfd=capfd)
    assert code == expected
    if expected:
        assert (len(err) == 1 and err[0].startswith("error: ")
                and "solver.omega_dot_filter" in err[0])
        assert not out.exists()


@pytest.mark.parametrize("flow_mode", ["analytic", "numeric"])
def test_flow_filter_order_above_bound_is_config_error(flow_mode, tmp_path,
                                                       capfd):
    # order 150 once reached LAPACK, which failed with a traceback (and
    # DLASCL noise on stderr); 40 s at 30 Hz is long enough for the window
    doc = dict(_one_second_config_doc(), duration=40.0, flow_mode=flow_mode,
               flow_filter={"order": 150, "window": 1001})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, err = _error_run("pipeline", "--config", path, "--out", out,
                           "--quiet", capfd=capfd)
    assert code == 2
    assert (len(err) == 1 and err[0].startswith("error: ")
            and "flow_filter" in err[0] and "order <= 10" in err[0])
    assert not out.exists()


@pytest.mark.parametrize("mode, expected", [("numeric", 4), ("auto", 0)])
def test_solve_builds_no_omega_dot_filter_it_cannot_apply(mode, expected,
                                                          tmp_path, capfd):
    # a 100001-tap window is checked against the 30 frames before any
    # filter is built; auto mode uses the dataset's torque and builds none
    paths = {name: tmp_path / f"{name}.json"
             for name in ("dataset", "options")}
    paths["dataset"].write_text(json.dumps(_one_second_dataset_doc()))
    paths["options"].write_text(json.dumps(
        {"omega_dot_mode": mode, "omega_dot_filter": [2, 100001]}))
    out = tmp_path / "r.json"
    tracemalloc.start()
    try:
        code, err = _error_run("solve", "--dataset", paths["dataset"],
                               "--options", paths["options"], "--out", out,
                               "--quiet", capfd=capfd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == expected
    assert peak < 2e6
    if expected:
        assert (len(err) == 1 and err[0].startswith("error: ")
                and "[omega_dot]" in err[0] and "omega_dot_filter" in err[0])
        assert not out.exists()


def test_solve_reg_window_longer_than_run_is_solver_error(tmp_path, capfd):
    # the 1 s dataset has 30 frames, too few for a 31-tap regularizer filter
    paths = {name: tmp_path / f"{name}.json"
             for name in ("dataset", "options")}
    paths["dataset"].write_text(json.dumps(_one_second_dataset_doc()))
    paths["options"].write_text(json.dumps({"reg_filter": [1, 31]}))
    out = tmp_path / "r.json"
    code, err = _error_run("solve", "--dataset", paths["dataset"],
                           "--options", paths["options"], "--out", out,
                           "--quiet", capfd=capfd)
    assert code == 4
    assert (len(err) == 1 and err[0].startswith("error: ")
            and "[recover_translations]" in err[0])
    assert not out.exists()


def test_sweep_unwritable_out_is_io_error(small_cfg_path, tmp_path, capfd):
    # the parent of --out is a regular file
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"seeds": [0]}))
    code, err = _error_run("sweep", "--config", small_cfg_path, "--sweep",
                           spec, "--out", blocker / "out", "--quiet",
                           capfd=capfd)
    assert code == 3
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("spec", [
    {"seeds": [3.9, True], "noise_scales": ["0.5"]}, {"seeds": [True]},
    {"noise_scales": ["0.5"]}],
    ids=["all", "boolean-seed", "string-scale"])
def test_sweep_rejects_value_it_would_coerce(spec, small_cfg_path, tmp_path,
                                             capfd):
    # int(3.9), int(True) and float("0.5") would sweep seeds 3 and 1 and
    # scale 0.5, a study other than the one the document describes
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    code, err = _error_run("sweep", "--config", small_cfg_path, "--sweep",
                           path, "--out", out, "--quiet", capfd=capfd)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("spec, field", [
    ({"seeds": 5}, "seeds"), ({"noise_scales": 0.5}, "noise_scales")])
def test_sweep_names_field_of_wrong_type(spec, field, small_cfg_path,
                                         tmp_path, capfd):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    code, err = _error_run("sweep", "--config", small_cfg_path, "--sweep",
                           path, "--out", tmp_path / "out", "--quiet",
                           capfd=capfd)
    assert code == 2
    assert len(err) == 1 and f"{field}: must be a list" in err[0]


def test_so3_calls_do_not_grow_with_frames(monkeypatch):
    # generate_trajectory and the CLI's evaluation outputs take whole
    # stacks: a per-frame loop over so3 would show as calls growing with F
    from dynsfm import cli, so3
    counts = {}

    def counted(name):
        fn = getattr(so3, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    calls = []
    for frames in (30, 300):
        cfg = reference_config(seed=2)
        cfg.duration = frames * cfg.t_s
        cfg.points = 8
        with monkeypatch.context() as patch:
            for name in ("exp_so3", "right_jacobian", "rotation_vector"):
                patch.setattr(so3, name, counted(name))
            counts.clear()
            dataset = make_dataset(cfg)
            simulated = dict(counts)
            recon = reconstruct(dataset.measurements)
            counts.clear()
            cli._eval_outputs(recon, dataset)
            calls.append((simulated, dict(counts)))
        assert dataset.trajectory.n_frames == frames
    assert calls[0] == calls[1]
    assert calls[0][1]["rotation_vector"] == 2


@pytest.mark.parametrize("noisy, fits", [(True, 3), (False, 1)])
def test_pipeline_fits_only_the_filters_it_applies(noisy, fits, monkeypatch,
                                                   tmp_path):
    # numeric flows fit their two filters, analytic flows none; the
    # simulated run carries torque, so auto omega-dot uses the Euler
    # equation and fits nothing; the translation regularizer fits one
    cfg = reference_noise_config(seed=0) if noisy else reference_config(seed=0)
    path = tmp_path / "config.json"
    jsonio.write_json(path, config_to_dict(cfg))
    calls = []
    pinv = np.linalg.pinv

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return pinv(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "pinv", counted)
    assert run_cli("pipeline", "--config", path, "--out", tmp_path / "out",
                   "--quiet") == 0
    assert len(calls) == fits


def test_import_and_solve_leave_scipy_unloaded():
    # scipy is a test-only extra; importing it alone costs ~0.4 s of start-up
    import dynsfm
    code = ("import sys\n"
            "import dynsfm\n"
            "ds = dynsfm.simulate_dataset(duration=1.0, t_s=1 / 30,"
            " n_points=8, extent=2.0, amp_trans=0.35, amp_rot=0.5, seed=0)\n"
            "dynsfm.reconstruct(ds.measurements)\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(dynsfm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_eval_exit_code_on_mismatch(small_cfg_path, tmp_path):
    ds_path = tmp_path / "dataset.json"
    rec_path = tmp_path / "recon.json"
    run_cli("simulate", "--config", small_cfg_path, "--out", ds_path,
            "--quiet")
    run_cli("solve", "--dataset", ds_path, "--out", rec_path, "--quiet")
    rec = jsonio.read_json(rec_path)
    rec["structure"] = rec["structure"][:4]  # drop points
    jsonio.write_json(rec_path, rec)
    assert run_cli("eval", "--recon", rec_path, "--dataset", ds_path,
                   "--out", tmp_path / "e") == 5


def test_eval_self_evaluation_of_truth(small_cfg_path, tmp_path):
    # hand-pack a reconstruction from the ground truth: all errors vanish
    from dynsfm.simulate import body_translation, body_velocity
    from dynsfm.solver import Reconstruction, SolverOptions
    ds_path = tmp_path / "dataset.json"
    run_cli("simulate", "--config", small_cfg_path, "--out", ds_path,
            "--quiet")
    ds = jsonio.dataset_from_dict(jsonio.read_json(ds_path))
    recon = Reconstruction(
        rotations=ds.trajectory.rotations,
        tau=body_translation(ds.trajectory),
        nu=body_velocity(ds.trajectory),
        gravity=ds.gravity,
        structure=ds.scene.points,
        residuals={"sigma_ratio": 0.0, "rotation_lsq": 0.0,
                   "translation_lsq": 0.0},
        options=SolverOptions())
    rec_path = tmp_path / "truth.json"
    jsonio.write_json(rec_path, jsonio.reconstruction_to_dict(recon))
    out = tmp_path / "e"
    assert run_cli("eval", "--recon", rec_path, "--dataset", ds_path,
                   "--out", out, "--quiet") == 0
    report = jsonio.read_json(out / "report.json")
    assert report["struct_rmse"] < 1e-12
    assert report["trans_rmse"] < 1e-12
    traj_csv = (out / "trajectory.csv").read_text().splitlines()
    header = traj_csv[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in traj_csv[1:]])
    cols = {name: i for i, name in enumerate(header)}
    for axis in "xyz":
        diff = (rows[:, cols[f"gt_T_{axis}"]]
                - rows[:, cols[f"est_T_{axis}"]])
        assert np.abs(diff).max() < 1e-12


def test_eval_writes_rotation_near_pi(small_cfg_path, tmp_path):
    # evaluate succeeds, so the trajectory CSV must not refuse a frame whose
    # aligned rotation lies within ~1e-3 of pi
    from dynsfm import so3
    from dynsfm.evaluate import evaluate
    ds_path, rec_path = tmp_path / "dataset.json", tmp_path / "recon.json"
    run_cli("simulate", "--config", small_cfg_path, "--out", ds_path,
            "--quiet")
    run_cli("solve", "--dataset", ds_path, "--out", rec_path, "--quiet")
    ds = jsonio.dataset_from_dict(jsonio.read_json(ds_path))
    recon = jsonio.reconstruction_from_dict(jsonio.read_json(rec_path))
    align = evaluate(recon, ds.trajectory, ds.scene, ds.gravity).alignment
    target = so3.exp_so3([np.pi - 1e-4, 0.0, 0.0])
    recon.rotations[10] = align.rotation.T @ target
    jsonio.write_json(rec_path, jsonio.reconstruction_to_dict(recon))
    out = tmp_path / "e"
    assert run_cli("eval", "--recon", rec_path, "--dataset", ds_path,
                   "--out", out, "--quiet") == 0
    assert (out / "report.json").exists()
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    est = rows[:, [header.index(f"est_logR_{a}") for a in "xyz"]]
    aligned = align.rotation @ recon.rotations
    assert np.abs(so3.exp_so3(est[10]) - aligned[10]).max() < 1e-9
    assert np.array_equal(np.delete(est, 10, axis=0),
                          so3.rotation_vector(np.delete(aligned, 10, axis=0)))


def test_pipeline_under_time_budget(reference_cfg_path, tmp_path):
    start = time.monotonic()
    out = tmp_path / "run"
    assert run_cli("pipeline", "--config", reference_cfg_path, "--out", out,
                   "--quiet") == 0
    assert time.monotonic() - start < 60.0
    for name in ("dataset.json", "reconstruction.json", "report.json",
                 "trajectory.csv", "structure.csv"):
        assert (out / name).exists()


def test_sweep_zero_noise(small_cfg_path, tmp_path):
    spec = tmp_path / "sweep.json"
    jsonio.write_json(spec, {"seeds": [0, 1], "noise_scales": [0.0]})
    out = tmp_path / "sweep_out"
    assert run_cli("sweep", "--config", small_cfg_path, "--sweep", spec,
                   "--out", out, "--quiet") == 0
    lines = (out / "aggregate.csv").read_text().splitlines()
    assert len(lines) == 3  # header + 2 runs
    header = lines[0].split(",")
    cols = {name: i for i, name in enumerate(header)}
    for line in lines[1:]:
        vals = line.split(",")
        assert vals[cols["status"]] == "ok"
        # zero-noise runs sit at the 30 Hz discretization floor, orders of
        # magnitude below any dead-reckoning drift
        assert float(vals[cols["trans_rmse"]]) <= 1e-4
        assert (float(vals[cols["trans_rmse"]])
                < 0.01 * max(float(vals[cols["dr_terminal_rmse"]]), 1e-12)
                or float(vals[cols["dr_terminal_rmse"]]) < 1e-6)


def test_sweep_writes_mixed_ok_and_failed_rows(small_cfg_path, tmp_path,
                                               monkeypatch):
    # the second run fails: its row keeps seed, scale and status and
    # leaves the rest empty; every row prints as the row-by-row writer
    calls, tables = [], []

    def flaky(*args):
        calls.append(args)
        if len(calls) == 2:
            raise NumericalFailure("[recover_translations] non-finite result")
        return reconstruct(*args)

    def spy(path, header, rows):
        tables.append((header, rows))
        return write_csv(path, header, rows)

    write_csv = jsonio.write_csv
    monkeypatch.setattr(cli, "reconstruct", flaky)
    monkeypatch.setattr(jsonio, "write_csv", spy)
    spec, out = tmp_path / "sweep.json", tmp_path / "sweep_out"
    jsonio.write_json(spec, {"seeds": [0, 1, 2], "noise_scales": [0.5]})
    assert run_cli("sweep", "--config", small_cfg_path, "--sweep", spec,
                   "--out", out, "--quiet") == 0
    text = (out / "aggregate.csv").read_text()
    [(header, rows)] = tables
    assert header == SWEEP_HEADER
    assert [row[2] for row in rows] == ["ok", "failed", "ok"]
    assert text.splitlines()[2] == "1,0.5,failed" + "," * 9
    assert text == csv_text(header, rows)


def test_sweep_rejects_unknown_field(small_cfg_path, tmp_path):
    spec = tmp_path / "sweep.json"
    jsonio.write_json(spec, {"seeds": [0], "oops": 1})
    assert run_cli("sweep", "--config", small_cfg_path, "--sweep", spec,
                   "--out", tmp_path / "s") == 2


def test_sweep_noise_monotonicity(tmp_path):
    # median translation RMSE is nondecreasing in the noise multiplier
    cfg = reference_noise_config(seed=0)
    cfg.duration = 2.0
    cfg.points = 12
    cfg_path = tmp_path / "cfg.json"
    jsonio.write_json(cfg_path, config_to_dict(cfg))
    spec = tmp_path / "sweep.json"
    jsonio.write_json(spec, {"seeds": [0, 1, 2, 3, 4],
                             "noise_scales": [0.0, 0.5, 1.0, 2.0]})
    out = tmp_path / "sweep_out"
    assert run_cli("sweep", "--config", cfg_path, "--sweep", spec,
                   "--out", out, "--quiet") == 0
    lines = (out / "aggregate.csv").read_text().splitlines()
    header = lines[0].split(",")
    cols = {name: i for i, name in enumerate(header)}
    by_scale = {}
    for line in lines[1:]:
        vals = line.split(",")
        assert vals[cols["status"]] == "ok"
        by_scale.setdefault(float(vals[cols["noise_scale"]]), []).append(
            float(vals[cols["trans_rmse"]]))
    scales = sorted(by_scale)
    medians = [np.median(by_scale[s]) for s in scales]
    assert all(m2 >= m1 for m1, m2 in zip(medians, medians[1:]))


def test_module_entry_point(small_cfg_path, tmp_path):
    # python -m dynsfm works as the documented invocation
    out = tmp_path / "d.json"
    proc = subprocess.run(
        [sys.executable, "-m", "dynsfm", "simulate", "--config",
         str(small_cfg_path), "--out", str(out), "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()



def test_main_builds_one_parser_and_dispatches_by_name(small_cfg_path,
                                                       tmp_path, monkeypatch):
    # the parser is built once per process, and each call looks its command
    # up by name, so a cmd_* rebound after the first call is the one run
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        ds = tmp_path / "d.json"
        assert run_cli("simulate", "--config", small_cfg_path, "--out", ds,
                       "--quiet") == 0
        solved = []
        monkeypatch.setattr(cli, "cmd_solve",
                            lambda args: solved.append(args.dataset) or 7)
        assert run_cli("solve", "--dataset", ds, "--out",
                       tmp_path / "r.json") == 7
    finally:
        cli.build_parser.cache_clear()
    assert solved == [str(ds)]
    assert not (tmp_path / "r.json").exists()
    assert built.count("dynsfm") == 1


def test_seed_flag_reads_the_same_in_every_subcommand(capsys):
    # --seed is declared once: its --help line is the same in simulate and
    # pipeline, the two subcommands that take it
    lines = []
    for command in ("simulate", "pipeline"):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        lines += [line for line in capsys.readouterr().out.splitlines()
                  if line.lstrip().startswith("--seed")]
    assert lines == ["  --seed SEED      override the config seed"] * 2

@settings(max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_rejects_run_above_size_budget(data, tmp_path, capfd):
    # a finite but huge duration or point count exits 2 naming the fields,
    # before the simulation allocates anything to match
    t_s = data.draw(st.sampled_from([1 / 30, 1 / 200, 1e-3, 1e-6]))
    if data.draw(st.booleans()):
        frames = data.draw(st.integers(MAX_FRAMES + 2, 10 ** 15))
        points = data.draw(st.integers(4, 10 ** 6))
    else:
        frames = data.draw(st.integers(3, MAX_FRAMES))
        points = data.draw(st.integers(MAX_W_BYTES // (48 * (frames - 1)) + 1,
                                       10 ** 15))
    command = data.draw(st.sampled_from(["simulate", "pipeline", "sweep"]))
    doc = dict(_one_second_config_doc(), duration=frames * t_s, t_s=t_s,
               points=points)
    note(f"{command}: {frames} frames, {points} points")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"seeds": [0, 1]}))
    extra = ["--sweep", spec] if command == "sweep" else []
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code, err = _error_run(command, "--config", path, *extra, "--out",
                               out, "--quiet", capfd=capfd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert (len(err) == 1 and err[0].startswith("error: ")
            and "duration/t_s" in err[0])
    assert peak < 1e6
    assert not out.exists()
