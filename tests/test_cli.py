import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dynsfm import jsonio
from dynsfm.cli import main
from dynsfm.config import config_to_dict, reference_config, reference_noise_config


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
