"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them).

A1  noiseless exact recovery at reference scale (5 s, 30 Hz, 24 points)
A2  factorization identity with ground-truth factors
A3  vision+IMU beats IMU dead reckoning at the reported noise point
A4  depth-axis error dominance at the same noise point
A5  derivative-filter exactness
A6  rotation exp/log and nearest-rotation projection
A7  metric upgrade on constructed and pipeline instances
A8  determinism and gauge invariance
"""

import math
import time

import numpy as np

import dynsfm
from dynsfm import jsonio, so3
from dynsfm.cli import main as cli_main
from dynsfm.config import config_to_dict, reference_config
from dynsfm.derivatives import differentiate_series, savgol_filter
from dynsfm.simulate import synthesize_images, synthesize_imu
from dynsfm.solver import assemble_W, metric_upgrade, reconstruct

from conftest import random_rotation
from test_solver import _transformed_dataset, ground_truth_factors


def check(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def test_a1_noiseless_exact_recovery(reference_dataset):
    ds = reference_dataset
    start = time.monotonic()
    recon = reconstruct(ds.measurements)
    elapsed = time.monotonic() - start
    report = dynsfm.evaluate(recon, ds.trajectory, ds.scene, ds.gravity)
    sigma = recon.residuals["sigma_ratio"]
    ok = (report.struct_rmse < 1e-11 and report.rot_err_mean < 1e-10
          and report.gravity_angle_err < 1e-6 and sigma < 1e-8
          and elapsed < 10.0)
    check("A1", ok,
          f"struct_rmse={report.struct_rmse:.2e} (<1e-11), "
          f"rot_err_mean={report.rot_err_mean:.2e} (<1e-10), "
          f"gravity_angle={report.gravity_angle_err:.2e} (<1e-6), "
          f"sigma5/sigma4={sigma:.2e} (<1e-8), runtime={elapsed:.1f}s (<10s)")


def test_a2_factorization_identity(reference_dataset):
    W = assemble_W(reference_dataset.measurements)
    C, M, S, m = ground_truth_factors(reference_dataset)
    P = W.shape[1]
    rel = (np.linalg.norm(W - (C @ M @ S + np.outer(m, np.ones(P))))
           / np.linalg.norm(W))
    check("A2", rel < 1e-12, f"|W - (CMS + m 1^T)|/|W| = {rel:.2e} (<1e-12)")


def test_a3_beats_dead_reckoning(noise_sweep):
    wins = sum(1 for report, dr_rmse in noise_sweep
               if report.trans_rmse < dr_rmse)
    ours = np.median([r.trans_rmse for r, _ in noise_sweep])
    dr = np.median([d for _, d in noise_sweep])
    check("A3", wins >= 18,
          f"vision+IMU beats dead reckoning in {wins}/20 runs (need >=18); "
          f"median RMSE ours={ours:.3f} m vs dead reckoning={dr:.3f} m")


def test_a4_depth_axis_dominance(noise_sweep):
    wins = sum(1 for report, _ in noise_sweep
               if report.per_axis_err[2] >= report.per_axis_err[:2].max())
    med = np.median([r.per_axis_err for r, _ in noise_sweep], axis=0)
    check("A4", wins >= 14,
          f"camera-z error dominates laterals in {wins}/20 runs (need >=14); "
          f"median per-axis = ({med[0]:.3f}, {med[1]:.3f}, {med[2]:.3f}) m")


def test_a5_differentiation_exactness():
    taps = savgol_filter(1, 3, 1).taps
    k = np.arange(3) - 1
    oracle = k / (k @ k)  # closed-form least-squares line fit
    taps_ok = np.allclose(taps, [-0.5, 0.0, 0.5], atol=1e-15) and \
        np.allclose(taps, oracle, atol=1e-15)
    worst = 0.0
    rng = np.random.default_rng(0)
    for order, window, deriv in [(1, 3, 1), (2, 5, 1), (2, 5, 2), (3, 7, 2)]:
        filt = savgol_filter(order, window, deriv)
        coeffs = rng.normal(size=order + 1)
        t_s = 0.05
        t = np.arange(30) * t_s
        series = sum(c * t ** j for j, c in enumerate(coeffs))
        expected = sum(
            c * math.factorial(j) / math.factorial(j - deriv)
            * t ** (j - deriv)
            for j, c in enumerate(coeffs) if j >= deriv)
        out = differentiate_series(series, t_s, filt)
        scale = max(1.0, np.abs(expected).max())
        worst = max(worst, np.abs(out - expected).max() / scale)
    check("A5", taps_ok and worst < 1e-10,
          f"SG(1,3,1) taps = [-1/2, 0, 1/2] ({taps_ok}); max polynomial "
          f"reproduction error {worst:.2e} (<1e-10)")


def test_a6_rotation_suite():
    rng = np.random.default_rng(1)
    worst_rt = 0.0
    for _ in range(10_000):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0.0, np.pi - 1e-3)
        worst_rt = max(worst_rt,
                       np.linalg.norm(so3.rotation_vector(so3.exp_so3(v)) - v))
    beaten = True
    trials = 0
    for _ in range(20):
        A = rng.normal(size=(3, 3)) + np.eye(3)
        R = so3.project_to_so3(A)
        d = np.linalg.norm(A - R)
        for _ in range(1000):
            trials += 1
            if d > np.linalg.norm(A - random_rotation(rng)) + 1e-12:
                beaten = False
    check("A6", worst_rt < 1e-10 and beaten,
          f"worst exp/log roundtrip over 1e4 draws {worst_rt:.2e} (<1e-10); "
          f"projection beat all {trials} random rotation candidates "
          f"({beaten})")


def test_a7_metric_upgrade(fine_noiseless_stages):
    # constructed oracle: blocks R_f^T K satisfy the orthonormality
    # equations exactly for Q = (K^T K)^-1
    rng = np.random.default_rng(2)
    worst_q = 0.0
    for _ in range(5):
        K = rng.normal(size=(3, 3))
        u, _, vt = np.linalg.svd(K)
        K = u @ np.diag(np.linspace(1.0, 4.0, 3)) @ vt
        blocks = [random_rotation(rng).T @ K for _ in range(12)]
        K_upg, _ = metric_upgrade(np.concatenate(blocks, axis=0))
        Q_est = K_upg @ K_upg.T
        Q_true = np.linalg.inv(K.T @ K)
        worst_q = max(worst_q, np.linalg.norm(Q_est - Q_true)
                      / np.linalg.norm(Q_true))
    st = fine_noiseless_stages
    M2, K_upg = st["M2"], st["K_upg"]
    F = M2.shape[0] // 3
    defect = max(np.linalg.norm(
        (M2[3 * f:3 * f + 3] @ K_upg) @ (M2[3 * f:3 * f + 3] @ K_upg).T
        - np.eye(3)) for f in range(F))
    check("A7", worst_q < 1e-8 and defect < 1e-8,
          f"constructed-instance Q error {worst_q:.2e} (<1e-8 relative); "
          f"noiseless-pipeline orthonormality defect {defect:.2e} (<1e-8)")


def test_a8_determinism_and_gauge(reference_dataset, tmp_path):
    cfg_path = tmp_path / "config.json"
    jsonio.write_json(cfg_path, config_to_dict(reference_config(seed=0)))
    ds_a, ds_b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out",
                     str(ds_a), "--quiet"]) == 0
    assert cli_main(["simulate", "--config", str(cfg_path), "--out",
                     str(ds_b), "--quiet"]) == 0
    same_ds = ds_a.read_bytes() == ds_b.read_bytes()
    rc_a, rc_b = tmp_path / "ra.json", tmp_path / "rb.json"
    assert cli_main(["solve", "--dataset", str(ds_a), "--out", str(rc_a),
                     "--quiet"]) == 0
    assert cli_main(["solve", "--dataset", str(ds_a), "--out", str(rc_b),
                     "--quiet"]) == 0
    same_rc = rc_a.read_bytes() == rc_b.read_bytes()

    Gm = random_rotation(np.random.default_rng(3))
    ds2 = _transformed_dataset(reference_dataset, Gm)
    dW = np.abs(assemble_W(reference_dataset.measurements)
                - assemble_W(ds2.measurements)).max()
    r1 = reconstruct(reference_dataset.measurements)
    r2 = reconstruct(ds2.measurements)
    d_out = max(np.abs(r1.structure - r2.structure).max(),
                np.abs(r1.gravity - r2.gravity).max(),
                np.abs(r1.rotations - r2.rotations).max(),
                np.abs(r1.tau - r2.tau).max())
    check("A8", same_ds and same_rc and dW < 1e-9 and d_out < 1e-9,
          f"dataset bytes identical ({same_ds}), reconstruction bytes "
          f"identical ({same_rc}); gauge transform changes W by {dW:.2e} "
          f"and outputs by {d_out:.2e} (<1e-9)")
