import numpy as np
import pytest

import dynsfm
from dynsfm import so3
from dynsfm.errors import DegenerateConfiguration, DimensionMismatch
from dynsfm.evaluate import evaluate, procrustes_no_scale, vector_angle
from dynsfm.simulate import (DEFAULT_GRAVITY, body_translation,
                             body_velocity, generate_scene,
                             generate_trajectory)
from dynsfm.solver import Reconstruction

from conftest import random_rotation

G = DEFAULT_GRAVITY


def test_procrustes_identity():
    pts = np.random.default_rng(0).normal(size=(20, 3))
    al = procrustes_no_scale(pts, pts)
    assert np.linalg.norm(al.rotation - np.eye(3)) < 1e-12
    assert np.linalg.norm(al.translation) < 1e-12


def test_procrustes_recovers_known_transform():
    rng = np.random.default_rng(1)
    gt = rng.normal(size=(25, 3))
    Q = random_rotation(rng)
    c = np.array([0.3, -1.2, 0.7])
    est = (gt - c) @ Q  # est_i = Q^T (gt_i - c)
    al = procrustes_no_scale(est, gt)
    assert np.linalg.norm(al.rotation - Q) < 1e-12
    assert np.linalg.norm(al.translation - c) < 1e-12
    assert np.abs(al.apply(est) - gt).max() < 1e-12


def test_procrustes_excludes_reflection():
    rng = np.random.default_rng(2)
    gt = rng.normal(size=(30, 3))
    mirrored = gt * np.array([1.0, 1.0, -1.0])
    al = procrustes_no_scale(mirrored, gt)
    assert np.isclose(np.linalg.det(al.rotation), 1.0, atol=1e-12)
    resid_mirror = ((al.apply(mirrored) - gt) ** 2).sum()
    # a small rotational perturbation of the same set aligns far better
    wob = gt @ so3.exp_so3([0.01, -0.02, 0.015]).T
    al2 = procrustes_no_scale(wob, gt)
    resid_wobble = ((al2.apply(wob) - gt) ** 2).sum()
    assert resid_mirror > 0.01
    assert resid_mirror > 100 * resid_wobble


def test_procrustes_degenerate():
    line = np.outer(np.arange(5.0), [1.0, 0.0, 0.0])
    with pytest.raises(DegenerateConfiguration):
        procrustes_no_scale(line, line)
    with pytest.raises(DimensionMismatch):
        procrustes_no_scale(np.zeros((4, 3)), np.zeros((5, 3)))


def test_procrustes_alignment_is_optimal():
    # perturbing the returned rotation never decreases the residual
    rng = np.random.default_rng(3)
    gt = rng.normal(size=(15, 3))
    est = (gt - [0.1, 0.2, -0.3]) @ random_rotation(rng)
    est = est + rng.normal(0, 0.02, est.shape)
    al = procrustes_no_scale(est, gt)

    def residual(R):
        t = gt.mean(0) - R @ est.mean(0)
        return ((est @ R.T + t - gt) ** 2).sum()

    base = residual(al.rotation)
    for _ in range(100):
        axis = rng.normal(size=3)
        dR = so3.exp_so3(axis / np.linalg.norm(axis) * 1e-3)
        assert residual(dR @ al.rotation) >= base - 1e-15


def _truth_reconstruction(traj, scene):
    return Reconstruction(rotations=traj.rotations.copy(),
                          tau=body_translation(traj),
                          nu=body_velocity(traj),
                          gravity=G.copy(),
                          structure=scene.points.copy())


def test_evaluate_truth_is_zero_error():
    traj = generate_trajectory(2.0, 1 / 30, 0.3, 0.4, seed=5)
    scene = generate_scene(10, 2.0, seed=6)
    report = evaluate(_truth_reconstruction(traj, scene), traj, scene, G)
    assert report.struct_rmse < 1e-12
    assert report.trans_rmse < 1e-12
    assert report.rot_err.max() < 1e-15  # atan2 resolves angles to rounding
    assert report.gravity_angle_err < 1e-15
    assert report.per_axis_err.max() < 1e-12


def test_vector_angle_exact_at_every_size():
    # Kahan's form resolves tiny angles to full relative precision and
    # stays accurate at 0 and pi; a zero vector reads 0
    g = np.array([0.3, -0.2, -9.8])
    for angle in (1e-12, 1e-9, 1e-6, 0.5, 3.0):
        a = np.array([3.0, 0.0, 0.0])
        b = 0.5 * np.array([np.cos(angle), np.sin(angle), 0.0])
        assert np.isclose(vector_angle(a, b), angle, rtol=1e-12, atol=0)
    assert vector_angle(g, 3.0 * g) < 1e-15
    assert np.isclose(vector_angle(g, -g), np.pi, rtol=1e-15, atol=0)
    assert vector_angle(g, np.zeros(3)) == 0.0


def test_evaluate_gauge_invariance():
    # a rigid gauge applied consistently to the reconstruction leaves the
    # report unchanged
    traj = generate_trajectory(2.0, 1 / 30, 0.3, 0.4, seed=7)
    scene = generate_scene(12, 2.0, seed=8)
    rng = np.random.default_rng(9)
    recon = _truth_reconstruction(traj, scene)
    recon.structure += rng.normal(0, 0.01, recon.structure.shape)
    recon.gravity = recon.gravity + rng.normal(0, 0.05, 3)
    base = evaluate(recon, traj, scene, G)
    Gm = random_rotation(rng)
    moved = Reconstruction(
        rotations=np.einsum("ij,fjk->fik", Gm, recon.rotations),
        tau=recon.tau.copy(),
        nu=recon.nu.copy(),
        gravity=Gm @ recon.gravity,
        structure=recon.structure @ Gm.T)
    report = evaluate(moved, traj, scene, G)
    assert abs(report.struct_rmse - base.struct_rmse) < 1e-9
    assert abs(report.trans_rmse - base.trans_rmse) < 1e-9
    assert np.abs(report.rot_err - base.rot_err).max() < 1e-7
    assert abs(report.gravity_angle_err - base.gravity_angle_err) < 1e-7
    assert np.abs(report.per_axis_err - base.per_axis_err).max() < 1e-9


def test_evaluate_dimension_mismatch():
    traj = generate_trajectory(2.0, 1 / 30, 0.3, 0.4, seed=10)
    scene = generate_scene(10, 2.0, seed=11)
    recon = _truth_reconstruction(traj, scene)
    recon.structure = recon.structure[:5]
    with pytest.raises(DimensionMismatch):
        evaluate(recon, traj, scene, G)


def test_noiseless_pipeline_errors_small(reference_dataset, reference_report):
    assert reference_report.struct_rmse < 1e-6
    assert reference_report.rot_err_mean < 1e-6
    assert reference_report.gravity_angle_err < 1e-6


def test_depth_axis_error_dominates(noise_sweep):
    # at the reported noise point the depth-axis error exceeds both
    # lateral errors in well over 70% of runs
    wins = sum(1 for report, _ in noise_sweep
               if report.per_axis_err[2] >= report.per_axis_err[:2].max())
    assert wins >= 14
