import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynsfm
from dynsfm import banded, so3, solver
from dynsfm.derivatives import savgol_filter
from dynsfm.errors import (BadSampling, DynSfmError, IllConditionedWarning,
                           IndefiniteQ,
                           LengthMismatch, NumericalFailure, RankDeficient,
                           SeriesTooShort, SingularTransform,
                           TooFewFramesOrPoints)
from dynsfm.simulate import (DEFAULT_GRAVITY, DEFAULT_INERTIA,
                             MeasurementSet, NoiseSpec, PROJECTOR, Scene,
                             add_noise, body_translation, body_velocity,
                             generate_scene, generate_trajectory,
                             simulate_dataset, synthesize_images,
                             synthesize_imu, torque_for_trajectory)
from dynsfm.config import reference_config, reference_noise_config
from dynsfm.solver import (COND_LIMIT, SolverOptions, _omega_dot_for,
                           _reflection_residual, _TranslationRows, assemble_C,
                           assemble_W, extract_rotations_structure, factor_rank4,
                           fix_similarity, metric_upgrade,
                           reconstruct, recover_rotation_blocks,
                           rotation_regularizer,
                           recover_translations)

from conftest import (block_lstsq, block_normal_matrix, block_transpose,
                      dense_C, dense_rotation_system, deterministic_svd,
                      full_gram_normal_equations, make_dataset,
                      translation_blocks, translation_system,
                      translation_vector)

G = DEFAULT_GRAVITY


def ground_truth_factors(dataset):
    """True (C, M, S, m) of the decomposition for a noiseless dataset."""
    traj, scene = dataset.trajectory, dataset.scene
    tau = body_translation(traj)
    nu = body_velocity(traj)
    _, accel = synthesize_imu(traj, dataset.gravity)
    C = dense_C(assemble_C(traj.omega, traj.domega))
    M = traj.rotations.transpose(0, 2, 1).reshape(3 * traj.n_frames, 3)
    S = scene.points.T
    m = translation_vector(traj.omega, traj.domega, tau, nu, accel,
                           traj.rotations, dataset.gravity)
    return C, M, S, m


def test_assemble_W_reference_shape(reference_dataset):
    W = assemble_W(reference_dataset.measurements)
    assert W.shape == (900, 24)


def test_assemble_W_minimal_shape():
    ds = simulate_dataset(duration=0.1, t_s=1 / 30, n_points=4, extent=1.0,
                          amp_trans=0.1, amp_rot=0.2, seed=0)
    assert assemble_W(ds.measurements).shape == (18, 4)


def test_assemble_W_rejects_tiny():
    ds = simulate_dataset(duration=0.2, t_s=1 / 30, n_points=4, extent=1.0,
                          amp_trans=0.1, amp_rot=0.2, seed=0)
    meas = ds.measurements
    broken = MeasurementSet(t_s=meas.t_s, tracks=meas.tracks[:2],
                            flows=meas.flows[:2],
                            double_flows=meas.double_flows[:2],
                            gyro=meas.gyro[:2], accel=meas.accel[:2])
    with pytest.raises(TooFewFramesOrPoints):
        assemble_W(broken)


def test_noiseless_W_is_rank_four(reference_dataset):
    W = assemble_W(reference_dataset.measurements)
    s = np.linalg.svd(W, compute_uv=False)
    assert s[4] / s[0] < 1e-10


def test_assemble_C_zero_rates():
    F = 3
    C = dense_C(assemble_C(np.zeros((F, 3)), np.zeros((F, 3))))
    for f in range(F):
        assert np.array_equal(C[2 * f:2 * f + 2, 3 * f:3 * f + 3], PROJECTOR)
    assert np.array_equal(C[2 * F:], np.zeros((4 * F, 3 * F)))


def test_assemble_C_single_frame_hand_value():
    # hat([0,0,1])^2 = diag(-1,-1,0); projector keeps the top 2x3 block
    C = dense_C(assemble_C(np.array([[0.0, 0.0, 1.0]]), np.zeros((1, 3))))
    order2 = C[4:6, 0:3]
    assert np.allclose(order2, [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]],
                       atol=1e-15)
    assert np.allclose(C[2:4, 0:3], [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]],
                       atol=1e-15)


def test_assemble_C_length_mismatch():
    with pytest.raises(LengthMismatch):
        assemble_C(np.zeros((3, 3)), np.zeros((2, 3)))


def test_factorization_identity(reference_dataset):
    # arbiter of all sign conventions: the exact decomposition of W
    W = assemble_W(reference_dataset.measurements)
    C, M, S, m = ground_truth_factors(reference_dataset)
    P = W.shape[1]
    resid = np.linalg.norm(W - (C @ M @ S + np.outer(m, np.ones(P))))
    assert resid / np.linalg.norm(W) < 1e-12


@pytest.fixture(scope="module")
def wide_W():
    """Noiseless wide input: 0.3 s at 30 Hz, 200 points, W 54 x 200."""
    ds = simulate_dataset(duration=0.3, t_s=1 / 30, n_points=200, extent=2.0,
                          amp_trans=0.35, amp_rot=np.radians(30), seed=0)
    return assemble_W(ds.measurements)


def _wide_scene(cfg):
    """W of cfg stretched to the wide_scene benchmark shape: 2 s at 30 Hz
    and 4000 points, 360 x 4000, whose Gram order is above the dense
    limit, so factor_rank4 takes its eigenvectors by Lanczos."""
    cfg.duration, cfg.points = 2.0, 4000
    W = assemble_W(make_dataset(cfg).measurements)
    assert len(W) > solver.DENSE_GRAM_LIMIT
    return W


@pytest.fixture(scope="module")
def wide_scene_W():
    """The wide_scene input: reference noise, numeric 11-tap flows."""
    return _wide_scene(reference_noise_config(seed=0))


@pytest.fixture(scope="module")
def rank4_inputs(reference_dataset, wide_W):
    """Noiseless W of both shapes: the tall reference (900 x 24, Gram
    eigenbasis of its 24 columns), the wide input (54 x 200, Gram
    eigenbasis of its 54 rows) and the wide_scene shape (360 x 4000,
    Lanczos on its 360 rows)."""
    return [assemble_W(reference_dataset.measurements), wide_W,
            _wide_scene(reference_config(seed=0))]


def test_factor_rank4_exact(rank4_inputs):
    for W in rank4_inputs:
        Mt, St, sigma_ratio = factor_rank4(W)
        assert np.linalg.norm(W - Mt @ St) / np.linalg.norm(W) < 1e-12, W.shape
        assert sigma_ratio < 1e-12, W.shape


def test_factor_rank4_eckart_young(rank4_inputs):
    rng = np.random.default_rng(0)
    # with a flat Gaussian 360 x 4000 W, whose Lanczos run is the longest
    flat = np.random.default_rng(6).normal(size=(360, 4000))
    for W in [*rank4_inputs, flat]:
        W = W + 0.01 * rng.normal(size=W.shape)
        Mt, St, _ = factor_rank4(W)
        s = np.linalg.svd(W, compute_uv=False)
        expected = np.sqrt((s[4:] ** 2).sum())
        assert abs(np.linalg.norm(W - Mt @ St) - expected) < 1e-10, W.shape


def test_factor_rank4_permutation_equivariance(rank4_inputs):
    rng = np.random.default_rng(1)
    for W in rank4_inputs:
        perm = rng.permutation(W.shape[1])
        Mt1, St1, _ = factor_rank4(W)
        Mt2, St2, _ = factor_rank4(W[:, perm])
        assert np.allclose(St2, St1[:, perm], atol=1e-9), W.shape
        assert np.allclose(Mt2, Mt1, atol=1e-9), W.shape


def _wide_W_with_sigma4(r, rng, tall=False, rows=54, s3=0.6):
    """rows x 400 W = U diag(1, .8, s3, r, 1e-3 r, 0.9e-3 r) V^T and the
    exact left rank-4 subspace U[:, :4]; with tall, W^T and V[:, :4]."""
    U, _ = np.linalg.qr(rng.normal(size=(rows, 6)))
    V, _ = np.linalg.qr(rng.normal(size=(400, 6)))
    s = np.array([1.0, 0.8, s3, r, 1e-3 * r, 0.9e-3 * r])
    W = (U * s) @ V.T
    return (W.T, V[:, :4]) if tall else (W, U[:, :4])


def test_factor_rank4_rank_deficient():
    rng = np.random.default_rng(2)
    for rows, cols in [(24, 8), (8, 24)]:
        W = rng.normal(size=(rows, 3)) @ rng.normal(size=(3, cols))
        with pytest.raises(RankDeficient):
            factor_rank4(W)
    W, _ = _wide_W_with_sigma4(3e-11, rng)
    with pytest.raises(RankDeficient):
        factor_rank4(W)


@pytest.mark.parametrize("r", [1e-2, 1e-4, 1e-6, 1e-8, 1e-9])
def test_factor_rank4_wide_conditioning(r):
    # rounding W moves its rank-4 subspace by ~eps / r, which an SVD of W
    # resolves; eigenvectors of W W^T alone lose it like eps / r^2. 360
    # rows take the Lanczos path, also with sigma2 = sigma3 exactly, whose
    # plane one Krylov space cannot span
    for rows, s3 in [(54, 0.6), (360, 0.6), (360, 0.8)]:
        W, U4 = _wide_W_with_sigma4(r, np.random.default_rng(5), rows=rows,
                                    s3=s3)
        Q, _ = np.linalg.qr(factor_rank4(W)[0])
        sin_angle = np.linalg.norm(Q - U4 @ (U4.T @ Q), 2)
        assert sin_angle <= 1e-13 / r, (rows, s3)


@pytest.mark.parametrize("r", [1e-2, 1e-4, 1e-6, 1e-8, 1e-9])
def test_factor_rank4_tall_conditioning(r):
    # the transposed matrix: the Gram eigenbasis is taken on its 54 columns
    W, V4 = _wide_W_with_sigma4(r, np.random.default_rng(5), tall=True)
    Q, _ = np.linalg.qr(factor_rank4(W)[0])
    sin_angle = np.linalg.norm(Q - V4 @ (V4.T @ Q), 2)
    assert sin_angle <= 1e-13 / r


def test_factor_rank4_tall_peak_memory():
    # F=12000, P=24 (60 s at 200 Hz): W is 13.8 MB, and the factorization
    # holds k = 8 columns of its length at a time
    W = np.random.default_rng(6).normal(size=(72000, 24))
    tracemalloc.start()
    try:
        factor_rank4(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * W.nbytes


def test_factor_rank4_wide_peak_memory():
    # F=60, P=4000 (the wide_scene benchmark shape): W itself is 11.5 MB
    # and the factorization allocates ~1.9 MB above it
    W = np.random.default_rng(6).normal(size=(360, 4000))
    tracemalloc.start()
    try:
        factor_rank4(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_factor_rank4_tall_matches_thin_svd(reference_dataset, noise):
    W = assemble_W(reference_dataset.measurements)
    W = W + noise * np.random.default_rng(4).normal(size=W.shape)
    Mt, St, sigma_ratio = factor_rank4(W)
    U, s, Vt = deterministic_svd(W)
    # per column (row of St), so a flipped sign fails as well
    Mt_ref, St_ref = U[:, :4] * s[:4], Vt[:4]
    assert np.all(np.linalg.norm(Mt - Mt_ref, axis=0)
                  <= 1e-12 * np.linalg.norm(Mt_ref, axis=0))
    assert np.all(np.linalg.norm(St - St_ref, axis=1)
                  <= 1e-12 * np.linalg.norm(St_ref, axis=1))
    assert abs(sigma_ratio - s[4] / s[3]) <= 1e-12


@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_factor_rank4_wide_matches_direct_svd(wide_W, wide_scene_W, noise):
    for W in (wide_W, wide_scene_W):  # eigh, then Lanczos
        W = W + noise * np.random.default_rng(4).normal(size=W.shape)
        Mt, St, sigma_ratio = factor_rank4(W)
        U, s, Vt = deterministic_svd(W)
        # per column (row of St), so a flipped sign fails as well
        Mt_ref, St_ref = U[:, :4] * s[:4], Vt[:4]
        assert np.all(np.linalg.norm(Mt - Mt_ref, axis=0)
                      <= 1e-12 * np.linalg.norm(Mt_ref, axis=0))
        assert np.all(np.linalg.norm(St - St_ref, axis=1)
                      <= 1e-12 * np.linalg.norm(St_ref, axis=1))
        assert abs(sigma_ratio - s[4] / s[3]) <= 1e-12


def test_factor_rank4_lanczos_is_repeatable(wide_scene_W):
    # the Lanczos start is fixed, not drawn: two calls agree bit for bit
    first, second = factor_rank4(wide_scene_W), factor_rank4(wide_scene_W)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_fix_similarity_already_normalized():
    # St's last row is exactly ones: the similarity is the identity and
    # only the centering shift c moves the factors
    rng = np.random.default_rng(3)
    St = np.vstack([rng.normal(size=(3, 10)), np.ones(10)])
    Mt = rng.normal(size=(30, 4))
    Mt2, St2, _ = fix_similarity(Mt, St)
    c = St[:3].mean(axis=1)
    assert np.allclose(Mt2, Mt + np.outer(Mt[:, :3] @ c, [0, 0, 0, 1]),
                       atol=1e-12)
    assert np.allclose(St2, St - np.append(c, 0)[:, None], atol=1e-12)


def test_fix_similarity_noiseless_last_row(reference_dataset):
    W = assemble_W(reference_dataset.measurements)
    Mt, St, _ = factor_rank4(W)
    Mt2, St2, _ = fix_similarity(Mt, St)
    assert np.abs(St2[3] - 1.0).max() < 1e-9
    assert (np.linalg.norm(Mt2 @ St2 - Mt @ St)
            / np.linalg.norm(Mt @ St) < 1e-12)


def test_fix_similarity_singular():
    # a zero fourth row, and 1e-13 times a ones first row, whose
    # least-squares k[3] is ~1e-13: under the 1e-12 threshold, not at 0
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(3, 10))
    ones = np.vstack([np.ones(10), rows[1:]])
    for St in (np.vstack([rows, np.zeros(10)]),
               np.vstack([ones, 1e-13 * ones[0]])):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the degenerate fit also warns
            with pytest.raises(SingularTransform):
                fix_similarity(rng.normal(size=(30, 4)), St)


def test_center_structure_properties(reference_dataset):
    W = assemble_W(reference_dataset.measurements)
    Mt, St, _ = factor_rank4(W)
    Mt2, St2, m_hat = fix_similarity(Mt, St)
    assert np.linalg.norm(St2[:3].mean(axis=1)) < 1e-12
    assert (np.linalg.norm(Mt2 @ St2 - Mt @ St)
            / np.linalg.norm(Mt @ St) < 1e-12)
    assert np.array_equal(m_hat, Mt2[:, 3])


def test_center_structure_identity_when_centered():
    rng = np.random.default_rng(5)
    S3 = rng.normal(size=(3, 12))
    S3 -= S3.mean(axis=1, keepdims=True)
    St = np.vstack([S3, np.ones(12)])
    Mt = rng.normal(size=(18, 4))
    Mt2, St2, m_hat = fix_similarity(Mt, St)
    assert np.allclose(St2, St, atol=1e-12)
    assert np.allclose(Mt2, Mt, atol=1e-12)


def test_center_structure_recovers_translation_vector(reference_dataset):
    # the fourth column after centering is the true m, gauge-free
    W = assemble_W(reference_dataset.measurements)
    _, _, m_hat = fix_similarity(*factor_rank4(W)[:2])
    _, _, _, m = ground_truth_factors(reference_dataset)
    assert np.abs(m_hat - m).max() < 1e-9


def _pipeline_to_rotations(dataset, lambda_R=1.0):
    W = assemble_W(dataset.measurements)
    traj = dataset.trajectory
    C = assemble_C(traj.omega, traj.domega)
    Mt, St, _ = factor_rank4(W)
    Mt, St, m_hat = fix_similarity(Mt, St)
    M2, info = recover_rotation_blocks(Mt[:, :3], C, traj.omega,
                                       traj.domega, dataset.t_s, lambda_R)
    return W, C, Mt, St, m_hat, M2, info


def _block_gauge_defect(M2, R):
    """Worst deviation of the solved blocks from R_f^T K for the best
    shared K (the affine gauge)."""
    F = R.shape[0]
    K_fit = np.mean([R[f] @ M2[3 * f:3 * f + 3] for f in range(F)], axis=0)
    return max(np.linalg.norm(M2[3 * f:3 * f + 3] - R[f].T @ K_fit)
               for f in range(F))


def test_recover_rotation_blocks_noiseless(fine_noiseless_stages):
    # blocks match R_f^T K for one shared K (the affine gauge); the
    # 240 Hz instance keeps the regularizer-consistency bias negligible
    st = fine_noiseless_stages
    assert _block_gauge_defect(st["M2"], st["trajectory"].rotations) < 1e-6
    assert st["rot_info"]["residual"] < 1e-6
    assert st["rot_info"]["normal_ratio"] < 1e-8


def test_recover_rotation_blocks_reference_instance(reference_dataset):
    # at 30 Hz the same defect sits near 1e-9: the fourth-order
    # regularizer is consistent with the smooth truth to O(t_s^5) per step
    ds = reference_dataset
    _, _, _, _, _, M2, info = _pipeline_to_rotations(ds)
    assert _block_gauge_defect(M2, ds.trajectory.rotations) < 1e-8
    assert info["residual"] < 1e-8
    assert info["normal_ratio"] < 1e-8


def test_recover_rotation_blocks_single_frame_pseudoinverse():
    # F=1 has no regularizer rows: the solve is the plain pseudoinverse
    omega = np.array([[0.2, -0.1, 0.4]])
    domega = np.array([[0.05, 0.0, -0.1]])
    C = assemble_C(omega, domega)
    rng = np.random.default_rng(6)
    target = rng.normal(size=(6, 3))
    M2, _ = recover_rotation_blocks(target, C, omega, domega, 1 / 30, 1.0)
    assert np.allclose(M2, np.linalg.pinv(dense_C(C)) @ target, atol=1e-10)


def test_recover_rotation_blocks_large_lambda_propagates():
    # constant omega: with a huge weight every block is the exp-propagated
    # copy of the first
    t_s = 1 / 30
    F = 20
    omega = np.tile([0.3, -0.5, 0.8], (F, 1))
    domega = np.zeros((F, 3))
    E = so3.exp_so3(t_s * omega[0])
    R = [np.eye(3)]
    for _ in range(F - 1):
        R.append(R[-1] @ E)
    M_true = np.concatenate([Rf.T for Rf in R], axis=0)
    C = assemble_C(omega, domega)
    rng = np.random.default_rng(7)
    target = dense_C(C) @ M_true + 1e-3 * rng.normal(size=(6 * F, 3))
    M2, _ = recover_rotation_blocks(target, C, omega, domega, t_s, 1e8)
    for f in range(F - 1):
        prop = E.T @ M2[3 * f:3 * f + 3]
        assert np.linalg.norm(M2[3 * (f + 1):3 * (f + 1) + 3] - prop) < 1e-6



def test_assemble_C_blocks_match_per_frame_oracle():
    # the blocks scatter into the dense C built frame by frame from hat
    rng = np.random.default_rng(11)
    F = 7
    omega, domega = rng.normal(size=(F, 3)), rng.normal(size=(F, 3))
    blocks = assemble_C(omega, domega)
    assert blocks.shape == (3, F, 2, 3)
    oracle = np.zeros((6 * F, 3 * F))
    for f in range(F):
        w, dw = so3.hat(omega[f]), so3.hat(domega[f])
        for o, block in enumerate([PROJECTOR, -PROJECTOR @ w,
                                   PROJECTOR @ (w @ w - dw)]):
            row = 2 * (o * F + f)
            oracle[row:row + 2, 3 * f:3 * f + 3] = block
    assert np.array_equal(dense_C(blocks), oracle)


@pytest.mark.parametrize("F,lambda_R", [(12, 1.0), (12, 1e8), (1, 1.0)])
def test_recover_rotation_blocks_equals_dense_oracle(F, lambda_R):
    # the banded normal equations agree with lstsq on the dense stacked
    # system to the rounding their condition number allows
    rng = np.random.default_rng(12)
    t_s = 1 / 30
    omega, domega = rng.normal(size=(F, 3)), rng.normal(size=(F, 3))
    C = assemble_C(omega, domega)
    target = rng.normal(size=(6 * F, 3))
    M2, info = recover_rotation_blocks(target, C, omega, domega, t_s,
                                       lambda_R)
    A, B = dense_rotation_system(target, C, omega, domega, t_s, lambda_R)
    expected = np.linalg.lstsq(A, B, rcond=None)[0]
    eps = np.finfo(float).eps
    assert (np.abs(M2 - expected).max() / np.abs(expected).max()
            <= 100 * eps * info["cond"])
    dense_residual = np.linalg.norm(target - dense_C(C) @ expected)
    assert np.isclose(info["residual"], dense_residual, rtol=1e-12, atol=0)


@pytest.mark.parametrize("lambda_R", [0.3, 1.0, 2.5, 1e8])
@pytest.mark.parametrize("F", [1, 3, 4, 5, 8, 9])
def test_rotation_normal_equations_match_block_rows(F, lambda_R):
    # the (P, Nzg, Ngg, rz, rg) recover_rotation_blocks hands to
    # banded.solve_normal, built in closed form, equal the block-row front
    # end over [*C, s [B_f | I]] and Y bit for bit, F on and around the
    # 4-frame group; so do the solution, the residual and the
    # normal-equation ratio. (s B_f)^T (s B_f) is s^2 I only to rounding,
    # so writing it as such fails here
    rng = np.random.default_rng(F)
    t_s = 1 / 30
    omega, domega = rng.normal(size=(2, F, 3))
    C = assemble_C(omega, domega)
    target = rng.normal(size=(6 * F, 3))
    captured, solve_normal = [], banded.solve_normal

    def capturing(*normal):
        captured.append([a.copy() for a in normal])
        return solve_normal(*normal)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(banded, "solve_normal", capturing)
        M2, info = recover_rotation_blocks(target, C, omega, domega, t_s,
                                           lambda_R)
    B = rotation_regularizer(omega, domega, t_s)
    blocks = [*C, np.sqrt(lambda_R) * np.concatenate(
        [B, np.broadcast_to(np.eye(3), B.shape)], axis=2)]
    rhs = [*target.reshape(3, F, 2, 3), np.zeros((F - 1, 3, 3))]
    widths = [1, 1, 1, 2]
    expected = [*block_normal_matrix(F, banded.group_size(3, 2), 3, 0,
                                     blocks, widths),
                *block_transpose(F, 3, 0, blocks, widths, rhs)]
    for got, ref in zip(captured[0], expected):
        assert got.shape == ref.shape and np.array_equal(got, ref)
    z, _, cond, normal_ratio, res = block_lstsq(blocks, rhs, 3)
    assert np.array_equal(M2, z.reshape(3 * F, 3))
    assert info["cond"] == cond
    assert info["residual"] == float(np.linalg.norm(res[:3]))
    assert info["normal_ratio"] == normal_ratio


def test_recover_rotation_blocks_rejects_no_frames():
    # F = 0 stops before any arithmetic with a typed error, not a bare
    # ValueError from the condition estimate's empty reduction
    empty = np.zeros((0, 3))
    with pytest.raises(TooFewFramesOrPoints):
        recover_rotation_blocks(np.zeros((0, 3)), assemble_C(empty, empty),
                                empty, empty, 1 / 30, 1.0)


def test_recover_rotation_blocks_rejects_dense_C():
    omega = np.zeros((4, 3))
    with pytest.raises(LengthMismatch):
        recover_rotation_blocks(np.zeros((24, 3)),
                                dense_C(assemble_C(omega, omega)), omega,
                                omega, 1 / 30, 1.0)


@pytest.mark.parametrize("case", ["Mt_cols", "domega"])
def test_recover_rotation_blocks_length_mismatch(case):
    # one input sized for 5 frames against a 4-frame gyro series
    omega = np.full((4, 3), 0.1)
    args = {"Mt_cols": np.zeros((24, 3)), "C": assemble_C(omega, omega),
            "omega": omega, "domega": omega, "t_s": 1 / 30, "lambda_R": 1.0}
    args[case] = {"Mt_cols": np.zeros((30, 3)),
                  "domega": np.full((5, 3), 0.1)}[case]
    with pytest.raises(LengthMismatch):
        recover_rotation_blocks(**args)


def test_recover_rotation_blocks_refuses_an_ill_conditioned_solve():
    # 20 frames turning 1e-6 rad/s about x at a constant rate: the third
    # row of each block, which the projector drops, is seen only through
    # the rate blocks, and the normal matrix's condition estimate is
    # ~5e12, above COND_LIMIT
    omega = np.zeros((20, 3))
    omega[:, 0] = 1e-6
    domega = np.zeros_like(omega)
    Mt_cols = np.random.default_rng(0).standard_normal((120, 3))
    with pytest.raises(NumericalFailure,
                       match=r"condition number \S+ above 1e\+12$"):
        recover_rotation_blocks(Mt_cols, assemble_C(omega, domega), omega,
                                domega, 1 / 30, 1.0)


def test_reconstruct_refuses_a_rotation_increment_above_pi(reference_dataset):
    # a zero gyro leaves the increment's t_s^2 (dw_f - dw_f+1) term, which
    # t_s x 1e150 makes ~1e295 rad, far above the bound of pi
    meas = reference_dataset.measurements
    meas = dataclasses.replace(meas, t_s=meas.t_s * 1e150,
                               gyro=np.zeros_like(meas.gyro))
    with pytest.raises(BadSampling, match=r"^\[recover_rotation_blocks\] "
                       r"rotation increment turns"):
        reconstruct(meas)


@pytest.mark.parametrize("series", ["omega", "domega", "accel"])
def test_recover_translations_length_mismatch(series, reference_dataset):
    args, _ = translation_problem(reference_dataset.trajectory)
    args = dict(zip(["m_hat", "rotations", "omega", "domega", "accel", "t_s",
                     "lambda_tau", "lambda_nu"], args), reg_filter=(1, 3))
    args[series] = args[series][:-1]
    with pytest.raises(LengthMismatch, match="series lengths differ"):
        recover_translations(**args)


@pytest.mark.parametrize("shape", [(3, 10), (10, 3)])
def test_factor_rank4_needs_four_rows_and_columns(shape):
    with pytest.raises(TooFewFramesOrPoints, match="at least 4 rows"):
        factor_rank4(np.ones(shape))


def test_metric_upgrade_fit_warns_on_a_near_static_rotation():
    # 5 s at 120 Hz turning at most 3e-4 rad: the metric upgrade's fit
    # reads a condition number of ~3e15, which lstsq_checked reports as a
    # warning and does not stop on
    ds = simulate_dataset(duration=5.0, t_s=1 / 120, n_points=24,
                          extent=2.0, amp_trans=0.35, amp_rot=3e-4, seed=0)
    with pytest.warns(IllConditionedWarning, match=r"^metric_upgrade: "
                      r"normal-equation condition number"):
        reconstruct(ds.measurements)


def _reconstruct_peak(ds):
    tracemalloc.start()
    try:
        reconstruct(ds.measurements)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reconstruct_peak_memory_without_dense_C():
    # 5 s at 60 Hz (F=300): no dense C or rotation system is built, the
    # banded factor reuses the normal matrix's storage, the translation
    # stage builds its normal equations without block rows or the whole
    # data Gram, the solves work in their right-hand sides' storage and W
    # is released before the linear stages; the peak is ~0.86 MB, and the
    # bound (1.1x) is under the 1.14 MB of a run that held W and the Gram
    ds = simulate_dataset(duration=5.0, t_s=1 / 60, n_points=24, extent=2.0,
                          amp_trans=0.35, amp_rot=np.radians(30), seed=0)
    assert _reconstruct_peak(ds) < 0.95e6


def test_reconstruct_peak_memory_linear_at_240hz():
    # 5 s at 240 Hz (F=1200): both banded solves are linear in F; the
    # peak is ~3.40 MB, and the bound (1.1x) is under the 4.51 MB of a run
    # that held W and the whole data Gram through the linear stages
    ds = simulate_dataset(duration=5.0, t_s=1 / 240, n_points=24, extent=2.0,
                          amp_trans=0.35, amp_rot=np.radians(30), seed=0)
    assert _reconstruct_peak(ds) < 3.75e6


def test_rotation_regularizer_matches_relative_rotations():
    # exp(phi_f) of the fourth-order increment is R_f^T R_f+1 of a smooth
    # trajectory to ~1e-11 rad at 60 Hz
    t_s = 1 / 60
    traj = generate_trajectory(5.0, t_s, 0.35, np.radians(30), seed=0)
    blocks = rotation_regularizer(traj.omega, traj.domega, t_s)
    R = traj.rotations
    relative = R[:-1].transpose(0, 2, 1) @ R[1:]
    err = so3.rotation_angle(-blocks @ relative)
    assert blocks.shape == (traj.n_frames - 1, 3, 3)
    assert err.max() < 1e-10


def test_noiseless_60hz_reconstruction_near_exact():
    # with the fourth-order regularizer the rotations and the structure of
    # the noiseless 60 Hz instance are exact to ~5e-13 rad and ~2e-14 m;
    # translations and gravity stay limited by the translation regularizer
    ds = simulate_dataset(duration=5.0, t_s=1 / 60, n_points=24, extent=2.0,
                          amp_trans=0.35, amp_rot=np.radians(30), seed=0)
    recon = reconstruct(ds.measurements)
    report = dynsfm.evaluate(recon, ds.trajectory, ds.scene, ds.gravity)
    assert report.rot_err_mean < 1e-11
    assert report.struct_rmse < 1e-12


def test_recover_rotation_blocks_zero_rate_without_regularizer(
        reference_dataset):
    # lambda_R = 0 leaves a frame with zero rate and rate derivative only
    # its two projector rows: the normal matrix is singular
    meas = reference_dataset.measurements
    gyro = meas.gyro.copy()
    gyro[40] = 0.0
    broken = dataclasses.replace(meas, gyro=gyro)
    options = SolverOptions(lambda_R=0.0, omega_dot_mode="zero")
    with pytest.raises(RankDeficient, match=r"\[recover_rotation_blocks\]"):
        reconstruct(broken, options)
    options.lambda_R = 1.0
    reconstruct(broken, options)  # the regularizer restores full rank


@pytest.mark.parametrize("frames, points", [(150, 24), (15, 400)])
def test_reconstruct_planar_scene_is_rank_deficient(frames, points):
    # coplanar points leave W of rank three (sigma4/sigma1 ~ 2e-16), for
    # a tall and a wide W; generate_scene rejects such draws, so the scene
    # is built directly
    rng = np.random.default_rng(7)
    normal = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    pts = rng.uniform(-1.0, 1.0, size=(points, 3))
    pts -= np.outer(pts @ normal, normal)
    scene = Scene(points=pts - pts.mean(axis=0))
    traj = generate_trajectory(frames / 30, 1 / 30, 0.35, np.radians(30),
                               seed=1)
    gyro, accel = synthesize_imu(traj, G)
    tracks, flows, dflows = synthesize_images(traj, scene, G)
    meas = MeasurementSet(t_s=traj.t_s, tracks=tracks, flows=flows,
                          double_flows=dflows, gyro=gyro, accel=accel,
                          torque=torque_for_trajectory(traj),
                          inertia=DEFAULT_INERTIA)
    assert assemble_W(meas).shape == (6 * frames, points)
    with pytest.raises(RankDeficient, match=r"\[factor_rank4\]"):
        reconstruct(meas)


def test_metric_upgrade_constructed_instance():
    # oracle: blocks R_f^T K satisfy M_f Q M_f^T = I exactly for
    # Q = (K^T K)^-1, so the upgraded blocks must come out orthonormal
    rng = np.random.default_rng(8)
    for _ in range(5):
        K = rng.normal(size=(3, 3))
        u, s, vt = np.linalg.svd(K)
        s = np.linspace(1.0, 4.0, 3)  # condition number <= 10
        K = u @ np.diag(s) @ vt
        F = 12
        blocks = []
        for _ in range(F):
            v = rng.normal(size=3)
            v = v / np.linalg.norm(v) * rng.uniform(0, np.pi - 0.2)
            blocks.append(so3.exp_so3(v).T @ K)
        M2 = np.concatenate(blocks, axis=0)
        K_upg, fit = metric_upgrade(M2)
        Q_est = K_upg @ K_upg.T
        Q_true = np.linalg.inv(K.T @ K)
        assert (np.linalg.norm(Q_est - Q_true)
                / np.linalg.norm(Q_true) < 1e-8)
        assert fit < 1e-8
        worst = max(np.linalg.norm(
            (blocks[f] @ K_upg) @ (blocks[f] @ K_upg).T - np.eye(3))
            for f in range(F))
        assert worst < 1e-8


def test_metric_upgrade_orthonormal_blocks():
    rng = np.random.default_rng(9)
    from conftest import random_rotation
    M2 = np.concatenate([random_rotation(rng).T for _ in range(8)], axis=0)
    K, fit = metric_upgrade(M2)
    assert np.allclose(K, np.eye(3), atol=1e-9)
    assert fit < 1e-9


def test_metric_upgrade_indefinite():
    # deterministic inconsistent stack whose least-squares Q is indefinite
    rng = np.random.default_rng(2)
    M2 = None
    for _ in range(1223):
        F = int(rng.integers(2, 5))
        logs = rng.uniform(-2, 2, size=(3 * F, 3))
        M2 = rng.normal(size=(3 * F, 3)) * 10.0 ** logs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(IndefiniteQ):
            metric_upgrade(M2)


def test_noiseless_pipeline_orthonormal_blocks(fine_noiseless_stages):
    # A7, second half: upgraded blocks are orthonormal to 1e-8 on a
    # noiseless pipeline (the bias scales as t_s^3, hence the 240 Hz
    # instance; the 30 Hz reference instance floors near 1e-6)
    st = fine_noiseless_stages
    M2, K = st["M2"], st["K_upg"]
    F = M2.shape[0] // 3
    worst = max(np.linalg.norm(
        (M2[3 * f:3 * f + 3] @ K) @ (M2[3 * f:3 * f + 3] @ K).T - np.eye(3))
        for f in range(F))
    assert worst < 1e-8


def test_reference_instance_orthonormality_floor(reference_dataset):
    # documents the 30 Hz behaviour: the same defect sits near 2e-10
    _, _, _, _, _, M2, _ = _pipeline_to_rotations(reference_dataset)
    K, _ = metric_upgrade(M2)
    F = M2.shape[0] // 3
    worst = max(np.linalg.norm(
        (M2[3 * f:3 * f + 3] @ K) @ (M2[3 * f:3 * f + 3] @ K).T - np.eye(3))
        for f in range(F))
    assert worst < 1e-9


def test_extract_rotations_gauge_relation(fine_noiseless_stages):
    # relative body rotations are gauge-free: R_hat_f^T R_hat_1 = R_f^T R_1
    st = fine_noiseless_stages
    rotations = st["rotations"]
    R = st["trajectory"].rotations
    worst = max(np.linalg.norm(rotations[f].T @ rotations[0]
                               - R[f].T @ R[0])
                for f in range(R.shape[0]))
    assert worst < 1e-6


def test_extract_rotations_orthonormal_input():
    rng = np.random.default_rng(10)
    from conftest import random_rotation
    rots = [random_rotation(rng) for _ in range(6)]
    M2 = np.concatenate([R.T for R in rots], axis=0)
    S3 = rng.normal(size=(3, 8))
    rotations, structure = extract_rotations_structure(
        M2, np.eye(3), S3, reflection="positive")
    for R_est, R_true in zip(rotations, rots):
        assert np.linalg.norm(R_est - R_true) < 1e-12
    assert np.allclose(structure, S3.T, atol=1e-12)


def test_extract_rotations_auto_resolves_reflection(reference_dataset):
    # the two reflection candidates give very different data residuals on
    # noiseless data; auto must pick the better one, and feeding it a
    # mirrored upgrade matrix must not change the outcome
    ds = reference_dataset
    W, C, Mt, St, m_hat, M2, _ = _pipeline_to_rotations(ds)
    K, _ = metric_upgrade(M2)
    D = np.diag([1.0, 1.0, -1.0])

    def resid(rot, struct):
        M_proj = rot.transpose(0, 2, 1).reshape(-1, 3)
        return np.linalg.norm(
            W - (dense_C(C) @ M_proj @ struct.T + np.outer(m_hat, np.ones(W.shape[1]))))

    rot_a, struct_a = extract_rotations_structure(
        M2, K, St[:3], reflection="auto", Mt_cols=Mt[:, :3], C=C)
    rot_b, struct_b = extract_rotations_structure(
        M2, K @ D, St[:3], reflection="auto", Mt_cols=Mt[:, :3], C=C)
    assert np.allclose(struct_a, struct_b, atol=1e-9)
    assert np.allclose(rot_a, rot_b, atol=1e-9)
    forced = [extract_rotations_structure(M2, K, St[:3], reflection=mode)
              for mode in ("positive", "negative")]
    resids = [resid(*cand) for cand in forced]
    assert max(resids) > 100 * min(resids)  # mirror clearly distinguishable
    assert np.isclose(resid(rot_a, struct_a), min(resids), rtol=1e-9)


@pytest.mark.parametrize("scores", [
    (np.inf, np.inf), (np.nan, np.nan), (1.0, np.inf), (np.nan, 1.0)])
def test_non_finite_reflection_score_decides_nothing(scores, reference_dataset,
                                                     monkeypatch):
    # neg < pos is False for any NaN and for inf against inf, which would
    # keep the positive candidate on no evidence
    returned = iter(scores)
    monkeypatch.setattr(solver, "_reflection_residual",
                        lambda *args: next(returned))
    with pytest.raises(NumericalFailure,
                       match=r"^\[extract_rotations_structure\] reflection"):
        reconstruct(reference_dataset.measurements)


@pytest.mark.parametrize("mode", ["auto", "positive", "negative"])
def test_extract_rotations_returns_c_contiguous_arrays(mode,
                                                       reference_dataset):
    # a reader returns C-ordered arrays, and the evaluation must round
    # alike on the solver's own output and on its file
    W, C, m_hat, M2, K, S3, Mt_cols = _reflection_inputs(reference_dataset)
    out = extract_rotations_structure(M2, K, S3, reflection=mode,
                                      Mt_cols=Mt_cols, C=C)
    assert all(a.flags.c_contiguous for a in out)


def _reflection_inputs(ds):
    """(W, C, m_hat, M2, K_upg, S3, Mt_cols) of the reflection choice,
    formed as reconstruct forms them from the measurements."""
    meas = ds.measurements
    domega = _omega_dot_for(meas, SolverOptions())
    W = assemble_W(meas)
    C = assemble_C(meas.gyro, domega)
    Mt, St, _ = factor_rank4(W)
    Mt, St, m_hat = fix_similarity(Mt, St)
    M2, _ = recover_rotation_blocks(Mt[:, :3], C, meas.gyro, domega,
                                    meas.t_s, 1.0)
    K, _ = metric_upgrade(M2)
    return W, C, m_hat, M2, K, St[:3], Mt[:, :3]


@pytest.mark.parametrize("case", ["noiseless", 1, 2, 3, "wide"])
def test_auto_reflection_is_argmin_of_dense_residual(case, reference_dataset):
    # auto keeps the candidate with the smaller full residual
    # |W - (C M S^T + m 1^T)|, formed densely here; the score it compares
    # differs from the squared full residual by a term common to both, so
    # the margin between the candidates' scores is the dense margin
    if case == "noiseless":
        ds = reference_dataset
    else:
        cfg = reference_noise_config(seed=case if case != "wide" else 4)
        if case == "wide":
            cfg.duration, cfg.points = 1.0, 400  # 6F = 180 rows < P
        ds = make_dataset(cfg)
    W, C, m_hat, M2, K, S3, Mt_cols = _reflection_inputs(ds)
    forced = [extract_rotations_structure(M2, K, S3, reflection=mode)
              for mode in ("positive", "negative")]
    full = [np.linalg.norm(
        W - (dense_C(C) @ rot.transpose(0, 2, 1).reshape(-1, 3) @ struct.T
             + m_hat[:, None])) for rot, struct in forced]
    rot, struct = extract_rotations_structure(
        M2, K, S3, reflection="auto", Mt_cols=Mt_cols, C=C)
    best_rot, best_struct = forced[int(np.argmin(full))]
    assert np.array_equal(rot, best_rot)
    assert np.array_equal(struct, best_struct)
    X = np.linalg.inv(K)  # S^T = X S3, and D X for the mirror
    mirror = np.diag([1.0, 1.0, -1.0])
    scores = [_reflection_residual(Mt_cols, S3 @ S3.T, C, rot, x)
              for (rot, _), x in zip(forced, (X, mirror @ X))]
    assert np.isclose(scores[0] - scores[1], full[0] ** 2 - full[1] ** 2,
                      rtol=1e-12, atol=0)


def test_extract_rotations_auto_takes_one_svd_batch(reference_dataset,
                                                    monkeypatch):
    # the mirror candidate's SVD is (U, s, Vt diag(1, 1, -1)), so scoring
    # both candidates takes the one SVD batch of the unflipped one
    W, C, m_hat, M2, K, S3, Mt_cols = _reflection_inputs(reference_dataset)
    svd, calls = np.linalg.svd, []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    extract_rotations_structure(M2, K, S3, reflection="auto",
                                Mt_cols=Mt_cols, C=C)
    assert calls == [(len(M2) // 3, 3, 3)]


def test_recover_translations_noiseless_true_rotations(reference_dataset):
    # translation stage in isolation: exact rotations and exact m
    ds = reference_dataset
    traj = ds.trajectory
    tau = body_translation(traj)
    nu = body_velocity(traj)
    _, accel = synthesize_imu(traj, ds.gravity)
    _, _, _, m = ground_truth_factors(ds)
    tau_h, nu_h, g_h, info = recover_translations(
        m, traj.rotations, traj.omega, traj.domega, accel, ds.t_s, 1.0, 1.0,
        (1, 3))
    assert np.linalg.norm(tau_h - tau, axis=1).max() < 2e-5
    assert np.linalg.norm(nu_h - nu, axis=1).max() < 2e-5
    assert np.linalg.norm(g_h - ds.gravity) < 1e-5
    assert info["normal_ratio"] < 1e-8


def translation_problem(traj, gravity=G, frames=None):
    """Exact inputs of the translation stage for the first `frames` frames
    of a trajectory: (recover_translations arguments, true tau)."""
    sl = slice(0, frames)
    tau = body_translation(traj)[sl]
    nu = body_velocity(traj)[sl]
    _, accel = synthesize_imu(traj, gravity)
    omega, domega, R = traj.omega[sl], traj.domega[sl], traj.rotations[sl]
    m = translation_vector(omega, domega, tau, nu, accel[sl], R, gravity)
    return (m, R, omega, domega, accel[sl], traj.t_s, 1.0, 1.0), tau


def fine_trajectory(seed=3):
    """Gently excited 120 Hz trajectory."""
    return generate_trajectory(2.5, 1 / 120, 0.2, np.radians(30), seed=seed,
                               trans_freq_band=(0.02, 0.06),
                               rot_freq_band=(0.05, 0.15))


def dense_translation_solution(args, with_cond=False):
    """(tau, nu, g) of the dense least-squares oracle, and with_cond the
    condition number of its normal matrix N = A^T A."""
    F = len(args[1])
    x, _, _, sv = np.linalg.lstsq(*translation_system(*args), rcond=None)
    parts = x[:3 * F].reshape(F, 3), x[3 * F:6 * F].reshape(F, 3), x[6 * F:]
    return (parts, (sv[0] / sv[-1]) ** 2) if with_cond else parts


def test_recover_translations_fine_sampling_hits_micro_accuracy():
    # the filter-consistency bias scales as t_s^2: a gently excited
    # 120 Hz instance recovers translations and gravity below 1e-6
    args, tau = translation_problem(fine_trajectory())
    tau_h, nu_h, g_h, _ = recover_translations(*args, (1, 3))
    assert np.linalg.norm(tau_h - tau, axis=1).max() < 1e-6
    assert np.linalg.norm(g_h - G) < 1e-6


@pytest.mark.parametrize("instance", ["reference", "fine_120hz"])
def test_recover_translations_matches_dense_oracle(instance,
                                                   reference_dataset):
    if instance == "reference":
        args, _ = translation_problem(reference_dataset.trajectory,
                                      reference_dataset.gravity)
    else:
        args, _ = translation_problem(fine_trajectory())
    *estimate, info = recover_translations(*args, (1, 3))
    assert info["cond"] <= COND_LIMIT  # the banded path ran
    dense, cond = dense_translation_solution(args, with_cond=True)
    # fine_120hz takes its family's bound, ~eps cond(N) (see below): over
    # seeds 3-32 each part's error is at most 0.13 eps cond(N), and 4.4e-9
    # at seed 30, so a fixed 1e-10 held at seed 3 (7.7e-11) by luck
    tol = 1e-10 if instance == "reference" else (
        10 * np.finfo(float).eps * cond)
    for est, ref in zip(estimate, dense):
        assert np.linalg.norm(est - ref) <= tol * np.linalg.norm(ref)


@pytest.mark.parametrize("seed", range(4, 8))
def test_recover_translations_matches_dense_oracle_over_120hz_family(seed):
    # fine_120hz's family: the banded normal equations agree with the dense
    # least squares to ~eps cond(N), which a fixed bound such as 1e-10
    # meets only by an instance's luck (cond(N) is 1.6e6 to 2.1e9 over
    # seeds 3-32, and the error 4e-12 to 4e-9)
    args, _ = translation_problem(fine_trajectory(seed))
    *estimate, _ = recover_translations(*args, (1, 3))
    x, _, _, sv = np.linalg.lstsq(*translation_system(*args), rcond=None)
    cond = (sv[0] / sv[-1]) ** 2  # of N = A^T A
    error = np.concatenate([est.ravel() for est in estimate]) - x
    assert (np.linalg.norm(error)
            <= 10 * np.finfo(float).eps * cond * np.linalg.norm(x))


@pytest.mark.parametrize("frames", [3, 2])
def test_recover_translations_few_frames(frames, reference_dataset):
    # F=3 leaves one filter center; F=2 none, so the stage refuses the
    # window before it forms the underdetermined system
    args, _ = translation_problem(reference_dataset.trajectory,
                                  reference_dataset.gravity, frames)
    if frames == 2:
        with pytest.raises(SeriesTooShort, match="^reg_filter window 3 is "
                           "longer than the 2 frames$"):
            recover_translations(*args, (1, 3))
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        *estimate, info = recover_translations(*args, (1, 3))
        dense = dense_translation_solution(args)
    assert estimate[0].shape == (frames, 3)
    # the normal equations square the condition number of the system
    tol = 10 * np.finfo(float).eps * info["cond"]
    for est, ref in zip(estimate, dense):
        assert np.linalg.norm(est - ref) <= tol * np.linalg.norm(ref)


@pytest.mark.parametrize("group_unknowns", [24, 30, 36, 48])
def test_recover_translations_two_frames_rank_deficient_at_any_group_size(
        group_unknowns, reference_dataset, monkeypatch):
    # F=2 would give 12 rows for 15 unknowns: no group size factors it,
    # as the stage refuses the window, which has no centre, first
    monkeypatch.setattr(banded, "GROUP_UNKNOWNS", group_unknowns)
    args, _ = translation_problem(reference_dataset.trajectory,
                                  reference_dataset.gravity, 2)
    with pytest.raises(SeriesTooShort, match="^reg_filter window 3 is "
                       "longer than the 2 frames$"):
        recover_translations(*args, (1, 3))


def test_recover_translations_memory_is_linear():
    # 5 s at 240 Hz: the dense system alone would be 14388 x 7203 (830 MB)
    traj = generate_trajectory(5.0, 1 / 240, 0.35, np.radians(30), seed=0)
    args, tau = translation_problem(traj)
    tracemalloc.start()
    try:
        tau_h, _, _, _ = recover_translations(*args, (1, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tau_h.shape == (1200, 3)
    assert peak < 20e6
    assert np.linalg.norm(tau_h - tau, axis=1).max() < 1e-6


def dense_translation_oracle(m_hat, R, omega, domega, accel, t_s,
                             lambda_tau, lambda_nu, filt, include_order0):
    """Row-by-row reference for translation_system, written from the
    block description: two rows per (order, frame), then six rows per
    filter center."""
    F = len(R)
    W1, W2 = so3.rate_blocks(omega, domega)
    Pi = PROJECTOR
    rows, rhs = [], []
    for o in (0, 1, 2) if include_order0 else (1, 2):
        for f in range(F):
            row = np.zeros((2, 6 * F + 3))
            tau_f, nu_f = slice(3 * f, 3 * f + 3), slice(3 * (F + f),
                                                        3 * (F + f) + 3)
            if o == 0:
                row[:, tau_f] = -Pi
            elif o == 1:
                row[:, tau_f] = Pi @ W1[f]
                row[:, nu_f] = -Pi
            else:
                row[:, tau_f] = -Pi @ W2[f]
                row[:, nu_f] = 2.0 * Pi @ W1[f]
                row[:, 6 * F:] = Pi @ R[f].T
            rows.append(row)
            b = m_hat[2 * (o * F + f):2 * (o * F + f) + 2]
            rhs.append(b + Pi @ accel[f] if o == 2 else b)
    taps = filt.taps / t_s
    st, sn = np.sqrt(lambda_tau), np.sqrt(lambda_nu)
    for c in range(max(F - filt.window + 1, 0)):
        row = np.zeros((6, 6 * F + 3))
        for k in range(filt.window):
            f = c + k
            row[:3, 3 * f:3 * f + 3] = st * taps[k] * R[f]
            row[3:, 3 * (F + f):3 * (F + f) + 3] = sn * taps[k] * R[f]
        f = c + filt.window // 2
        row[:3, 3 * (F + f):3 * (F + f) + 3] = -st * R[f]
        row[3:, 6 * F:] = sn * np.eye(3)
        rows.append(row)
        rhs.append(np.concatenate([np.zeros(3), sn * R[f] @ accel[f]]))
    return np.vstack(rows), np.concatenate(rhs)


@pytest.mark.parametrize("include_order0", [True, False])
@pytest.mark.parametrize("window", [3, 5])
def test_translation_system_matches_row_oracle(include_order0, window,
                                               reference_dataset):
    args, _ = translation_problem(reference_dataset.trajectory,
                                  reference_dataset.gravity, 9)
    noise = np.random.default_rng(0).normal(scale=1e-3, size=len(args[0]))
    args = (args[0] + noise,) + args[1:6] + (0.7, 1.3)
    filt = savgol_filter(1, window, 1)
    # without the order-0 rows the oracle is the system minus its first
    # 2F rows, the matrix the observability test probes
    A, b = translation_system(*args, reg_filter=filt)
    A_ref, b_ref = dense_translation_oracle(*args, filt, include_order0)
    skip = 0 if include_order0 else 2 * 9
    assert np.array_equal(A[skip:], A_ref)
    assert np.array_equal(b[skip:], b_ref)
    data, _, reg, _ = translation_blocks(*args, reg_filter=filt)
    assert data.shape == (9, 6, 9)
    assert reg.shape == (9 - window + 1, 6, 6 * window + 3)


@settings(max_examples=60)
@given(data=st.data())
def test_translation_normal_equations_match_block_rows(data):
    # the (P, Nzg, Ngg, rz, rg) recover_translations hands to
    # banded.solve_normal, built from the rotations and taps, equal the
    # block-row front end over the written-out rows to rounding, and so
    # does the residual: windows 3, 5 and 7, weights other than 1, and F
    # on and around the group boundaries, down to one filter centre
    window = data.draw(st.sampled_from([3, 5, 7]), "window")
    s = banded.group_size(6, window)
    F = data.draw(st.sampled_from(sorted(
        {window, s - 1, s, s + 1, 2 * s, 2 * s + 1} - set(range(window)))),
        "F")
    weights = data.draw(st.tuples(*[st.sampled_from([0.3, 1.0, 2.5])] * 2),
                        "weights")
    order = data.draw(st.sampled_from([1, 2]), "order")
    filt = savgol_filter(order, window, 1)
    t_s = data.draw(st.sampled_from([1 / 30, 1 / 240]), "t_s")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    R = so3.exp_so3(rng.normal(size=(F, 3)))
    omega, domega, accel = rng.normal(size=(3, F, 3))
    args = (rng.normal(size=6 * F), R, omega, domega, accel, t_s, *weights)
    captured, solve_normal = [], banded.solve_normal

    def capturing(*normal):
        captured.append([a.copy() for a in normal])
        return solve_normal(*normal)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(banded, "solve_normal", capturing)
        tau, nu, g, info = recover_translations(*args, (order, window))
    data_rows, data_rhs, reg, reg_rhs = translation_blocks(*args, filt)
    blocks, rhs = [data_rows, reg], [data_rhs[..., None], reg_rhs[..., None]]
    expected = [*block_normal_matrix(F, s, 6, 3, blocks, [1, window]),
                *block_transpose(F, 6, 3, blocks, [1, window], rhs)]
    for got, ref in zip(captured[0], expected):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    x = np.concatenate([tau, nu, np.broadcast_to(g, (F, 3))], axis=1)
    res = [data_rows @ x[..., None] - rhs[0],
           reg @ np.concatenate([x[c:c + len(reg), :6] for c in range(window)]
                                + [x[:len(reg), 6:]], axis=1)[..., None]
           - rhs[1]]
    residual = np.linalg.norm(np.concatenate([r.ravel() for r in res]))
    assert np.isclose(info["residual"], residual, rtol=1e-10, atol=0)
    # A^T r of the least-squares solution vanishes, by any correct transpose
    assert info["normal_ratio"] < 1e-9


@settings(max_examples=40)
@given(data=st.data())
def test_translation_normal_equations_match_full_gram(data):
    # formed from the data rows' Gram blocks it reads, (P, Nzg, Ngg, rz,
    # rg) equal, bit for bit, those formed from the whole (F, 9, 9) Gram:
    # windows 3, 5 and 7, weights other than 1, F on and around the group
    # boundaries
    window = data.draw(st.sampled_from([3, 5, 7]), "window")
    s = banded.group_size(6, window)
    F = data.draw(st.sampled_from(sorted(
        {window, s - 1, s, s + 1, 2 * s, 2 * s + 1, 61} - set(range(window)))),
        "F")
    st_, sn = data.draw(st.tuples(*[st.sampled_from([0.3, 1.0, 2.5])] * 2),
                        "weights")
    taps = savgol_filter(data.draw(st.sampled_from([1, 2]), "order"),
                         window, 1).taps * 60.0
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    R = so3.exp_so3(rng.normal(size=(F, 3)))
    omega, domega, accel = rng.normal(size=(3, F, 3))
    rows = _TranslationRows(rng.normal(size=6 * F), R, omega, domega, accel,
                            taps, st_, sn)
    for got, ref in zip(rows.normal_equations(),
                        full_gram_normal_equations(rows), strict=True):
        assert got.shape == ref.shape and np.array_equal(got, ref)


def test_recover_translations_static_hover():
    # with zero angular velocity every depth quantity (tau_z, nu_z, g_z)
    # lies in an exact null family of the system, so the normal matrix is
    # singular and the solve refuses
    F = 30
    R = np.tile(np.eye(3), (F, 1, 1))
    omega = np.zeros((F, 3))
    domega = np.zeros((F, 3))
    tau = np.tile([0.3, -0.2, 1.5], (F, 1))
    accel = np.tile(G, (F, 1))  # a_imu = R^T (0 + g) = g with R = I
    m = translation_vector(omega, domega, tau, np.zeros((F, 3)), accel, R, G)
    with pytest.raises(RankDeficient, match="not positive definite"):
        recover_translations(m, R, omega, domega, accel, 1 / 30, 1.0, 1.0,
                             (1, 3))


def test_recover_translations_slow_rotation_warns_and_keeps_lateral():
    """At omega = 1e-6 rad/s the depth components are barely observable:
    the normal matrix still factors (condition number ~1e16), so the
    solve warns and returns the banded answer. The lateral components
    (x, y) of tau, nu and g are recovered and the data are fitted; the
    depth components are not recovered."""
    F = 30
    R = np.tile(np.eye(3), (F, 1, 1))
    omega = np.tile([1e-6, 0.0, 0.0], (F, 1))
    domega = np.zeros((F, 3))
    tau = np.tile([0.3, -0.2, 1.5], (F, 1))
    accel = np.tile(G, (F, 1))
    m = translation_vector(omega, domega, tau, np.zeros((F, 3)), accel, R, G)
    args = (m, R, omega, domega, accel, 1 / 30, 1.0, 1.0)
    data, data_rhs, reg, reg_rhs = translation_blocks(*args)
    _, _, cond, _, _ = block_lstsq(
        [data, reg], [data_rhs[..., None], reg_rhs[..., None]], 6, 3)
    assert cond > COND_LIMIT
    with pytest.warns(IllConditionedWarning, match="not recovered"):
        tau_h, nu_h, g_h, info = recover_translations(*args, (1, 3))
    assert np.abs(tau_h[:, :2] - tau[:, :2]).max() < 1e-5
    assert np.abs(nu_h[:, :2]).max() < 1e-5
    assert np.abs(g_h[:2] - G[:2]).max() < 1e-5
    assert info["residual"] < 1e-5


def test_translation_observability_needs_order0_rows(reference_dataset):
    # dropping the order-0 rows degrades conditioning by more than an
    # order of magnitude (normal equations), and the weakest mode is a
    # near-constant spatial translation offset
    ds = reference_dataset
    traj = ds.trajectory
    F = traj.n_frames
    _, accel = synthesize_imu(traj, ds.gravity)
    _, _, _, m = ground_truth_factors(ds)
    conds = []
    Vt_drop = None
    for include in (True, False):
        A, _ = dense_translation_oracle(m, traj.rotations, traj.omega,
                                        traj.domega, accel, ds.t_s, 1.0, 1.0,
                                        savgol_filter(1, 3, 1), include)
        _, s, Vt = np.linalg.svd(A, full_matrices=False)
        conds.append(s[0] / s[-1])
        if not include:
            Vt_drop = Vt
    assert (conds[1] / conds[0]) ** 2 >= 10.0
    weak = Vt_drop[-1]
    tau_part = weak[:3 * F].reshape(F, 3)
    assert np.linalg.norm(tau_part) > 0.9  # mode lives in the translations
    d_fit = np.mean([traj.rotations[f] @ tau_part[f] for f in range(F)],
                    axis=0)
    dev = max(np.linalg.norm(tau_part[f] - traj.rotations[f].T @ d_fit)
              for f in range(F))
    per_frame = np.linalg.norm(tau_part) / np.sqrt(F)
    assert dev < 0.5 * per_frame  # ... and is close to a constant offset


def test_reconstruct_minimal_instance_runs():
    ds = simulate_dataset(duration=0.1, t_s=1 / 30, n_points=4, extent=1.0,
                          amp_trans=0.05, amp_rot=0.2, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        recon = reconstruct(ds.measurements)
    assert recon.rotations.shape == (3, 3, 3)
    assert recon.structure.shape == (4, 3)


def test_reconstruct_near_zero_rotation_is_linear_in_memory():
    # at amp_rot 1e-4 rad and 120 Hz (F=600) the translation normal matrix
    # is ill-conditioned: the solve warns and stays banded, where a dense
    # 7188 x 3603 least-squares system took 210 MB (metric_upgrade warns
    # as well)
    ds = simulate_dataset(5.0, 1 / 120, 24, 2.0, 0.35, 1e-4, seed=0)
    tracemalloc.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IllConditionedWarning)
            recon = reconstruct(ds.measurements)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = dynsfm.evaluate(recon, ds.trajectory, ds.scene, ds.gravity)
    assert any(w.category is IllConditionedWarning
               and str(w.message).startswith("recover_translations")
               for w in caught)
    assert peak < 30e6
    assert report.trans_rmse < 1e-3
    assert report.gravity_angle_err < 1e-7


def test_reconstruct_annotates_stage():
    ds = simulate_dataset(duration=0.2, t_s=1 / 30, n_points=4, extent=1.0,
                          amp_trans=0.1, amp_rot=0.2, seed=0)
    meas = ds.measurements
    broken = MeasurementSet(t_s=meas.t_s, tracks=meas.tracks[:2],
                            flows=meas.flows[:2],
                            double_flows=meas.double_flows[:2],
                            gyro=meas.gyro[:2], accel=meas.accel[:2])
    with pytest.raises(TooFewFramesOrPoints, match=r"\[assemble_W\]"):
        reconstruct(broken)


# (stage name, owner, attribute) of the ten reconstruct stages, in order
STAGES = [("validate", MeasurementSet, "validate"),
          ("assemble_W", solver, "DataMatrix"),
          ("omega_dot", solver, "_omega_dot_for"),
          ("assemble_C", solver, "assemble_C"),
          ("factor_rank4", solver, "factor_rank4"),
          ("fix_similarity", solver, "fix_similarity"),
          ("recover_rotation_blocks", solver, "recover_rotation_blocks"),
          ("metric_upgrade", solver, "metric_upgrade"),
          ("extract_rotations_structure", solver,
           "extract_rotations_structure"),
          ("recover_translations", solver, "recover_translations")]


@pytest.mark.parametrize("raised, expected", [
    (SingularTransform("boom"), SingularTransform),
    (np.linalg.LinAlgError("boom"), NumericalFailure)],
    ids=["dynsfm-error", "lapack"])
@pytest.mark.parametrize("stage, owner, attr", STAGES,
                         ids=[stage for stage, _, _ in STAGES])
def test_reconstruct_stage_failure_is_prefixed(stage, owner, attr, raised,
                                               expected, reference_dataset,
                                               monkeypatch):
    # a DynSfmError keeps its type, a LAPACK failure becomes a
    # NumericalFailure, and both name the stage that raised
    def fail(*args, **kwargs):
        raise raised
    monkeypatch.setattr(owner, attr, fail)
    with pytest.raises(expected, match=rf"^\[{stage}\] boom$") as info:
        reconstruct(reference_dataset.measurements)
    assert type(info.value) is expected


def test_reconstruct_runs_the_stage_table(reference_dataset, monkeypatch):
    # the names reconstruct hands _stage are STAGES' names, each once and
    # in order: no stage runs twice or outside the table
    names, stage = [], solver._stage

    def recording(name, *args, **kwargs):
        names.append(name)
        return stage(name, *args, **kwargs)
    monkeypatch.setattr(solver, "_stage", recording)
    reconstruct(reference_dataset.measurements)
    assert names == [name for name, _, _ in STAGES]
    assert len(set(names)) == len(names) == 10


@pytest.mark.parametrize("stage", ["fix_similarity", "metric_upgrade"])
def test_reconstruct_stops_non_finite_result_at_its_stage(
        stage, reference_dataset, monkeypatch):
    # one NaN in a stage's first returned array is caught at that stage,
    # before the next stage turns it into some other failure
    real = getattr(solver, stage)

    def poisoned(*args, **kwargs):
        first, *rest = real(*args, **kwargs)
        first = first.copy()
        first.flat[first.size // 2] = np.nan
        return (first, *rest)
    monkeypatch.setattr(solver, stage, poisoned)
    with pytest.raises(NumericalFailure,
                       match=rf"^\[{stage}\] non-finite result$"):
        reconstruct(reference_dataset.measurements)


@pytest.mark.parametrize("stage, poison", [
    ("factor_rank4", lambda out: (*out[:2], math.inf)),
    ("recover_rotation_blocks",
     lambda out: (out[0], dict(out[1], cond=math.nan)))],
    ids=["float", "dict-value"])
def test_reconstruct_stops_non_finite_scalar_at_its_stage(
        stage, poison, reference_dataset, monkeypatch):
    # a float scalar (factor_rank4's sigma_ratio) or a dict value (the
    # rotation solve's info) that is not finite stops at its stage too
    real = getattr(solver, stage)
    monkeypatch.setattr(solver, stage,
                        lambda *args, **kwargs: poison(real(*args, **kwargs)))
    with pytest.raises(NumericalFailure,
                       match=rf"^\[{stage}\] non-finite result$"):
        reconstruct(reference_dataset.measurements)


def test_reconstruct_stops_overflowing_residual():
    # accel x 1e300 on the 1 s reference dataset leaves every array of the
    # translation solve finite, but its residual norm overflows; the
    # overflow raises inside the stage and stops there, not in a file
    cfg = reference_noise_config(seed=0)
    cfg.duration, cfg.points = 1.0, 8
    meas = make_dataset(cfg).measurements
    meas = dataclasses.replace(meas, accel=meas.accel * 1e300)
    with pytest.raises(NumericalFailure, match=r"^\[recover_translations\] "
                       r"FloatingPointError: overflow encountered in dot$"):
        reconstruct(meas)


@pytest.mark.parametrize("exponent", [30, 150, 300, -30, -150, -300])
@pytest.mark.parametrize("field", ["t_s", "tracks", "flows", "double_flows",
                                   "gyro", "accel", "torque", "inertia"])
def test_reconstruct_any_magnitude_is_finite_or_typed(field, exponent):
    # one field of the 1 s reference dataset x 10^k, numpy's RuntimeWarnings
    # being errors in this suite: a finite Reconstruction or a DynSfmError,
    # never a numpy warning (an overflow inside a stage is that stage's
    # failure) and never a non-finite value
    cfg = reference_noise_config(seed=0)
    cfg.duration, cfg.points = 1.0, 8
    meas = make_dataset(cfg).measurements
    meas = dataclasses.replace(
        meas, **{field: getattr(meas, field) * 10.0 ** exponent})
    try:
        recon = reconstruct(meas)
    except DynSfmError:
        return
    assert all(np.isfinite(a).all() for a in (
        recon.rotations, recon.tau, recon.nu, recon.gravity,
        recon.structure, list(recon.residuals.values())))


@pytest.mark.parametrize("zero_gyro", [False, True], ids=["gyro", "zero-gyro"])
@pytest.mark.parametrize("exponent", [150, 160, 200, 300,
                                      -150, -160, -200, -300])
def test_reconstruct_extreme_sample_interval_fails_cleanly(exponent,
                                                           zero_gyro):
    # t_s x 10^k on the 1 s reference dataset, numpy's RuntimeWarnings
    # being errors in this suite: a t_s below MIN_SAMPLE_INTERVAL stops at
    # validate; above, validate's gyro bound, the rotation increment check
    # or a Python float overflow of t_s^2 stops it, never numpy's overflow
    cfg = reference_noise_config(seed=0)
    cfg.duration, cfg.points = 1.0, 8
    meas = make_dataset(cfg).measurements
    meas = dataclasses.replace(
        meas, t_s=meas.t_s * 10.0 ** exponent,
        gyro=np.zeros_like(meas.gyro) if zero_gyro else meas.gyro)
    if exponent < 0:
        with pytest.raises(BadSampling, match=r"^\[validate\] t_s .* is "
                           r"below MIN_SAMPLE_INTERVAL"):
            reconstruct(meas)
        return
    try:
        recon = reconstruct(meas)
    except DynSfmError:
        return
    assert all(np.isfinite(a).all() for a in (recon.tau, recon.nu,
                                               recon.gravity))


def test_reconstruct_normal_equation_invariant(reference_recon):
    assert reference_recon.residuals["rotation_normal_ratio"] < 1e-8
    assert reference_recon.residuals["translation_normal_ratio"] < 1e-8


def test_structure_centroid_invariant(reference_recon):
    assert np.linalg.norm(reference_recon.structure.mean(axis=0)) < 1e-9


def test_sigma_ratio_monotone_in_noise():
    # medians over 10 seeds at image noise 0, 0.001, 0.005, 0.01 with the
    # numeric flow pipeline (analytic-mode noise saturates the ratio)
    from dynsfm.derivatives import savgol_filter
    filters = (savgol_filter(2, 11, 1), savgol_filter(2, 11, 2))
    levels = [0.0, 0.001, 0.005, 0.01]
    medians = []
    for level in levels:
        ratios = []
        for seed in range(10):
            ds = simulate_dataset(duration=5.0, t_s=1 / 30, n_points=24,
                                  extent=2.0, amp_trans=0.35,
                                  amp_rot=np.radians(30), seed=seed,
                                  noise=NoiseSpec(image_rel_std=level,
                                                  seed=seed + 100),
                                  flow_mode="numeric", flow_filters=filters)
            _, _, ratio = factor_rank4(assemble_W(ds.measurements))
            ratios.append(ratio)
        medians.append(np.median(ratios))
    assert all(m2 > m1 for m1, m2 in zip(medians, medians[1:]))


def _transformed_dataset(dataset, Gm):
    """Apply the spatial-frame gauge rotation Gm to the ground truth and
    re-synthesize the measurements."""
    from dataclasses import replace
    from dynsfm.simulate import (Scene, Trajectory, torque_for_trajectory)
    traj = dataset.trajectory
    traj2 = Trajectory(
        t_s=traj.t_s,
        rotations=np.einsum("ij,fjk->fik", Gm, traj.rotations),
        T=traj.T @ Gm.T, dT=traj.dT @ Gm.T, ddT=traj.ddT @ Gm.T,
        omega=traj.omega.copy(), domega=traj.domega.copy())
    scene2 = Scene(points=dataset.scene.points @ Gm.T)
    gravity2 = Gm @ dataset.gravity
    gyro, accel = synthesize_imu(traj2, gravity2)
    tracks, flows, dflows = synthesize_images(traj2, scene2, gravity2)
    meas = MeasurementSet(t_s=traj.t_s, tracks=tracks, flows=flows,
                          double_flows=dflows, gyro=gyro, accel=accel,
                          torque=torque_for_trajectory(traj2),
                          inertia=dataset.measurements.inertia)
    return replace(dataset, trajectory=traj2, scene=scene2, gravity=gravity2,
                   measurements=meas)


def test_gauge_invariance_axis_flip_bitwise(reference_dataset):
    # diag(1,-1,-1) is a rotation whose action commutes with float
    # arithmetic exactly, so W and the whole reconstruction are bit-equal
    ds2 = _transformed_dataset(reference_dataset, np.diag([1.0, -1.0, -1.0]))
    W1 = assemble_W(reference_dataset.measurements)
    W2 = assemble_W(ds2.measurements)
    assert np.array_equal(W1, W2)
    r1 = reconstruct(reference_dataset.measurements)
    r2 = reconstruct(ds2.measurements)
    assert np.array_equal(r1.structure, r2.structure)
    assert np.array_equal(r1.rotations, r2.rotations)
    assert np.array_equal(r1.gravity, r2.gravity)
    assert np.array_equal(r1.tau, r2.tau)


def test_gauge_invariance_generic_rotation(reference_dataset):
    from conftest import random_rotation
    Gm = random_rotation(np.random.default_rng(17))
    ds2 = _transformed_dataset(reference_dataset, Gm)
    W1 = assemble_W(reference_dataset.measurements)
    W2 = assemble_W(ds2.measurements)
    assert np.abs(W1 - W2).max() < 1e-12
    r1 = reconstruct(reference_dataset.measurements)
    r2 = reconstruct(ds2.measurements)
    assert np.abs(r1.structure - r2.structure).max() < 1e-9
    assert np.abs(r1.gravity - r2.gravity).max() < 1e-9
    assert max(np.abs(r1.rotations[f] - r2.rotations[f]).max()
               for f in range(r1.rotations.shape[0])) < 1e-9
