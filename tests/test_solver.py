import tracemalloc
import warnings

import numpy as np
import pytest

import dynsfm
from dynsfm import so3, solver
from dynsfm.derivatives import savgol_filter
from dynsfm.errors import (IllConditionedWarning, IndefiniteQ,
                           LengthMismatch, RankDeficient, SingularTransform,
                           TooFewFramesOrPoints)
from dynsfm.simulate import (DEFAULT_GRAVITY, MeasurementSet, NoiseSpec,
                             PROJECTOR, add_noise, body_translation,
                             body_velocity, generate_scene,
                             generate_trajectory, simulate_dataset,
                             synthesize_images, synthesize_imu)
from dynsfm.solver import (COND_LIMIT, SolverOptions, assemble_C,
                           assemble_W, center_structure,
                           extract_rotations_structure, factor_rank4,
                           fix_similarity, lstsq_checked, metric_upgrade,
                           reconstruct, recover_rotation_blocks,
                           recover_translations, translation_blocks,
                           translation_system, translation_vector)

G = DEFAULT_GRAVITY


def ground_truth_factors(dataset):
    """True (C, M, S, m) of the decomposition for a noiseless dataset."""
    traj, scene = dataset.trajectory, dataset.scene
    tau = body_translation(traj)
    nu = body_velocity(traj)
    _, accel = synthesize_imu(traj, dataset.gravity)
    C = assemble_C(traj.omega, traj.domega)
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
    C = assemble_C(np.zeros((F, 3)), np.zeros((F, 3)))
    for f in range(F):
        assert np.array_equal(C[2 * f:2 * f + 2, 3 * f:3 * f + 3], PROJECTOR)
    assert np.array_equal(C[2 * F:], np.zeros((4 * F, 3 * F)))


def test_assemble_C_single_frame_hand_value():
    # hat([0,0,1])^2 = diag(-1,-1,0); projector keeps the top 2x3 block
    C = assemble_C(np.array([[0.0, 0.0, 1.0]]), np.zeros((1, 3)))
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


@pytest.fixture(scope="module")
def rank4_inputs(reference_dataset, wide_W):
    """Noiseless W on both sides of factor_rank4's shape branch: the tall
    reference (900 x 24, thin SVD) and the wide input (54 x 200, R-SVD)."""
    return [assemble_W(reference_dataset.measurements), wide_W]


def test_factor_rank4_exact(rank4_inputs):
    for W in rank4_inputs:
        Mt, St, sigma_ratio = factor_rank4(W)
        assert np.linalg.norm(W - Mt @ St) / np.linalg.norm(W) < 1e-12, W.shape
        assert sigma_ratio < 1e-12, W.shape


def test_factor_rank4_eckart_young(rank4_inputs):
    rng = np.random.default_rng(0)
    for W in rank4_inputs:
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


def test_factor_rank4_rank_deficient():
    rng = np.random.default_rng(2)
    for rows, cols in [(24, 8), (8, 24)]:
        W = rng.normal(size=(rows, 3)) @ rng.normal(size=(3, cols))
        with pytest.raises(RankDeficient):
            factor_rank4(W)


def test_factor_rank4_tall_is_the_thin_svd(reference_dataset):
    W = assemble_W(reference_dataset.measurements)
    Mt, St, sigma_ratio = factor_rank4(W)
    U, s, Vt = so3.deterministic_svd(W)
    assert np.array_equal(Mt, U[:, :4] * s[:4])
    assert np.array_equal(St, Vt[:4])
    assert sigma_ratio == s[4] / s[3]


@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_factor_rank4_wide_matches_direct_svd(wide_W, noise):
    W = wide_W + noise * np.random.default_rng(4).normal(size=wide_W.shape)
    Mt, St, sigma_ratio = factor_rank4(W)
    U, s, Vt = so3.deterministic_svd(W)
    # per column (row of St), so a flipped sign fails as well
    Mt_ref, St_ref = U[:, :4] * s[:4], Vt[:4]
    assert np.all(np.linalg.norm(Mt - Mt_ref, axis=0)
                  <= 1e-12 * np.linalg.norm(Mt_ref, axis=0))
    assert np.all(np.linalg.norm(St - St_ref, axis=1)
                  <= 1e-12 * np.linalg.norm(St_ref, axis=1))
    assert abs(sigma_ratio - s[4] / s[3]) <= 1e-12


def test_fix_similarity_already_normalized():
    rng = np.random.default_rng(3)
    St = np.vstack([rng.normal(size=(3, 10)), np.ones(10)])
    Mt = rng.normal(size=(30, 4))
    Mt2, St2 = fix_similarity(Mt, St)
    assert np.allclose(Mt2, Mt, atol=1e-12)
    assert np.allclose(St2, St, atol=1e-12)


def test_fix_similarity_noiseless_last_row(reference_dataset):
    W = assemble_W(reference_dataset.measurements)
    Mt, St, _ = factor_rank4(W)
    Mt2, St2 = fix_similarity(Mt, St)
    assert np.abs(St2[3] - 1.0).max() < 1e-9
    assert (np.linalg.norm(Mt2 @ St2 - Mt @ St)
            / np.linalg.norm(Mt @ St) < 1e-12)


def test_fix_similarity_singular():
    rng = np.random.default_rng(4)
    St = np.vstack([rng.normal(size=(3, 10)), np.zeros(10)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the degenerate fit also warns
        with pytest.raises(SingularTransform):
            fix_similarity(rng.normal(size=(30, 4)), St)


def test_center_structure_properties(reference_dataset):
    W = assemble_W(reference_dataset.measurements)
    Mt, St = fix_similarity(*factor_rank4(W)[:2])
    Mt2, St2, m_hat = center_structure(Mt, St)
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
    Mt2, St2, m_hat = center_structure(Mt, St)
    assert np.allclose(St2, St, atol=1e-12)
    assert np.allclose(Mt2, Mt, atol=1e-12)


def test_center_structure_recovers_translation_vector(reference_dataset):
    # the fourth column after centering is the true m, gauge-free
    W = assemble_W(reference_dataset.measurements)
    _, _, m_hat = center_structure(*fix_similarity(*factor_rank4(W)[:2]))
    _, _, _, m = ground_truth_factors(reference_dataset)
    assert np.abs(m_hat - m).max() < 1e-9


def _pipeline_to_rotations(dataset, lambda_R=1.0):
    W = assemble_W(dataset.measurements)
    traj = dataset.trajectory
    C = assemble_C(traj.omega, traj.domega)
    Mt, St, _ = factor_rank4(W)
    Mt, St = fix_similarity(Mt, St)
    Mt, St, m_hat = center_structure(Mt, St)
    M2, info = recover_rotation_blocks(Mt[:, :3], C, traj.omega,
                                       dataset.t_s, lambda_R)
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
    # at 30 Hz the same defect floors near 1e-5: the finite-difference
    # rotation regularizer is inconsistent with the smooth truth at
    # O(t_s^3), which dominates here
    ds = reference_dataset
    _, _, _, _, _, M2, info = _pipeline_to_rotations(ds)
    assert _block_gauge_defect(M2, ds.trajectory.rotations) < 1e-4
    assert info["residual"] < 1e-3
    assert info["normal_ratio"] < 1e-8


def test_recover_rotation_blocks_single_frame_pseudoinverse():
    # F=1 has no regularizer rows: the solve is the plain pseudoinverse
    omega = np.array([[0.2, -0.1, 0.4]])
    domega = np.array([[0.05, 0.0, -0.1]])
    C = assemble_C(omega, domega)
    rng = np.random.default_rng(6)
    target = rng.normal(size=(6, 3))
    M2, _ = recover_rotation_blocks(target, C, omega, 1 / 30, 1.0)
    assert np.allclose(M2, np.linalg.pinv(C) @ target, atol=1e-10)


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
    target = C @ M_true + 1e-3 * rng.normal(size=(6 * F, 3))
    M2, _ = recover_rotation_blocks(target, C, omega, t_s, 1e8)
    for f in range(F - 1):
        prop = E.T @ M2[3 * f:3 * f + 3]
        assert np.linalg.norm(M2[3 * (f + 1):3 * (f + 1) + 3] - prop) < 1e-6


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
    # documents the 30 Hz behaviour: the same defect sits near 1e-6
    _, _, _, _, _, M2, _ = _pipeline_to_rotations(reference_dataset)
    K, _ = metric_upgrade(M2)
    F = M2.shape[0] // 3
    worst = max(np.linalg.norm(
        (M2[3 * f:3 * f + 3] @ K) @ (M2[3 * f:3 * f + 3] @ K).T - np.eye(3))
        for f in range(F))
    assert worst < 1e-5


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
            W - (C @ M_proj @ struct.T + np.outer(m_hat, np.ones(W.shape[1]))))

    rot_a, struct_a = extract_rotations_structure(
        M2, K, St[:3], reflection="auto", W=W, C=C, m_hat=m_hat)
    rot_b, struct_b = extract_rotations_structure(
        M2, K @ D, St[:3], reflection="auto", W=W, C=C, m_hat=m_hat)
    assert np.allclose(struct_a, struct_b, atol=1e-9)
    assert np.allclose(rot_a, rot_b, atol=1e-9)
    forced = [extract_rotations_structure(M2, K, St[:3], reflection=mode)
              for mode in ("positive", "negative")]
    resids = [resid(*cand) for cand in forced]
    assert max(resids) > 100 * min(resids)  # mirror clearly distinguishable
    assert np.isclose(resid(rot_a, struct_a), min(resids), rtol=1e-9)


def test_recover_translations_noiseless_true_rotations(reference_dataset):
    # translation stage in isolation: exact rotations and exact m
    ds = reference_dataset
    traj = ds.trajectory
    tau = body_translation(traj)
    nu = body_velocity(traj)
    _, accel = synthesize_imu(traj, ds.gravity)
    _, _, _, m = ground_truth_factors(ds)
    tau_h, nu_h, g_h, info = recover_translations(
        m, traj.rotations, traj.omega, traj.domega, accel, ds.t_s, 1.0, 1.0)
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


def fine_trajectory():
    """Gently excited 120 Hz trajectory."""
    return generate_trajectory(2.5, 1 / 120, 0.2, np.radians(30), seed=3,
                               trans_freq_band=(0.02, 0.06),
                               rot_freq_band=(0.05, 0.15))


def dense_translation_solution(args):
    """(tau, nu, g) of the dense least-squares oracle."""
    F = len(args[1])
    x, _ = lstsq_checked(*translation_system(*args))
    return x[:3 * F].reshape(F, 3), x[3 * F:6 * F].reshape(F, 3), x[6 * F:]


def test_recover_translations_fine_sampling_hits_micro_accuracy():
    # the filter-consistency bias scales as t_s^2: a gently excited
    # 120 Hz instance recovers translations and gravity below 1e-6
    args, tau = translation_problem(fine_trajectory())
    tau_h, nu_h, g_h, _ = recover_translations(*args)
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
    *estimate, info = recover_translations(*args)
    assert info["cond"] <= COND_LIMIT  # the banded path ran
    for est, ref in zip(estimate, dense_translation_solution(args)):
        assert np.linalg.norm(est - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("frames", [3, 2])
def test_recover_translations_few_frames(frames, reference_dataset):
    # F=3 leaves one filter center; F=2 none, so the system is
    # underdetermined, the normal matrix singular and the dense
    # minimum-norm solution is returned
    args, _ = translation_problem(reference_dataset.trajectory,
                                  reference_dataset.gravity, frames)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        *estimate, info = recover_translations(*args)
        dense = dense_translation_solution(args)
    assert estimate[0].shape == (frames, 3)
    # the normal equations square the condition number of the system
    tol = 10 * np.finfo(float).eps * info["cond"]
    for est, ref in zip(estimate, dense):
        assert np.linalg.norm(est - ref) <= tol * np.linalg.norm(ref)


def test_recover_translations_memory_is_linear(monkeypatch):
    # 5 s at 240 Hz: the dense system alone would be 14388 x 7203 (830 MB)
    def no_dense(*args, **kwargs):
        raise AssertionError("dense fallback taken")
    traj = generate_trajectory(5.0, 1 / 240, 0.35, np.radians(30), seed=0)
    args, tau = translation_problem(traj)
    monkeypatch.setattr(solver, "translation_system", no_dense)
    tracemalloc.start()
    try:
        tau_h, _, _, _ = recover_translations(*args)
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
    A, b = translation_system(*args, reg_filter=filt,
                              include_order0=include_order0)
    A_ref, b_ref = dense_translation_oracle(*args, filt, include_order0)
    assert np.array_equal(A, A_ref)
    assert np.array_equal(b, b_ref)
    data, _, reg, _ = translation_blocks(*args, reg_filter=filt,
                                         include_order0=include_order0)
    assert data.shape == (9, 6 if include_order0 else 4, 9)
    assert reg.shape == (9 - window + 1, 6, 6 * window + 3)


def test_recover_translations_static_hover():
    # with zero angular velocity every depth quantity (tau_z, nu_z, g_z)
    # lies in an exact null family of the system, so only the lateral
    # components are determined; the solve must flag the conditioning,
    # recover the observable components exactly and fit the data exactly
    from dynsfm.errors import IllConditionedWarning
    from dynsfm.solver import translation_system
    F = 30
    R = np.tile(np.eye(3), (F, 1, 1))
    omega = np.zeros((F, 3))
    domega = np.zeros((F, 3))
    tau = np.tile([0.3, -0.2, 1.5], (F, 1))
    accel = np.tile(G, (F, 1))  # a_imu = R^T (0 + g) = g with R = I
    m = translation_vector(omega, domega, tau, np.zeros((F, 3)), accel, R, G)
    with pytest.warns(IllConditionedWarning):
        tau_h, nu_h, g_h, _ = recover_translations(
            m, R, omega, domega, accel, 1 / 30, 1.0, 1.0)
    assert np.abs(tau_h[:, :2] - tau[:, :2]).max() < 1e-9
    assert np.abs(nu_h[:, :2]).max() < 1e-9
    assert np.abs(g_h[:2]).max() < 1e-9
    A, b = translation_system(m, R, omega, domega, accel, 1 / 30, 1.0, 1.0)
    x = np.concatenate([tau_h.ravel(), nu_h.ravel(), g_h])
    assert np.linalg.norm(A @ x - b) < 1e-9


def test_recover_translations_slow_rotation_falls_back_to_dense():
    # at omega = 1e-6 rad/s the depth components are barely observable:
    # the normal matrix still factors (condition number ~1e16), so only
    # the condition estimate can route the solve to the dense path
    F = 30
    R = np.tile(np.eye(3), (F, 1, 1))
    omega = np.tile([1e-6, 0.0, 0.0], (F, 1))
    domega = np.zeros((F, 3))
    tau = np.tile([0.3, -0.2, 1.5], (F, 1))
    accel = np.tile(G, (F, 1))
    m = translation_vector(omega, domega, tau, np.zeros((F, 3)), accel, R, G)
    args = (m, R, omega, domega, accel, 1 / 30, 1.0, 1.0)
    _, _, fast = solver._solve_blocks(*translation_blocks(*args))
    assert fast["cond"] > COND_LIMIT
    with pytest.warns(IllConditionedWarning):
        *estimate, _ = recover_translations(*args)
    with pytest.warns(IllConditionedWarning):
        dense = dense_translation_solution(args)
    for est, ref in zip(estimate, dense):
        assert np.array_equal(est, ref)


def test_translation_observability_needs_order0_rows(reference_dataset):
    # dropping the order-0 rows degrades conditioning by more than an
    # order of magnitude (normal equations), and the weakest mode is a
    # near-constant spatial translation offset
    from dynsfm.solver import translation_system
    ds = reference_dataset
    traj = ds.trajectory
    F = traj.n_frames
    _, accel = synthesize_imu(traj, ds.gravity)
    _, _, _, m = ground_truth_factors(ds)
    conds = []
    Vt_drop = None
    for include in (True, False):
        A, _ = translation_system(m, traj.rotations, traj.omega, traj.domega,
                                  accel, ds.t_s, 1.0, 1.0,
                                  include_order0=include)
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
