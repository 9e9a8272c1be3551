import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsfm import so3
from dynsfm.errors import DegenerateMatrix

from conftest import (deterministic_svd, log_so3_one, random_rotation,
                      right_jacobian_one, vee)

finite_vec = st.lists(st.floats(-10, 10), min_size=3, max_size=3).map(np.array)


def test_hat_unit_z():
    expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
    assert np.array_equal(so3.hat([0, 0, 1]), expected)


def test_hat_zero():
    assert np.array_equal(so3.hat([0, 0, 0]), np.zeros((3, 3)))


def test_hat_annihilates_own_vector():
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(so3.hat(v) @ v, np.zeros(3))


@given(finite_vec, finite_vec)
def test_hat_is_cross_product(v, w):
    assert np.allclose(so3.hat(v) @ w, np.cross(v, w), atol=1e-12)


@given(finite_vec, finite_vec, st.floats(-5, 5), st.floats(-5, 5))
def test_hat_linearity(u, w, a, b):
    assert np.array_equal(so3.hat(a * u + b * w),
                          a * so3.hat(u) + b * so3.hat(w))


def test_exp_zero_is_identity():
    assert np.array_equal(so3.exp_so3([0.0, 0.0, 0.0]), np.eye(3))


def test_exp_quarter_turn_about_z():
    R = so3.exp_so3([0.0, 0.0, np.pi / 2])
    assert np.allclose(R @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)


def test_exp_inverse_property():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.normal(size=3) * rng.uniform(0, np.pi)
        assert np.linalg.norm(
            so3.exp_so3(v) @ so3.exp_so3(-v) - np.eye(3)) < 1e-12


def test_exp_one_parameter_group():
    rng = np.random.default_rng(12)
    v = rng.normal(size=3)
    v = v / np.linalg.norm(v) * 0.7
    for a, b in [(0.5, 0.5), (1.0, 2.0), (2.0, 0.5)]:
        assert np.linalg.norm(
            so3.exp_so3(a * v) @ so3.exp_so3(b * v)
            - so3.exp_so3((a + b) * v)) < 1e-12


def test_exp_small_angle_branch_is_continuous():
    v = np.array([3e-9, -4e-9, 1e-9])
    taylor = so3.exp_so3(v)
    rodrigues = np.eye(3) + np.sin(np.linalg.norm(v)) / np.linalg.norm(v) * so3.hat(v)
    assert np.allclose(taylor, rodrigues, atol=1e-16)


def test_exp_batched_equals_per_vector():
    # a stack takes the same arithmetic per element, the small-angle
    # branch included, for real and complex-step input
    rng = np.random.default_rng(13)
    v = np.concatenate([rng.normal(size=(40, 3)),
                        1e-9 * rng.normal(size=(5, 3)), np.zeros((1, 3))])
    R = so3.exp_so3(v.reshape(2, 23, 3))
    assert R.shape == (2, 23, 3, 3)
    assert np.array_equal(R.reshape(-1, 3, 3),
                          np.array([so3.exp_so3(x) for x in v]))
    vc = v + 1e-20j * rng.normal(size=v.shape)
    assert np.array_equal(so3.exp_so3(vc),
                          np.array([so3.exp_so3(x) for x in vc]))


def test_log_identity():
    assert np.array_equal(so3.rotation_vector(np.eye(3)), np.zeros(3))


def test_log_roundtrip_principal():
    v = np.array([0.1, 0.2, 0.3])
    assert np.linalg.norm(so3.rotation_vector(so3.exp_so3(v)) - v) < 1e-12


def test_log_near_branch_stress():
    rng = np.random.default_rng(21)
    for _ in range(20):
        axis = rng.normal(size=3)
        v = axis / np.linalg.norm(axis) * (0.9 * np.pi)
        R = so3.exp_so3(v)
        assert np.linalg.norm(so3.exp_so3(so3.rotation_vector(R)) - R) < 1e-9


def test_exp_log_roundtrip_bulk():
    # acceptance A6 uses 1e4 samples; keep a quick version here
    rng = np.random.default_rng(33)
    for _ in range(200):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0, np.pi - 1e-3)
        assert np.linalg.norm(so3.rotation_vector(so3.exp_so3(v)) - v) < 1e-10


def test_project_scaled_identity():
    assert np.allclose(so3.project_to_so3(2.0 * np.eye(3)), np.eye(3),
                       atol=1e-15)


def test_project_small_perturbation_bound():
    rng = np.random.default_rng(3)
    for _ in range(20):
        R = random_rotation(rng)
        M = rng.normal(size=(3, 3))
        A = R @ (np.eye(3) + 1e-3 * (M + M.T) / 2)
        assert np.linalg.norm(so3.project_to_so3(A) - R) < 2e-3


def test_project_is_nearest_rotation():
    rng = np.random.default_rng(4)
    for _ in range(20):
        A = rng.normal(size=(3, 3))
        try:
            R = so3.project_to_so3(A)
        except DegenerateMatrix:
            continue
        d_proj = np.linalg.norm(A - R)
        for _ in range(200):
            Q = random_rotation(rng)
            assert d_proj <= np.linalg.norm(A - Q) + 1e-12


def test_project_idempotent():
    rng = np.random.default_rng(6)
    for _ in range(20):
        A = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        R = so3.project_to_so3(A)
        assert np.linalg.norm(so3.project_to_so3(R) - R) < 1e-12


def test_project_fixes_reflection():
    A = np.diag([1.0, 1.0, -1.0]) @ so3.exp_so3([0.3, 0.1, -0.2])
    R = so3.project_to_so3(A)
    assert np.isclose(np.linalg.det(R), 1.0, atol=1e-12)


def test_project_rejects_degenerate():
    with pytest.raises(DegenerateMatrix):
        so3.project_to_so3(np.diag([1.0, 1.0, 0.0]))


def test_rotation_angle_matches_log():
    rng = np.random.default_rng(7)
    for _ in range(20):
        R = random_rotation(rng)
        assert np.isclose(so3.rotation_angle(R),
                          np.linalg.norm(so3.rotation_vector(R)), atol=1e-9)


def test_rotation_angle_at_pi():
    assert np.isclose(so3.rotation_angle(np.diag([-1.0, -1.0, 1.0])), np.pi)


def test_rotation_angle_resolves_tiny_angles_batched():
    # atan2 keeps full relative precision where arccos of (tr - 1) / 2
    # reads 0 or ~1.5e-8
    rng = np.random.default_rng(14)
    axes = rng.normal(size=(30, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.logspace(-12, 0, 30)
    R = so3.exp_so3(angles[:, None] * axes)
    got = so3.rotation_angle(R)
    assert got.shape == (30,)
    assert np.allclose(got, angles, rtol=1e-6, atol=0)
    assert np.array_equal(got, [so3.rotation_angle(Rf) for Rf in R])


def test_deterministic_svd_reconstructs():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(12, 5))
    U, s, Vt = deterministic_svd(A)
    assert np.allclose(U * s @ Vt, A, atol=1e-12)
    for i in range(U.shape[1]):
        j = np.argmax(np.abs(U[:, i]))
        assert U[j, i] > 0


def test_deterministic_svd_signs_match_per_column_loop():
    # the stacked sign fix is bit-equal to flipping column by column
    rng = np.random.default_rng(10)
    for shape in [(12, 5), (5, 12), (60, 60)]:
        A = rng.normal(size=shape)
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        for i in range(U.shape[1]):
            j = int(np.argmax(np.abs(U[:, i])))
            if U[j, i] < 0:
                U[:, i] = -U[:, i]
                Vt[i, :] = -Vt[i, :]
        U2, s2, Vt2 = deterministic_svd(A)
        assert np.array_equal(U2, U) and np.array_equal(Vt2, Vt)
        assert np.array_equal(s2, s)


def test_right_jacobian_matches_finite_difference():
    # omega = J_r(theta) dtheta must satisfy dR/dt = R hat(omega)
    rng = np.random.default_rng(9)
    for _ in range(10):
        th = rng.normal(size=3) * 0.5
        dth = rng.normal(size=3)
        h = 1e-7
        Rdot = (so3.exp_so3(th + h * dth) - so3.exp_so3(th - h * dth)) / (2 * h)
        R = so3.exp_so3(th)
        omega_fd = vee((R.T @ Rdot - (R.T @ Rdot).T) / 2, tol=1e-3)
        assert np.allclose(so3.right_jacobian(th) @ dth, omega_fd, atol=1e-6)


def _jacobian_inputs():
    """Vectors up to angle 3, below SMALL_ANGLE, and zero, as (6, 9, 3)."""
    rng = np.random.default_rng(43)
    axes = rng.normal(size=(48, 3))
    v = axes / np.linalg.norm(axes, axis=1, keepdims=True) * rng.uniform(
        0.0, 3.0, size=(48, 1))
    return np.concatenate([v, 1e-9 * rng.normal(size=(5, 3)),
                           np.zeros((1, 3))]).reshape(6, 9, 3)


def test_right_jacobian_batched_equals_per_vector():
    v = _jacobian_inputs()
    J = so3.right_jacobian(v)
    assert J.shape == (6, 9, 3, 3)
    flat = v.reshape(-1, 3)
    assert np.array_equal(J.reshape(-1, 3, 3),
                          np.array([right_jacobian_one(x) for x in flat]))
    assert np.array_equal(J.reshape(-1, 3, 3),
                          np.array([so3.right_jacobian(x) for x in flat]))


def test_right_jacobian_small_angle_branch_exact():
    v = np.array([[3e-9, -4e-9, 1e-9], [0.0, 0.0, 0.0]])
    V = so3.hat(v)
    assert np.array_equal(so3.right_jacobian(v),
                          np.eye(3) - 0.5 * V + (V @ V) / 6.0)


def test_right_jacobian_batched_complex_step():
    # complex scalars and complex stacks round differently in the last
    # place, so the imaginary (derivative) part may move by a few ulp
    v = _jacobian_inputs().reshape(-1, 3)
    vc = v + 1e-30j * np.random.default_rng(44).normal(size=v.shape)
    J = so3.right_jacobian(vc)
    oracle = np.array([right_jacobian_one(x) for x in vc])
    assert np.array_equal(J.real, oracle.real)
    ulp = np.spacing(np.abs(oracle.imag).max(axis=(1, 2)))[:, None, None]
    assert np.all(np.abs(J.imag - oracle.imag) <= 8 * ulp)


def test_log_batched_equals_per_matrix():
    # both branches: angles up to 3 rad, skew parts below SMALL_ANGLE and
    # the identity
    R = so3.exp_so3(_jacobian_inputs())
    L = so3.rotation_vector(R)
    assert L.shape == (6, 9, 3)
    assert np.array_equal(L.reshape(-1, 3),
                          np.array([log_so3_one(x) for x in R.reshape(-1, 3, 3)]))
    assert np.array_equal(L[-1, -1], np.zeros(3))


@pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-8, 1e-6, 1e-4, 1e-3])
def test_rotation_vector_near_pi_roundtrip(gap):
    # within ~1e-3 of pi, where the skew part no longer fixes the axis
    # sign, in a stack with matrices away from it, which keep the
    # per-matrix oracle's value
    rng = np.random.default_rng(45)
    axes = rng.normal(size=(20, 3))
    v = axes / np.linalg.norm(axes, axis=1, keepdims=True) * (np.pi - gap)
    R = so3.exp_so3(v)
    far = so3.exp_so3(_jacobian_inputs().reshape(-1, 3))
    out = so3.rotation_vector(np.concatenate([R, far]))
    assert np.all(np.linalg.norm(so3.exp_so3(out[:20]) - R, axis=(1, 2))
                  < 1e-12)
    if gap > 0:  # at pi itself both signs of the axis are logarithms
        assert np.abs(out[:20] - v).max() < 1e-12
    assert np.array_equal(out[20:], [log_so3_one(x) for x in far])


def test_rotation_vector_single_matrix_at_pi():
    out = so3.rotation_vector(so3.exp_so3([0.0, np.pi, 0.0]))
    assert out.shape == (3,)
    assert np.allclose(np.abs(out), [0.0, np.pi, 0.0], atol=1e-15)


def _stack_inputs():
    rng = np.random.default_rng(41)
    A = rng.normal(size=(6, 3, 3)) + 2 * np.eye(3)
    A[2] = np.diag([1.0, 1.0, -1.0]) @ so3.exp_so3([0.3, 0.1, -0.2])
    return A


def test_hat_stack_equals_per_item():
    v = np.random.default_rng(40).normal(size=(2, 5, 3))
    H = so3.hat(v)
    assert H.shape == (2, 5, 3, 3)
    for idx in np.ndindex(2, 5):
        assert np.array_equal(H[idx], so3.hat(v[idx]))


def test_project_stack_equals_per_item_including_reflection():
    A = _stack_inputs()
    assert np.linalg.det(A[2]) < 0
    R = so3.project_to_so3(A)
    for f in range(A.shape[0]):
        assert np.array_equal(R[f], so3.project_to_so3(A[f]))
    assert np.allclose(np.linalg.det(R), 1.0, atol=1e-12)


def test_project_stack_rejects_one_degenerate_matrix():
    A = _stack_inputs()
    A[4] = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(DegenerateMatrix):
        so3.project_to_so3(A)


def test_rate_blocks_stack_equals_per_item():
    rng = np.random.default_rng(42)
    omega, domega = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
    W1, W2 = so3.rate_blocks(omega, domega)
    for f in range(7):
        w1 = so3.hat(omega[f])
        assert np.array_equal(W1[f], w1)
        assert np.array_equal(W2[f], w1 @ w1 - so3.hat(domega[f]))


def test_rate_blocks_hand_value():
    W1, W2 = so3.rate_blocks(np.array([[0.0, 0.0, 1.0]]), np.zeros((1, 3)))
    assert np.array_equal(W1[0], [[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    assert np.array_equal(W2[0], [[-1, 0, 0], [0, -1, 0], [0, 0, 0]])
