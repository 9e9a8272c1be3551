import numpy as np
import pytest

from dynsfm import so3
from dynsfm.baseline import (DeadReckonState, dead_reckon_positions,
                             imu_dead_reckon)
from dynsfm.errors import LengthMismatch
from dynsfm.simulate import (DEFAULT_GRAVITY, generate_trajectory,
                             synthesize_imu)

G = DEFAULT_GRAVITY


def test_stationary_input_constant_state():
    F = 50
    R0 = so3.exp_so3([0.2, -0.1, 0.4])
    gyro = np.zeros((F, 3))
    accel = np.tile(R0.T @ G, (F, 1))  # exactly cancels gravity
    init = DeadReckonState(R0, np.array([1.0, 2.0, 3.0]), np.zeros(3))
    states = imu_dead_reckon(gyro, accel, G, init, t_s=1 / 30)
    assert len(states) == F
    for s in states:
        assert np.allclose(s.rotation, R0, atol=1e-12)
        assert np.allclose(s.position, [1.0, 2.0, 3.0], atol=1e-12)
        assert np.allclose(s.velocity, 0.0, atol=1e-12)


def test_constant_acceleration_exact():
    # piecewise-constant integration reproduces T = a t^2 / 2 exactly
    F = 100
    t_s = 1 / 30
    a = np.array([0.7, -0.3, 0.1])
    gyro = np.zeros((F, 3))
    accel = np.tile(a, (F, 1))
    init = DeadReckonState(np.eye(3), np.zeros(3), np.zeros(3))
    pos = dead_reckon_positions(gyro, accel, np.zeros(3), init, t_s)
    t_end = (F - 1) * t_s
    assert np.linalg.norm(pos[-1] - 0.5 * a * t_end ** 2) < 1e-9


def test_noiseless_halving_step_improves():
    # first-order integrator: halving t_s cuts the terminal error by >1.8x
    errs = []
    for t_s in (1 / 30, 1 / 60, 1 / 120):
        traj = generate_trajectory(4.0, t_s, 0.35, np.radians(30), seed=7)
        gyro, accel = synthesize_imu(traj, G)
        init = DeadReckonState(traj.rotations[0].copy(), traj.T[0].copy(),
                               traj.dT[0].copy())
        pos = dead_reckon_positions(gyro, accel, G, init, t_s)
        errs.append(np.linalg.norm(pos[-1] - traj.T[-1]))
    assert errs[0] / errs[1] > 1.8
    assert errs[1] / errs[2] > 1.8


def test_rotation_stays_orthonormal_many_steps():
    rng = np.random.default_rng(3)
    gyro = rng.normal(0.0, 0.5, size=(10_000, 3))
    accel = np.zeros((10_000, 3))
    init = DeadReckonState(np.eye(3), np.zeros(3), np.zeros(3))
    states = imu_dead_reckon(gyro, accel, np.zeros(3), init, t_s=1 / 100)
    R = states[-1].rotation
    assert np.linalg.norm(R @ R.T - np.eye(3)) < 1e-9


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        imu_dead_reckon(np.zeros((5, 3)), np.zeros((4, 3)))


def test_noise_grows_error_over_time():
    # with reference-level noise, the error in the last quarter dominates the
    # first quarter (drift accumulates), measured, not asserted to a rate
    t_s = 1 / 30
    traj = generate_trajectory(5.0, t_s, 0.35, np.radians(30), seed=9)
    gyro, accel = synthesize_imu(traj, G)
    rng = np.random.default_rng(4)
    gyro = gyro + rng.normal(0, np.radians(3.0), gyro.shape)
    accel = accel + rng.normal(0, 0.2, accel.shape)
    init = DeadReckonState(traj.rotations[0].copy(), traj.T[0].copy(),
                           traj.dT[0].copy())
    pos = dead_reckon_positions(gyro, accel, G, init, t_s)
    err = np.linalg.norm(pos - traj.T, axis=1)
    q = len(err) // 4
    assert err[-q:].mean() > 3.0 * err[:q].mean()


def _dead_reckon_oracle(gyro, accel, gravity, init, t_s):
    """The integrator one step at a time, each increment its own
    exp_so3 call."""
    R, T, v = init.rotation.copy(), init.position.copy(), init.velocity.copy()
    states = [(R, T, v)]
    for f in range(len(gyro) - 1):
        a = R @ accel[f] - gravity
        T = T + t_s * v + 0.5 * t_s * t_s * a
        v = v + t_s * a
        R = R @ so3.exp_so3(t_s * gyro[f])
        states.append((R, T, v))
    return states


def test_batched_increments_equal_per_step_oracle():
    t_s = 1 / 30
    traj = generate_trajectory(5.0, t_s, 0.35, np.radians(30), seed=9)
    gyro, accel = synthesize_imu(traj, G)
    gyro = gyro + np.random.default_rng(5).normal(0, np.radians(3.0),
                                                  gyro.shape)
    gyro[10] = 1e-10  # an increment on the small-angle branch
    init = DeadReckonState(traj.rotations[0].copy(), traj.T[0].copy(),
                           traj.dT[0].copy())
    states = imu_dead_reckon(gyro, accel, G, init, t_s)
    oracle = _dead_reckon_oracle(gyro, accel, G, init, t_s)
    assert len(states) == len(oracle) == traj.n_frames
    for s, (R, T, v) in zip(states, oracle):
        assert np.array_equal(s.rotation, R)
        assert np.array_equal(s.position, T)
        assert np.array_equal(s.velocity, v)
