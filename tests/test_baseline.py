import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynsfm import so3
from dynsfm.baseline import imu_dead_reckon
from dynsfm.errors import LengthMismatch
from dynsfm.simulate import (DEFAULT_GRAVITY, generate_trajectory,
                             synthesize_imu)

G = DEFAULT_GRAVITY
REST = (np.eye(3), np.zeros(3), np.zeros(3))


def _initial_state(traj):
    return traj.rotations[0], traj.T[0], traj.dT[0]


def test_stationary_input_constant_state():
    F = 50
    R0 = so3.exp_so3([0.2, -0.1, 0.4])
    gyro = np.zeros((F, 3))
    accel = np.tile(R0.T @ G, (F, 1))  # exactly cancels gravity
    init = (R0, np.array([1.0, 2.0, 3.0]), np.zeros(3))
    R, T, v = imu_dead_reckon(gyro, accel, G, init, t_s=1 / 30)
    assert R.shape == (F, 3, 3) and T.shape == v.shape == (F, 3)
    assert np.allclose(R, R0, atol=1e-12)
    assert np.allclose(T, [1.0, 2.0, 3.0], atol=1e-12)
    assert np.allclose(v, 0.0, atol=1e-12)


def test_constant_acceleration_exact():
    # piecewise-constant integration reproduces T = a t^2 / 2 exactly
    F = 100
    t_s = 1 / 30
    a = np.array([0.7, -0.3, 0.1])
    gyro = np.zeros((F, 3))
    accel = np.tile(a, (F, 1))
    _, pos, _ = imu_dead_reckon(gyro, accel, np.zeros(3), REST, t_s)
    t_end = (F - 1) * t_s
    assert np.linalg.norm(pos[-1] - 0.5 * a * t_end ** 2) < 1e-9


def test_noiseless_halving_step_improves():
    # first-order integrator: halving t_s cuts the terminal error by >1.8x
    errs = []
    for t_s in (1 / 30, 1 / 60, 1 / 120):
        traj = generate_trajectory(4.0, t_s, 0.35, np.radians(30), seed=7)
        gyro, accel = synthesize_imu(traj, G)
        _, pos, _ = imu_dead_reckon(gyro, accel, G, _initial_state(traj),
                                    t_s)
        errs.append(np.linalg.norm(pos[-1] - traj.T[-1]))
    assert errs[0] / errs[1] > 1.8
    assert errs[1] / errs[2] > 1.8


def test_rotation_stays_orthonormal_many_steps():
    rng = np.random.default_rng(3)
    gyro = rng.normal(0.0, 0.5, size=(10_000, 3))
    accel = np.zeros((10_000, 3))
    R, _, _ = imu_dead_reckon(gyro, accel, np.zeros(3), REST, t_s=1 / 100)
    assert np.linalg.norm(R[-1] @ R[-1].T - np.eye(3)) < 1e-9


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        imu_dead_reckon(np.zeros((5, 3)), np.zeros((4, 3)), G, REST, 1 / 30)


@pytest.mark.parametrize("shape", [(0, 3), (5, 2), (3,), (5, 3, 1)])
def test_rejects_series_not_f_by_3(shape):
    # no frames, or frames that are not 3-vectors: one LengthMismatch, not
    # a lone initial state or a bare IndexError
    with pytest.raises(LengthMismatch):
        imu_dead_reckon(np.zeros(shape), np.zeros(shape), G, REST, 1 / 30)


def test_noise_grows_error_over_time():
    # with reference-level noise, the error in the last quarter dominates the
    # first quarter (drift accumulates), measured, not asserted to a rate
    t_s = 1 / 30
    traj = generate_trajectory(5.0, t_s, 0.35, np.radians(30), seed=9)
    gyro, accel = synthesize_imu(traj, G)
    rng = np.random.default_rng(4)
    gyro = gyro + rng.normal(0, np.radians(3.0), gyro.shape)
    accel = accel + rng.normal(0, 0.2, accel.shape)
    _, pos, _ = imu_dead_reckon(gyro, accel, G, _initial_state(traj), t_s)
    err = np.linalg.norm(pos - traj.T, axis=1)
    q = len(err) // 4
    assert err[-q:].mean() > 3.0 * err[:q].mean()


def _dead_reckon_oracle(gyro, accel, gravity, init, t_s):
    """The integrator one step at a time, each increment its own
    exp_so3 call."""
    R, T, v = (np.array(x, dtype=float) for x in init)
    states = [(R, T, v)]
    for f in range(len(gyro) - 1):
        a = R @ accel[f] - gravity
        T = T + t_s * v + 0.5 * t_s * t_s * a
        v = v + t_s * a
        R = R @ so3.exp_so3(t_s * gyro[f])
        states.append((R, T, v))
    return [np.array(x) for x in zip(*states)]


@given(F=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1),
       t_s=st.sampled_from([1 / 30, 1 / 200]), data=st.data())
def test_batched_increments_equal_per_step_oracle(F, seed, t_s, data):
    # the array integrator rounds as the per-step loop does, one increment
    # on the small-angle branch of exp_so3
    rng = np.random.default_rng(seed)
    gyro = rng.normal(0.0, 1.0, (F, 3))
    gyro[data.draw(st.integers(0, F - 1))] = 1e-10
    accel = rng.normal(0.0, 3.0, (F, 3)) + [0.0, 0.0, 9.8]
    init = (so3.exp_so3(rng.normal(size=3)), rng.normal(size=3),
            rng.normal(size=3))
    got = imu_dead_reckon(gyro, accel, G, init, t_s)
    for x, y in zip(got, _dead_reckon_oracle(gyro, accel, G, init, t_s)):
        assert np.array_equal(x, y)
