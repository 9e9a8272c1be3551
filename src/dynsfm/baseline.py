"""IMU-only dead reckoning, the comparison baseline for the solver."""

from dataclasses import dataclass

import numpy as np

from . import so3
from .errors import LengthMismatch
from .simulate import DEFAULT_GRAVITY


@dataclass
class DeadReckonState:
    """Pose and spatial-frame velocity of the integrator."""
    rotation: np.ndarray  # (3, 3)
    position: np.ndarray  # (3,)
    velocity: np.ndarray  # (3,)


def imu_dead_reckon(gyro, accel, gravity=DEFAULT_GRAVITY, init=None,
                    t_s=1.0 / 30.0):
    """Integrate gyro and accelerometer readings from a known initial state.

    Per step: spatial acceleration a = R a_imu - g (inverting the
    accelerometer model), position advances with the pre-update velocity
    plus the half-step acceleration term (exact for piecewise-constant
    acceleration), then velocity and attitude update. The attitude
    increments exp(t_s gyro_f) come from one batched exp_so3; their
    product is sequential. Returns one state per input frame, the first
    being the initial state itself.
    """
    gyro = np.asarray(gyro, dtype=float)
    accel = np.asarray(accel, dtype=float)
    if gyro.shape != accel.shape:
        raise LengthMismatch("gyro and accel series lengths differ")
    if init is None:
        init = DeadReckonState(np.eye(3), np.zeros(3), np.zeros(3))
    R = init.rotation.copy()
    T = init.position.copy()
    v = init.velocity.copy()
    states = [DeadReckonState(R.copy(), T.copy(), v.copy())]
    steps = so3.exp_so3(t_s * gyro[:-1])
    for f in range(len(gyro) - 1):
        a = R @ accel[f] - gravity
        T = T + t_s * v + 0.5 * t_s * t_s * a
        v = v + t_s * a
        R = R @ steps[f]
        states.append(DeadReckonState(R.copy(), T.copy(), v.copy()))
    return states


def dead_reckon_positions(gyro, accel, gravity, init, t_s):
    """Convenience: (F, 3) array of integrated positions."""
    states = imu_dead_reckon(gyro, accel, gravity, init, t_s)
    return np.array([s.position for s in states])
