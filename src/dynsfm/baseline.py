"""IMU-only dead reckoning, the comparison baseline for the solver."""

import math

import numpy as np

from . import so3
from .errors import LengthMismatch


def imu_dead_reckon(gyro, accel, gravity, init, t_s):
    """Integrate gyro and accelerometer readings from init = (R0, T0, v0).

    Per step: a = R a_imu - g (inverting the accelerometer model); the
    position advances by the pre-update velocity plus the half-step
    acceleration term (exact for piecewise-constant acceleration); then
    the velocity and the attitude, R exp(t_s gyro_f), update. Returns the
    attitudes (F, 3, 3), positions (F, 3) and spatial-frame velocities
    (F, 3), frame 0 being init.
    """
    gyro = np.asarray(gyro, dtype=float)
    accel = np.asarray(accel, dtype=float)
    if gyro.shape != accel.shape or gyro.shape[1:] != (3,) or not len(gyro):
        raise LengthMismatch("gyro and accel must both be (F, 3), F >= 1")
    R0, T0, v0 = init
    R = np.empty((len(gyro), 3, 3))
    R[0] = R0
    steps = so3.exp_so3(t_s * gyro[:-1])
    for f, step in enumerate(steps):
        np.matmul(R[f], step, out=R[f + 1])
    a = so3.matvec(R[:-1], accel[:-1]) - gravity
    v = np.add.accumulate(np.vstack([v0, t_s * a]))
    # T_f+1 = (T_f + t_s v_f) + t_s^2 a_f / 2: the two terms interleaved
    # and summed in that order round exactly as the per-step update does
    terms = np.empty((2 * len(a) + 1, 3))
    terms[0], terms[1::2], terms[2::2] = T0, t_s * v[:-1], 0.5 * t_s * t_s * a
    return R, np.add.accumulate(terms)[::2].copy(), v


def terminal_rmse(positions, truth):
    """Position RMSE over the last max(1, F // 4) frames.

    The errors are divided by 2^e, e the exponent of their largest
    magnitude, before they are squared, and the root is multiplied by it
    after: a power of two commutes with rounding, so the result is the
    plain formula's wherever that does not overflow, and is finite for
    any finite errors."""
    window = max(1, len(truth) // 4)
    err = positions[-window:] - truth[-window:]
    e = int(np.frexp(np.abs(err).max(initial=0.0))[1])
    root = np.sqrt((np.ldexp(err, -e) ** 2).sum(axis=1).mean())
    return math.ldexp(float(root), e)
