"""Observed discretization orders of the solver on the noiseless default
trajectory, 5 s at 30, 60 and 120 Hz.

Between rates h and h/2 the observed order of an error e is
log2(e(h) / e(h/2)). An order is scale-free: it holds whatever the
rounding of the solve, and it changes only when the method does (the
order-verification practice of code verification; Roache, J. Fluids
Eng. 124(1), 2002). The noiseless translation error is the truncation of
the regularizer's derivative filter, t_s^2 for the default 3-tap filter.
"""

import functools

import numpy as np
import pytest

import dynsfm
from dynsfm.solver import SolverOptions

RATES = (30, 60, 120)


@functools.cache
def errors(reg_filter):
    """Per rate: translation RMSE, gravity angle, mean rotation error and
    the translation stage's condition estimate."""
    rows = []
    for hz in RATES:
        ds = dynsfm.simulate_dataset(duration=5.0, t_s=1 / hz, n_points=24,
                                     extent=2.0, amp_trans=0.35,
                                     amp_rot=np.radians(30), seed=0)
        recon = dynsfm.reconstruct(ds.measurements,
                                   SolverOptions(reg_filter=reg_filter))
        report = dynsfm.evaluate(recon, ds.trajectory, ds.scene, ds.gravity)
        rows.append((report.trans_rmse, report.gravity_angle_err,
                     report.rot_err_mean,
                     recon.residuals["translation_cond"]))
    return dict(zip(("trans", "gravity", "rotation", "cond"),
                    np.array(rows).T))


def observed_order(e):
    """log2 of the error ratio between consecutive rates."""
    return np.log2(e[:-1] / e[1:])


@pytest.mark.parametrize("reg_filter, order, tol", [
    ((1, 3), 2.0, 0.1),   # the default filter: measured 2.00
    ((4, 7), 4.0, 0.3),   # measured 4.1 and 4.0
])
@pytest.mark.parametrize("error", ["trans", "gravity"])
def test_translation_and_gravity_reach_the_filter_order(reg_filter, order,
                                                        tol, error):
    observed = observed_order(errors(reg_filter)[error])
    assert np.all(np.abs(observed - order) <= tol), observed


def test_rotation_error_reaches_order_above_5():
    # measured 5.95; at 120 Hz the error is ~7e-15 rad, above the ~1e-15
    # floor, which from 240 Hz on would mask the order
    observed = observed_order(errors((1, 3))["rotation"])
    assert np.all(observed >= 5.5), observed


def test_translation_cond_grows_as_the_inverse_square_of_t_s():
    # the regularizer rows scale as 1/t_s, their normal blocks as t_s^-2;
    # measured 3.9 and 4.0 per halving
    cond = errors((1, 3))["cond"]
    growth = cond[1:] / cond[:-1]
    assert np.all(np.abs(growth - 4.0) <= 0.4), growth
