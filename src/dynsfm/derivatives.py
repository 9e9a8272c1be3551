"""Savitzky-Golay derivative filters, series differentiation and the
angular-acceleration series of a gyro.

A filter is one polynomial least-squares fit on a centred, scaled
abscissa. Interior samples use its centred taps, in "dot" orientation:
taps @ window_samples / t_s**deriv. The first and last half-window
samples evaluate the fit of the first and last window off-centre, so
outputs keep full length.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadFilterSpec, LengthMismatch, SeriesTooShort,
                     SingularInertia)

# Largest filter order: windows up to 120001 differentiate monomials, edges
# included, to 2e-10 relative at order 10 (6e-9 at 15, 2e-6 at 20).
MAX_ORDER = 10


@dataclass(frozen=True)
class DerivFilter:
    """Polynomial least-squares derivative filter. fit (order + 1, window)
    maps a window's samples to the coefficients of their polynomial in
    x = (k - half) / max(half, 1) at sample k; basis (window, order + 1)
    holds the deriv-th derivative of each x^j per sample step at each
    window position. taps = basis[half] @ fit is the centred filter."""
    taps: np.ndarray
    fit: np.ndarray
    basis: np.ndarray
    order: int
    window: int
    deriv: int


def check_filter_spec(order, window, deriv, name="filter"):
    """The rule for every filter spec: an odd window, deriv <= order <
    window and order <= MAX_ORDER. Raises BadFilterSpec naming `name`."""
    if (window % 2 == 0 or not 0 <= deriv <= order < window
            or order > MAX_ORDER):
        raise BadFilterSpec(
            f"{name}: need an odd window and {deriv} <= order < window with "
            f"order <= {MAX_ORDER}, got order={order} window={window}")


def savgol_filter(order, window, deriv):
    """Savitzky-Golay derivative filter from one least-squares fit."""
    check_filter_spec(order, window, deriv)
    # a centred, scaled abscissa: on k itself the Vandermonde matrix loses
    # the polynomial at moderate orders (order 5 at window 1001)
    half, h = window // 2, max(window // 2, 1)
    x = (np.arange(window) - half) / h
    fit = np.linalg.pinv(np.vander(x, order + 1, increasing=True))
    j = np.arange(order + 1)
    falling = np.array([math.perm(i, deriv) for i in j], dtype=float)
    basis = falling * x[:, None] ** np.maximum(j - deriv, 0) / h ** deriv
    return DerivFilter(taps=basis[half] @ fit, fit=fit, basis=basis,
                       order=order, window=window, deriv=deriv)


def differentiate_series(series, t_s, filt):
    """Apply a DerivFilter along axis 0 of an (F, d) or (F,) series.

    Interior samples are the centred taps divided by t_s**deriv; the
    half-window boundary samples evaluate the fit of the first and last
    window at their positions, so the output has the same length F as
    the input.
    """
    shape = np.shape(series)
    y = np.asarray(series, dtype=float).reshape(shape[0], -1)
    F = y.shape[0]
    w, half = filt.window, filt.window // 2
    if F < w:
        raise SeriesTooShort(f"series length {F} < window {w}")
    scale = 1.0 / t_s ** filt.deriv
    out = np.empty_like(y)
    # boundaries: the fit of the first and last window, evaluated off-centre
    out[:half] = filt.basis[:half] @ (filt.fit @ y[:w]) * scale
    out[F - half:] = filt.basis[half + 1:] @ (filt.fit @ y[F - w:]) * scale
    # interior: correlation with the centred taps, accumulated in place
    inner = out[half:F - half]
    np.multiply(filt.taps[0], y[:len(inner)], out=inner)
    for k in range(1, w):
        inner += filt.taps[k] * y[k:k + len(inner)]
    inner *= scale
    return out.reshape(shape)


def differentiate_tracks(tracks, t_s, filt1, filt2):
    """First and second derivatives of an (F, P, 2) track array."""
    tracks = np.asarray(tracks, dtype=float)
    F, P, _ = tracks.shape
    flat = tracks.reshape(F, 2 * P)
    flows = differentiate_series(flat, t_s, filt1).reshape(F, P, 2)
    dflows = differentiate_series(flat, t_s, filt2).reshape(F, P, 2)
    return flows, dflows


def euler_omega_dot(inertia, torque, omega):
    """Angular acceleration from the rigid-body equation of motion:
    domega = J^-1 (torque - omega x (J omega))."""
    J = np.asarray(inertia, dtype=float)
    if J.shape != (3, 3) or np.linalg.norm(J - J.T) > 1e-9 * np.linalg.norm(J):
        raise SingularInertia("inertia must be a symmetric 3x3 matrix")
    if np.linalg.eigvalsh(J).min() <= 0:
        raise SingularInertia("inertia must be positive definite")
    omega = np.atleast_2d(np.asarray(omega, dtype=float))
    torque = np.atleast_2d(np.asarray(torque, dtype=float))
    if torque.shape != omega.shape:
        raise LengthMismatch("torque and omega series lengths differ")
    rhs = torque - np.cross(omega, omega @ J.T)
    return np.linalg.solve(J, rhs.T).T


def omega_dot_series(omega, mode, t_s, inertia=None, torque=None, filt=None):
    """Angular-acceleration series from gyro samples.

    mode "euler" applies the rigid-body equation of motion (needs inertia
    and torque), "zero" assumes constant angular velocity, "numeric"
    differentiates the gyro series with `filt` (default order 2, window 5).
    """
    omega = np.asarray(omega, dtype=float)
    if mode == "zero":
        return np.zeros_like(omega)
    if mode == "euler":
        if inertia is None or torque is None:
            raise BadFilterSpec("euler mode needs inertia and torque")
        return euler_omega_dot(inertia, torque, omega)
    if mode == "numeric":
        if filt is None:
            filt = savgol_filter(2, 5, 1)
        return differentiate_series(omega, t_s, filt)
    raise BadFilterSpec(f"unknown omega_dot mode {mode!r}")
