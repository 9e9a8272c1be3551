"""Rotation-group and skew-symmetric algebra.

All functions are pure and operate on plain numpy arrays; 3x3 rotation
matrices map body coordinates to spatial coordinates, and 3-vectors in
axis-angle form carry the rotation angle as their norm.
"""

import numpy as np

from .errors import DegenerateMatrix

# Below this angle the Rodrigues sine/cosine ratios are replaced by their
# second-order Taylor expansions to avoid 0/0.
SMALL_ANGLE = 1e-8
# At or below this trace (angle within ~1e-3 of pi) the skew part of a
# rotation is too small to fix the sign of its axis to rounding.
NEAR_PI_TRACE = -1.0 + 1e-6


def hat(v):
    """Skew-symmetric cross-product matrix: hat(v) @ w == cross(v, w).

    Accepts a stack of vectors (..., 3) and returns (..., 3, 3).
    """
    v = np.asarray(v)
    H = np.zeros(v.shape + (3,), dtype=v.dtype)
    H[..., 0, 1], H[..., 0, 2] = -v[..., 2], v[..., 1]
    H[..., 1, 0], H[..., 1, 2] = v[..., 2], -v[..., 0]
    H[..., 2, 0], H[..., 2, 1] = -v[..., 1], v[..., 0]
    return H


def rate_blocks(omega, domega):
    """Per-frame rate blocks (hat(w), hat(w)^2 - hat(dw)) of an (F, 3)
    gyro series and its rate, each (F, 3, 3).

    A static point with body coordinates y = R^T X moves as
    dy/dt = -W1 y and d2y/dt2 = W2 y.
    """
    W1 = hat(omega)
    return W1, W1 @ W1 - hat(domega)


def cross(a, b):
    """np.cross of two (..., 3) stacks, bit for bit: the same products and
    differences per component, ~2x faster on an (F, 3) stack."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    for k in range(3):  # out_k = a_i b_j - a_j b_i, (k, i, j) cyclic
        i, j = (k + 1) % 3, (k + 2) % 3
        np.multiply(a[..., i], b[..., j], out=out[..., k])
        out[..., k] -= a[..., j] * b[..., i]
    return out


def norm(v):
    """|v| over the last axis of a (..., 3) stack as np.hypot.reduce takes
    it, hypot(hypot(v_0, v_1), v_2), ~3x faster than that reduction over
    a 3-wide axis; it overflows only where |v| does."""
    v = np.asarray(v)
    return np.hypot(np.hypot(v[..., 0], v[..., 1]), v[..., 2])


def matvec(A, x):
    """Stacked matrix-vector product A @ x over the leading axes.

    Each product keeps the operand shapes of the per-item A_f @ x_f, so
    the result is bit-equal to a per-frame loop.
    """
    return (A @ np.asarray(x)[..., None])[..., 0]


def _angle(v):
    """hat(v), the mask of angles |v| below SMALL_ANGLE, and |v| and |v|^2
    with 1 where masked. Complex-safe: |v| is then sqrt(v.v)."""
    v = np.asarray(v)
    th2 = (v[..., None, :] @ v[..., None])[..., 0, 0]
    th = np.sqrt(th2)
    small = np.abs(th) < SMALL_ANGLE
    return hat(v), small, np.where(small, 1.0, th), np.where(small, 1.0, th2)


def exp_so3(v):
    """Rodrigues formula for the matrix exponential of hat(v).

    Accepts a stack of vectors (..., 3) and returns (..., 3, 3); each
    angle below SMALL_ANGLE takes the Taylor branch. Accepts complex input
    so callers can differentiate through it with a complex step; the
    angle is then sqrt(v.v), not the real norm.
    """
    V, small, th, th2 = _angle(v)
    a = np.where(small, 1.0, np.sin(th) / th)
    b = np.where(small, 0.5, (1.0 - np.cos(th)) / th2)
    return (np.eye(3, dtype=V.dtype) + a[..., None, None] * V
            + b[..., None, None] * (V @ V))


def _skew(R):
    """R as floats, the axial vector of R - R^T (2 sin(theta) n) and the
    trace (1 + 2 cos(theta)), over the leading axes."""
    R = np.asarray(R, dtype=float)
    w = np.stack([R[..., 2, 1] - R[..., 1, 2], R[..., 0, 2] - R[..., 2, 0],
                  R[..., 1, 0] - R[..., 0, 1]], axis=-1)
    return R, w, np.trace(R, axis1=-2, axis2=-1)


def rotation_vector(R):
    """Principal-branch axis-angle of a rotation matrix, defined for every
    rotation.

    Accepts a stack (..., 3, 3) and returns (..., 3); each matrix whose
    skew part is below SMALL_ANGLE takes the first-order branch. The angle
    comes from atan2(|skew part|, trace - 1), which stays well-conditioned
    up to the branch (the arccos form loses ~6 digits near pi). Where
    trace(R) <= NEAR_PI_TRACE the skew part 2 sin(theta) n fades, so the
    axis n is the largest column of (R + R^T) / 2 - cos(theta) I =
    (1 - cos(theta)) n n^T (at pi, of R + I), signed to agree with the
    skew part. At pi itself both signs are logarithms of R.
    """
    R, w, tr = _skew(R)
    # |w|^2 as a 1x3 by 3x1 product rounds as the dot of one vector does;
    # norm(w, axis=-1) sums in another order
    nw = np.sqrt((w[..., None, :] @ w[..., None])[..., 0, 0])  # 2 sin(theta)
    th = np.arctan2(nw, tr - 1.0)
    small = nw < SMALL_ANGLE
    scale = th / np.where(small, 1.0, nw)
    v = np.where(small[..., None], 0.5 * w, scale[..., None] * w)
    near = np.ravel(tr <= NEAR_PI_TRACE)
    if near.any():
        Rn = R.reshape(-1, 3, 3)[near]
        cos = 0.5 * (tr.reshape(-1)[near] - 1.0)
        B = 0.5 * (Rn + np.swapaxes(Rn, 1, 2)) - cos[:, None, None] * np.eye(3)
        col = np.argmax(np.diagonal(B, axis1=1, axis2=2), axis=1)
        n = B[np.arange(len(col)), :, col]
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        n[(n * w.reshape(-1, 3)[near]).sum(axis=1) < 0] *= -1.0
        v.reshape(-1, 3)[near] = th.reshape(-1)[near, None] * n
    return v


def rotation_angle(R):
    """Geodesic angle of a rotation, or of each in a stack (..., 3, 3).

    atan2(|skew part|, trace - 1) = atan2(2 sin(theta), 2 cos(theta))
    resolves the angle to rounding everywhere on [0, pi]; the arccos of
    (trace - 1) / 2 resolves it only to ~sqrt(eps) near zero.
    """
    _, w, tr = _skew(R)
    return np.arctan2(np.linalg.norm(w, axis=-1), tr - 1.0)


def project_to_so3(A):
    """Nearest rotation (Frobenius) to a 3x3 matrix, via SVD.

    Accepts a stack (..., 3, 3). The reflection case det(U V^T) < 0 flips
    the singular vector of the smallest singular value. Raises
    DegenerateMatrix when any smallest singular value is <= 1e-12 (nearest
    rotation not unique).
    """
    return rotation_from_svd(*np.linalg.svd(np.asarray(A, dtype=float)))


def rotation_from_svd(U, s, Vt, det=None):
    """project_to_so3 of the matrices whose SVD stack is (U, s, Vt); det,
    if given, stands for the stack of det(U Vt), whose sign it reads."""
    if np.any(s[..., -1] <= 1e-12):
        raise DegenerateMatrix("smallest singular value below 1e-12")
    R = U @ Vt
    flip = (np.linalg.det(R) if det is None else det) < 0
    if np.any(flip):
        U = np.where(flip[..., None, None], U * [1.0, 1.0, -1.0], U)
        R = U @ Vt
    return R


def right_jacobian(v):
    """Right Jacobian of exp_so3: for R(t) = exp_so3(theta(t)) the body
    angular velocity is omega = right_jacobian(theta) @ dtheta/dt.

    Accepts a stack of vectors (..., 3) and returns (..., 3, 3); each
    angle below SMALL_ANGLE takes the Taylor branch. Complex-safe for
    complex-step differentiation, like exp_so3.
    """
    V, small, th, th2 = _angle(v)
    VV = V @ V
    a = np.where(small, 0.5, (1.0 - np.cos(th)) / th2)
    b = (th - np.sin(th)) / (th2 * th)
    return (np.eye(3, dtype=V.dtype) - a[..., None, None] * V
            + np.where(small[..., None, None], VV / 6.0,
                       b[..., None, None] * VV))


def fix_signs(U, Vt):
    """Make the largest-magnitude entry of each left singular vector
    (column of U) positive, flipping the matching row of Vt, in place, so
    factorizations are reproducible across LAPACK builds."""
    cols = np.arange(U.shape[1])
    signs = np.where(U[np.argmax(np.abs(U), axis=0), cols] < 0, -1.0, 1.0)
    U *= signs
    Vt *= signs[:, None]
