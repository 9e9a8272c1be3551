"""Rotation-group and skew-symmetric algebra.

All functions are pure and operate on plain numpy arrays; 3x3 rotation
matrices map body coordinates to spatial coordinates, and 3-vectors in
axis-angle form carry the rotation angle as their norm.
"""

import numpy as np

from .errors import DegenerateMatrix, NearPiAmbiguity, NotSkewSymmetric

# Below this angle the Rodrigues sine/cosine ratios are replaced by their
# second-order Taylor expansions to avoid 0/0.
SMALL_ANGLE = 1e-8


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


def matvec(A, x):
    """Stacked matrix-vector product A @ x over the leading axes.

    Each product keeps the operand shapes of the per-item A_f @ x_f, so
    the result is bit-equal to a per-frame loop.
    """
    return (A @ np.asarray(x)[..., None])[..., 0]


def vee(A, tol=1e-9):
    """Inverse of hat. Raises NotSkewSymmetric if ||A + A^T|| >= tol."""
    A = np.asarray(A, dtype=float)
    if np.linalg.norm(A + A.T) >= tol:
        raise NotSkewSymmetric("matrix is not skew-symmetric within tolerance")
    return np.array([A[2, 1], A[0, 2], A[1, 0]])


def exp_so3(v):
    """Rodrigues formula for the matrix exponential of hat(v).

    Accepts complex input so callers can differentiate through it with a
    complex step; the angle is then sqrt(v.v), not the real norm.
    """
    v = np.asarray(v)
    th2 = v @ v
    th = np.sqrt(th2)
    V = hat(v)
    I = np.eye(3, dtype=V.dtype)
    if abs(th) < SMALL_ANGLE:
        return I + V + 0.5 * (V @ V)
    return I + (np.sin(th) / th) * V + ((1.0 - np.cos(th)) / th2) * (V @ V)


def log_so3(R):
    """Principal-branch axis-angle of a rotation matrix.

    The angle comes from atan2(|skew part|, trace - 1), which stays
    well-conditioned up to the branch (the arccos form loses ~6 digits
    near pi). Raises NearPiAmbiguity when trace(R) <= -1 + 1e-6 (angle
    within ~1e-3 of pi), where the axis sign is numerically
    ill-determined.
    """
    R = np.asarray(R, dtype=float)
    tr = np.trace(R)
    if tr <= -1.0 + 1e-6:
        raise NearPiAmbiguity("rotation angle too close to pi")
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    nw = np.linalg.norm(w)  # 2 sin(theta)
    th = np.arctan2(nw, tr - 1.0)
    if nw < SMALL_ANGLE:
        return 0.5 * w
    return (th / nw) * w


def rotation_angle(R):
    """Geodesic angle of a rotation, valid on the whole group including pi."""
    tr = np.trace(np.asarray(R, dtype=float))
    return float(np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0)))


def project_to_so3(A):
    """Nearest rotation (Frobenius) to a 3x3 matrix, via SVD.

    Accepts a stack (..., 3, 3). The reflection case det(U V^T) < 0 flips
    the singular vector of the smallest singular value. Raises
    DegenerateMatrix when any smallest singular value is <= 1e-12 (nearest
    rotation not unique).
    """
    A = np.asarray(A, dtype=float)
    U, s, Vt = np.linalg.svd(A)
    if np.any(s[..., -1] <= 1e-12):
        raise DegenerateMatrix("smallest singular value below 1e-12")
    R = U @ Vt
    flip = np.linalg.det(R) < 0
    if np.any(flip):
        U[..., -1] = np.where(flip[..., None], -U[..., -1], U[..., -1])
        R = U @ Vt
    return R


def right_jacobian(v):
    """Right Jacobian of exp_so3: for R(t) = exp_so3(theta(t)) the body
    angular velocity is omega = right_jacobian(theta) @ dtheta/dt.

    Complex-safe for complex-step differentiation.
    """
    v = np.asarray(v)
    th2 = v @ v
    th = np.sqrt(th2)
    V = hat(v)
    I = np.eye(3, dtype=V.dtype)
    if abs(th) < SMALL_ANGLE:
        return I - 0.5 * V + (V @ V) / 6.0
    return (I - ((1.0 - np.cos(th)) / th2) * V
            + ((th - np.sin(th)) / (th2 * th)) * (V @ V))


def deterministic_svd(A):
    """Thin SVD with a fixed sign convention.

    The largest-magnitude entry of each left singular vector is made
    positive (the matching right vector is flipped with it), so
    factorizations are reproducible across LAPACK builds.
    """
    U, s, Vt = np.linalg.svd(np.asarray(A, dtype=float), full_matrices=False)
    for i in range(U.shape[1]):
        j = int(np.argmax(np.abs(U[:, i])))
        if U[j, i] < 0:
            U[:, i] = -U[:, i]
            Vt[i, :] = -Vt[i, :]
    return U, s, Vt
