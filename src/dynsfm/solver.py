"""Closed-form factorization solver for affine structure from motion with
inertial measurements.

The stacked measurement matrix W (tracks, flows, double flows) admits an
exact decomposition W = C M S + m 1^T where C depends only on the gyro
readings and their rates, M stacks the transposed rotations, S holds the
structure and m the translation-dependent terms. Recovery proceeds in five
closed-form stages: rank-4 factorization, similarity fix, centering,
rotation recovery with metric upgrade, and a final linear solve for the
body-frame translations, velocities and the gravity vector.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import banded, so3
from .derivatives import check_filter_spec, omega_dot_series, savgol_filter
from .errors import (DynSfmError, IllConditionedWarning, IndefiniteQ,
                     LengthMismatch, NumericalFailure, RankDeficient,
                     SeriesTooShort, SingularTransform, TooFewFramesOrPoints)
from .simulate import PROJECTOR

COND_LIMIT = 1e12  # normal-equation condition number a stage does not trust


@dataclass
class SolverOptions:
    """Tunables of the closed-form solver.

    omega_dot_mode "auto" uses the Euler equation of motion when torque
    and inertia are present in the measurement set and falls back to
    numerical differentiation of the gyro otherwise.
    """
    lambda_R: float = 1.0
    lambda_tau: float = 1.0
    lambda_nu: float = 1.0
    omega_dot_mode: str = "auto"   # auto | euler | zero | numeric
    omega_dot_filter: tuple = (2, 5)
    reg_filter: tuple = (1, 3)
    reflection_resolution: str = "auto"  # auto | positive | negative

    def validate(self):
        weights = (self.lambda_R, self.lambda_tau, self.lambda_nu)
        if not all(math.isfinite(w) and w >= 0 for w in weights):
            raise ValueError("regularization weights must be finite and "
                             "nonnegative")
        for name in ("omega_dot_filter", "reg_filter"):
            spec = tuple(getattr(self, name))
            if len(spec) != 2 or not all(isinstance(v, int) for v in spec):
                raise ValueError(f"{name}: need integers (order, window)")
            check_filter_spec(*spec, 1, name)  # a BadFilterSpec is a ValueError
        if self.omega_dot_mode not in ("auto", "euler", "zero", "numeric"):
            raise ValueError(f"bad omega_dot_mode {self.omega_dot_mode!r}")
        if self.reflection_resolution not in ("auto", "positive", "negative"):
            raise ValueError(
                f"bad reflection_resolution {self.reflection_resolution!r}")


@dataclass
class Reconstruction:
    """Solver output: motion, structure, gravity and diagnostics."""
    rotations: np.ndarray   # (F, 3, 3) estimated R_f
    tau: np.ndarray         # (F, 3) body-frame translations (m)
    nu: np.ndarray          # (F, 3) body-frame velocities (m/s)
    gravity: np.ndarray     # (3,) spatial-frame gravity estimate (m/s^2)
    structure: np.ndarray   # (P, 3)
    residuals: dict = field(default_factory=dict)
    options: SolverOptions = field(default_factory=SolverOptions)

    @property
    def positions(self):
        """Spatial-frame camera positions T_f = R_f tau_f."""
        return np.einsum("fij,fj->fi", self.rotations, self.tau)


def lstsq_checked(A, b, label="lstsq"):
    """Least squares with a conditioning check: returns x. A
    normal-equation condition number above COND_LIMIT raises an
    IllConditionedWarning (reported, not fatal).
    """
    x, _, _, sv = np.linalg.lstsq(A, b, rcond=None)
    cond = float((sv[0] / sv[-1]) ** 2) if sv[-1] > 0 else np.inf
    if cond > COND_LIMIT:
        warnings.warn(f"{label}: normal-equation condition number {cond:.2e}",
                      IllConditionedWarning)
    return x


def assemble_W(measurements):
    """Stack tracks, flows and double flows into the 6F x P data matrix.

    Row layout: 2F track rows (frame-major), then 2F flow rows, then 2F
    double-flow rows; columns follow the point index.
    """
    F, P = measurements.n_frames, measurements.n_points
    if F < 3 or P < 4:
        raise TooFewFramesOrPoints(f"need F >= 3 and P >= 4, got F={F} P={P}")
    bands = (measurements.tracks, measurements.flows,
             measurements.double_flows)
    W = np.empty((6 * F, P))
    rows = W.reshape(3, F, 2, P)  # (band, frame, coordinate, point)
    for band, data in enumerate(bands):
        rows[band] = data.transpose(0, 2, 1)  # written in place, no copy
    return W


def assemble_C(omega, domega):
    """Per-order blocks (3, F, 2, 3) of the coefficient matrix C.

    C (6F x 3F) is fully determined by the gyro series and its rate, and
    block-diagonal per frame: block row (order o, frame f) holds
    blocks[o, f] at block column f, with blocks[0, f] = P,
    blocks[1, f] = -P W1_f and blocks[2, f] = P W2_f (the
    so3.rate_blocks). The zero blocks are never stored.
    """
    omega = np.asarray(omega, dtype=float)
    domega = np.asarray(domega, dtype=float)
    if omega.shape != domega.shape:
        raise LengthMismatch("omega and domega lengths differ")
    W1, W2 = so3.rate_blocks(omega, domega)
    blocks = np.empty((3, omega.shape[0], 2, 3))
    blocks[0] = PROJECTOR
    blocks[1] = -PROJECTOR @ W1
    blocks[2] = PROJECTOR @ W2
    return blocks


def translation_vector(omega, domega, tau, nu, accel, rotations, gravity):
    """Ground-truth translation vector m of the decomposition (6F,).

    Used by tests and by the factorization-identity oracle; the solver
    itself recovers m from the data.
    """
    W1, W2 = so3.rate_blocks(omega, domega)
    m0 = so3.matvec(-PROJECTOR, tau)
    m1 = so3.matvec(PROJECTOR, so3.matvec(W1, tau) - nu)
    RTg = so3.matvec(np.swapaxes(rotations, 1, 2), gravity)
    m2 = so3.matvec(PROJECTOR, so3.matvec(-W2, tau)
                    + so3.matvec(2.0 * W1, nu) - accel + RTg)
    return np.concatenate([m0.ravel(), m1.ravel(), m2.ravel()])


def factor_rank4(W):
    """Rank-four factorization W ~ Mt @ St via truncated SVD.

    One range finder with one power step (Halko, Martinsson & Tropp 2011)
    on the short side of W, from a deterministic start: with A = W if W
    is wide (more points than rows), else W^T, and n = len(A), the top
    k = min(8, n) eigenvectors V of the Gram matrix A A^T, then
    Q = qr((V^T A)^T) and the SVD U s Vt of A Q (n x k), whose Ritz
    values and vectors stand for those of W: its left vectors are U
    (wide) or Q Vt^T (tall). Only the Gram product costs O(n^2 N), with
    N = max(W.shape); the rest is O(k n N) plus one n x n eigensolve. Why
    the power step and k = 8, measured on 54 x 400 matrices with singular
    values (1, .8, .6, r, 1e-3 r, 0.9e-3 r) and on their transposes:
    - the Gram eigenvectors alone square the conditioning: their rank-4
      subspace error is 5e-9 at r = 1e-4 and ~1 at r = 1e-8 (wide), where
      an SVD of W gives 2e-13 and 2e-9. After the power step the error
      stays within 10x of the SVD's for every r from 1e-2 to 1e-9;
    - with k = 5 instead of 8 it ends 1-2 (wide) and 4-5 (tall) digits
      above the SVD's at r = 1e-8 and 1e-9.
    W's left vectors take the sign convention of so3.fix_signs. Returns
    (Mt, St, sigma_ratio) where sigma_ratio = s5/s4 measures how well
    the data fits the rank-4 model.
    """
    if min(W.shape) < 4:
        raise TooFewFramesOrPoints("W must have at least 4 rows and columns")
    wide = W.shape[1] > W.shape[0]
    A = W if wide else W.T
    _, V = np.linalg.eigh(A @ A.T)
    Q, _ = np.linalg.qr((V[:, -min(8, len(A)):].T @ A).T)
    U, s, Vt = np.linalg.svd(A @ Q, full_matrices=False)
    rank_ratio = s[3] / s[0] if s[0] > 0 else 0.0
    if rank_ratio < 1e-10:
        raise RankDeficient(f"sigma4/sigma1 = {rank_ratio:.2e} < 1e-10")
    sigma_ratio = float(s[4] / s[3]) if len(s) > 4 else 0.0
    left, right = (U[:, :4], Vt[:4] @ Q.T) if wide else (Q @ Vt[:4].T, U.T[:4])
    so3.fix_signs(left, right)
    return left * s[:4], right, sigma_ratio


def fix_similarity(Mt, St):
    """Normalize the factorization so the last row of St is ~ 1^T.

    Solves k^T St = 1^T in least squares and applies the similarity
    transform K = [[I, 0], [k^T]] (and its inverse) to the factors.
    """
    P = St.shape[1]
    k = lstsq_checked(St.T, np.ones(P), "fix_similarity")
    if abs(k[3]) < 1e-12:
        raise SingularTransform("similarity transform is singular")
    K = np.eye(4)
    K[3] = k
    return Mt @ np.linalg.inv(K), K @ St


def center_structure(Mt, St):
    """Shift the reconstruction so the structure centroid is exactly zero.

    The shift c solves mean(St[:3] - c * St[3]) = 0 per row, which reduces
    to the plain row mean when the last row of St is exactly ones. Returns
    (Mt'', St'', m_hat) with m_hat the fourth column of Mt''.
    """
    c = St[:3].mean(axis=1) / St[3].mean()
    K = np.eye(4)
    K[:3, 3] = -c
    Kinv = np.eye(4)
    Kinv[:3, 3] = c
    Mt2 = Mt @ Kinv
    St2 = K @ St
    return Mt2, St2, Mt2[:, 3].copy()


def rotation_regularizer(omega, domega, t_s):
    """Blocks (F - 1, 3, 3) of the operator penalizing deviation from gyro
    propagation.

    Block row f of the operator carries blocks[f] = -exp_so3(phi_f)^T at
    block column f and the identity at block column f + 1, acting on the
    stacked R_f^T blocks; the identity is implicit. The increment

        phi_f = t_s/2 (w_f + w_f+1)
                + t_s^2/12 ((dw_f - dw_f+1) + w_f x w_f+1)

    is the Hermite quadrature of the rate plus the first Magnus term, so
    exp_so3(phi_f) matches R_f^T R_f+1 to fourth order in t_s; dw is the
    rate series that also builds C.
    """
    w0, w1 = omega[:-1], omega[1:]
    phi = (0.5 * t_s * (w0 + w1)
           + t_s ** 2 / 12.0 * ((domega[:-1] - domega[1:]) + np.cross(w0, w1)))
    return -so3.exp_so3(phi).transpose(0, 2, 1)


def recover_rotation_blocks(Mt_cols, C, omega, domega, t_s, lambda_R):
    """Solve for the 3F x 3 stacked rotation blocks (up to a 3x3 gauge).

    Minimizes |Mt_cols - C M''|^2 + lambda_R |C_R M''|^2, with C the
    assemble_C blocks and C_R the rotation_regularizer operator, as block
    rows of banded.lstsq over the 3 x 3 blocks M''_f (R_f^T up to the
    gauge): the three per-order C block lists against Mt_cols, and
    sqrt(lambda_R) [B_f | I] over frames (f, f + 1) against zero, B_f the
    regularizer blocks.

    Returns (M'', info): info["residual"] is |Mt_cols - C M''|,
    info["cond"] a 1-norm estimate of the normal matrix's condition
    number and info["normal_ratio"] the relative normal-equation residual.
    Raises RankDeficient when the normal matrix is not numerically
    positive definite and NumericalFailure when the condition estimate
    exceeds COND_LIMIT.
    """
    F = omega.shape[0]
    if Mt_cols.shape != (6 * F, 3):
        raise LengthMismatch(
            f"expected {(6 * F, 3)} motion columns, got {Mt_cols.shape}")
    if C.shape != (3, F, 2, 3):
        raise LengthMismatch(f"expected {(3, F, 2, 3)} C blocks, got {C.shape}")
    if domega.shape != omega.shape:
        raise LengthMismatch("omega and domega lengths differ")
    B = rotation_regularizer(omega, domega, t_s)
    reg = np.sqrt(lambda_R) * np.concatenate(
        [B, np.broadcast_to(np.eye(3), B.shape)], axis=2)
    Y = Mt_cols.reshape(3, F, 2, 3)  # (order, frame, row, column)
    try:
        X, _, cond, normal_ratio, res = banded.lstsq(
            [*C, reg], [*Y, np.zeros((F - 1, 3, 3))], 3)
    except np.linalg.LinAlgError:
        raise RankDeficient("normal matrix is not positive definite") from None
    if cond > COND_LIMIT:
        raise NumericalFailure(
            f"normal-equation condition number {cond:.2e} above {COND_LIMIT:.0e}")
    return X.reshape(3 * F, 3), {
        "cond": cond, "normal_ratio": normal_ratio,
        "residual": float(np.linalg.norm(res[:3]))}


def metric_upgrade(M2):
    """Symmetric 3x3 upgrade K with M''_f K orthonormal in least squares.

    Fits symmetric Q to M''_f Q M''_f^T = I over all frames (6 unknowns),
    clamps the eigenvalues at 1e-10 of the largest, and returns the
    symmetric square root (deterministic: invariant to eigenvector sign
    choices) together with the fit residual. Raises IndefiniteQ when more
    than one eigenvalue needs clamping.
    """
    F = M2.shape[0] // 3
    # unknowns q = (Q00, Q01, Q02, Q11, Q12, Q22); equation e of frame f
    # is row I[e] of M''_f Q times row J[e] of M''_f = delta(I[e], J[e])
    I, J = np.array([0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 1, 2, 2])
    Mf = M2.reshape(F, 3, 3)
    mi, mj = Mf[:, I], Mf[:, J]
    A = np.stack([mi[..., a] * mj[..., c] if a == c
                  else mi[..., a] * mj[..., c] + mi[..., c] * mj[..., a]
                  for a, c in zip(I, J)], axis=-1).reshape(6 * F, 6)
    b = np.tile((I == J).astype(float), F)
    q = lstsq_checked(A, b, "metric_upgrade")
    Q = np.array([[q[0], q[1], q[2]],
                  [q[1], q[3], q[4]],
                  [q[2], q[4], q[5]]])
    w, V = np.linalg.eigh(Q)
    floor = 1e-10 * w.max()
    clamped = int((w < floor).sum())
    if clamped > 1:
        raise IndefiniteQ(f"{clamped} eigenvalues of Q are not positive")
    w = np.clip(w, floor, None)
    K = V @ np.diag(np.sqrt(w)) @ V.T
    fit = np.linalg.norm(Mf @ Q @ Mf.transpose(0, 2, 1) - np.eye(3),
                         axis=(1, 2)).max()
    return K, fit


def extract_rotations_structure(M2, K_upg, St_rows, reflection="auto",
                                W=None, C=None, m_hat=None):
    """Project the upgraded motion blocks to rotations and undo the
    upgrade on the structure.

    The metric upgrade leaves a reflection ambiguity (K and K D, with
    D = diag(1, 1, -1), produce the same Q). The mirror candidate needs
    no second SVD: M_hat_f D has the SVD (U, s, Vt D), and
    solve(K D, S) = D solve(K, S) negates the structure's z, both
    exactly. Mode "auto" keeps the candidate whose projected rotations
    reproduce the data better, by _reflection_residual: the residual
    W - (C stack(R^T) S^T + m 1^T) within the span of the structure's
    columns and the ones vector, where both candidates' model rows lie.
    The part of W outside that span is common to both candidates and
    dropped. "positive"/"negative" select the unflipped/flipped
    candidate directly.
    """
    F = M2.shape[0] // 3
    if reflection == "auto" and (W is None or C is None or m_hat is None):
        raise ValueError("reflection='auto' needs W, C and m_hat to score "
                         "the two candidates")
    U, s, Vt = np.linalg.svd((M2 @ K_upg).reshape(F, 3, 3))
    structure = np.linalg.solve(K_upg, St_rows).T
    mirror = np.array([1.0, 1.0, -1.0])
    candidates = []
    for flip in {"positive": [False], "negative": [True],
                 "auto": [False, True]}[reflection]:
        if flip:
            Vt, structure = Vt * mirror, structure * mirror
        rotations = so3._rotation_from_svd(U, s, Vt).transpose(0, 2, 1)
        candidates.append((np.ascontiguousarray(rotations), structure))
    if len(candidates) == 1:
        return candidates[0]
    # the two structures differ in the sign of z, so they span one space
    Q, _ = np.linalg.qr(np.column_stack([structure, np.ones(len(structure))]))
    WQ = W @ Q
    pos, neg = (_reflection_residual(WQ, Q, C, *candidate, m_hat)
                for candidate in candidates)
    return candidates[int(neg < pos)]


def _reflection_residual(WQ, Q, C, rotations, structure, m_hat):
    """|(W - (C stack(R^T) S^T + m 1^T)) Q|, the in-span residual.

    Q (P x 4) is an orthonormal basis of the span of the structure's
    columns and the ones vector, and WQ = W Q. The model rows lie in that
    span, so |W - A|^2 = |W (I - Q Q^T)|^2 + |W Q - A Q|^2; the first
    term is the same for both reflection candidates and is dropped, and
    this is the square root of the second, formed in 6F x 4 instead of
    6F x P. It is not the full residual |W - A|: what carries over is
    the difference of the candidates' squared values. The per-frame
    products C_f R_f^T stack into 6F x 3 rows in the row order of W.
    The norm is taken of the direct difference: the expanded form
    |W Q|^2 - 2<W Q, .> + |.|^2 cancels on noiseless data and can flip
    the reflection choice.
    """
    CM = (C @ rotations.transpose(0, 2, 1)).reshape(-1, 3)
    E = CM @ (structure.T @ Q)
    E += m_hat[:, None] * Q.sum(axis=0)
    E -= WQ
    return np.linalg.norm(E)


def translation_blocks(m_hat, rotations, omega, domega, accel, t_s,
                       lambda_tau, lambda_nu, reg_filter=None):
    """Block rows of the translation/velocity/gravity system.

    Returns (data, data_rhs, reg, reg_rhs). Frame f contributes the data
    block data[f] (two rows per order, 6 x 9) over (tau_f, nu_f, g).
    Filter center c (at frame c + window // 2) contributes the regularizer
    block reg[c], 6 x (6 window + 3): the tau and the nu equation over
    (tau_{c+k}, nu_{c+k}) for each tap k, then g.
    """
    F = len(rotations)
    if not (len(omega) == len(domega) == len(accel) == F):
        raise LengthMismatch("series lengths differ")
    if reg_filter is None:
        reg_filter = savgol_filter(1, 3, 1)
    win, half = reg_filter.window, reg_filter.window // 2
    taps = reg_filter.taps / t_s
    n_centers = max(F - win + 1, 0)
    Pi = PROJECTOR
    rotations = np.asarray(rotations)
    W1, W2 = so3.rate_blocks(omega, domega)
    # data rows (frame, order, row) x (tau|nu|g, column)
    data = np.zeros((F, 3, 2, 3, 3))
    data[:, 0, :, 0] = -Pi
    data[:, 1, :, 0] = Pi @ W1
    data[:, 1, :, 1] = -Pi
    data[:, 2, :, 0] = -Pi @ W2
    data[:, 2, :, 1] = 2.0 * Pi @ W1
    data[:, 2, :, 2] = Pi @ rotations.transpose(0, 2, 1)
    data_rhs = m_hat.reshape(3, F, 2).transpose(1, 0, 2).copy()
    data_rhs[:, 2] += so3.matvec(Pi, accel)
    # regularizer rows (center, tau|nu equation, row) x (tap, tau|nu, column)
    st, sn = np.sqrt(lambda_tau), np.sqrt(lambda_nu)
    reg = np.zeros((n_centers, 2, 3, win, 2, 3))
    for k in range(win):
        R_k = rotations[k:k + n_centers]
        reg[:, 0, :, k, 0] = st * taps[k] * R_k
        reg[:, 1, :, k, 1] = sn * taps[k] * R_k
    R_c = rotations[half:half + n_centers]
    reg[:, 0, :, half, 1] = -st * R_c
    reg_g = np.zeros((n_centers, 2, 3, 3))
    reg_g[:, 1] = sn * np.eye(3)
    reg_rhs = np.zeros((n_centers, 2, 3))
    reg_rhs[:, 1] = so3.matvec(sn * R_c, accel[half:half + n_centers])
    return (data.reshape(F, 6, 9), data_rhs.reshape(F, 6),
            np.concatenate([reg.reshape(n_centers, 6, 6 * win),
                            reg_g.reshape(n_centers, 6, 3)], axis=2),
            reg_rhs.reshape(n_centers, 6))


def recover_translations(m_hat, rotations, omega, domega, accel, t_s,
                         lambda_tau, lambda_nu, reg_filter=None):
    """Linear solve for body translations, velocities and gravity.

    Data rows restate the three bands of the translation vector m with
    the accelerometer term moved to the right-hand side. Regularizer rows
    tie consecutive samples through the derivative filter, written in the
    spatial frame via the estimated rotations (where the derivative
    constraints are free of angular-velocity coupling):

        D(R tau)_f - R_f nu_f          = 0
        D(R nu)_f + g                  = R_f a_imu_f

    with D the filter derivative. The block rows span one frame (data)
    or one filter window (regularizer) of the per-frame unknowns
    (tau_f, nu_f), with gravity as a 3-column border, so banded.lstsq
    solves them in O(F).

    Returns (tau, nu, gravity, info): info["residual"] is the norm of the
    stacked residual, data and regularizer rows; "cond" and
    "normal_ratio" are as in recover_rotation_blocks. Raises
    RankDeficient when the normal matrix is not numerically positive
    definite (no filter window fits, or an exact null family such as
    static hover). A condition estimate above COND_LIMIT raises an
    IllConditionedWarning and the banded solution is returned: its
    weakly observable components (depth at near-zero rotation rate) are
    not recovered.
    """
    data, data_rhs, reg, reg_rhs = translation_blocks(
        m_hat, rotations, omega, domega, accel, t_s, lambda_tau, lambda_nu,
        reg_filter)
    try:
        z, g, cond, normal_ratio, res = banded.lstsq(
            [data, reg], [data_rhs[..., None], reg_rhs[..., None]], 6, 3)
    except np.linalg.LinAlgError:
        raise RankDeficient("normal matrix is not positive definite") from None
    if cond > COND_LIMIT:
        warnings.warn(
            f"recover_translations: normal-equation condition number "
            f"{cond:.2e} above {COND_LIMIT:.0e}; the weakly observable "
            f"components are not recovered", IllConditionedWarning)
    return z[:, :3, 0].copy(), z[:, 3:, 0].copy(), g[:, 0], {
        "cond": cond, "normal_ratio": normal_ratio,
        "residual": float(np.linalg.norm(
            np.concatenate([r.ravel() for r in res])))}


def _omega_dot_for(measurements, options):
    mode = options.omega_dot_mode
    if mode == "auto":
        mode = ("euler" if measurements.torque is not None
                and measurements.inertia is not None else "numeric")
    filt = (_filter("omega_dot_filter", options.omega_dot_filter,
                    len(measurements.gyro)) if mode == "numeric" else None)
    return omega_dot_series(measurements.gyro, mode, measurements.t_s,
                            inertia=measurements.inertia,
                            torque=measurements.torque, filt=filt)


def _filter(name, spec, n_frames):
    """The first-derivative filter of an options spec, checked against the
    frame count before it is built: a longer window has no centre."""
    if spec[1] > n_frames:
        raise SeriesTooShort(f"{name} window {spec[1]} is longer than the "
                             f"{n_frames} frames")
    return savgol_filter(*spec, 1)


def _stage(name, fn, *args, **kwargs):
    """fn(*args, **kwargs), run as the solver stage name.

    A DynSfmError is re-raised as the same type, and a LAPACK failure or an
    ArithmeticError (a Python float overflowing, say) as a
    NumericalFailure, with "[name] " before the message. A float array in
    the result, bare or a member of a tuple, that holds a NaN or an
    infinity raises NumericalFailure at [name]. Dicts and scalars are not
    checked, nor is W (assemble_W), a copy of the bands validate checked.
    """
    try:
        out = fn(*args, **kwargs)
        for arr in out if isinstance(out, tuple) else (out,):
            if (isinstance(arr, np.ndarray) and arr.dtype.kind == "f"
                    and name != "assemble_W" and not np.isfinite(arr).all()):
                raise NumericalFailure("non-finite result")
    except DynSfmError as err:
        raise type(err)(f"[{name}] {err}") from err
    except np.linalg.LinAlgError as err:
        raise NumericalFailure(f"[{name}] {err}") from err
    except ArithmeticError as err:
        raise NumericalFailure(
            f"[{name}] {type(err).__name__}: {err}") from err
    return out


def reconstruct(measurements, options=None):
    """Run the full five-stage closed-form recovery on a measurement set.

    Its eleven stages, validate (MeasurementSet.validate, the input
    contract) to recover_translations, each run through _stage, which
    prefixes a failure with the stage name and raises NumericalFailure on a
    LAPACK failure, an ArithmeticError or a non-finite array in a stage's
    result.
    """
    options = options if options is not None else SolverOptions()
    options.validate()
    _stage("validate", measurements.validate)
    W = _stage("assemble_W", assemble_W, measurements)
    omega = measurements.gyro
    domega = _stage("omega_dot", _omega_dot_for, measurements, options)
    C = _stage("assemble_C", assemble_C, omega, domega)
    Mt, St, sigma_ratio = _stage("factor_rank4", factor_rank4, W)
    Mt, St = _stage("fix_similarity", fix_similarity, Mt, St)
    Mt, St, m_hat = _stage("center_structure", center_structure, Mt, St)
    M2, rot_info = _stage(
        "recover_rotation_blocks", recover_rotation_blocks, Mt[:, :3], C,
        omega, domega, measurements.t_s, options.lambda_R)
    K_upg, q_fit = _stage("metric_upgrade", metric_upgrade, M2)
    rotations, structure = _stage(
        "extract_rotations_structure", extract_rotations_structure, M2,
        K_upg, St[:3], reflection=options.reflection_resolution, W=W, C=C,
        m_hat=m_hat)
    del W  # unread from here on, and the translation solve peaks above it
    reg = _stage("recover_translations", _filter, "reg_filter",
                 options.reg_filter, len(omega))
    tau, nu, gravity, tr_info = _stage(
        "recover_translations", recover_translations, m_hat, rotations,
        omega, domega, measurements.accel, measurements.t_s,
        options.lambda_tau, options.lambda_nu, reg)
    residuals = {
        "sigma_ratio": sigma_ratio, "rotation_lsq": rot_info["residual"],
        "rotation_cond": rot_info["cond"],
        "rotation_normal_ratio": rot_info["normal_ratio"],
        "metric_upgrade_fit": q_fit, "translation_lsq": tr_info["residual"],
        "translation_cond": tr_info["cond"],
        "translation_normal_ratio": tr_info["normal_ratio"]}
    return Reconstruction(rotations=rotations, tau=tau, nu=nu,
                          gravity=gravity, structure=structure,
                          residuals=residuals, options=options)
