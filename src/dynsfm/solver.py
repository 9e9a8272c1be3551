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

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import so3
from .derivatives import omega_dot_series, savgol_filter
from .errors import (DynSfmError, IllConditionedWarning, IndefiniteQ,
                     LengthMismatch, NumericalFailure, RankDeficient,
                     SingularTransform, TooFewFramesOrPoints)
from .simulate import PROJECTOR

COND_LIMIT = 1e12  # normal-equation condition number that triggers a warning
# Frames per diagonal block of the translation normal equations: fewer,
# larger blocks mean fewer Python-level steps per banded solve.
FRAMES_PER_GROUP = 6


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
        if min(self.lambda_R, self.lambda_tau, self.lambda_nu) < 0:
            raise ValueError("regularization weights must be nonnegative")
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
    """Least squares with conditioning and normal-equation diagnostics.

    Returns (x, info) where info holds the normal-equation condition
    number and the relative normal-equation residual. A condition number
    above COND_LIMIT raises an IllConditionedWarning (reported, not fatal).
    """
    x, _, _, sv = np.linalg.lstsq(A, b, rcond=None)
    cond = float((sv[0] / sv[-1]) ** 2) if sv[-1] > 0 else np.inf
    if cond > COND_LIMIT:
        warnings.warn(f"{label}: normal-equation condition number {cond:.2e}",
                      IllConditionedWarning)
    At_res = A.T @ (A @ x - b)
    denom = np.linalg.norm(A.T @ b)
    normal_ratio = float(np.linalg.norm(At_res) / denom) if denom > 0 else 0.0
    return x, {"cond": cond, "normal_ratio": normal_ratio}


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
    W = np.zeros((6 * F, P))
    for band, data in enumerate(bands):
        # (F, P, 2) -> rows (2F, P) with the two image coordinates adjacent
        W[2 * F * band:2 * F * (band + 1)] = (
            data.transpose(0, 2, 1).reshape(2 * F, P))
    return W


def assemble_C(omega, domega):
    """Coefficient matrix C (6F x 3F), fully determined by the gyro series
    and its rate: block row (order o, frame f) holds the order-o block
    P, -P W1_f or P W2_f (the so3.rate_blocks) at block column f."""
    omega = np.asarray(omega, dtype=float)
    domega = np.asarray(domega, dtype=float)
    if omega.shape != domega.shape:
        raise LengthMismatch("omega and domega lengths differ")
    F = omega.shape[0]
    W1, W2 = so3.rate_blocks(omega, domega)
    C = np.zeros((6 * F, 3 * F))
    blocks = C.reshape(3, F, 2, F, 3)  # (order, frame, row, frame, col) view
    f = np.arange(F)
    blocks[0, f, :, f] = PROJECTOR
    blocks[1, f, :, f] = -PROJECTOR @ W1
    blocks[2, f, :, f] = PROJECTOR @ W2
    return C


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

    A wide W (more points than rows) is reduced first (R-SVD, Chan 1982):
    the QR of W^T gives W = R^T Q^T with R square, so the SVD of R^T
    yields the left singular vectors and singular values of W, and the
    four right vectors follow by projection, St = U^T W / s. That costs
    O(P F^2 + F^3) instead of an SVD of the 6F x P matrix, and Q is never
    formed. A tall W goes straight to the thin SVD, which LAPACK already
    reduces by QR. Both use the deterministic sign convention of the so3
    module. Returns (Mt, St, sigma_ratio) where sigma_ratio = s5/s4
    measures how well the data fits the rank-4 model.
    """
    if min(W.shape) < 4:
        raise TooFewFramesOrPoints("W must have at least 4 rows and columns")
    wide = W.shape[1] > W.shape[0]
    if wide:
        U, s, _ = so3.deterministic_svd(np.linalg.qr(W.T, mode="r").T)
    else:
        U, s, Vt = so3.deterministic_svd(W)
    rank_ratio = s[3] / s[0] if s[0] > 0 else 0.0
    if rank_ratio < 1e-10:
        raise RankDeficient(f"sigma4/sigma1 = {rank_ratio:.2e} < 1e-10")
    sigma_ratio = float(s[4] / s[3]) if len(s) > 4 else 0.0
    St = (U[:, :4].T @ W) / s[:4, None] if wide else Vt[:4]
    return U[:, :4] * s[:4], St, sigma_ratio


def fix_similarity(Mt, St):
    """Normalize the factorization so the last row of St is ~ 1^T.

    Solves k^T St = 1^T in least squares and applies the similarity
    transform K = [[I, 0], [k^T]] (and its inverse) to the factors.
    """
    P = St.shape[1]
    k, _ = lstsq_checked(St.T, np.ones(P), "fix_similarity")
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


def rotation_regularizer(omega, t_s):
    """Block-banded operator penalizing deviation from gyro propagation.

    Block row f carries -exp_so3(t_s * w)^T at block column f and the
    identity at block column f + 1, acting on the stacked R_f^T blocks.
    The propagation rate w is the midpoint gyro average over the interval
    [f, f+1], the second-order-accurate discretization of the underlying
    continuous constraint (per-sample rates leave an O(t_s^2 * domega)
    inconsistency that dominates the noiseless error budget).
    """
    F = omega.shape[0]
    CR = np.zeros((3 * max(F - 1, 0), 3 * F))
    for f in range(F - 1):
        w = 0.5 * (omega[f] + omega[f + 1])
        CR[3 * f:3 * f + 3, 3 * f:3 * f + 3] = -so3.exp_so3(t_s * w).T
        CR[3 * f:3 * f + 3, 3 * f + 3:3 * f + 6] = np.eye(3)
    return CR


def recover_rotation_blocks(Mt_cols, C, omega, t_s, lambda_R):
    """Solve for the 3F x 3 stacked rotation blocks (up to a 3x3 gauge).

    Minimizes |Mt_cols - C M''|^2 + lambda_R |C_R M''|^2 as one linear
    least-squares problem over all blocks. Returns (M'', info).
    """
    F = omega.shape[0]
    if Mt_cols.shape != (6 * F, 3):
        raise LengthMismatch(
            f"expected {(6 * F, 3)} motion columns, got {Mt_cols.shape}")
    CR = rotation_regularizer(omega, t_s)
    A = np.vstack([C, np.sqrt(lambda_R) * CR])
    B = np.vstack([Mt_cols, np.zeros((CR.shape[0], 3))])
    M2, info = lstsq_checked(A, B, "recover_rotation_blocks")
    info["residual"] = float(np.linalg.norm(Mt_cols - C @ M2))
    return M2, info


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
    q, _ = lstsq_checked(A, b, "metric_upgrade")
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

    The metric upgrade leaves a reflection ambiguity (K and K diag(1,1,-1)
    produce the same Q). Mode "auto" keeps the candidate whose projected
    rotations reproduce the data better, measured by
    |W - (C stack(R^T) S + m 1^T)|; "positive"/"negative" select the
    unflipped/flipped candidate directly.
    """
    F = M2.shape[0] // 3
    if reflection == "auto" and (W is None or C is None or m_hat is None):
        raise ValueError("reflection='auto' needs W, C and m_hat to score "
                         "the two candidates")
    flips = {"positive": [np.eye(3)],
             "negative": [np.diag([1.0, 1.0, -1.0])],
             "auto": [np.eye(3), np.diag([1.0, 1.0, -1.0])]}[reflection]
    best = None
    for flip in flips:
        K = K_upg @ flip
        M_hat = M2 @ K
        rotations = np.ascontiguousarray(
            so3.project_to_so3(M_hat.reshape(F, 3, 3)).transpose(0, 2, 1))
        structure = np.linalg.solve(K, St_rows).T
        if len(flips) == 1:
            return rotations, structure
        resid = _reflection_residual(W, C, rotations, structure, m_hat)
        if best is None or resid < best[0]:
            best = (resid, rotations, structure)
    return best[1], best[2]


def _reflection_residual(W, C, rotations, structure, m_hat):
    """|W - (C stack(R^T) S + m 1^T)|, formed in one 6F x P buffer.

    The norm is taken of the direct difference: the expanded form
    |W|^2 - 2<W, .> + |.|^2 cancels on noiseless data and can flip the
    reflection choice.
    """
    M_proj = rotations.transpose(0, 2, 1).reshape(-1, 3)
    E = (C @ M_proj) @ structure.T
    E += m_hat[:, None]
    E -= W
    return np.linalg.norm(E)


def translation_blocks(m_hat, rotations, omega, domega, accel, t_s,
                       lambda_tau, lambda_nu, reg_filter=None,
                       include_order0=True):
    """Block rows of the translation/velocity/gravity system.

    Returns (data, data_rhs, reg, reg_rhs). Frame f contributes the data
    block data[f] (two rows per order, 6 x 9 with the order-0 rows, 4 x 9
    without) over (tau_f, nu_f, g). Filter center c (at frame
    c + window // 2) contributes the regularizer block reg[c], 6 x
    (6 window + 3): the tau and the nu equation over (tau_{c+k}, nu_{c+k})
    for each tap k, then g. The include_order0 switch exists for
    observability probes: without the order-0 rows, gravity and a
    constant translation offset become jointly near-unobservable.
    """
    F = len(rotations)
    if not (len(omega) == len(domega) == len(accel) == F):
        raise LengthMismatch("series lengths differ")
    if reg_filter is None:
        reg_filter = savgol_filter(1, 3, 1)
    win, half = reg_filter.window, reg_filter.window // 2
    taps = reg_filter.taps / t_s
    n_centers = max(F - win + 1, 0)
    n_orders = 3 if include_order0 else 2
    Pi = PROJECTOR
    rotations = np.asarray(rotations)
    W1, W2 = so3.rate_blocks(omega, domega)
    # data rows (frame, order, row) x (tau|nu|g, column)
    data = np.zeros((F, n_orders, 2, 3, 3))
    if include_order0:
        data[:, 0, :, 0] = -Pi
    data[:, -2, :, 0] = Pi @ W1
    data[:, -2, :, 1] = -Pi
    data[:, -1, :, 0] = -Pi @ W2
    data[:, -1, :, 1] = 2.0 * Pi @ W1
    data[:, -1, :, 2] = Pi @ rotations.transpose(0, 2, 1)
    data_rhs = m_hat[6 * F - 2 * n_orders * F:].reshape(
        n_orders, F, 2).transpose(1, 0, 2).copy()
    data_rhs[:, -1] += so3.matvec(Pi, accel)
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
    return (data.reshape(F, 2 * n_orders, 9), data_rhs.reshape(F, -1),
            np.concatenate([reg.reshape(n_centers, 6, 6 * win),
                            reg_g.reshape(n_centers, 6, 3)], axis=2),
            reg_rhs.reshape(n_centers, 6))


def translation_system(m_hat, rotations, omega, domega, accel, t_s,
                       lambda_tau, lambda_nu, reg_filter=None,
                       include_order0=True):
    """Assemble the dense (A, b) of the translation/velocity/gravity solve
    by scattering the translation_blocks rows.

    Unknown ordering: x = stack(tau_1..tau_F, nu_1..nu_F, g). Rows: the
    data rows order-major (order, frame, row), then six regularizer rows
    per filter center. Used by the ill-conditioning fallback of
    recover_translations and as the test oracle.
    """
    data, data_rhs, reg, reg_rhs = translation_blocks(
        m_hat, rotations, omega, domega, accel, t_s, lambda_tau, lambda_nu,
        reg_filter, include_order0)
    F, n_orders = len(data), data.shape[1] // 2
    n_centers, win = len(reg), _width(reg)
    n_data = 2 * n_orders * F
    A = np.zeros((n_data + 6 * n_centers, 6 * F + 3))
    b = np.zeros(n_data + 6 * n_centers)
    f = np.arange(F)
    blocks = data.reshape(F, n_orders, 2, 3, 3)
    A[:n_data, :6 * F].reshape(n_orders, F, 2, 2, F, 3)[:, f, :, :, f] = (
        blocks[:, :, :, :2])
    A[:n_data, 6 * F:].reshape(n_orders, F, 2, 3)[:] = (
        blocks[:, :, :, 2].transpose(1, 0, 2, 3))
    b[:n_data] = data_rhs.reshape(F, n_orders, 2).transpose(1, 0, 2).ravel()
    c = np.arange(n_centers)
    rows = A[n_data:, :6 * F].reshape(n_centers, 2, 3, 2, F, 3)
    taps = reg[:, :, :6 * win].reshape(n_centers, 2, 3, win, 2, 3)
    for k in range(win):
        rows[c, :, :, :, c + k] = taps[:, :, :, k]
    A[n_data:, 6 * F:] = reg[:, :, 6 * win:].reshape(6 * n_centers, 3)
    b[n_data:] = reg_rhs.ravel()
    return A, b


def _width(block):
    """Number of frames a (n, rows, 6 w + 3) block row spans."""
    return (block.shape[2] - 3) // 6


def _gather(z, g, n, w):
    """Unknowns of n block rows spanning w frames: row i holds
    (z_i, ..., z_{i+w-1}, g), shape (n, 6 w + 3)."""
    return np.concatenate([z[k:k + n] for k in range(w)]
                          + [np.broadcast_to(g, (n, 3))], axis=1)


def _apply_transpose(F, blocks, vecs):
    """Blockwise A^T v: the per-frame part (F, 6) and the gravity part."""
    vz, vg = np.zeros((F, 6)), np.zeros(3)
    for block, v in zip(blocks, vecs):
        n, w = len(block), _width(block)
        h = so3.matvec(block.transpose(0, 2, 1), v)
        for k in range(w):
            vz[k:k + n] += h[:, 6 * k:6 * k + 6]
        vg += h[:, 6 * w:].sum(axis=0)
    return vz, vg


def _normal_matrix(F, s, blocks):
    """Blockwise A^T A with the per-frame unknowns z_f = (tau_f, nu_f).

    Frames are grouped s at a time, s at least the frame span of a block
    row minus one, so N_zz is block tridiagonal in the groups. Returns
    (P, Nzg, Ngg): P[i] = [N_ii | N_i,i+1], each 6s x 6s, and Nzg[f] =
    N_{z_f,g}. The frames past F that fill the last group carry an
    identity block and no coupling, so their unknowns solve to zero.
    """
    n_groups = -(-F // s)
    P = np.zeros((n_groups, 6 * s, 12 * s))
    rows = P.reshape(n_groups * s, 6, 2 * s, 6)  # (frame, row, frame, col)
    Nzg, Ngg = np.zeros((n_groups * s, 6, 3)), np.zeros((3, 3))
    for block in blocks:
        n, w = len(block), _width(block)
        for l in range(w):
            # Gram columns of frame c + l, for each block row c
            G = block.transpose(0, 2, 1) @ block[:, :, 6 * l:6 * l + 6]
            for k in range(w):
                f = np.arange(k, k + n)
                col = f % s + l - k  # frame offset from f's group start
                keep = col >= 0  # blocks left of f's group are not stored
                rows[f[keep], :, col[keep]] += G[keep, 6 * k:6 * k + 6]
            Nzg[l:l + n] += G[:, 6 * w:].transpose(0, 2, 1)
        g = block[:, :, 6 * w:]
        Ngg += (g.transpose(0, 2, 1) @ g).sum(axis=0)
    pad = np.arange(F, n_groups * s)
    rows[pad, :, pad % s] = np.eye(6)
    return P, Nzg, Ngg


def _block_cholesky(P):
    """Cholesky N_zz = L L^T of the block-tridiagonal P of _normal_matrix.

    Returns (Linv, V) with Linv[i] = L_ii^{-1} and V[i] = Linv[i] N_i,i+1,
    which is L_i+1,i^T. Raises np.linalg.LinAlgError when N_zz is not
    numerically positive definite.
    """
    m = P.shape[1]
    Linv, V = np.empty((len(P), m, m)), np.empty((len(P), m, m))
    D = P[0, :, :m]
    for i in range(len(P)):
        Linv[i] = np.linalg.inv(np.linalg.cholesky(D))
        V[i] = Linv[i] @ P[i, :, m:]
        if i + 1 < len(P):
            D = P[i + 1, :, :m] - V[i].T @ V[i]
    return Linv, V


def _block_solve(Linv, V, rhs):
    """Solve N_zz x = rhs, rhs (groups, 6s, k), with the factor of
    _block_cholesky: forward through L, then back through L^T."""
    x = rhs.copy()
    for i in range(len(x)):
        if i:
            x[i] -= V[i - 1].T @ x[i - 1]
        x[i] = Linv[i] @ x[i]
    for i in reversed(range(len(x))):
        if i + 1 < len(x):
            x[i] -= V[i] @ x[i + 1]
        x[i] = Linv[i].T @ x[i]
    return x


def _norm1(F, P, Nzg, Ngg):
    """Exact 1-norm (largest absolute row sum; N is symmetric) of the
    bordered normal matrix stored as in _normal_matrix."""
    a = np.abs(P)
    rows = a.sum(axis=2)
    rows[1:] += a[:-1, :, a.shape[1]:].sum(axis=1)  # N_i,i-1 = N_i-1,i^T
    rows = rows.reshape(-1, 6)[:F] + np.abs(Nzg[:F]).sum(axis=2)
    g_rows = np.abs(Nzg).sum(axis=(0, 1)) + np.abs(Ngg).sum(axis=1)
    return float(max(rows.max(), g_rows.max()))


def _inverse_norm1(solve, n):
    """Hager's estimate of |N^{-1}|_1 for symmetric N from a few solves,
    with Higham's alternating-sign safeguard (the LAPACK xLACON scheme).
    The estimate is a lower bound, in practice within a small factor."""
    x = np.full(n, 1.0 / n)
    est = 0.0
    for it in range(5):
        y = solve(x)
        if it and np.abs(y).sum() <= est:
            break
        est = np.abs(y).sum()
        z = solve(np.where(y >= 0, 1.0, -1.0))
        j = np.argmax(np.abs(z))
        if abs(z[j]) <= z @ x:
            break
        x = np.zeros(n)
        x[j] = 1.0
    alt = (-1.0) ** np.arange(n) * (1.0 + np.arange(n) / (n - 1))
    return float(max(est, 2.0 * np.abs(solve(alt)).sum() / (3 * n)))


def _solve_blocks(data, data_rhs, reg, reg_rhs):
    """Normal-equation solve of the translation system in O(F).

    Factors the block-tridiagonal N_zz, eliminates gravity through the
    3 x 3 Schur complement S = N_gg - N_zg^T N_zz^{-1} N_zg (the
    arrowhead elimination of bundle adjustment) and back-substitutes.
    Returns (z, g, info): info["cond"] is a 1-norm estimate of the
    bordered normal matrix's condition number, info["residual"] the norm
    of the block residual rows r = A x - b, and info["normal_ratio"]
    |N x - A^T b| / |A^T b|, with N x - A^T b formed as A^T r. Raises
    np.linalg.LinAlgError when N_zz or S is not positive definite.
    """
    F = len(data)
    s = max(FRAMES_PER_GROUP, _width(reg) - 1)
    blocks, rhs = (data, reg), (data_rhs, reg_rhs)
    P, Nzg, Ngg = _normal_matrix(F, s, blocks)
    norm = _norm1(F, P, Nzg, Ngg)
    rz, rg = _apply_transpose(len(Nzg), blocks, rhs)
    Linv, V = _block_cholesky(P)
    m = 6 * s
    X = _block_solve(Linv, V, np.concatenate(
        [Nzg.reshape(-1, m, 3), rz.reshape(-1, m, 1)], axis=2))
    Xg, Nzg_rows = X[..., :3].reshape(-1, 3), Nzg.reshape(-1, 3)
    S = Ngg - Nzg_rows.T @ Xg
    np.linalg.cholesky(S)  # raises unless S is positive definite

    def solve(u, vg):
        """Bordered solve from u = N_zz^{-1} v_z (rows of z)."""
        g = np.linalg.solve(S, vg - Nzg_rows.T @ u)
        return u - Xg @ g, g

    z, g = solve(X[..., 3].ravel(), rg)
    z = z.reshape(-1, 6)

    def solve_flat(v):
        vz = np.zeros((len(Nzg), 6))
        vz[:F] = v[:6 * F].reshape(F, 6)
        u = _block_solve(Linv, V, vz.reshape(-1, m, 1)).ravel()
        uz, ug = solve(u, v[6 * F:])
        return np.concatenate([uz[:6 * F], ug])

    cond = norm * _inverse_norm1(solve_flat, 6 * F + 3)
    res = [so3.matvec(block, _gather(z, g, len(block), _width(block))) - b
           for block, b in zip(blocks, rhs)]
    nz, ng = _apply_transpose(F, blocks, res)
    denom = np.sqrt(np.sum(rz ** 2) + np.sum(rg ** 2))
    normal = np.sqrt(np.sum(nz ** 2) + np.sum(ng ** 2))
    return z[:F], g, {
        "cond": cond,
        "normal_ratio": float(normal / denom) if denom > 0 else 0.0,
        "residual": float(np.sqrt(sum(np.sum(r ** 2) for r in res)))}


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

    with D the filter derivative. The normal equations are block-banded
    in the per-frame unknowns (tau_f, nu_f) with a 3-column gravity
    border, so they are solved in O(F) (_solve_blocks). When they are not
    numerically positive definite, or their estimated condition number
    exceeds COND_LIMIT, the dense least-squares solve of
    translation_system runs instead. Returns (tau, nu, gravity, info).
    """
    args = (m_hat, rotations, omega, domega, accel, t_s, lambda_tau,
            lambda_nu, reg_filter)
    try:
        z, gravity, info = _solve_blocks(*translation_blocks(*args))
        if info["cond"] <= COND_LIMIT:
            return z[:, :3].copy(), z[:, 3:].copy(), gravity, info
    except np.linalg.LinAlgError:
        pass
    F = len(rotations)
    A, b = translation_system(*args)
    x, info = lstsq_checked(A, b, "recover_translations")
    info["residual"] = float(np.linalg.norm(A @ x - b))
    tau = x[:3 * F].reshape(F, 3)
    nu = x[3 * F:6 * F].reshape(F, 3)
    gravity = x[6 * F:]
    return tau, nu, gravity, info


def _omega_dot_for(measurements, options):
    mode = options.omega_dot_mode
    if mode == "auto":
        mode = "euler" if measurements.torque is not None else "numeric"
    if mode == "euler":
        return omega_dot_series(measurements.gyro, "euler", measurements.t_s,
                                inertia=measurements.inertia,
                                torque=measurements.torque)
    if mode == "numeric":
        filt = savgol_filter(options.omega_dot_filter[0],
                             options.omega_dot_filter[1], 1)
        return omega_dot_series(measurements.gyro, "numeric",
                                measurements.t_s, filt=filt)
    return omega_dot_series(measurements.gyro, "zero", measurements.t_s)


def _require_finite(**arrays):
    for name, value in arrays.items():
        if not np.isfinite(value).all():
            raise NumericalFailure(f"non-finite {name}")


def reconstruct(measurements, options=None):
    """Run the full five-stage closed-form recovery on a measurement set.

    The first stage, validate, checks the input contract of the
    measurement set (MeasurementSet.validate). Any stage failure is
    re-raised as the same error type with the stage name prefixed to the
    message. A LAPACK failure, or a non-finite rotation, structure,
    translation, velocity or gravity estimate, raises NumericalFailure,
    prefixed the same way.
    """
    options = options if options is not None else SolverOptions()
    options.validate()
    residuals = {}
    stage = "validate"
    try:
        measurements.validate()
        stage = "assemble_W"
        W = assemble_W(measurements)
        stage = "omega_dot"
        omega = measurements.gyro
        domega = _omega_dot_for(measurements, options)
        stage = "assemble_C"
        C = assemble_C(omega, domega)
        stage = "factor_rank4"
        Mt, St, sigma_ratio = factor_rank4(W)
        residuals["sigma_ratio"] = sigma_ratio
        stage = "fix_similarity"
        Mt, St = fix_similarity(Mt, St)
        stage = "center_structure"
        Mt, St, m_hat = center_structure(Mt, St)
        stage = "recover_rotation_blocks"
        M2, rot_info = recover_rotation_blocks(
            Mt[:, :3], C, omega, measurements.t_s, options.lambda_R)
        residuals["rotation_lsq"] = rot_info["residual"]
        residuals["rotation_cond"] = rot_info["cond"]
        residuals["rotation_normal_ratio"] = rot_info["normal_ratio"]
        stage = "metric_upgrade"
        K_upg, q_fit = metric_upgrade(M2)
        residuals["metric_upgrade_fit"] = q_fit
        stage = "extract_rotations_structure"
        rotations, structure = extract_rotations_structure(
            M2, K_upg, St[:3], reflection=options.reflection_resolution,
            W=W, C=C, m_hat=m_hat)
        _require_finite(rotations=rotations, structure=structure)
        stage = "recover_translations"
        reg = savgol_filter(options.reg_filter[0], options.reg_filter[1], 1)
        tau, nu, gravity, tr_info = recover_translations(
            m_hat, rotations, omega, domega, measurements.accel,
            measurements.t_s, options.lambda_tau, options.lambda_nu, reg)
        _require_finite(tau=tau, nu=nu, gravity=gravity)
        residuals["translation_lsq"] = tr_info["residual"]
        residuals["translation_cond"] = tr_info["cond"]
        residuals["translation_normal_ratio"] = tr_info["normal_ratio"]
    except DynSfmError as err:
        raise type(err)(f"[{stage}] {err}") from err
    except np.linalg.LinAlgError as err:
        raise NumericalFailure(f"[{stage}] {err}") from err
    return Reconstruction(rotations=rotations, tau=tau, nu=nu,
                          gravity=gravity, structure=structure,
                          residuals=residuals, options=options)
