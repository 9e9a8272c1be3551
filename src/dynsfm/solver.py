"""Closed-form factorization solver for affine structure from motion with
inertial measurements.

The stacked measurement matrix W (tracks, flows, double flows) admits an
exact decomposition W = C M S + m 1^T where C depends only on the gyro
readings and their rates, M stacks the transposed rotations, S holds the
structure and m the translation-dependent terms. Recovery proceeds in four
closed-form steps: rank-4 factorization, the affine gauge (similarity fix
and centering), rotation recovery with metric upgrade, and a final linear
solve for the body-frame translations, velocities and the gravity vector.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import banded, so3
from .derivatives import check_filter_spec, omega_dot_series, savgol_filter
from .errors import (BadSampling, DynSfmError, IllConditionedWarning,
                     IndefiniteQ, LengthMismatch, NumericalFailure,
                     OverBudget, RankDeficient, SeriesTooShort,
                     SingularTransform, TooFewFramesOrPoints)
from .simulate import MAX_SAMPLE_ROTATION, PROJECTOR, shaped

COND_LIMIT = 1e12  # normal-equation condition number a stage does not trust
# Gram order above which factor_rank4 takes its eigenvectors by Lanczos.
# Measured on 2 vCPUs (median of 15 calls on one Gram, Lanczos vs eigh):
# simulated wide W (reference noise, numeric flows, P = 4000) stop after
# 24-40 steps, 1.0 vs 1.3 ms at n = 120, 1.7 vs 4.5 at n = 210 and 2.4 vs
# 12.1 at n = 360; a flat Gaussian n x 4000 W, the worst case, needs 80-120
# steps, 6.9 vs 1.5 ms at n = 100, 12.7 vs 5.3 at n = 200 and 25.5 vs 18.7
# at n = 360. Up to 200, where eigh takes ~5 ms, Lanczos gains little and
# can lose 5x; the limit also keeps every tall W of the shipped configs
# (n = P = 24) on eigh, bit for bit.
DENSE_GRAM_LIMIT = 200
# Ritz residual, relative to the top Ritz value (||G||), at which a Lanczos
# pair counts as converged: ~4.5 eps, the rounding level of eigh's pairs.
# For any value from 1e-13 to 1e-16 wide_scene's W stops at step 40 and
# matches its SVD to 1.1e-14 per column, and a flat Gaussian 360 x 4000 W
# stops at 112-128 steps.
LANCZOS_TOL = 1e-15
LANCZOS_CHECK = 8  # steps between convergence checks


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
    rotations: np.ndarray = shaped("F", 3, 3)  # estimated R_f
    tau: np.ndarray = shaped("F", 3)      # body-frame translations (m)
    nu: np.ndarray = shaped("F", 3)       # body-frame velocities (m/s)
    gravity: np.ndarray = shaped(3)       # spatial-frame gravity (m/s^2)
    structure: np.ndarray = shaped("P", 3)
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


def factor_rank4(W):
    """Rank-four factorization W ~ Mt @ St via truncated SVD.

    One range finder with one power step (Halko, Martinsson & Tropp 2011)
    on the short side of W, from a deterministic start: with A = W if W
    is wide (more points than rows), else W^T, and n = len(A), the top
    k = min(8, n) eigenvectors V of the Gram matrix A A^T, then
    Q = qr((V^T A)^T) and the SVD U s Vt of A Q (n x k), whose Ritz
    values and vectors stand for those of W: its left vectors are U
    (wide) or Q Vt^T (tall). Only the Gram product costs O(n^2 N), with
    N = max(W.shape); the rest is O(k n N) plus the eigenvectors. Why
    the power step and k = 8, measured on 54 x 400 matrices with singular
    values (1, .8, .6, r, 1e-3 r, 0.9e-3 r) and on their transposes:
    - the Gram eigenvectors alone square the conditioning: their rank-4
      subspace error is 5e-9 at r = 1e-4 and ~1 at r = 1e-8 (wide), where
      an SVD of W gives 2e-13 and 2e-9. After the power step the error
      stays within 10x of the SVD's for every r from 1e-2 to 1e-9;
    - with k = 5 instead of 8 it ends 1-2 (wide) and 4-5 (tall) digits
      above the SVD's at r = 1e-8 and 1e-9.
    Up to n = DENSE_GRAM_LIMIT (every tall W of the shipped configs, n =
    P = 24) V comes from np.linalg.eigh, which computes all n eigenvectors.
    Above it, from Lanczos on A A^T (_top_eigenvectors), which stops once
    the top 5 Ritz pairs have residual estimates within LANCZOS_TOL of the
    top Ritz value (the rounding level of |A A^T|, to which eigh's pairs
    are accurate) or once the Krylov space is all of R^n. The top 5: the
    factorization reads the top 4 and sigma_ratio the 5th; the other 3 of
    the k = 8 only oversample the power step, so they need not converge.
    On wide_scene's W (n = 360) this takes 40 steps and ~3 ms, where eigh
    takes ~12 ms.
    W's left vectors take the sign convention of so3.fix_signs. Returns
    (Mt, St, sigma_ratio) where sigma_ratio = s5/s4 measures how well
    the data fits the rank-4 model.
    """
    if min(W.shape) < 4:
        raise TooFewFramesOrPoints("W must have at least 4 rows and columns")
    wide = W.shape[1] > W.shape[0]
    A = W if wide else W.T
    V = _top_eigenvectors(A @ A.T, min(8, len(A)))
    Q, _ = np.linalg.qr((V.T @ A).T)
    U, s, Vt = np.linalg.svd(A @ Q, full_matrices=False)
    rank_ratio = s[3] / s[0] if s[0] > 0 else 0.0
    if rank_ratio < 1e-10:
        raise RankDeficient(f"sigma4/sigma1 = {rank_ratio:.2e} < 1e-10")
    sigma_ratio = float(s[4] / s[3]) if len(s) > 4 else 0.0
    left, right = (U[:, :4], Vt[:4] @ Q.T) if wide else (Q @ Vt[:4].T, U.T[:4])
    so3.fix_signs(left, right)
    return left * s[:4], right, sigma_ratio


def _top_eigenvectors(G, k):
    """Eigenvectors (n x k) of the symmetric positive semidefinite G for
    its k largest eigenvalues, in ascending order of eigenvalue.

    Up to order DENSE_GRAM_LIMIT, from np.linalg.eigh. Above it, by
    Lanczos with full reorthogonalization (Golub & Van Loan, Matrix
    Computations, 10.1) from a fixed start, stopped by the rule in
    factor_rank4's docstring. Where the Krylov space stops growing (the
    new vector's norm beta within LANCZOS_TOL of the largest Rayleigh
    quotient so far), the tridiagonal T splits there and the next vector
    is a new direction from the same fixed stream, as in ARPACK. So an
    exactly low-rank G, such as a noiseless W's, goes on into its null
    space, and an eigenvalue of multiplicity above one, whose other
    eigenvectors one Krylov space reaches only through rounding, is
    picked up from that rounding or from such a restart.
    """
    n = len(G)
    if n <= DENSE_GRAM_LIMIT:
        return np.linalg.eigh(G)[1][:, -k:]
    rng = np.random.default_rng(0)
    Q = np.empty((min(n, 8 * LANCZOS_CHECK), n))  # row j: Lanczos vector j
    alpha, beta = np.zeros(n), np.zeros(n)
    q = rng.standard_normal(n)
    Q[0] = q / np.linalg.norm(q)
    for j in range(n):
        m = j + 1
        r = G @ Q[j]
        alpha[j] = Q[j] @ r
        beta[j] = np.linalg.norm(_deflate(r, Q[:m]))
        if beta[j] <= LANCZOS_TOL * alpha[:m].max():
            beta[j] = 0.0  # T splits here; start a new Krylov space
            r = _deflate(rng.standard_normal(n), Q[:m])
        if m % LANCZOS_CHECK == 0 or m == n:
            T = np.diag(alpha[:m])
            T.flat[1::m + 1] = T.flat[m::m + 1] = beta[:j]
            theta, Y = np.linalg.eigh(T)
            if (m == n or np.all(beta[j] * np.abs(Y[-1, -5:])
                                 <= LANCZOS_TOL * theta[-1])):
                return Q[:m].T @ Y[:, -k:]
        if m == len(Q):  # double the storage, up to n vectors
            Q = np.concatenate([Q, np.empty((min(m, n - m), n))])
        Q[m] = r / np.linalg.norm(r)


def _deflate(r, Q):
    """r less its projection on the orthonormal rows of Q, in place: two
    classical Gram-Schmidt passes, as twice is enough (Parlett, The
    Symmetric Eigenvalue Problem, 6.9)."""
    for _ in range(2):
        r -= (Q @ r) @ Q
    return r


def fix_similarity(Mt, St):
    """Put the factors in the affine gauge; returns (Mt', St', m_hat).

    Applies the similarity K = [[I, 0], [k^T]], k^T St = 1^T in least
    squares, then the shift c with mean(St[:3] - c St[3]) = 0 per row,
    which zeroes the structure centroid; m_hat is the fourth column of Mt'.
    """
    P = St.shape[1]
    k = lstsq_checked(St.T, np.ones(P), "fix_similarity")
    if abs(k[3]) < 1e-12:
        raise SingularTransform("similarity transform is singular")
    K = np.eye(4)
    K[3] = k
    Mt, St = Mt @ np.linalg.inv(K), K @ St
    c = St[:3].mean(axis=1) / St[3].mean()
    K, Kinv = np.eye(4), np.eye(4)
    K[:3, 3], Kinv[:3, 3] = -c, c
    Mt = Mt @ Kinv
    return Mt, K @ St, Mt[:, 3].copy()


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
    rate series that also builds C. Raises BadSampling when an increment
    turns MAX_SAMPLE_ROTATION or more (the gyro bound of validate bounds
    its first term only).
    """
    w0, w1 = omega[:-1], omega[1:]
    with np.errstate(over="ignore"):  # an overflow is above the bound
        phi = (0.5 * t_s * (w0 + w1) + t_s ** 2 / 12.0
               * ((domega[:-1] - domega[1:]) + np.cross(w0, w1)))
        turn = np.hypot.reduce(phi, axis=1).max(initial=0.0)
    if turn >= MAX_SAMPLE_ROTATION:
        raise BadSampling(f"rotation increment turns {turn:.3g} rad in one "
                          f"sample; a sampled rotation must stay below pi")
    return -so3.exp_so3(phi).transpose(0, 2, 1)


def recover_rotation_blocks(Mt_cols, C, omega, domega, t_s, lambda_R):
    """Solve for the 3F x 3 stacked rotation blocks (up to a 3x3 gauge).

    Minimizes |Mt_cols - C M''|^2 + lambda_R |C_R M''|^2, with C the
    assemble_C blocks and C_R the rotation_regularizer operator, over the
    3 x 3 blocks M''_f (R_f^T up to the gauge). Its normal equations are
    built in closed form, with s = sqrt(lambda_R) and B_f the regularizer
    blocks: N_ff = sum_o C_of^T C_of + (s B_f)^T (s B_f) (f < F - 1)
    + s^2 I (f > 0), N_f,f+1 = (s B_f)^T s and rz_f = sum_o C_of^T Y_of,
    and banded.solve_normal solves them in O(F) with no border.

    Returns (M'', info): info["residual"] is |Mt_cols - C M''|,
    info["cond"] a 1-norm estimate of the normal matrix's condition
    number and info["normal_ratio"] the relative normal-equation residual.
    Raises TooFewFramesOrPoints for no frames, RankDeficient when the
    normal matrix is not numerically positive definite and
    NumericalFailure when the condition estimate exceeds COND_LIMIT.
    """
    F = omega.shape[0]
    if F == 0:
        raise TooFewFramesOrPoints("need at least one frame, got none")
    if Mt_cols.shape != (6 * F, 3):
        raise LengthMismatch(
            f"expected {(6 * F, 3)} motion columns, got {Mt_cols.shape}")
    if C.shape != (3, F, 2, 3):
        raise LengthMismatch(f"expected {(3, F, 2, 3)} C blocks, got {C.shape}")
    if domega.shape != omega.shape:
        raise LengthMismatch("omega and domega lengths differ")
    s = np.sqrt(lambda_R)
    B = rotation_regularizer(omega, domega, t_s)
    reg = s * np.concatenate([B, np.broadcast_to(np.eye(3), B.shape)],
                             axis=2)
    sB = reg[:, :, :3]
    Y = Mt_cols.reshape(3, F, 2, 3)  # (order, frame, row, column)
    CT = C.transpose(0, 1, 3, 2)
    # the Grams of the rows [s B_f | s I], which round differently from
    # lambda_R and from B_f^T B_f = I
    diag = sum(ct @ c for ct, c in zip(CT, C))
    diag[:-1] += sB.transpose(0, 2, 1) @ sB
    diag[1:] += s * s * np.eye(3)
    coupling = sB.transpose(0, 2, 1) * s
    P, cells = banded.group_storage(F, banded.group_size(3, 2), 3)
    banded.place(cells, 0, diag)
    banded.place(cells, 1, coupling)
    banded.place(cells, -1, coupling.transpose(0, 2, 1), first=1)
    del diag, coupling  # held in P: the solve peaks above them
    rz = sum(ct @ y for ct, y in zip(CT, Y))
    try:
        X, _, cond = banded.solve_normal(P, np.zeros((F, 3, 0)),
                                         np.zeros((0, 0)), rz, np.zeros((0, 3)))
    except np.linalg.LinAlgError:
        raise RankDeficient("normal matrix is not positive definite") from None
    if cond > COND_LIMIT:
        raise NumericalFailure(
            f"normal-equation condition number {cond:.2e} above {COND_LIMIT:.0e}")
    res = C @ X - Y
    # the regularizer rows' residual and A^T r, each as one [s B_f | s I]
    # product; split into s B_f and s I parts they round differently
    r_reg = reg @ np.concatenate([X[:-1], X[1:]], axis=1)
    h = reg.transpose(0, 2, 1) @ r_reg
    atr = sum(ct @ r for ct, r in zip(CT, res))
    atr[:-1] += h[:, :3]
    atr[1:] += h[:, 3:]
    return X.reshape(3 * F, 3), {
        "cond": cond, "normal_ratio": banded.normal_ratio((rz,), (atr,)),
        "residual": float(np.linalg.norm(res))}


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


def span_basis(St_rows):
    """[St_rows^T, 1] (P x 4): its columns span the structure columns of
    both reflection candidates and the ones vector."""
    return np.column_stack([St_rows.T, np.ones(St_rows.shape[1])])


def extract_rotations_structure(M2, K_upg, St_rows, reflection="auto",
                                WS=None, C=None, m_hat=None):
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
    dropped, so W is read only as WS = W span_basis(St_rows) (6F x 4).
    "positive"/"negative" select the unflipped/flipped candidate
    directly. A score that is not finite decides nothing: "auto" raises
    NumericalFailure. Both arrays are returned C-contiguous, as a file
    reader returns them, so the arithmetic after this stage rounds the
    same on either.
    """
    F = M2.shape[0] // 3
    if reflection == "auto" and (WS is None or C is None or m_hat is None):
        raise ValueError("reflection='auto' needs WS, C and m_hat to score "
                         "the two candidates")
    U, s, Vt = np.linalg.svd((M2 @ K_upg).reshape(F, 3, 3))
    structure = np.linalg.solve(K_upg, St_rows).T
    mirror = np.array([1.0, 1.0, -1.0])
    candidates = []
    for flip in {"positive": [False], "negative": [True],
                 "auto": [False, True]}[reflection]:
        if flip:
            Vt, structure = Vt * mirror, structure * mirror
        rotations = so3.rotation_from_svd(U, s, Vt).transpose(0, 2, 1)
        candidates.append((np.ascontiguousarray(rotations),
                           np.ascontiguousarray(structure)))
    if len(candidates) == 1:
        return candidates[0]
    # Q = span_basis(St_rows) R^-1 spans both structures and the ones
    Q, R = np.linalg.qr(span_basis(St_rows))
    WQ = WS @ np.linalg.inv(R)
    pos, neg = (_reflection_residual(WQ, Q, C, *candidate, m_hat)
                for candidate in candidates)
    if not (math.isfinite(pos) and math.isfinite(neg)):
        raise NumericalFailure(f"reflection scores {pos:.3g} and {neg:.3g} "
                               "are not both finite")
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


def _correlate(taps, x):
    """sum_k taps[k] x[c + k] over axis 0, for each filter centre c,
    accumulated in place as derivatives.differentiate_series does."""
    n = len(x) - len(taps) + 1
    out = taps[0] * x[:n]
    for k in range(1, len(taps)):
        out += taps[k] * x[k:k + n]
    return out


def _convolve(taps, y):
    """The transpose of _correlate: len(y) + len(taps) - 1 frames."""
    w = len(taps)
    padded = np.zeros((len(y) + 2 * (w - 1),) + y.shape[1:])
    padded[w - 1:w - 1 + len(y)] = y
    return _correlate(taps[::-1], padded)


class _TranslationRows:
    """The rows of the translation solve and their right-hand sides rhs.
    Frame f has the data rows data[f] (6 x 9) over (tau_f, nu_f, g), two
    per order of m. Filter centre c, at frame c + half, has the tau rows
    st (sum_k taps_k R_c+k tau_c+k - R_c+half nu_c+half) = 0 and the nu
    rows sn (sum_k taps_k R_c+k nu_c+k + g) = sn R_c+half a_c+half, st and
    sn the square roots of the weights and the taps divided by t_s: a tap
    correlation over the spatial series R tau and R nu. No rows are
    stored; the data rows are built before and after the solve, which
    does not hold them."""

    def __init__(self, m_hat, R, omega, domega, accel, taps, st, sn):
        self.R, self.omega, self.domega = R, omega, domega
        self.taps, self.st, self.sn = taps, st, sn
        half = len(taps) // 2
        self.n = max(len(R) - 2 * half, 0)  # filter centres
        self.mid = slice(half, half + self.n)  # their middle frames
        d = m_hat.reshape(3, len(R), 2).transpose(1, 0, 2).copy()
        d[:, 2] += so3.matvec(PROJECTOR, accel)
        self.rhs = (d.reshape(-1, 6), np.zeros((self.n, 3)),
                    sn * so3.matvec(R, accel)[self.mid])

    def _data(self):
        W1, W2 = so3.rate_blocks(self.omega, self.domega)
        # (frame, order, row, unknown, column)
        data = np.zeros((len(self.R), 3, 2, 3, 3))
        data[:, 0, :, 0] = data[:, 1, :, 1] = -PROJECTOR
        data[:, 1, :, 0] = PROJECTOR @ W1
        data[:, 2, :, 0] = -PROJECTOR @ W2
        data[:, 2, :, 1] = 2.0 * PROJECTOR @ W1
        data[:, 2, :, 2] = PROJECTOR @ self.R.transpose(0, 2, 1)
        return data.reshape(-1, 6, 9)

    def _transpose(self, data, r_data, r_tau, r_nu):
        """The transposed rows times row values: (F, 6) and (3,) parts."""
        RT = self.R.transpose(0, 2, 1)
        h = so3.matvec(data.transpose(0, 2, 1), r_data)
        nu = self.sn * _convolve(self.taps, r_nu)
        nu[self.mid] -= self.st * r_tau
        h[:, :3] += so3.matvec(RT, self.st * _convolve(self.taps, r_tau))
        h[:, 3:6] += so3.matvec(RT, nu)
        rg = h[:, 6:].sum(axis=0) + self.sn * r_nu.sum(axis=0)
        return h[:, :6].copy(), rg  # a view would hold all of h

    def residual(self, z, g):
        """The rows times (z, g) less rhs, z (F, 6) of (tau_f, nu_f), and
        the transposed rows times that residual."""
        data = self._data()
        x = np.concatenate([z, np.broadcast_to(g, (len(z), 3))], axis=1)
        u, v = so3.matvec(self.R, z[:, :3]), so3.matvec(self.R, z[:, 3:])
        res = [r - b for r, b in zip((
            so3.matvec(data, x),
            self.st * (_correlate(self.taps, u) - v[self.mid]),
            self.sn * (_correlate(self.taps, v) + g)), self.rhs)]
        return res, self._transpose(data, *res)

    def normal_equations(self):
        """(P, Nzg, Ngg, rz, rg) of banded.solve_normal, in closed form:
        the blocks of the data rows' per-frame Gram that N reads, plus, on
        N_f,f+j (j < window), 2 x 2 tap-pair coefficients of (tau, nu)
        times R_f^T R_f+j, and on N_nu_f,g sn^2 times the taps reaching
        frame f times R_f^T."""
        R, taps, st2, sn2 = self.R, self.taps, self.st ** 2, self.sn ** 2
        F, w, half = len(R), len(taps), len(taps) // 2
        data = self._data()
        rz, rg = self._transpose(data, *self.rhs)
        dz, dg = data[:, :, :6], data[:, :, 6:]
        Gzz, Nzg = (dz.transpose(0, 2, 1) @ x for x in (dz, dg))
        Ngg = (dg.transpose(0, 2, 1) @ dg).sum(axis=0)
        del data, dz, dg  # the solve peaks above P: hold no data rows
        P, cells = banded.group_storage(F, banded.group_size(6, w), 6)
        mid = np.r_[np.zeros(half), np.ones(self.n), np.zeros(half)]
        tap = np.r_[taps, np.zeros(w)]  # 0 past either end of the window
        for j in range(w):
            S = _convolve(taps[:w - j] * taps[j:], mid[self.mid])
            c = np.zeros((F - j, 2, 2))  # (tau_f, nu_f) by (tau_f+j, nu_f+j)
            c[:, 0, 0], c[:, 1, 1] = st2 * S, sn2 * S
            c[:, 1, 1] += st2 * mid[:F - j] * (j == 0)
            c[:, 0, 1] = -st2 * tap[half - j] * mid[j:]
            c[:, 1, 0] = -st2 * tap[half + j] * mid[:F - j]
            Q = (R[:F - j].transpose(0, 2, 1) @ R[j:] if j
                 else np.broadcast_to(np.eye(3), R.shape))  # R_f^T R_f = I
            N = np.einsum("fab,fij->faibj", c, Q).reshape(F - j, 6, 6)
            if j == 0:
                N += Gzz
                del Gzz
            banded.place(cells, j, N)
            if j:
                banded.place(cells, -j, N.transpose(0, 2, 1), first=j)
        reach = _convolve(taps, mid[self.mid])[:, None, None]
        Nzg[:, 3:] += sn2 * reach * R.transpose(0, 2, 1)
        Ngg += sn2 * self.n * np.eye(3)
        return P, Nzg, Ngg, rz[..., None], rg[:, None]


def recover_translations(m_hat, rotations, omega, domega, accel, t_s,
                         lambda_tau, lambda_nu, reg_filter):
    """Linear solve for body translations, velocities and gravity.

    Data rows restate the three bands of the translation vector m with
    the accelerometer term moved to the right-hand side. Regularizer rows
    tie consecutive samples through the derivative filter, written in the
    spatial frame via the estimated rotations (where the derivative
    constraints are free of angular-velocity coupling):

        D(R tau)_f - R_f nu_f          = 0
        D(R nu)_f + g                  = R_f a_imu_f

    with D the first-derivative filter of the (order, window) spec
    reg_filter, built here (SeriesTooShort for a window longer than F).
    The rows (_TranslationRows) span one frame (data) or one filter window
    (regularizer) of the per-frame unknowns (tau_f, nu_f), with gravity as
    a 3-column border. Their normal equations are built in closed form
    from the rotations and the taps, and banded.solve_normal solves them
    in O(F).

    Returns (tau, nu, gravity, info): info["residual"] is the norm of the
    stacked residual, data and regularizer rows; "cond" and
    "normal_ratio" are as in recover_rotation_blocks. Raises
    RankDeficient when the normal matrix is not numerically positive
    definite (an exact null family such as static hover). A condition
    estimate above COND_LIMIT raises an IllConditionedWarning and the
    banded solution is returned: its weakly observable components (depth
    at near-zero rotation rate) are not recovered.
    """
    F = len(rotations)
    if not (len(omega) == len(domega) == len(accel) == F):
        raise LengthMismatch("series lengths differ")
    taps = _filter("reg_filter", reg_filter, F).taps
    rows = _TranslationRows(m_hat, np.asarray(rotations), omega, domega,
                            accel, taps / t_s, np.sqrt(lambda_tau),
                            np.sqrt(lambda_nu))
    try:
        normal = rows.normal_equations()
        z, g, cond = banded.solve_normal(*normal)
    except np.linalg.LinAlgError:
        raise RankDeficient("normal matrix is not positive definite") from None
    if cond > COND_LIMIT:
        warnings.warn(
            f"recover_translations: normal-equation condition number "
            f"{cond:.2e} above {COND_LIMIT:.0e}; the weakly observable "
            f"components are not recovered", IllConditionedWarning)
    z, g = z[..., 0], g[:, 0]
    res, atr = rows.residual(z, g)
    return z[:, :3].copy(), z[:, 3:].copy(), g, {
        "cond": cond, "normal_ratio": banded.normal_ratio(normal[3:], atr),
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


def _finite(value):
    """False if value, a float, a float array or a dict of them, holds a
    NaN or an infinity."""
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, np.ndarray):
        return value.dtype.kind != "f" or bool(np.isfinite(value).all())
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    return True


def _stage(name, fn, *args, **kwargs):
    """fn(*args, **kwargs), run as the solver stage name.

    fn runs with numpy overflows raising. A DynSfmError is re-raised as the
    same type, a LAPACK failure or an ArithmeticError (an overflow) as a
    NumericalFailure, and a MemoryError as OverBudget, with "[name] "
    before the message. A result, or a member of a tuple result, that is
    a float array, a float scalar or a dict of them (a stage's residuals
    and condition numbers) and holds a NaN or an infinity raises
    NumericalFailure at [name], so a non-finite residual never reaches
    the Reconstruction or its file. W (assemble_W), a copy of the bands
    validate checked, is not checked.
    """
    try:
        with np.errstate(over="raise"):
            out = fn(*args, **kwargs)
        if name != "assemble_W" and not all(
                map(_finite, out if isinstance(out, tuple) else (out,))):
            raise NumericalFailure("non-finite result")
    except DynSfmError as err:
        raise type(err)(f"[{name}] {err}") from err
    except np.linalg.LinAlgError as err:
        raise NumericalFailure(f"[{name}] {err}") from err
    except ArithmeticError as err:
        raise NumericalFailure(
            f"[{name}] {type(err).__name__}: {err}") from err
    except MemoryError as err:
        raise OverBudget(f"[{name}] MemoryError: {err}") from err
    return out


def reconstruct(measurements, options=None):
    """Run the full closed-form recovery on a measurement set.

    Its ten stages, validate (MeasurementSet.validate, the input
    contract) to recover_translations, each run through _stage, which
    prefixes a failure with the stage name and raises NumericalFailure on a
    LAPACK failure, an ArithmeticError or a non-finite array, scalar or
    dict value in a stage's result, and OverBudget on a MemoryError.
    """
    options = options if options is not None else SolverOptions()
    options.validate()
    _stage("validate", measurements.validate)
    W = _stage("assemble_W", assemble_W, measurements)
    omega = measurements.gyro
    domega = _stage("omega_dot", _omega_dot_for, measurements, options)
    C = _stage("assemble_C", assemble_C, omega, domega)
    Mt, St, sigma_ratio = _stage("factor_rank4", factor_rank4, W)
    Mt, St, m_hat = _stage("fix_similarity", fix_similarity, Mt, St)
    WS = W @ span_basis(St[:3])  # all that the reflection choice reads of W
    del W  # the linear stages peak above it
    M2, rot_info = _stage(
        "recover_rotation_blocks", recover_rotation_blocks, Mt[:, :3], C,
        omega, domega, measurements.t_s, options.lambda_R)
    K_upg, q_fit = _stage("metric_upgrade", metric_upgrade, M2)
    rotations, structure = _stage(
        "extract_rotations_structure", extract_rotations_structure, M2,
        K_upg, St[:3], reflection=options.reflection_resolution, WS=WS, C=C,
        m_hat=m_hat)
    del Mt, St, WS, C, M2  # unread from here on: the translation solve peaks
    tau, nu, gravity, tr_info = _stage(
        "recover_translations", recover_translations, m_hat, rotations,
        omega, domega, measurements.accel, measurements.t_s,
        options.lambda_tau, options.lambda_nu, options.reg_filter)
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
