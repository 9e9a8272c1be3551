import json

import numpy as np
import pytest
from hypothesis import settings

import dynsfm
from dynsfm import banded, so3, solver
from dynsfm.baseline import terminal_rmse
from dynsfm.config import reference_config, reference_noise_config
from dynsfm.derivatives import savgol_filter
from dynsfm.errors import LengthMismatch
from dynsfm.simulate import PROJECTOR

# one profile for every property test: the same examples on every run, and
# no example database written to disk
settings.register_profile("dynsfm", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("dynsfm")


def make_dataset(cfg):
    filters = (savgol_filter(cfg.flow_filter[0], cfg.flow_filter[1], 1),
               savgol_filter(cfg.flow_filter[0], cfg.flow_filter[1], 2))
    return dynsfm.simulate_dataset(
        duration=cfg.duration, t_s=cfg.t_s, n_points=cfg.points,
        extent=cfg.extent, amp_trans=cfg.amp_trans, amp_rot=cfg.amp_rot,
        seed=cfg.seed, noise=cfg.noise, flow_mode=cfg.flow_mode,
        flow_filters=filters)


@pytest.fixture(scope="session")
def reference_dataset():
    """Noiseless reference instance: 5 s at 30 Hz, 24 points."""
    return make_dataset(reference_config(seed=0))


@pytest.fixture(scope="session")
def reference_recon(reference_dataset):
    return dynsfm.reconstruct(reference_dataset.measurements)


@pytest.fixture(scope="session")
def reference_report(reference_dataset, reference_recon):
    ds = reference_dataset
    return dynsfm.evaluate(reference_recon, ds.trajectory, ds.scene, ds.gravity)


def run_noisy_seed(seed):
    """One reference-noise run: returns the error report plus the
    dead-reckoning terminal-window RMSE for the same measurements."""
    cfg = reference_noise_config(seed=seed)
    ds = make_dataset(cfg)
    recon = dynsfm.reconstruct(ds.measurements, cfg.solver)
    report = dynsfm.evaluate(recon, ds.trajectory, ds.scene, ds.gravity)
    traj = ds.trajectory
    _, imu_T, _ = dynsfm.imu_dead_reckon(
        ds.measurements.gyro, ds.measurements.accel, ds.gravity,
        (traj.rotations[0], traj.T[0], traj.dT[0]), ds.t_s)
    return report, terminal_rmse(imu_T, traj.T)


@pytest.fixture(scope="session")
def noise_sweep():
    """Twenty reference-noise runs (seeds 0..19)."""
    return [run_noisy_seed(seed) for seed in range(20)]


def dense_C(blocks):
    """The dense 6F x 3F coefficient matrix of the assemble_C blocks:
    block row (order o, frame f) holds blocks[o, f] at block column f."""
    F = blocks.shape[1]
    C = np.zeros((6 * F, 3 * F))
    f = np.arange(F)
    C.reshape(3, F, 2, F, 3)[:, f, :, f] = blocks.transpose(1, 0, 2, 3)
    return C


def dense_rotation_system(Mt_cols, C, omega, domega, t_s, lambda_R):
    """The dense stacked least-squares system [C; sqrt(lambda_R) C_R] of
    the rotation stage, (9F - 3) x 3F, and its right-hand side, with the
    regularizer written out row block by row block: -exp(phi_f)^T at
    block column f and the identity at f + 1."""
    F = len(omega)
    CR = np.zeros((3 * max(F - 1, 0), 3 * F))
    for f in range(F - 1):
        w0, w1 = omega[f], omega[f + 1]
        phi = (t_s / 2 * (w0 + w1)
               + t_s ** 2 / 12 * (domega[f] - domega[f + 1]
                                  + np.cross(w0, w1)))
        CR[3 * f:3 * f + 3, 3 * f:3 * f + 3] = -so3.exp_so3(phi).T
        CR[3 * f:3 * f + 3, 3 * f + 3:3 * f + 6] = np.eye(3)
    A = np.vstack([dense_C(C), np.sqrt(lambda_R) * CR])
    B = np.vstack([Mt_cols, np.zeros((CR.shape[0], 3))])
    return A, B


# The block-row front end the rotation stage once used to form its normal
# equations: the oracle of both stages' closed-form normal equations.
def block_lstsq(blocks, rhs, d, border=0):
    """Least-squares solution of the stacked block rows, in O(F).

    blocks is a list of arrays (n, rows, d w + border): block row i of
    one array acts on the unknowns (z_i, ..., z_i+w-1, g), z_f the d
    unknowns of frame f and g the border. rhs holds the matching
    right-hand sides (n, rows, k). A list may be empty (n = 0). The
    frame count F is the last frame any list reaches.

    Returns (z, g, cond, normal_ratio, residuals): z, g and cond of
    banded.solve_normal, and the block residuals r = block @ x - rhs of
    each list. Raises np.linalg.LinAlgError when the lists hold fewer
    rows than unknowns (d F + border), whatever the rounding, or as
    banded.solve_normal does.
    """
    widths = [(block.shape[2] - border) // d for block in blocks]
    F = max(len(block) + w - 1 for block, w in zip(blocks, widths))
    if sum(b.shape[0] * b.shape[1] for b in blocks) < d * F + border:
        raise np.linalg.LinAlgError("fewer rows than unknowns")
    P, Nzg, Ngg = block_normal_matrix(
        F, banded.group_size(d, max(widths)), d, border, blocks, widths)
    rz, rg = block_transpose(F, d, border, blocks, widths, rhs)
    z, g, cond = banded.solve_normal(P, Nzg, Ngg, rz, rg)
    res = [block @ _gather(z, g, len(block), w) - b
           for block, w, b in zip(blocks, widths, rhs)]
    return z, g, cond, banded.normal_ratio(
        (rz, rg), block_transpose(F, d, border, blocks, widths, res)), res


def _gather(z, g, n, w):
    """Unknowns of n block rows spanning w frames: row i holds
    (z_i, ..., z_i+w-1, g), shape (n, d w + border, k)."""
    return np.concatenate([z[j:j + n] for j in range(w)]
                          + [np.broadcast_to(g, (n,) + g.shape)], axis=1)


def block_transpose(n_frames, d, border, blocks, widths, vecs):
    """Blockwise A^T v: the per-frame part (n_frames, d, k) and the
    border part (border, k)."""
    vz = np.zeros((n_frames, d, vecs[0].shape[2]))
    vg = np.zeros((border, vecs[0].shape[2]))
    for block, w, v in zip(blocks, widths, vecs):
        h = block.transpose(0, 2, 1) @ v
        for j in range(w):
            vz[j:j + len(block)] += h[:, d * j:d * j + d]
        vg += h[:, d * w:].sum(axis=0)
    return vz, vg


def block_normal_matrix(F, s, d, border, blocks, widths):
    """Blockwise A^T A: (P, Nzg, Ngg) with P the group storage of N_zz,
    Nzg[f] = N_z_f,g (F, d, border) and Ngg = N_gg.

    The blocks N_f,f+j of each offset j are summed over all lists with
    plain slices, in list order, and then placed into P."""
    P, cells = banded.group_storage(F, s, d)
    Nzg = np.zeros((F, d, border))
    Ngg = np.zeros((border, border))
    w_max = max(widths)
    band = np.zeros((2 * w_max - 1, F, d, d))  # [w_max - 1 + j, f]: N_f,f+j
    for block, w in zip(blocks, widths):
        n = len(block)
        for l in range(w):
            # Gram columns of frame c + l, for each block row c
            G = block.transpose(0, 2, 1) @ block[:, :, d * l:d * l + d]
            for k in range(w):
                band[w_max - 1 + l - k, k:k + n] += G[:, d * k:d * k + d]
            if border:
                Nzg[l:l + n] += G[:, d * w:].transpose(0, 2, 1)
        if border:
            g = block[:, :, d * w:]
            Ngg += (g.transpose(0, 2, 1) @ g).sum(axis=0)
    for j in range(1 - w_max, w_max):
        banded.place(cells, j, band[w_max - 1 + j])
    return P, Nzg, Ngg


def full_gram_normal_equations(rows):
    """(P, Nzg, Ngg, rz, rg) of a solver._TranslationRows from the whole
    (F, 9, 9) Gram of its data rows: the oracle of its normal_equations,
    which forms only the Gram's (tau, nu) block, its (tau, nu) by g block
    and the frame sum of its g block, by the same products."""
    R, taps, st2, sn2 = rows.R, rows.taps, rows.st ** 2, rows.sn ** 2
    F, w, half = len(R), len(taps), len(taps) // 2
    data = rows._data()
    G = data.transpose(0, 2, 1) @ data
    rz, rg = rows._transpose(data, *rows.rhs)
    P, cells = banded.group_storage(F, banded.group_size(6, w), 6)
    mid = np.r_[np.zeros(half), np.ones(rows.n), np.zeros(half)]
    tap = np.r_[taps, np.zeros(w)]
    for j in range(w):
        S = solver._convolve(taps[:w - j] * taps[j:], mid[rows.mid])
        c = np.zeros((F - j, 2, 2))
        c[:, 0, 0], c[:, 1, 1] = st2 * S, sn2 * S
        c[:, 1, 1] += st2 * mid[:F - j] * (j == 0)
        c[:, 0, 1] = -st2 * tap[half - j] * mid[j:]
        c[:, 1, 0] = -st2 * tap[half + j] * mid[:F - j]
        Q = (R[:F - j].transpose(0, 2, 1) @ R[j:] if j
             else np.broadcast_to(np.eye(3), R.shape))
        N = np.einsum("fab,fij->faibj", c, Q).reshape(F - j, 6, 6)
        banded.place(cells, j, N + G[:, :6, :6] if j == 0 else N)
        if j:
            banded.place(cells, -j, N.transpose(0, 2, 1), first=j)
    Nzg = G[:, :6, 6:].copy()
    reach = solver._convolve(taps, mid[rows.mid])[:, None, None]
    Nzg[:, 3:] += sn2 * reach * R.transpose(0, 2, 1)
    Ngg = G[:, 6:, 6:].sum(axis=0) + sn2 * rows.n * np.eye(3)
    return P, Nzg, Ngg, rz[..., None], rg[:, None]


def stable_argsort_pick(h, visited):
    """The condition estimator's column pick by sorting, the oracle of
    banded.best_unvisited: the first two unvisited entries of a stable
    argsort of -h."""
    order = np.argsort(-h, kind="stable")
    return order[~visited[order]][:2]


def translation_vector(omega, domega, tau, nu, accel, rotations, gravity):
    """Ground-truth translation vector m of the decomposition (6F,): the
    factorization-identity oracle; the solver recovers m from the data."""
    W1, W2 = so3.rate_blocks(omega, domega)
    m0 = so3.matvec(-PROJECTOR, tau)
    m1 = so3.matvec(PROJECTOR, so3.matvec(W1, tau) - nu)
    RTg = so3.matvec(np.swapaxes(rotations, 1, 2), gravity)
    m2 = so3.matvec(PROJECTOR, so3.matvec(-W2, tau)
                    + so3.matvec(2.0 * W1, nu) - accel + RTg)
    return np.concatenate([m0.ravel(), m1.ravel(), m2.ravel()])


def vee(A, tol=1e-9):
    """Inverse of so3.hat, for a matrix skew-symmetric within tol."""
    A = np.asarray(A, dtype=float)
    assert np.linalg.norm(A + A.T) < tol, "matrix is not skew-symmetric"
    return np.array([A[2, 1], A[0, 2], A[1, 0]])


def translation_blocks(m_hat, rotations, omega, domega, accel, t_s,
                       lambda_tau, lambda_nu, reg_filter=None):
    """Block rows of the translation/velocity/gravity system, written out
    in full: the oracle of the closed-form normal equations of
    recover_translations.

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


def translation_system(m_hat, rotations, omega, domega, accel, t_s,
                       lambda_tau, lambda_nu, reg_filter=None):
    """The dense (A, b) of the translation/velocity/gravity solve, the
    translation_blocks rows scattered into one matrix: the oracle of
    recover_translations.

    Unknown ordering: x = stack(tau_1..tau_F, nu_1..nu_F, g). Rows: the
    data rows order-major (order, frame, row), then six regularizer rows
    per filter center.
    """
    data, data_rhs, reg, reg_rhs = translation_blocks(
        m_hat, rotations, omega, domega, accel, t_s, lambda_tau, lambda_nu,
        reg_filter)
    F, n_centers, win = len(data), len(reg), (reg.shape[2] - 3) // 6
    n_data = 6 * F
    A = np.zeros((n_data + 6 * n_centers, 6 * F + 3))
    b = np.zeros(n_data + 6 * n_centers)
    f = np.arange(F)
    blocks = data.reshape(F, 3, 2, 3, 3)
    A[:n_data, :6 * F].reshape(3, F, 2, 2, F, 3)[:, f, :, :, f] = (
        blocks[:, :, :, :2])
    A[:n_data, 6 * F:].reshape(3, F, 2, 3)[:] = (
        blocks[:, :, :, 2].transpose(1, 0, 2, 3))
    b[:n_data] = data_rhs.reshape(F, 3, 2).transpose(1, 0, 2).ravel()
    c = np.arange(n_centers)
    rows = A[n_data:, :6 * F].reshape(n_centers, 2, 3, 2, F, 3)
    taps = reg[:, :, :6 * win].reshape(n_centers, 2, 3, win, 2, 3)
    for k in range(win):
        rows[c, :, :, :, c + k] = taps[:, :, :, k]
    A[n_data:, 6 * F:] = reg[:, :, 6 * win:].reshape(6 * n_centers, 3)
    b[n_data:] = reg_rhs.ravel()
    return A, b


def random_rotation(rng):
    v = rng.normal(size=3)
    v = v / np.linalg.norm(v) * rng.uniform(0.0, np.pi - 1e-3)
    return so3.exp_so3(v)


@pytest.fixture(scope="session")
def fine_noiseless_stages():
    """Gently excited 240 Hz noiseless instance, solved stage by stage.

    The regularizer-consistency bias scales as t_s^5 per step (rotations)
    and t_s^2 (translations), so this instance exercises the near-exact
    regime of the closed form that the 30 Hz reference instance cannot
    reach.
    """
    from dynsfm.simulate import (MeasurementSet, generate_scene,
                                 generate_trajectory, synthesize_images,
                                 synthesize_imu)
    from dynsfm.solver import (assemble_C, assemble_W,
                               extract_rotations_structure, factor_rank4,
                               fix_similarity, metric_upgrade,
                               recover_rotation_blocks)
    t_s = 1.0 / 240.0
    traj = generate_trajectory(2.5, t_s, 0.2, np.radians(30), seed=3,
                               trans_freq_band=(0.02, 0.06),
                               rot_freq_band=(0.05, 0.15))
    scene = generate_scene(24, 2.0, seed=4)
    gyro, accel = synthesize_imu(traj)
    tracks, flows, dflows = synthesize_images(traj, scene)
    meas = MeasurementSet(t_s=t_s, tracks=tracks, flows=flows,
                          double_flows=dflows, gyro=gyro, accel=accel)
    W = assemble_W(meas)
    C = assemble_C(traj.omega, traj.domega)
    Mt, St, sigma_ratio = factor_rank4(W)
    Mt, St, m_hat = fix_similarity(Mt, St)
    M2, rot_info = recover_rotation_blocks(Mt[:, :3], C, traj.omega,
                                           traj.domega, t_s, 1.0)
    K_upg, q_fit = metric_upgrade(M2)
    rotations, structure = extract_rotations_structure(
        M2, K_upg, St[:3], reflection="auto", Mt_cols=Mt[:, :3], C=C)
    return {"trajectory": traj, "scene": scene, "measurements": meas,
            "W": W, "C": C, "m_hat": m_hat, "M2": M2, "K_upg": K_upg,
            "rotations": rotations, "structure": structure,
            "sigma_ratio": sigma_ratio, "rot_info": rot_info, "q_fit": q_fit}


def right_jacobian_one(v):
    """Per-vector right Jacobian, the oracle of the batched so3 version:
    the Taylor branch below so3.SMALL_ANGLE, complex-safe."""
    v = np.asarray(v)
    th2 = v @ v
    th = np.sqrt(th2)
    V = so3.hat(v)
    I = np.eye(3, dtype=V.dtype)
    if abs(th) < so3.SMALL_ANGLE:
        return I - 0.5 * V + (V @ V) / 6.0
    return (I - ((1.0 - np.cos(th)) / th2) * V
            + ((th - np.sin(th)) / (th2 * th)) * (V @ V))


def log_so3_one(R):
    """Per-matrix principal log, the oracle of so3.rotation_vector away
    from pi (trace above so3.NEAR_PI_TRACE)."""
    R = np.asarray(R, dtype=float)
    tr = np.trace(R)
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    nw = np.linalg.norm(w)
    th = np.arctan2(nw, tr - 1.0)
    if nw < so3.SMALL_ANGLE:
        return 0.5 * w
    return (th / nw) * w


def deterministic_svd(A):
    """Thin SVD with the sign convention of so3.fix_signs: the oracle that
    factor_rank4's top four singular triplets are checked against."""
    U, s, Vt = np.linalg.svd(np.asarray(A, dtype=float), full_matrices=False)
    so3.fix_signs(U, Vt)
    return U, s, Vt


# The JSON/CSV float writers as they were before jsonio printed each array
# and table with one template: the byte-for-byte oracles of jsonio's.
ORACLE_FLOAT = "%.17g"


def _oracle_require_finite(values):
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(
            f"cannot serialize non-finite float {a[~np.isfinite(a)][0]}")


def row_template_dumps_floats(a):
    """A float ndarray (at least 1-d, not empty) as nested JSON lists: one
    template per last-axis row, then joins over the leading axes."""
    _oracle_require_finite(a)
    n = a.shape[-1]
    row = "[" + ",".join([ORACLE_FLOAT] * n) + "]"
    text = [row % tuple(r) for r in a.reshape(-1, n).tolist()]
    for size in reversed(a.shape[:-1]):
        text = ["[" + ",".join(text[i:i + size]) + "]"
                for i in range(0, len(text), size)]
    return text[0]


def per_frame_records_dumps(fields):
    """The JSON list of one {name: row f} object per frame of the (F, k)
    arrays in fields, with one template per frame."""
    table = np.hstack([np.asarray(a, dtype=float) for a in fields.values()])
    _oracle_require_finite(table)
    record = "{" + ",".join(
        f"{json.dumps(name)}:[" + ",".join([ORACLE_FLOAT] * a.shape[1]) + "]"
        for name, a in fields.items()) + "}"
    return "[" + ",".join(record % tuple(r) for r in table.tolist()) + "]"


def csv_row(row):
    """One CSV line: float cells by the float template, others by str."""
    is_float = [isinstance(v, (float, np.floating)) for v in row]
    _oracle_require_finite([v for v, f in zip(row, is_float) if f])
    return ",".join(ORACLE_FLOAT if f else "%s" for f in is_float) % tuple(row)


def csv_text(header, rows):
    """The CSV file of header and rows, a line at a time."""
    return "".join(line + "\n" for line in
                   [",".join(header), *map(csv_row, rows)])
