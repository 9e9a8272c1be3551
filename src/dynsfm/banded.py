"""Block-row least squares in O(F), for both linear stages of the solver.

Each stage writes its problem as lists of block rows. Block row i of a
list acts on the d unknowns of frames i .. i + w - 1, its span w, and on
a border of unknowns shared by all frames (the translations' gravity, the
rotations have none). lstsq forms the normal equations blockwise and
solves them: the per-frame part N_zz is banded, so frames are cut into
groups of s, s at least the largest span minus one, and N_zz is block
tridiagonal in the groups. It is stored as P of shape (groups, m, 2 m),
m = d s: P[i] = [N_ii | N_i,i+1], the last group's right half unused.
The border is eliminated through its Schur complement, the arrowhead
elimination of bundle adjustment.
"""

import numpy as np

# Unknowns per diagonal block of the group storage (6 per frame for the
# translations, 3 for the rotations): fewer, larger blocks mean fewer
# Python-level steps per banded solve.
GROUP_UNKNOWNS = 36


def lstsq(blocks, rhs, d, border=0):
    """Least-squares solution of the stacked block rows, in O(F).

    blocks is a list of arrays (n, rows, d w + border): block row i of
    one array acts on the unknowns (z_i, ..., z_i+w-1, g), z_f the d
    unknowns of frame f and g the border. rhs holds the matching
    right-hand sides (n, rows, k). A list may be empty (n = 0). The
    frame count F is the last frame any list reaches.

    Returns (z, g, cond, normal_ratio, residuals): z (F, d, k) and
    g (border, k) minimize the sum of |block @ x - rhs|^2 over all lists;
    cond is a 1-norm estimate of the normal matrix's condition number,
    normal_ratio |N x - A^T b| / |A^T b| with N x - A^T b formed as A^T r,
    and residuals the block residuals r = block @ x - rhs of each list.
    Raises np.linalg.LinAlgError when the normal matrix is not numerically
    positive definite. The frames that fill the last group carry an
    identity block and no coupling, so their unknowns solve to zero.
    """
    widths = [(block.shape[2] - border) // d for block in blocks]
    F = max(len(block) + w - 1 for block, w in zip(blocks, widths))
    s = max(GROUP_UNKNOWNS // d, max(widths) - 1)
    m = d * s
    P, Nzg, Ngg = _normal_matrix(F, s, d, border, blocks, widths)
    norm = _norm1(F, d, P, Nzg, Ngg)
    rz, rg = _apply_transpose(len(Nzg), d, border, blocks, widths, rhs)
    Linv, V = cholesky(P)
    X = solve(Linv, V, np.concatenate(
        [Nzg.reshape(len(P), m, border), rz.reshape(len(P), m, -1)], axis=2))
    Xg = X[..., :border].reshape(len(P) * m, border)
    Nzg_rows = Nzg.reshape(len(P) * m, border)
    S = Ngg - Nzg_rows.T @ Xg
    np.linalg.cholesky(S)  # raises unless S is positive definite

    def bordered(u, vg):
        """Bordered solve from u = N_zz^{-1} v_z (rows of z)."""
        g = np.linalg.solve(S, vg - Nzg_rows.T @ u)
        return u - Xg @ g, g

    # a contiguous u: the strided column view takes another BLAS path
    z, g = bordered(np.ascontiguousarray(X[..., border:]).reshape(
        len(P) * m, -1), rg)
    z = z.reshape(-1, d, rg.shape[1])[:F]

    def solve_flat(v):
        vz = np.zeros((len(Nzg), d))
        vz[:F] = v[:d * F].reshape(F, d)
        u = solve(Linv, V, vz.reshape(-1, m, 1)).ravel()
        uz, ug = bordered(u, v[d * F:])
        return np.concatenate([uz[:d * F], ug])

    cond = norm * inverse_norm1(solve_flat, d * F + border)
    res = [block @ _gather(z, g, len(block), w) - b
           for block, w, b in zip(blocks, widths, rhs)]
    nz, ng = _apply_transpose(F, d, border, blocks, widths, res)
    denom = np.linalg.norm(np.concatenate([rz[:F].ravel(), rg.ravel()]))
    normal = np.linalg.norm(np.concatenate([nz.ravel(), ng.ravel()]))
    return z, g, cond, float(normal / denom) if denom > 0 else 0.0, res


def _gather(z, g, n, w):
    """Unknowns of n block rows spanning w frames: row i holds
    (z_i, ..., z_i+w-1, g), shape (n, d w + border, k)."""
    return np.concatenate([z[j:j + n] for j in range(w)]
                          + [np.broadcast_to(g, (n,) + g.shape)], axis=1)


def _apply_transpose(n_frames, d, border, blocks, widths, vecs):
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


def _normal_matrix(F, s, d, border, blocks, widths):
    """Blockwise A^T A: (P, Nzg, Ngg) with P the group storage of N_zz,
    Nzg[f] = N_z_f,g and Ngg = N_gg."""
    n_groups = -(-F // s)
    P = np.zeros((n_groups, d * s, 2 * d * s))
    rows = P.reshape(n_groups * s, d, 2 * s, d)  # (frame, row, frame, col)
    Nzg = np.zeros((n_groups * s, d, border))
    Ngg = np.zeros((border, border))
    for block, w in zip(blocks, widths):
        n = len(block)
        for l in range(w):
            # Gram columns of frame c + l, for each block row c
            G = block.transpose(0, 2, 1) @ block[:, :, d * l:d * l + d]
            for k in range(w):
                f = np.arange(k, k + n)
                col = f % s + l - k  # frame offset from f's group start
                keep = col >= 0  # blocks left of f's group are not stored
                rows[f[keep], :, col[keep]] += G[keep, d * k:d * k + d]
            Nzg[l:l + n] += G[:, d * w:].transpose(0, 2, 1)
        g = block[:, :, d * w:]
        Ngg += (g.transpose(0, 2, 1) @ g).sum(axis=0)
    pad = np.arange(F, n_groups * s)
    rows[pad, :, pad % s] = np.eye(d)
    return P, Nzg, Ngg


def _norm1(F, d, P, Nzg, Ngg):
    """Exact 1-norm (largest absolute row sum; N is symmetric) of the
    bordered normal matrix, padding frames left out."""
    rows = abs_row_sums(P).reshape(-1, d)[:F] + np.abs(Nzg[:F]).sum(axis=2)
    g_rows = np.abs(Nzg).sum(axis=(0, 1)) + np.abs(Ngg).sum(axis=1)
    return float(max(rows.max(), g_rows.max(initial=0.0)))


def cholesky(P):
    """Cholesky N = L L^T of the group storage P.

    Returns (Linv, V) with Linv[i] = L_ii^{-1} and V[i] = Linv[i] N_i,i+1,
    which is L_i+1,i^T. Raises np.linalg.LinAlgError when N is not
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


def solve(Linv, V, rhs):
    """Solve N x = rhs, rhs (groups, m, k), with the factor of cholesky:
    forward through L, then back through L^T."""
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


def abs_row_sums(P):
    """Absolute row sums (groups, m) of N, from P alone: the right half
    holds N_i,i+1 and, N being symmetric, its column sums are the row
    sums of N_i+1,i."""
    a = np.abs(P)
    rows = a.sum(axis=2)
    rows[1:] += a[:-1, :, a.shape[1]:].sum(axis=1)
    return rows


def inverse_norm1(solve, n):
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
