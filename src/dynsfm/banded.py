"""The banded normal-equation solve in O(F), for both linear stages of
the solver.

Unknowns come in frames of d and a border shared by all frames (the
translations' gravity, the rotations have none). Each stage writes its
normal equations in closed form, and solve_normal solves them. Their
per-frame part N_zz couples frames at most span - 1 apart, so frames are
cut into groups of s, s at least span - 1, and N_zz is block tridiagonal
in the groups. It is stored as P of shape (groups, 2, m, m), m = d s:
P[i, 0] = N_ii and P[i, 1] = N_i,i+1, the last group's N_i,i+1 unused.
N_zz is factored by block cyclic reduction, ~log2(groups) batched numpy
steps with no per-group Python loop, in the storage of P: each level
writes its couplings over the blocks of P it has just read, so the
factor costs P plus ~P/2 for the inverse Cholesky factors, and a solve,
which overwrites its right-hand sides, about their size. The reduction
stops at COARSE_GROUPS groups or fewer, the coarse block, which is
factored as one dense matrix of at most COARSE_GROUPS m unknowns: its
levels would cost numpy calls, not arithmetic. The border is
eliminated through its Schur complement, the arrowhead elimination of
bundle adjustment.
"""

from contextlib import contextmanager

import numpy as np

# Unknowns per diagonal block of the group storage (6 per frame for the
# translations, 3 for the rotations); group_size gives a group at least
# span - 1 frames, for frames coupled up to span - 1 apart. With cyclic
# reduction the Python steps grow only with log2(groups), while a group of
# m unknowns costs m^3 in the factor and m^2 in storage, so small groups
# win.
# reconstruct on the default trajectory, best of interleaved runs and the
# tracemalloc peak (2 vCPUs):
#
#   unknowns   F=300            F=1200           F=12000
#   12         14 ms  0.87 MB   42 ms  3.4 MB    0.44 s  34 MB
#   18         15 ms  1.12 MB   47 ms  4.4 MB    0.53 s  44 MB
#   24         16 ms  1.38 MB   63 ms  5.5 MB    0.57 s  55 MB
#
# 6 differs from 12 only in the rotation stage and measured the same.
GROUP_UNKNOWNS = 12
# Groups left to cholesky's dense coarse block, of at most COARSE_GROUPS *
# GROUP_UNKNOWNS unknowns: one cholesky and one inv to factor it and two
# matmuls in each solve, where a cyclic-reduction level takes ~10 numpy
# calls in the factor and ~5 each way in every solve. reconstruct on the
# default trajectory (F=150: configs/reference_noise.json), median of 15
# interleaved rounds, and the tracemalloc peak (2 vCPUs):
#
#   groups   F=150     F=300              F=12000
#   1        7.71 ms   11.89 ms  0.840 MB  32.92 MB
#   2        7.52 ms   12.07 ms  0.838 MB  32.92 MB
#   4        7.51 ms   11.95 ms  0.849 MB  32.92 MB
#   6        7.46 ms   11.68 ms  0.849 MB  32.94 MB
#   8        7.46 ms   11.85 ms  0.849 MB  32.94 MB
#
# 1 is plain cyclic reduction down to one group. Beyond 2 the times
# agree within noise; 4 is the largest before the F=12000 peak grows
# (its translation factor ends at 5 groups, 60 unknowns, from 6 on).
COARSE_GROUPS = 4


def group_size(d, span):
    """Frames s per group for d unknowns a frame and a span of `span`."""
    return max(GROUP_UNKNOWNS // d, span - 1)


def group_storage(F, s, d):
    """Zeroed P for F frames in groups of s, and its cells view: cells[i,
    q, a, :, b] is the block of frame i s + a by frame (i + q) s + b. The
    frames that fill the last group get an identity block, so their
    unknowns solve to zero."""
    n_groups = -(-F // s)
    P = np.zeros((n_groups, 2, d * s, d * s))
    cells = P.reshape(n_groups, 2, s, d, s, d)
    for a in range(F - (n_groups - 1) * s, s):
        cells[-1, 0, a, :, a] = np.eye(d)
    return P, cells


def place(cells, j, blocks, first=0):
    """Write N_f,f+j, |j| <= s, for frames f = first + i from blocks[i]
    into the cells of P, one strided slice per frame position in a group;
    blocks left of f's group are not stored."""
    s = cells.shape[2]
    for a in range(s):
        q, b = divmod(a + j, s)
        if q >= 0:
            i = (a - first) % s
            rows = blocks[i::s]
            g = (first + i) // s
            cells[g:g + len(rows), q, a, :, b] = rows


def solve_normal(P, Nzg, Ngg, rz, rg):
    """Solve the normal equations N (z, g) = (rz, rg) in O(F): P holds
    N_zz (group_storage) and is overwritten by its factor, Nzg[f] =
    N_z_f,g (F, d, border), rz (F, d, k), rg (border, k). Returns (z, g,
    cond), cond a 1-norm estimate of N's condition number whose two start
    columns (probes) are solved with rz. Raises np.linalg.LinAlgError when
    N is not numerically positive definite."""
    F, d, border = Nzg.shape
    n_groups, _, m, _ = P.shape
    k = rz.shape[2]
    dF = d * F
    norm = _norm1(F, d, P, Nzg, Ngg)  # before cholesky overwrites P
    levels = cholesky(P)
    probe = probes(dF + border)
    vg = np.concatenate([rg, probe[dF:]], axis=1)
    B = np.zeros((n_groups * m // d, d, border + k + 2))
    np.concatenate([Nzg, rz, probe[:dF].reshape(F, d, 2)], axis=2, out=B[:F])
    del probe
    X = solve(levels, B.reshape(n_groups, m, -1)).reshape(-1, B.shape[2])[:dF]
    # contiguous copies: the strided column views take another BLAS path
    Xg, Xz = X[:, :border].copy(), X[:, border:].copy()
    del B, X  # the estimator's solves peak above them: hold neither
    if border:
        Nzg_rows = Nzg.reshape(dF, border)
        S = Ngg - Nzg_rows.T @ Xg
        np.linalg.cholesky(S)  # raises unless S is positive definite

    def bordered(u, vg):
        """Bordered solve from u = N_zz^{-1} v_z (rows of z)."""
        if not border:
            return u, vg
        g = np.linalg.solve(S, vg - Nzg_rows.T @ u)
        u -= Xg @ g  # u is the caller's own array
        return u, g

    zs, gs = bordered(Xz, vg)

    def solve_flat(v):
        """N^{-1} v, v C-contiguous (dF + border, columns), written over
        v; padded to whole groups only when F leaves the last one short."""
        vz = (np.zeros((n_groups * m, v.shape[1])) if n_groups * m > dF
              else v[:dF])
        vz[:dF] = v[:dF]  # a no-op on v's own rows
        solve(levels, vz.reshape(n_groups, m, -1))
        v[:dF], v[dF:] = bordered(vz[:dF], v[dF:])
        return v

    cond = norm * inverse_norm1(
        solve_flat, np.concatenate([zs[:, k:], gs[:, k:]]))
    return zs[:, :k].reshape(F, d, k).copy(), gs[:, :k], cond


def normal_ratio(atb, atr):
    """|A^T r| / |A^T b| (0 if A^T b is), r the residual, from the parts
    of A^T b and A^T r: N x - A^T b formed as A^T r."""
    denom, normal = (np.linalg.norm(np.concatenate([p.ravel() for p in v]))
                     for v in (atb, atr))
    return float(normal / denom) if denom > 0 else 0.0


def _norm1(F, d, P, Nzg, Ngg):
    """Exact 1-norm (largest absolute row sum; N is symmetric) of the
    bordered normal matrix, padding frames left out."""
    rows = abs_row_sums(P).reshape(-1, d)[:F] + np.abs(Nzg).sum(axis=2)
    g_rows = np.abs(Nzg).sum(axis=(0, 1)) + np.abs(Ngg).sum(axis=1)
    return float(max(rows.max(), g_rows.max(initial=0.0)))


def cholesky(P):
    """Block cyclic reduction (odd-even elimination) of the group storage
    P, in place, down to a dense coarse block.

    Each level eliminates the even-indexed groups e of the current block
    tridiagonal matrix, in one batched step: with L_e L_e^T = N_ee, it
    keeps Linv_e = L_e^{-1}, Xl_e = Linv_e N_e,e-1 and Xr_e = Linv_e N_e,e+1.
    The Schur complement on the odd groups o is again block tridiagonal,
    N_oo - Xr_o-1^T Xr_o-1 - Xl_o+1^T Xl_o+1 on the diagonal and
    -Xl_o+1^T Xr_o+1 coupling o to o + 2, and is reduced in turn while
    more than COARSE_GROUPS groups remain. Those are factored as one dense
    matrix (partial cyclic reduction: B. Buzbee, G. Golub and C. Nielson,
    SIAM J. Numer. Anal. 7(4), 1970). For N symmetric positive definite
    this is the Cholesky factorization of N with its groups reordered, so
    it is as stable (D. Heller, SIAM J. Numer. Anal. 13(4), 1976).

    Only the Linv are new arrays. Xr_e goes over N_ee and Xl_e over
    N_e,e+1, both read by then; the Schur complement goes over N_oo and
    its coupling over N_o,o+1, which Xl_o+1 has read. The next level
    works on the odd groups' blocks, so no level overwrites another's.

    Returns the levels [(Linv, Xl, Xr)], Xl and Xr views of P: Xl has one
    block per even group but the first, Xr one per even group that has a
    right neighbour. The last entry is the coarse block: Linv the inverse
    Cholesky factor of the n <= COARSE_GROUPS remaining groups as one
    (n m, n m) matrix, Xl and Xr empty. Raises np.linalg.LinAlgError when
    N is not numerically positive definite.
    """
    D, E = P[:, 0], P[:, 1]  # N_ii and N_i,i+1
    levels = []
    with small_ufunc_buffers():
        while len(D) > COARSE_GROUPS:
            n_odd = len(D) // 2
            Linv = np.linalg.inv(np.linalg.cholesky(D[0::2]))
            Xr = np.matmul(Linv[:n_odd], E[0:2 * n_odd:2],
                           out=D[0:2 * n_odd:2])
            Xl = np.matmul(Linv[1:],
                           E[1::2][:len(Linv) - 1].transpose(0, 2, 1),
                           out=E[2::2])
            levels.append((Linv, Xl, Xr))
            D, E = D[1::2], E[1::2]
            D -= Xr.transpose(0, 2, 1) @ Xr
            D[:len(Xl)] -= Xl.transpose(0, 2, 1) @ Xl
            coupling = np.matmul(Xl[:n_odd - 1].transpose(0, 2, 1), Xr[1:],
                                 out=E[:n_odd - 1])
            np.negative(coupling, out=coupling)  # exact: -(A B) is (-A) B
    n, m = len(D), D.shape[1]
    dense = np.zeros((n, m, n, m))
    for i in range(n):  # the lower triangle, all that cholesky reads
        dense[i, :, i] = D[i]
        if i:
            dense[i, :, i - 1] = E[i - 1].T
    L = np.linalg.cholesky(dense.reshape(n * m, n * m))
    del dense  # hold one (n m)^2 temporary at a time
    levels.append((np.linalg.inv(L), D[:0], E[:0]))
    return levels


@contextmanager
def small_ufunc_buffers():
    """A ufunc over a strided view allocates numpy's iteration buffer,
    ~128 KB whatever F, which contiguous blocks never use; within this
    context it holds 16 elements, the smallest size numpy 1.x accepts."""
    bufsize = np.setbufsize(16)
    try:
        yield
    finally:
        np.setbufsize(bufsize)


def solve(levels, rhs):
    """Solve N x = rhs, rhs (groups, m, k), with the levels of cholesky,
    in the storage of rhs, which is returned: down through the levels
    (y_e = Linv_e b_e, the odd right-hand sides reduced with it in
    place), the coarse block's x = Linv^T Linv b, then back up (x_e =
    Linv_e^T (y_e - Xl_e x_e-1 - Xr_e x_e+1), written over b_e). Only the
    y_e, about rhs in all, are new."""
    *reduced, (coarse, _, _) = levels
    ys = []
    b = rhs
    with small_ufunc_buffers():
        for Linv, Xl, Xr in reduced:
            y = Linv @ b[0::2]
            ys.append((y, b))
            b = b[1::2]
            b -= Xr.transpose(0, 2, 1) @ y[:len(Xr)]
            b[:len(Xl)] -= Xl.transpose(0, 2, 1) @ y[1:]
        x = coarse.T @ (coarse @ b.reshape(-1, b.shape[2]))
        b[...] = x.reshape(b.shape)
        x = b
        for Linv, Xl, Xr in reversed(reduced):
            y, b = ys.pop()  # freed on the way up
            y[:len(Xr)] -= Xr @ x
            y[1:] -= Xl @ x[:len(Xl)]
            np.matmul(Linv.transpose(0, 2, 1), y, out=b[0::2])
            x = b
    return rhs


def abs_row_sums(P):
    """Absolute row sums (groups, m) of N, from P alone: P[i, 1] holds
    N_i,i+1 and, N being symmetric, its column sums are the row sums of
    N_i+1,i. One |P[:, 1]|-sized temporary serves both halves of P."""
    a = np.abs(P[:, 1])
    rows = a.sum(axis=2)
    rows[1:] += a[:-1].sum(axis=1)
    rows += np.abs(P[:, 0], out=a).sum(axis=2)
    return rows


def probes(n):
    """The two start columns (n, 2) of inverse_norm1: Hager's x = 1/n and
    Higham's alternating-sign vector."""
    i = np.arange(n)
    return np.stack([np.full(n, 1.0 / n), (-1.0) ** i * (1.0 + i / (n - 1))],
                    axis=1)


def inverse_norm1(solve, Y):
    """Estimate of |N^{-1}|_1 for symmetric N from a few solves: the block
    algorithm of Higham and Tisseur (SIAM J. Matrix Anal. Appl. 21(4),
    2000) with two columns, started from the probes. Y = N^{-1} probes(n)
    is solved by the caller, together with its own right-hand sides;
    solve(V) solves N for the columns of V, in V's storage. Each column x
    gives the lower bound |N^{-1} x|_1 / |x|_1, and the estimate is the
    largest, in practice within a small factor. One column alone
    (LAPACK's xLACON) stops at a local maximum more often: on small
    block-diagonal N it read 1/5 of the norm."""
    n = len(Y)
    est = (np.abs(Y).sum(axis=0) / [1.0, 1.5 * n]).max()  # probes' 1-norms
    best = None
    visited = np.zeros(n, dtype=bool)
    for _ in range(5):
        Y = np.where(Y >= 0, 1.0, -1.0)  # solve writes over it
        h = np.abs(solve(Y)).max(axis=1)
        if best is not None and h.max() <= h[best]:
            break  # no unit vector promises more than the best so far
        new = best_unvisited(h, visited)
        if not len(new):
            break
        visited[new] = True
        Y = np.zeros((n, len(new)))  # unit columns, solved in place
        Y[new, np.arange(len(new))] = 1.0
        col = np.abs(solve(Y)).sum(axis=0)
        if col.max() <= est:
            break
        est, best = col.max(), new[np.argmax(col)]
    return float(est)


def best_unvisited(h, visited):
    """Indices of the two largest h (h >= 0) not visited, largest first,
    ties to the lower index: the first two unvisited entries of a stable
    argsort of -h, by a masked argmax per pick in O(n). Overwrites h."""
    h[visited] = -1.0
    new = []
    while len(new) < 2 and h.max() >= 0:
        new.append(int(np.argmax(h)))
        h[new[-1]] = -1.0
    return np.array(new, dtype=int)
