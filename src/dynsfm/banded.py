"""Symmetric block-tridiagonal matrices stored by groups, in O(n).

A symmetric matrix N whose nonzeros lie in a band is cut into groups of
m consecutive unknowns, m at least the band's half-width, so N is block
tridiagonal in the groups. It is stored as P of shape (groups, m, 2 m):
P[i] = [N_ii | N_i,i+1], the last group's right half unused. Both solver
stages factor their normal equations in this form: the translations with
a gravity border eliminated by the caller, the rotations as they are.
"""

import numpy as np


def pack(diag, upper, s):
    """Group storage of the block-tridiagonal matrix with diagonal blocks
    diag (n, b, b) and off-diagonal blocks upper[f] = N_f,f+1 (n - 1, b, b),
    s blocks per group.

    The in-group lower blocks N_f+1,f = upper[f]^T are stored too, in the
    left half; a block pair that straddles two groups lands in the right
    half of the first. The blocks past n that fill the last group carry
    an identity and no coupling, so their unknowns solve to zero.
    """
    n, b = diag.shape[:2]
    n_groups = -(-n // s)
    P = np.zeros((n_groups, s * b, 2 * s * b))
    rows = P.reshape(n_groups * s, b, 2 * s, b)  # (block, row, block, col)
    f = np.arange(n_groups * s)
    rows[f, :, f % s] = np.concatenate(
        [diag, np.broadcast_to(np.eye(b), (n_groups * s - n, b, b))])
    f = np.arange(n - 1)
    rows[f, :, f % s + 1] = upper
    inside = f % s + 1 < s
    rows[f[inside] + 1, :, f[inside] % s] = upper[inside].transpose(0, 2, 1)
    return P


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
