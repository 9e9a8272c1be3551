import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynsfm
from dynsfm import banded

from conftest import block_lstsq, block_normal_matrix, stable_argsort_pick

EPS = np.finfo(float).eps


def dense(blocks, rhs, d, border, F):
    """The stacked (A, b) of block-row lists, scattered row by row: block
    row i of a list spanning w frames covers frames i .. i + w - 1, then
    the border columns."""
    rows_A, rows_b = [], []
    for block, b in zip(blocks, rhs):
        w = (block.shape[2] - border) // d
        for i in range(len(block)):
            row = np.zeros((block.shape[1], d * F + border))
            row[:, d * i:d * (i + w)] = block[i, :, :d * w]
            row[:, d * F:] = block[i, :, d * w:]
            rows_A.append(row)
            rows_b.append(b[i])
    return np.vstack(rows_A), np.vstack(rows_b)


def random_lists(rng, F, d, border, k, spans):
    """One list per (rows, span): F - span + 1 random block rows."""
    blocks = [rng.normal(size=(F - w + 1, rows, d * w + border))
              for rows, w in spans]
    rhs = [rng.normal(size=(len(b), b.shape[1], k)) for b in blocks]
    return blocks, rhs


@pytest.mark.parametrize("F, d, border, k, spans", [
    (17, 3, 0, 3, [(2, 1), (2, 1), (3, 2)]),    # 17 frames, groups of 12
    (13, 6, 3, 1, [(6, 1), (6, 3)]),            # 13 frames, groups of 6
    (1, 3, 0, 2, [(4, 1), (3, 2)]),             # the span-2 list is empty
], ids=["rotation-like", "translation-like", "one-frame"])
def test_lstsq_matches_dense_lstsq(F, d, border, k, spans):
    rng = np.random.default_rng(F)
    blocks, rhs = random_lists(rng, F, d, border, k, spans)
    z, g, cond, normal_ratio, res = block_lstsq(blocks, rhs, d, border)
    A, b = dense(blocks, rhs, d, border, F)
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    assert z.shape == (F, d, k) and g.shape == (border, k)
    assert np.allclose(z.reshape(d * F, k), x[:d * F], rtol=0, atol=1e-12)
    assert np.allclose(g, x[d * F:], rtol=0, atol=1e-12)
    r = np.vstack([part.reshape(-1, k) for part in res])
    assert np.allclose(r, A @ x - b, rtol=0, atol=1e-12)
    exact = np.linalg.cond(A.T @ A, 1)
    assert exact / 3 <= cond <= exact * (1 + 10 * EPS * exact)
    assert normal_ratio < 1e-12


@settings(max_examples=60)
@given(data=st.data())
def test_lstsq_matches_dense_lstsq_around_group_boundaries(data):
    # F on and around the group size s and the second group boundary:
    # the padded frames of the last group, a lone frame in it, and
    # exactly full groups; one span-1 list of d + 1 rows keeps the
    # normal matrix positive definite, the others span up to 4 frames.
    # Only the F that every list fits and that give at least as many rows
    # as unknowns are drawn; 2 s + 1 always qualifies
    d = data.draw(st.sampled_from([3, 6]), "d")
    border = data.draw(st.sampled_from([0, 3]), "border")
    k = data.draw(st.sampled_from([1, 3]), "k")
    spans = [(d + 1, 1)] + data.draw(st.lists(st.tuples(
        st.integers(1, d), st.integers(1, 4)), max_size=3), "spans")
    s = max(banded.GROUP_UNKNOWNS // d, max(w for _, w in spans) - 1)
    F = data.draw(st.sampled_from([
        n for n in (s - 1, s, s + 1, 2 * s + 1)
        if n >= max(w for _, w in spans)
        and sum(rows * (n - w + 1) for rows, w in spans) >= d * n + border]),
        "F")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    blocks, rhs = random_lists(rng, F, d, border, k, spans)
    # a weak first list raises the condition number by up to 1e6
    blocks[0] *= data.draw(st.sampled_from([1.0, 1e-3]), "scale")
    z, g, cond, normal_ratio, res = block_lstsq(blocks, rhs, d, border)
    A, b = dense(blocks, rhs, d, border, F)
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    exact = np.linalg.cond(A.T @ A, 1)
    # both cond and exact carry a rounding error of ~eps cond(N) relative
    assert exact / 3 <= cond <= exact * (1 + 10 * EPS * exact)
    # the normal equations bound the forward error by ~eps cond(N)
    tol = 10 * EPS * exact * np.linalg.norm(x)
    assert np.linalg.norm(z.reshape(d * F, k) - x[:d * F]) <= tol
    assert np.linalg.norm(g - x[d * F:]) <= tol
    r = np.vstack([part.reshape(-1, k) for part in res])
    assert np.linalg.norm(r - (A @ x - b)) <= tol * np.linalg.norm(A, 2)


def test_lstsq_singular_frame_raises():
    # frame 4's last unknown appears in no block row
    rng = np.random.default_rng(0)
    blocks, rhs = random_lists(rng, 9, 3, 0, 1, [(4, 1)])
    blocks[0][4, :, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        block_lstsq(blocks, rhs, 3)


def test_lstsq_singular_border_raises():
    # the border's first column appears in no block row
    rng = np.random.default_rng(0)
    blocks, rhs = random_lists(rng, 9, 6, 3, 1, [(6, 1), (6, 2)])
    for block in blocks:
        block[:, :, -3] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        block_lstsq(blocks, rhs, 6, 3)


def zero_unknown(blocks, d, border, f, j):
    """Remove unknown j of frame f from every block row that reaches it."""
    for block in blocks:
        w = (block.shape[2] - border) // d
        for i in range(max(0, f - w + 1), min(f, len(block) - 1) + 1):
            block[i, :, d * (f - i) + j] = 0.0


def group_frames(groups, s):
    """A frame count that needs `groups` groups of s, the last one part
    full when `groups` is odd."""
    return groups * s - (groups % 2) * (s // 2)


@pytest.mark.parametrize("d", [3, 6])
@pytest.mark.parametrize("border", [0, 3])
def test_norm1_matches_dense_normal_matrix(d, border):
    # three groups, the last one part full; the span-3 list couples
    # frames across each group boundary, so the row sums need the
    # off-diagonal group blocks
    rng = np.random.default_rng(d + border)
    s = banded.GROUP_UNKNOWNS // d
    F = group_frames(3, s)
    blocks, rhs = random_lists(rng, F, d, border, 1, [(d + 1, 1), (2, 3)])
    P, Nzg, Ngg = block_normal_matrix(F, s, d, border, blocks, [1, 3])
    A, _ = dense(blocks, rhs, d, border, F)
    N = A.T @ A
    rows = np.abs(N[:d * F, :d * F]).sum(axis=1)
    assert np.allclose(banded.abs_row_sums(P).ravel()[:d * F], rows,
                       rtol=1e-14, atol=0)
    assert np.isclose(banded._norm1(F, d, P, Nzg, Ngg), np.linalg.norm(N, 1),
                      rtol=1e-14, atol=0)


def scattered_P(F, s, d, blocks, widths):
    """P as one fancy-index add per (list, column frame l, row frame k)
    pair: the reference that block_normal_matrix's band sums must equal
    bit for bit, since both add the same blocks to each entry in the same
    order. It is scattered as [N_ii | N_i,i+1] rows and returned in
    block_normal_matrix's (groups, 2, m, m) layout."""
    n_groups = -(-F // s)
    P = np.zeros((n_groups, d * s, 2 * d * s))
    rows = P.reshape(n_groups * s, d, 2 * s, d)
    for block, w in zip(blocks, widths):
        for l in range(w):
            G = block.transpose(0, 2, 1) @ block[:, :, d * l:d * l + d]
            for k in range(w):
                f = np.arange(k, k + len(block))
                col = f % s + l - k
                keep = col >= 0
                rows[f[keep], :, col[keep]] += G[keep, d * k:d * k + d]
    pad = np.arange(F, n_groups * s)
    rows[pad, :, pad % s] = np.eye(d)
    return P.reshape(n_groups, d * s, 2, d * s).transpose(0, 2, 1, 3)


@pytest.mark.parametrize("d, border, spans", [
    (3, 0, [(2, 1), (2, 1), (2, 1), (3, 2)]),   # the rotation stage's lists
    (6, 3, [(6, 1), (6, 3)]),                   # the translation stage's
    (6, 3, [(7, 1), (2, 4), (6, 3)]),
    (3, 3, [(4, 2), (3, 1)])])
@pytest.mark.parametrize("groups", [2, 3, 5])
def test_normal_matrix_equals_blockwise_scatter(d, border, spans, groups):
    # several lists add to the same diagonal and off-diagonal blocks
    rng = np.random.default_rng([d, border, len(spans), groups])
    s = max(banded.GROUP_UNKNOWNS // d, max(w for _, w in spans) - 1)
    F = group_frames(groups, s)
    blocks, _ = random_lists(rng, F, d, border, 1, spans)
    widths = [w for _, w in spans]
    P, _, _ = block_normal_matrix(F, s, d, border, blocks, widths)
    assert np.array_equal(P, scattered_P(F, s, d, blocks, widths))


def dense_normal(blocks, rhs, d, border, F):
    """The dense normal equations (A^T A, A^T b) of block-row lists,
    summed block row by block row."""
    n = d * F + border
    N, h = np.zeros((n, n)), np.zeros((n, rhs[0].shape[2]))
    for block, b in zip(blocks, rhs):
        w = (block.shape[2] - border) // d
        for i in range(len(block)):
            cols = np.r_[d * i:d * (i + w), d * F:n]
            N[np.ix_(cols, cols)] += block[i].T @ block[i]
            h[cols] += block[i].T @ b[i]
    return N, h


@pytest.mark.parametrize("groups", [1, 2, 3, 7, 8, 9, 31, 33, 70])
@pytest.mark.parametrize("d", [3, 6])
@pytest.mark.parametrize("border", [0, 3])
def test_lstsq_matches_dense_solve_over_group_counts(groups, d, border):
    # every level count of the cyclic reduction from 1 to 7, with even and
    # odd group counts at each level; a list longer than F is left out, and
    # the span-1 list alone has more rows than a lone frame has unknowns
    rng = np.random.default_rng([groups, d, border])
    s = banded.GROUP_UNKNOWNS // d
    F = group_frames(groups, s)
    blocks, rhs = random_lists(rng, F, d, border, 2, [
        (rows, w) for rows, w in [(d + border + 1, 1), (2, 2), (3, 3)]
        if w <= F])
    z, g, cond, normal_ratio, _ = block_lstsq(blocks, rhs, d, border)
    assert -(-F // s) == groups
    N, h = dense_normal(blocks, rhs, d, border, F)
    N_inv = np.linalg.inv(N)
    x = N_inv @ h
    exact = np.linalg.norm(N, 1) * np.linalg.norm(N_inv, 1)
    assert exact / 3 <= cond <= exact * (1 + 10 * EPS * exact)
    tol = 10 * EPS * exact * np.linalg.norm(x)
    assert np.linalg.norm(z.reshape(d * F, 2) - x[:d * F]) <= tol
    assert np.linalg.norm(g - x[d * F:]) <= tol
    assert normal_ratio < 1e-12


@pytest.mark.parametrize("group", [3, 7])
def test_lstsq_singular_unknown_in_late_level_raises(group):
    # with 9 groups, level 0 eliminates groups 0, 2, .., 8, level 1 groups
    # 1, 5, level 2 group 3 and level 3 group 7; the span-2 list couples
    # the group to its neighbours, so its diagonal block reaches that
    # level through their Schur complements
    d = 6
    s = banded.GROUP_UNKNOWNS // d
    rng = np.random.default_rng(group)
    F = 9 * s
    blocks, rhs = random_lists(rng, F, d, 3, 1, [(d + 1, 1), (2, 2)])
    zero_unknown(blocks, d, 3, group * s + 1, 4)
    with pytest.raises(np.linalg.LinAlgError):
        block_lstsq(blocks, rhs, d, 3)


@pytest.mark.parametrize("groups", [1, 2, 3, 7, 8, 9, 31, 33, 70])
def test_cholesky_takes_one_batched_step_per_level(groups, monkeypatch):
    # a per-group loop would call np.linalg.cholesky once per group
    d = 3
    s = banded.GROUP_UNKNOWNS // d
    F = group_frames(groups, s)
    blocks, _ = random_lists(np.random.default_rng(groups), F, d, 0, 1,
                             [(d + 1, 1), (2, 2)])
    P, _, _ = block_normal_matrix(F, s, d, 0, blocks, [1, 2])
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda a: calls.append(a.shape) or cholesky(a))
    levels = banded.cholesky(P)
    assert len(calls) == len(levels) <= int(np.ceil(np.log2(groups))) + 1
    # one batched call per reduced level, then one dense call for the
    # remaining groups of s frames, d unknowns each
    *reduced, coarse = calls
    assert all(len(shape) == 3 for shape in reduced) and len(coarse) == 2
    remaining = coarse[0] // (d * s)
    assert 1 <= remaining <= banded.COARSE_GROUPS
    assert sum(shape[0] for shape in reduced) + remaining == groups


@pytest.mark.parametrize("groups", [75, 76])
def test_cholesky_factors_in_the_storage_of_P(groups):
    # each level writes its couplings over the blocks of P it has read, so
    # only the inverse Cholesky factors (~P/2 over all levels) and one
    # level's temporaries are new: ~0.53x P.nbytes here (1.0x with numpy's
    # default ~128 KB iteration buffer); levels built next to P take ~1.9x
    d = 6
    s = banded.GROUP_UNKNOWNS // d
    F = group_frames(groups, s)
    blocks, _ = random_lists(np.random.default_rng(groups), F, d, 0, 1,
                             [(d + 1, 1), (2, 3)])
    P, _, _ = block_normal_matrix(F, s, d, 0, blocks, [1, 3])
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        levels = banded.cholesky(P)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 0.8 * P.nbytes
    for _, Xl, Xr in levels:
        assert all(np.shares_memory(X, P) for X in (Xl, Xr) if len(X))


def test_lstsq_fewer_rows_than_unknowns_raises():
    # 2 frames of 6 unknowns plus a border of 3, from 12 rows: singular
    # whatever the rounding of the factorization
    rng = np.random.default_rng(1)
    blocks, rhs = random_lists(rng, 2, 6, 3, 1, [(6, 1)])
    with pytest.raises(np.linalg.LinAlgError, match="fewer rows"):
        block_lstsq(blocks, rhs, 6, 3)


def test_lstsq_solve_count_on_60hz_reconstruct(monkeypatch):
    # 5 s at 60 Hz (F=300), noiseless: the estimator's two fixed probes
    # ride along with the main right-hand sides, so the translation stage
    # takes 4 solves and the rotation stage 6, where solving the probes
    # apart took 6 and 8; counted per normal-equation solve, which both
    # stages call
    ds = dynsfm.simulate_dataset(duration=5.0, t_s=1 / 60, n_points=24,
                                 extent=2.0, amp_trans=0.35,
                                 amp_rot=np.radians(30), seed=0)
    counts, solve, solve_normal = [], banded.solve, banded.solve_normal

    def counting_solve_normal(*args):
        counts.append(0)
        return solve_normal(*args)

    def counting_solve(*args):
        counts[-1] += 1
        return solve(*args)

    monkeypatch.setattr(banded, "solve_normal", counting_solve_normal)
    monkeypatch.setattr(banded, "solve", counting_solve)
    dynsfm.reconstruct(ds.measurements)
    assert len(counts) == 2 and counts[0] <= 6 and counts[1] <= 4


@given(data=st.data())
def test_best_unvisited_matches_stable_argsort(data):
    # the estimator's O(n) column pick equals the stable argsort's on
    # vectors drawn from four values, so ties are the rule: the same two
    # columns, in the same order, none when every column is visited
    n = data.draw(st.integers(1, 30), "n")
    h = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                                    min_size=n, max_size=n), "h"))
    visited = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                          max_size=n), "visited"))
    expected = stable_argsort_pick(h, visited)
    assert np.array_equal(banded.best_unvisited(h.copy(), visited), expected)


def test_best_unvisited_stops_at_a_nan():
    # a NaN among the candidates ends the pick, as a NaN maximum did
    h = np.array([1.0, np.nan, 3.0, 2.0])
    assert len(banded.best_unvisited(h, np.zeros(4, dtype=bool))) == 0


@pytest.mark.parametrize("n", [2, 3, 10, 903, 72003])
def test_probes_are_hager_and_higham_start_vectors(n):
    # bit for bit: x = 1/n, and (-1)^i (1 + i / (n - 1))
    i = np.arange(n)
    probe = banded.probes(n)
    assert np.array_equal(probe[:, 0], np.full(n, 1.0 / n))
    assert np.array_equal(probe[:, 1], (-1.0) ** i * (1.0 + i / (n - 1)))


def test_inverse_norm1_is_exact_through_a_one_column_unit_solve():
    # 3 unknowns: the first unit solve visits two of them, the second the
    # last one alone, so the next sign solve has one column. With every
    # unit vector visited the estimate is the exact norm of N^-1
    N = np.array([[0.264, 0.169, -0.021],
                  [0.169, 0.292, -0.089],
                  [-0.021, -0.089, 0.15]])
    widths = []

    def solve(V):
        widths.append(V.shape[1])
        V[...] = np.linalg.solve(N, V)
        return V
    est = banded.inverse_norm1(solve, np.linalg.solve(N, banded.probes(3)))
    assert widths == [2, 2, 2, 1, 1]
    exact = np.abs(np.linalg.inv(N)).sum(axis=0).max()
    assert est == pytest.approx(exact, rel=1e-14)


def test_solve_normal_refuses_an_indefinite_border():
    # N_zz = I and N_zg = 0 leave the border's Schur complement at N_gg =
    # diag(1, -1, 1): nonsingular, so only its Cholesky factor refuses it
    F, d = 4, 3
    P, cells = banded.group_storage(F, banded.group_size(d, 2), d)
    banded.place(cells, 0, np.broadcast_to(np.eye(d), (F, d, d)))
    with pytest.raises(np.linalg.LinAlgError):
        banded.solve_normal(P, np.zeros((F, d, 3)), np.diag([1.0, -1.0, 1.0]),
                            np.ones((F, d, 1)), np.ones((3, 1)))


def dense_inverse_norm1(N):
    """inverse_norm1 of the dense symmetric N."""
    def solve(V):
        V[...] = np.linalg.solve(N, V)
        return V
    probes = np.linalg.solve(N, banded.probes(len(N)))
    return banded.inverse_norm1(solve, probes)


@pytest.mark.parametrize("N", [
    # the first unit solve visits both unknowns, so the next finds none
    [[6.0, 4.0], [4.0, 6.0]],
    # the second unit solve promises less than the first one's estimate,
    # which is the exact norm and is kept
    [[149.5, 149.0, 52.0], [149.0, 149.5, 52.0], [52.0, 52.0, 100.5]]],
    ids=["all-visited", "no-better"])
def test_inverse_norm1_stops_at_the_exact_norm(N):
    N = np.array(N)
    exact = np.abs(np.linalg.inv(N)).sum(axis=0).max()
    assert dense_inverse_norm1(N) == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("indefinite", [False, True],
                         ids=["returns", "raises"])
def test_cholesky_restores_the_ufunc_buffer_size(indefinite):
    # cholesky shrinks numpy's iteration buffer while it reduces and gives
    # the caller's size back whether it returns or raises in a level
    d = 3
    s = banded.GROUP_UNKNOWNS // d
    F = group_frames(9, s)
    P, cells = banded.group_storage(F, s, d)
    banded.place(cells, 0, np.broadcast_to(np.eye(d), (F, d, d)))
    P[0, 0, 0, 0] = -1.0 if indefinite else 1.0  # level 0 factors group 0
    before = np.setbufsize(1 << 14)  # a caller's size, not cholesky's
    try:
        if indefinite:
            with pytest.raises(np.linalg.LinAlgError):
                banded.cholesky(P)
        else:
            banded.cholesky(P)
        assert np.getbufsize() == 1 << 14
    finally:
        np.setbufsize(before)
