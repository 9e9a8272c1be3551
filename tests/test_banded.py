import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsfm import banded


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
    z, g, cond, normal_ratio, res = banded.lstsq(blocks, rhs, d, border)
    A, b = dense(blocks, rhs, d, border, F)
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    assert z.shape == (F, d, k) and g.shape == (border, k)
    assert np.allclose(z.reshape(d * F, k), x[:d * F], rtol=0, atol=1e-12)
    assert np.allclose(g, x[d * F:], rtol=0, atol=1e-12)
    r = np.vstack([part.reshape(-1, k) for part in res])
    assert np.allclose(r, A @ x - b, rtol=0, atol=1e-12)
    exact = np.linalg.cond(A.T @ A, 1)
    assert exact / 3 <= cond <= exact * (1 + 1e-9)
    assert normal_ratio < 1e-12


@settings(max_examples=60)
@given(data=st.data())
def test_lstsq_matches_dense_lstsq_around_group_boundaries(data):
    # F on and around the group size s and the second group boundary:
    # the padded frames of the last group, a lone frame in it, and
    # exactly full groups; one span-1 list of d + 1 rows keeps the
    # normal matrix positive definite, the others span up to 4 frames
    d = data.draw(st.sampled_from([3, 6]), "d")
    border = data.draw(st.sampled_from([0, 3]), "border")
    k = data.draw(st.sampled_from([1, 3]), "k")
    spans = [(d + 1, 1)] + data.draw(st.lists(st.tuples(
        st.integers(1, d), st.integers(1, 4)), max_size=3), "spans")
    s = max(banded.GROUP_UNKNOWNS // d, max(w for _, w in spans) - 1)
    F = data.draw(st.sampled_from([s - 1, s, s + 1, 2 * s + 1]), "F")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    blocks, rhs = random_lists(rng, F, d, border, k, spans)
    # a weak first list raises the condition number by up to 1e6
    blocks[0] *= data.draw(st.sampled_from([1.0, 1e-3]), "scale")
    z, g, cond, normal_ratio, res = banded.lstsq(blocks, rhs, d, border)
    A, b = dense(blocks, rhs, d, border, F)
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    exact = np.linalg.cond(A.T @ A, 1)
    assert exact / 3 <= cond <= exact * (1 + 1e-9)
    # the normal equations bound the forward error by ~eps cond(N)
    tol = 10 * np.finfo(float).eps * exact * np.linalg.norm(x)
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
        banded.lstsq(blocks, rhs, 3)


def test_lstsq_singular_border_raises():
    # the border's first column appears in no block row
    rng = np.random.default_rng(0)
    blocks, rhs = random_lists(rng, 9, 6, 3, 1, [(6, 1), (6, 2)])
    for block in blocks:
        block[:, :, -3] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        banded.lstsq(blocks, rhs, 6, 3)
