"""solver.DataMatrix, the band-backed W that reconstruct reads: its
products against the dense assemble_W, its chunking, and the input
contract of reading the image bands in place."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from dynsfm import solver
from dynsfm.config import REFERENCE_NOISE, reference_config
from dynsfm.derivatives import savgol_filter
from dynsfm.errors import BadDtype
from dynsfm.simulate import MeasurementSet, NoiseSpec, simulate_dataset
from dynsfm.solver import DataMatrix, assemble_W, reconstruct

from conftest import make_dataset


def random_measurements(F, P, seed=0):
    rng = np.random.default_rng(seed)
    bands = rng.standard_normal((3, F, P, 2))
    return MeasurementSet(t_s=0.1, tracks=bands[0], flows=bands[1],
                          double_flows=bands[2], gyro=np.zeros((F, 3)),
                          accel=np.zeros((F, 3)))


def assert_close(actual, expected):
    # one relative bound over the whole product: a chunked sum rounds
    # differently from the dense one
    assert actual.shape == expected.shape
    err = np.abs(actual - expected).max()
    assert err <= 1e-13 * max(np.abs(expected).max(), 1e-300)


# (F, P, budget): the budget splits the Gram (48 F bytes a point, 48 P a
# frame) and the thin products (16 k bytes a point) into chunks, and P or F
# sits on or next to a chunk boundary; wide (P > 6F) and tall shapes
CHUNKINGS = [(3, 19, 48 * 3 * 6), (3, 18, 48 * 3 * 6), (3, 17, 48 * 3 * 6),
             (3, 25, 48 * 3 * 4), (4, 48, 48 * 4 * 8), (4, 49, 48 * 4 * 8),
             (7, 5, 48 * 5 * 2), (8, 5, 48 * 5 * 2), (9, 5, 48 * 5 * 2),
             (12, 6, 48 * 6 * 5), (3, 4, 1)]


@pytest.mark.parametrize("budget", [solver.CHUNK_BYTES, 1])
def test_only_a_matrix_times_its_own_transpose_is_a_gram(budget,
                                                         monkeypatch):
    # W @ W.T of one W is its Gram; a product with another W, or with W
    # itself unflipped, is refused (a TypeError), not read as a Gram
    monkeypatch.setattr(solver, "CHUNK_BYTES", budget)
    m = random_measurements(3, 8)
    W, D1 = assemble_W(m), DataMatrix(m)
    D2 = DataMatrix(random_measurements(3, 8, seed=1))
    assert_close(D1 @ D1.T, W @ W.T)
    for left, right in ((D1, D2.T), (D1.T, D2), (D1, D1), (D1.T, D1.T)):
        with pytest.raises(TypeError):
            left @ right


@pytest.mark.parametrize("F, P, budget", CHUNKINGS)
def test_products_match_the_dense_W(F, P, budget, monkeypatch):
    monkeypatch.setattr(solver, "CHUNK_BYTES", budget)
    m = random_measurements(F, P)
    W, D = assemble_W(m), DataMatrix(m)
    assert D.dense is None  # the budget forces the band-backed products
    rng = np.random.default_rng(1)
    assert D.shape == W.shape and len(D) == len(W)
    assert D.T.shape == W.T.shape and len(D.T) == P
    assert_close(D @ D.T, W @ W.T)
    assert_close(D.T @ D, W.T @ W)
    for k in (1, 3, 8):
        right, left = rng.standard_normal((P, k)), rng.standard_normal((k, 6 * F))
        assert_close(D @ right, W @ right)
        assert_close(left @ D, left @ W)
        tall, short = rng.standard_normal((6 * F, k)), rng.standard_normal((k, P))
        assert_close(D.T @ tall, W.T @ tall)
        assert_close(short @ D.T, short @ W.T)


def test_one_chunk_is_the_dense_W_bit_for_bit(reference_dataset):
    # a W within the budget (every tall W of the shipped configs) is formed
    # once and multiplied as the ndarray
    m = reference_dataset.measurements
    W, D = assemble_W(m), DataMatrix(m)
    assert np.array_equal(D.dense, W)
    V = np.random.default_rng(3).standard_normal((W.shape[1], 8))
    assert np.array_equal(D.T @ D, W.T @ W)
    assert np.array_equal(D @ V, W @ V)
    assert np.array_equal(V.T @ D.T, V.T @ W.T)


def _variants(band):
    """The band as each layout or type reconstruct must read alike."""
    offset = np.empty(band.size + 1)[1:].reshape(band.shape)
    offset[...] = band  # C-contiguous, not aligned for a complex view
    wide = np.zeros(band.shape[:2] + (4,))
    wide[..., ::2] = band
    frozen = band.copy()
    frozen.flags.writeable = False
    return {"int64": np.round(band * 1000).astype(np.int64),
            "float32": band.astype(np.float32),
            "float16": band.astype(np.float16),
            "fortran": np.asfortranarray(band), "strided": wide[..., ::2],
            "offset": offset, "read-only": frozen}


def _same_reconstruction(a, b):
    return (all(np.array_equal(getattr(a, name), getattr(b, name))
                for name in ("rotations", "tau", "nu", "gravity",
                             "structure")) and a.residuals == b.residuals)


@pytest.mark.parametrize("budget", [None, 4096], ids=["one-chunk", "banded"])
@pytest.mark.parametrize("kind", ["int64", "float32", "float16", "fortran",
                                  "strided", "offset", "read-only"])
def test_any_band_layout_reconstructs_as_its_float64_copy(
        kind, budget, reference_dataset, monkeypatch):
    if budget:
        monkeypatch.setattr(solver, "CHUNK_BYTES", budget)
    m = reference_dataset.measurements
    given = {name: _variants(getattr(m, name))[kind]
             for name in ("tracks", "flows", "double_flows")}
    copies = {name: np.ascontiguousarray(band, dtype=float)
              for name, band in given.items()}
    as_given = reconstruct(dataclasses.replace(m, **given))
    as_copies = reconstruct(dataclasses.replace(m, **copies))
    assert _same_reconstruction(as_given, as_copies)


def test_c_contiguous_float64_bands_are_read_in_place(reference_dataset,
                                                      monkeypatch):
    monkeypatch.setattr(solver, "CHUNK_BYTES", 4096)
    m = reference_dataset.measurements
    frozen = m.flows.copy()
    frozen.flags.writeable = False
    m = dataclasses.replace(m, flows=frozen,
                            double_flows=np.asfortranarray(m.double_flows))
    bands = DataMatrix(m).bands
    assert bands[0] is m.tracks and bands[1] is frozen
    assert not np.shares_memory(bands[2], m.double_flows)


@pytest.mark.parametrize("budget", [None, 4096], ids=["one-chunk", "banded"])
def test_complex_band_warns_and_drops_its_imaginary_part(
        budget, reference_dataset, monkeypatch):
    # a complex band never reaches W: validate refuses it by its dtype,
    # with no warning and no part of it dropped
    if budget:
        monkeypatch.setattr(solver, "CHUNK_BYTES", budget)
    m = reference_dataset.measurements
    tracks = m.tracks + 1e-3j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadDtype, match=r"^\[validate\] tracks must be"):
            reconstruct(dataclasses.replace(m, tracks=tracks))


def _wide_measurements():
    cfg = reference_config(seed=4)
    cfg.duration, cfg.points = 1.0, 400
    return make_dataset(cfg).measurements


@pytest.mark.parametrize("wide", [True, False], ids=["wide", "tall"])
def test_reconstruct_reads_W_only_to_factor_it(wide, reference_dataset,
                                              monkeypatch):
    # a band-backed W (6F x 400 wide, or the reference's 6F x 24 tall) is
    # read by factor_rank4 and nowhere after: with its bands made
    # unreadable once the factorization returns, reconstruct returns the
    # same arrays as with them
    monkeypatch.setattr(solver, "CHUNK_BYTES", 1 << 16)
    m = _wide_measurements() if wide else reference_dataset.measurements
    assert DataMatrix(m).dense is None
    expected = reconstruct(m)
    factor_rank4 = solver.factor_rank4

    def factor_then_drop_the_bands(W):
        out = factor_rank4(W)
        W.bands = None  # a later read of W raises TypeError
        return out
    monkeypatch.setattr(solver, "factor_rank4", factor_then_drop_the_bands)
    assert _same_reconstruction(reconstruct(m), expected)


def _wide_scene():
    filters = (savgol_filter(2, 11, 1), savgol_filter(2, 11, 2))
    return simulate_dataset(duration=2.0, t_s=1 / 30, n_points=4000,
                            extent=2.0, amp_trans=0.35,
                            amp_rot=np.radians(30), seed=0,
                            noise=NoiseSpec(seed=7, **REFERENCE_NOISE),
                            flow_mode="numeric", flow_filters=filters)


def test_reconstruct_wide_scene_never_forms_W():
    # F=60, P=4000 (the wide_scene benchmark shape, W 11.5 MB): the peak is
    # the Gram, one more Gram-sized product and one chunk of W, ~5.93 MB;
    # the bound (1.1x) fails a reconstruct that forms W (12.8 MB) or holds
    # a second chunk
    ds = _wide_scene()
    assert ds.measurements.tracks.shape == (60, 4000, 2)
    tracemalloc.start()
    try:
        reconstruct(ds.measurements)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5e6


def test_wide_reconstruct_matches_the_dense_W(monkeypatch):
    # the banded products change only the rounding of a wide reconstruct:
    # W (6F = 180 rows, 400 points, 576 kB) fits the default budget and is
    # multiplied densely, as reconstruct did before; 64 kB chunks it. The
    # structure's depth, the weakly observed axis of an affine camera,
    # moves most: 9e-12 of its scale
    m = _wide_measurements()
    dense = reconstruct(m)
    monkeypatch.setattr(solver, "CHUNK_BYTES", 1 << 16)
    banded = reconstruct(m)
    for name in ("rotations", "tau", "nu", "gravity", "structure"):
        a, b = getattr(banded, name), getattr(dense, name)
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()
