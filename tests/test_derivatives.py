import math
import tracemalloc

import numpy as np
from numpy.polynomial import chebyshev
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynsfm
from dynsfm.derivatives import (MAX_ORDER, differentiate_series,
                                differentiate_tracks, omega_dot_series,
                                savgol_filter)
from dynsfm.errors import BadFilterSpec, SeriesTooShort
from dynsfm.simulate import (generate_scene, generate_trajectory,
                             synthesize_images, torque_for_trajectory,
                             DEFAULT_GRAVITY, DEFAULT_INERTIA)


def line_fit_slope_taps(window):
    """Independent oracle: unit-spaced least-squares line fit, slope taps."""
    k = np.arange(window) - window // 2
    return k / (k @ k)


def test_first_order_taps_match_line_fit_oracle():
    filt = savgol_filter(1, 3, 1)
    assert np.allclose(filt.taps, line_fit_slope_taps(3), atol=1e-15)
    assert np.allclose(filt.taps, [-0.5, 0.0, 0.5], atol=1e-15)


def test_moving_average_taps():
    assert np.allclose(savgol_filter(0, 3, 0).taps, [1 / 3] * 3, atol=1e-15)


def test_parabola_derivative_exact():
    # samples of t^2 at unit spacing centred at t=2 -> derivative 4
    filt = savgol_filter(2, 5, 1)
    t = np.arange(5.0)  # window centred at t=2
    assert np.isclose(filt.taps @ t ** 2, 4.0, atol=1e-12)


def test_taps_match_scipy():
    from scipy.signal import savgol_coeffs
    for order, window, deriv in [(1, 3, 1), (2, 5, 1), (2, 5, 2), (3, 7, 2),
                                 (2, 11, 1), (2, 11, 2)]:
        ours = savgol_filter(order, window, deriv).taps
        ref = savgol_coeffs(window, order, deriv=deriv, delta=1.0, use="dot")
        assert np.allclose(ours, ref, atol=1e-12), (order, window, deriv)


def chebyshev_reference(y, t_s, order, window, deriv):
    """Independent oracle: each sample's window (the centred one, or the
    first or last for the half-window edges) fitted by numpy's Chebyshev
    least squares on [-1, 1], differentiated and evaluated at the sample."""
    F, half = len(y), window // 2
    x = np.linspace(-1.0, 1.0, window)
    out = np.empty_like(y)
    for i in range(F):
        start = min(max(i - half, 0), F - window)
        coef = chebyshev.chebfit(x, y[start:start + window], order)
        coef = chebyshev.chebder(coef, deriv, scl=2.0 / (window - 1))
        out[i] = chebyshev.chebval(x[i - start], coef) / t_s ** deriv
    return out


def test_series_match_chebyshev_oracle():
    y = np.random.default_rng(3).normal(size=(60, 4))
    for order, window, deriv in [(1, 3, 1), (2, 5, 2), (3, 9, 1), (2, 11, 2),
                                 (7, 31, 1), (10, 59, 2)]:
        ours = differentiate_series(y, 0.05, savgol_filter(order, window,
                                                           deriv))
        ref = chebyshev_reference(y, 0.05, order, window, deriv)
        assert np.abs(ours - ref).max() < 1e-9 * np.abs(ref).max(), (
            order, window, deriv)


def test_bad_filter_specs():
    with pytest.raises(BadFilterSpec):
        savgol_filter(1, 4, 1)  # even window
    with pytest.raises(BadFilterSpec):
        savgol_filter(3, 3, 1)  # order >= window
    with pytest.raises(BadFilterSpec):
        savgol_filter(1, 3, 2)  # deriv > order


def test_filter_order_is_bounded():
    # beyond MAX_ORDER the fit loses accuracy; order 150 made LAPACK fail
    assert savgol_filter(MAX_ORDER, 11, 2).fit.shape == (MAX_ORDER + 1, 11)
    for order, window in [(MAX_ORDER + 1, 13), (150, 1001)]:
        with pytest.raises(BadFilterSpec, match="order <= 10"):
            savgol_filter(order, window, 1)
    assert issubclass(BadFilterSpec, ValueError)


def test_constant_series_derivative_is_zero():
    filt = savgol_filter(1, 3, 1)
    out = differentiate_series(np.full((10, 2), 3.7), 0.01, filt)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_linear_ramp_any_step():
    filt = savgol_filter(1, 3, 1)
    for t_s in (1.0, 1 / 30, 0.2):
        t = np.arange(12) * t_s
        out = differentiate_series(3.0 * t, t_s, filt)
        assert np.allclose(out, 3.0, atol=1e-9)


def test_polynomial_exactness_up_to_order():
    # includes the one-sided boundary fits, which share the same order
    rng = np.random.default_rng(0)
    for order, window, deriv in [(1, 3, 1), (2, 5, 1), (2, 5, 2), (3, 7, 2)]:
        filt = savgol_filter(order, window, deriv)
        coeffs = rng.normal(size=order + 1)
        t_s = 0.05
        t = np.arange(25) * t_s
        series = sum(c * t ** j for j, c in enumerate(coeffs))
        expected = sum(
            c * math.factorial(j) / math.factorial(j - deriv) * t ** (j - deriv)
            for j, c in enumerate(coeffs) if j >= deriv)
        out = differentiate_series(series, t_s, filt)
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(out - expected).max() / scale < 1e-10


@settings(max_examples=30)
@given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 2 ** 31))
def test_linearity(a, b, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(9, 2))
    w = rng.normal(size=(9, 2))
    filt = savgol_filter(2, 5, 1)
    lhs = differentiate_series(a * u + b * w, 0.1, filt)
    rhs = (a * differentiate_series(u, 0.1, filt)
           + b * differentiate_series(w, 0.1, filt))
    assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, abs(a) + abs(b))


def test_sine_derivative_taylor_bound():
    # centred (1,3) filter error on sin is |f'''| ts^2 / 6 at the interior
    t_s = 1 / 30
    t = np.arange(150) * t_s
    filt = savgol_filter(1, 3, 1)
    out = differentiate_series(np.sin(t), t_s, filt)
    interior = slice(1, -1)
    err = np.abs(out[interior] - np.cos(t[interior])).max()
    assert err <= t_s ** 2 / 5.0
    # halving the step shrinks the interior error about fourfold
    t2 = np.arange(300) * (t_s / 2)
    out2 = differentiate_series(np.sin(t2), t_s / 2, filt)
    err2 = np.abs(out2[1:-1] - np.cos(t2[1:-1])).max()
    assert err / err2 > 3.0


def test_series_too_short():
    with pytest.raises(SeriesTooShort):
        differentiate_series(np.zeros((3, 1)), 0.1, savgol_filter(2, 5, 1))


def test_static_tracks_zero_flows():
    tracks = np.tile(np.array([[1.0, 2.0], [3.0, -1.0]]), (8, 1, 1))
    f1, f2 = savgol_filter(2, 5, 1), savgol_filter(2, 5, 2)
    flows, dflows = differentiate_tracks(tracks, 0.1, f1, f2)
    assert np.allclose(flows, 0.0, atol=1e-12)
    assert np.allclose(dflows, 0.0, atol=1e-12)


def test_linear_tracks_constant_flow():
    t = np.arange(10)[:, None, None] * 0.1
    vel = np.array([[0.5, -0.2], [1.0, 0.3]])
    tracks = t * vel
    f1, f2 = savgol_filter(2, 5, 1), savgol_filter(2, 5, 2)
    flows, dflows = differentiate_tracks(tracks, 0.1, f1, f2)
    assert np.abs(flows - vel).max() < 1e-12
    assert np.abs(dflows).max() < 1e-12


def test_numeric_flows_match_simulator():
    # simulator cross-check: numeric derivatives of clean tracks converge
    # to the analytic flows at second order in the sample period
    scene = generate_scene(10, 2.0, seed=3)
    errs = []
    for t_s in (1 / 30, 1 / 60):
        traj = generate_trajectory(3.0, t_s, 0.35, np.radians(30), seed=4)
        tracks, flows, dflows = synthesize_images(traj, scene)
        f1, f2 = savgol_filter(2, 5, 1), savgol_filter(2, 5, 2)
        nflows, ndflows = differentiate_tracks(tracks, t_s, f1, f2)
        interior = slice(2, -2)
        errs.append((np.abs((nflows - flows)[interior]).max(),
                     np.abs((ndflows - dflows)[interior]).max()))
    assert errs[0][0] < 1e-2 and errs[0][1] < 0.5
    assert errs[0][0] / errs[1][0] > 3.0   # first derivative is O(ts^2)
    assert errs[0][1] / errs[1][1] > 3.0   # so is the second, off boundaries


def test_omega_dot_zero_mode():
    om = np.random.default_rng(0).normal(size=(20, 3))
    assert np.array_equal(omega_dot_series(om, "zero", 0.1), np.zeros((20, 3)))


def test_omega_dot_numeric_constant():
    om = np.tile([0.1, -0.2, 0.3], (10, 1))
    out = omega_dot_series(om, "numeric", 0.1)
    assert np.abs(out).max() < 1e-12


def test_omega_dot_euler_matches_numeric():
    # cross-mode consistency: with torque generated from the trajectory,
    # the Euler mode reproduces the exact rate while the numeric mode
    # approaches it as the sample period shrinks
    diffs = []
    for t_s in (1 / 30, 1 / 60):
        traj = generate_trajectory(3.0, t_s, 0.3, np.radians(30), seed=5)
        torque = torque_for_trajectory(traj)
        euler = omega_dot_series(traj.omega, "euler", t_s,
                                 inertia=DEFAULT_INERTIA, torque=torque)
        numeric = omega_dot_series(traj.omega, "numeric", t_s)
        assert np.abs(euler - traj.domega).max() < 1e-10
        diffs.append(np.abs(euler - numeric).max())
    assert diffs[0] < 0.05
    assert diffs[0] / diffs[1] > 2.0


def test_noise_amplification_model():
    # white noise of std sigma maps to derivative noise sigma*|h|_2/ts
    rng = np.random.default_rng(42)
    sigma, t_s = 0.7, 1 / 30
    noise = rng.normal(0, sigma, size=(10_000, 1))
    filt = savgol_filter(2, 5, 1)
    out = differentiate_series(noise, t_s, filt)[2:-2]
    predicted = sigma * np.linalg.norm(filt.taps) / t_s
    assert abs(out.std() / predicted - 1.0) < 0.1


def _counted_pinv(monkeypatch):
    """Count np.linalg.pinv calls, the one fit of each filter."""
    calls = []
    pinv = np.linalg.pinv

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return pinv(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "pinv", counted)
    return calls


def test_filter_is_fitted_once_and_applied_without_refitting(monkeypatch):
    savgol_filter.cache_clear()  # fitted once per process: count from none
    calls = _counted_pinv(monkeypatch)
    f1, f2 = savgol_filter(2, 11, 1), savgol_filter(2, 11, 2)
    assert calls == [(11, 3), (11, 3)]
    calls.clear()
    # the half-window edge samples read the filter's table: no refit
    tracks = np.random.default_rng(1).normal(size=(40, 6, 2))
    differentiate_tracks(tracks, 0.1, f1, f2)
    assert calls == []


def test_savgol_filter_is_fitted_once_per_process(monkeypatch):
    # a second call returns the same filter, fitting nothing, and its
    # arrays, shared by every caller, are read-only
    savgol_filter.cache_clear()
    calls = _counted_pinv(monkeypatch)
    filt = savgol_filter(3, 9, 2)
    assert savgol_filter(3, 9, 2) is filt and calls == [(9, 4)]
    for array in (filt.taps, filt.fit, filt.basis):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # keyed by type too: an order of 3.0 equals 3 but is refused, cached
    with pytest.raises(TypeError):
        savgol_filter(3.0, 9, 2)


def test_differentiate_series_holds_no_window_sized_copy():
    # the interior is summed from shifted slices of the series, not from a
    # stack of window-many shifted copies (~11x the series at 11 taps)
    filt = savgol_filter(2, 11, 1)
    y = np.random.default_rng(2).normal(size=(60, 8000))
    tracemalloc.start()
    try:
        differentiate_series(y, 1 / 30, filt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * y.nbytes


def _untiled_interior(y, t_s, filt):
    """The interior over the whole series at once: the same multiplies and
    adds per element, in the same order, as each tile."""
    n = len(y) - filt.window + 1
    inner = filt.taps[0] * y[:n]
    for k in range(1, filt.window):
        inner += filt.taps[k] * y[k:k + n]
    inner *= 1.0 / t_s ** filt.deriv
    return inner


@pytest.mark.parametrize("tile", [1, 4, 6, 7, 16, 1 << 14])
@pytest.mark.parametrize("frames, columns", [(5, 1), (9, 3), (12, 6),
                                             (13, 7), (20, 17), (11, 16)])
def test_tiled_interior_is_bit_equal_to_the_untiled_loop(tile, frames,
                                                         columns,
                                                         monkeypatch):
    # tiles split rows and columns on and next to their edges
    monkeypatch.setattr(dynsfm.derivatives, "TILE", tile)
    y = np.random.default_rng(frames * columns).normal(size=(frames, columns))
    for spec in ((2, 5, 1), (3, 5, 2), (1, 3, 1)):
        filt = savgol_filter(*spec)
        half = filt.window // 2
        out = differentiate_series(y, 1 / 30, filt)
        assert np.array_equal(out[half:frames - half],
                              _untiled_interior(y, 1 / 30, filt))


@pytest.mark.parametrize("order, window", [(7, 101), (5, 1001), (4, 10001)])
def test_wide_filters_stay_exact_on_polynomials(order, window):
    # fitted on the raw abscissa k = 0..window-1, these filters missed the
    # slope of a straight line by more than 1e-6; the series is barely
    # longer than the window, so most samples are half-window edges
    F = window + 20
    t_s = 1.0 / (F - 1)
    t = np.arange(F) * t_s
    powers = np.arange(order + 1)
    series = t[:, None] ** powers
    for deriv in (1, 2):
        expected = (np.array([math.perm(j, deriv) for j in powers])
                    * t[:, None] ** np.maximum(powers - deriv, 0))
        out = differentiate_series(series, t_s,
                                   savgol_filter(order, window, deriv))
        assert np.abs(out - expected).max() < 1e-9 * np.abs(expected).max()
