import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dynsfm
from dynsfm import simulate, so3
from dynsfm.derivatives import euler_omega_dot
from dynsfm.errors import (BadDtype, BadSampling, DynSfmError,
                           LengthMismatch, NonFiniteInput, OverBudget,
                           SingularInertia, TooFewPoints)
from dynsfm.simulate import (DEFAULT_GRAVITY, DEFAULT_INERTIA, MAX_FRAMES,
                             MAX_W_BYTES, MeasurementSet,
                             NoiseSpec, Scene, Trajectory, add_noise,
                             generate_scene, generate_trajectory,
                             simulate_dataset, synthesize_images,
                             synthesize_imu, torque_for_trajectory)

from conftest import right_jacobian_one

G = DEFAULT_GRAVITY


def test_scene_reference_size():
    scene = generate_scene(24, 2.0, seed=7)
    assert scene.points.shape == (24, 3)
    assert np.linalg.norm(scene.points.mean(axis=0)) < 1e-12
    # recentring can push points slightly past the original cube faces
    assert np.abs(scene.points).max() <= 2.0


def test_scene_minimal():
    assert generate_scene(4, 1.0, seed=0).points.shape == (4, 3)


def test_scene_determinism():
    a = generate_scene(24, 2.0, seed=3)
    b = generate_scene(24, 2.0, seed=3)
    assert np.array_equal(a.points, b.points)


def test_scene_non_coplanar():
    scene = generate_scene(24, 2.0, seed=11)
    s = np.linalg.svd(scene.points, compute_uv=False)
    assert s[2] > 1e-6 * s[0]


def test_scene_too_few_points():
    with pytest.raises(TooFewPoints):
        generate_scene(3, 1.0, seed=0)


def test_trajectory_reference_frame_count():
    traj = generate_trajectory(5.0, 1 / 30, 0.35, np.radians(30), seed=0)
    assert traj.n_frames == 150


def test_trajectory_zero_translation_amplitude():
    traj = generate_trajectory(2.0, 1 / 30, 0.0, np.radians(30), seed=1)
    assert np.array_equal(traj.T, np.zeros_like(traj.T))
    assert np.array_equal(traj.dT, np.zeros_like(traj.dT))
    assert np.array_equal(traj.ddT, np.zeros_like(traj.ddT))


def test_trajectory_bad_sampling():
    with pytest.raises(BadSampling):
        generate_trajectory(0.05, 1 / 30, 0.3, 0.5, seed=0)


def test_trajectory_bounds_and_report():
    traj = generate_trajectory(5.0, 1 / 30, 0.35, np.radians(30), seed=2)
    assert traj.peak_rotation <= np.radians(30) + 1e-9
    assert traj.peak_rotation > 0.8 * np.radians(30)
    assert 0.0 < traj.peak_speed <= 0.5


def test_trajectory_rotations_valid():
    traj = generate_trajectory(3.0, 1 / 30, 0.3, 0.5, seed=3)
    for R in traj.rotations:
        assert np.linalg.norm(R @ R.T - np.eye(3)) < 1e-9
        assert abs(np.linalg.det(R) - 1.0) < 1e-9


def test_trajectory_angular_velocity_consistency():
    # (R_{f+1} - R_f)/ts approximates R_f hat(omega_f) to first order
    t_s = 1 / 30
    traj = generate_trajectory(3.0, t_s, 0.3, np.radians(30), seed=4)
    worst = 0.0
    for f in range(traj.n_frames - 1):
        fd = (traj.rotations[f + 1] - traj.rotations[f]) / t_s
        worst = max(worst, np.linalg.norm(
            fd - traj.rotations[f] @ so3.hat(traj.omega[f])))
    scale = max(np.linalg.norm(traj.domega, axis=1).max(),
                (np.linalg.norm(traj.omega, axis=1) ** 2).max())
    assert worst <= 2.0 * scale * t_s


def test_trajectory_domega_is_derivative_of_omega():
    t_s = 1 / 30
    traj = generate_trajectory(3.0, t_s, 0.3, np.radians(30), seed=5)
    fd = (traj.omega[2:] - traj.omega[:-2]) / (2 * t_s)
    err = np.abs(fd - traj.domega[1:-1]).max()
    assert err < 0.05 * t_s  # central-difference error is O(ts^2)


def test_trajectory_determinism():
    a = generate_trajectory(2.0, 1 / 30, 0.3, 0.5, seed=9)
    b = generate_trajectory(2.0, 1 / 30, 0.3, 0.5, seed=9)
    for fld in ("rotations", "T", "dT", "ddT", "omega", "domega"):
        assert np.array_equal(getattr(a, fld), getattr(b, fld))


def _trajectory_oracle(duration, t_s, amp_trans, amp_rot, seed):
    """generate_trajectory with one exp_so3, right Jacobian and complex
    step per frame."""
    ev = simulate._eval_sinusoids
    n_frames = int(round(duration / t_s))
    rng = np.random.default_rng(seed)
    nT = rng.integers(2, 5, size=3)
    aT, fT, pT = simulate._sum_of_sinusoids(rng, nT, simulate.TRANS_FREQ_BAND)
    aR, fR, pR = simulate._sum_of_sinusoids(rng, [2, 2, 2],
                                            simulate.ROT_FREQ_BAND)
    grid = np.arange(n_frames) * t_s
    fine = np.linspace(0.0, (n_frames - 1) * t_s, 4096)
    peak = np.abs(ev(fine, aT, fT, pT)).max(axis=0)
    aT = [a * (amp_trans / peak[axis]) for axis, a in enumerate(aT)]
    peak_rot = np.linalg.norm(ev(fine, aR, fR, pR), axis=-1).max()
    aR = [a * (amp_rot / peak_rot) for a in aR]
    theta = ev(grid, aR, fR, pR)
    dtheta = ev(grid, aR, fR, pR, deriv=1)

    def omega_at(t):
        return (right_jacobian_one(ev(t, aR, fR, pR))
                @ ev(t, aR, fR, pR, deriv=1))

    return {"rotations": np.array([so3.exp_so3(th) for th in theta]),
            "T": ev(grid, aT, fT, pT), "dT": ev(grid, aT, fT, pT, deriv=1),
            "ddT": ev(grid, aT, fT, pT, deriv=2),
            "omega": np.array([right_jacobian_one(theta[f]) @ dtheta[f]
                               for f in range(n_frames)]),
            "domega": np.array([np.imag(omega_at(np.asarray(t + 1e-30j)))
                                / 1e-30 for t in grid])}


@pytest.mark.parametrize("t_s", [1 / 30, 1 / 60])
def test_trajectory_equals_per_frame_oracle(t_s):
    # everything bit for bit but domega, whose complex products round
    # differently as arrays than as scalars, within an ulp or two
    traj = generate_trajectory(5.0, t_s, 0.35, np.radians(30), seed=1)
    oracle = _trajectory_oracle(5.0, t_s, 0.35, np.radians(30), seed=1)
    for name in ("rotations", "T", "dT", "ddT", "omega"):
        assert np.array_equal(getattr(traj, name), oracle[name]), name
    scale = np.abs(oracle["domega"]).max()
    assert np.abs(traj.domega - oracle["domega"]).max() <= 1e-15 * scale


def _static_trajectory(F, t_s=1 / 30, R=None, T=None):
    R = np.eye(3) if R is None else R
    T = np.zeros(3) if T is None else T
    zeros = np.zeros((F, 3))
    return Trajectory(t_s=t_s, rotations=np.tile(R, (F, 1, 1)),
                      T=np.tile(T, (F, 1)), dT=zeros.copy(),
                      ddT=zeros.copy(), omega=zeros.copy(),
                      domega=zeros.copy())


def test_imu_hovering():
    traj = _static_trajectory(5)
    gyro, accel = synthesize_imu(traj, G)
    assert np.allclose(gyro, 0.0)
    assert np.allclose(accel, [0.0, 0.0, -9.8], atol=1e-15)


def test_imu_pure_acceleration():
    traj = _static_trajectory(4)
    traj.ddT[:] = [1.0, 0.0, 0.0]
    _, accel = synthesize_imu(traj, np.zeros(3))
    assert np.allclose(accel, [1.0, 0.0, 0.0], atol=1e-15)


def test_imu_rotated_consistency():
    # algebraic rearrangement: R accel - g == ddT exactly
    traj = generate_trajectory(2.0, 1 / 30, 0.4, np.radians(25), seed=6)
    _, accel = synthesize_imu(traj, G)
    back = np.einsum("fij,fj->fi", traj.rotations, accel) - G
    assert np.abs(back - traj.ddT).max() < 1e-12


def test_images_static_camera():
    traj = _static_trajectory(6)
    scene = Scene(points=np.array([[1.0, 2.0, 3.0],
                                   [0.0, 0.0, 1.0],
                                   [-1.0, 0.5, 0.25],
                                   [0.5, -1.0, 0.5]]))
    tracks, flows, dflows = synthesize_images(traj, scene, G)
    assert np.allclose(tracks[0, 0], [1.0, 2.0], atol=1e-15)
    assert np.allclose(flows, 0.0, atol=1e-15)
    assert np.allclose(dflows, 0.0, atol=1e-15)  # accel cancels gravity term


def test_images_pure_z_rotation_flow():
    # camera spinning about z at the origin, point at [1,0,0]:
    # dx = P(-hat(w) X) = P(-w x X) = P([0,-1,0]) = [0,-1],
    # cross-checked against finite differences of the track below
    traj = _static_trajectory(3)
    traj.omega[:] = [0.0, 0.0, 1.0]
    scene = Scene(points=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                   [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]))
    _, flows, _ = synthesize_images(traj, scene, G)
    assert np.allclose(flows[0, 0], [0.0, -1.0], atol=1e-15)
    # finite-difference oracle: rotate the camera through a small angle
    h = 1e-6
    x_p = so3.exp_so3([0.0, 0.0, h]).T @ scene.points[0]
    x_m = so3.exp_so3([0.0, 0.0, -h]).T @ scene.points[0]
    fd = ((x_p - x_m) / (2 * h))[:2]
    assert np.allclose(flows[0, 0], fd, atol=1e-9)


def _projection_consistency_oracle(traj, scene, gravity):
    """Independent 3-D re-derivation of the image formulas including the
    depth row; the emitted 2-D data must equal its first two rows."""
    F, P = traj.n_frames, scene.n_points
    tau = np.einsum("fij,fi->fj", traj.rotations, traj.T)
    nu = np.einsum("fij,fi->fj", traj.rotations, traj.dT)
    x3 = np.zeros((F, P, 3))
    dx3 = np.zeros((F, P, 3))
    ddx3 = np.zeros((F, P, 3))
    for f in range(F):
        R = traj.rotations[f]
        w = so3.hat(traj.omega[f])
        dw = so3.hat(traj.domega[f])
        alpha = R.T @ traj.ddT[f]
        for p in range(P):
            Xc = R.T @ scene.points[p] - tau[f]
            x3[f, p] = Xc
            dx3[f, p] = -w @ (R.T @ scene.points[p]) + w @ tau[f] - nu[f]
            ddx3[f, p] = ((w @ w - dw) @ (R.T @ scene.points[p] - tau[f])
                          + 2 * w @ nu[f] - alpha)
    return x3[..., :2], dx3[..., :2], ddx3[..., :2]


def test_projection_consistency():
    traj = generate_trajectory(2.0, 1 / 30, 0.3, np.radians(20), seed=7)
    scene = generate_scene(8, 2.0, seed=8)
    tracks, flows, dflows = synthesize_images(traj, scene, G)
    x2, dx2, ddx2 = _projection_consistency_oracle(traj, scene, G)
    assert np.abs(tracks - x2).max() < 1e-12
    assert np.abs(flows - dx2).max() < 1e-12
    assert np.abs(dflows - ddx2).max() < 1e-12


def test_flows_match_finite_differences_of_tracks():
    # five-point central differences of the tracks converge to the
    # analytic flows and double flows at second order
    scene = generate_scene(6, 2.0, seed=9)
    errs = []
    for t_s in (1 / 30, 1 / 60):
        traj = generate_trajectory(2.0, t_s, 0.3, np.radians(25), seed=10)
        tracks, flows, dflows = synthesize_images(traj, scene, G)
        d1 = np.zeros_like(tracks)
        d2 = np.zeros_like(tracks)
        x = tracks
        for f in range(2, traj.n_frames - 2):
            d1[f] = (-x[f + 2] + 8 * x[f + 1] - 8 * x[f - 1] + x[f - 2]) / (12 * t_s)
            d2[f] = (-x[f + 2] + 16 * x[f + 1] - 30 * x[f]
                     + 16 * x[f - 1] - x[f - 2]) / (12 * t_s ** 2)
        sl = slice(2, -2)
        errs.append((np.abs((d1 - flows)[sl]).max(),
                     np.abs((d2 - dflows)[sl]).max()))
    assert errs[0][0] / errs[1][0] > 8.0   # 4th-order stencil on smooth data
    assert errs[0][1] / errs[1][1] > 3.0


def test_body_derivative_relations():
    # finite differences of tau and nu match the body-frame kinematics
    t_s = 1 / 30
    traj = generate_trajectory(3.0, t_s, 0.35, np.radians(30), seed=11)
    R, om = traj.rotations, traj.omega
    tau = np.einsum("fij,fi->fj", R, traj.T)
    nu = np.einsum("fij,fi->fj", R, traj.dT)
    alpha = np.einsum("fij,fi->fj", R, traj.ddT)
    dtau_fd = (tau[2:] - tau[:-2]) / (2 * t_s)
    dnu_fd = (nu[2:] - nu[:-2]) / (2 * t_s)
    dtau_pred = np.array([-so3.hat(om[f]) @ tau[f] + nu[f]
                          for f in range(1, traj.n_frames - 1)])
    dnu_pred = np.array([-so3.hat(om[f]) @ nu[f] + alpha[f]
                         for f in range(1, traj.n_frames - 1)])
    assert np.abs(dtau_fd - dtau_pred).max() < 0.5 * t_s
    assert np.abs(dnu_fd - dnu_pred).max() < 2.0 * t_s


def _small_measurements(seed=12, F=60):
    traj = generate_trajectory(F / 30, 1 / 30, 0.35, np.radians(30), seed=seed)
    scene = generate_scene(8, 2.0, seed=seed + 1)
    gyro, accel = synthesize_imu(traj, G)
    tracks, flows, dflows = synthesize_images(traj, scene, G)
    return MeasurementSet(t_s=1 / 30, tracks=tracks, flows=flows,
                          double_flows=dflows, gyro=gyro, accel=accel)


def test_add_noise_zero_spec_is_identity():
    meas = _small_measurements()
    out = add_noise(meas, NoiseSpec(seed=5))
    for fld in ("tracks", "flows", "double_flows", "gyro", "accel"):
        assert np.array_equal(getattr(out, fld), getattr(meas, fld))


def test_add_noise_determinism():
    meas = _small_measurements()
    spec = NoiseSpec(gyro_std=0.05, accel_std=0.2, image_rel_std=0.005, seed=9)
    a = add_noise(meas, spec)
    b = add_noise(meas, spec)
    for fld in ("tracks", "flows", "double_flows", "gyro", "accel"):
        assert np.array_equal(getattr(a, fld), getattr(b, fld))


def test_add_noise_reference_point_statistics():
    meas = _small_measurements(F=150)
    spec = NoiseSpec(gyro_std=np.radians(3.0), accel_std=0.2,
                     image_rel_std=0.005, seed=13)
    noisy = add_noise(meas, spec)
    gyro_std = (noisy.gyro - meas.gyro).std()
    assert abs(gyro_std / spec.gyro_std - 1.0) < 0.2
    accel_std = (noisy.accel - meas.accel).std()
    assert abs(accel_std / spec.accel_std - 1.0) < 0.2
    img_std = (noisy.tracks - meas.tracks).std()
    expected = spec.image_rel_std * np.abs(meas.tracks).max()
    assert abs(img_std / expected - 1.0) < 0.2
    flow_std = (noisy.flows - meas.flows).std()
    assert abs(flow_std / (expected * 30.0) - 1.0) < 0.2


def test_add_noise_numeric_mode_propagates_track_noise():
    meas = _small_measurements(F=60)
    spec = NoiseSpec(image_rel_std=0.005, seed=14)
    noisy = add_noise(meas, spec, flow_mode="numeric")
    from dynsfm.derivatives import differentiate_tracks, savgol_filter
    flows, dflows = differentiate_tracks(noisy.tracks, meas.t_s,
                                         savgol_filter(2, 5, 1),
                                         savgol_filter(2, 5, 2))
    assert np.array_equal(noisy.flows, flows)
    assert np.array_equal(noisy.double_flows, dflows)


def test_euler_omega_dot_torque_balance():
    J = DEFAULT_INERTIA
    om = np.array([[0.4, -0.2, 0.7], [0.1, 0.0, -0.3]])
    torque = np.cross(om, om @ J.T)
    assert np.abs(euler_omega_dot(J, torque, om)).max() < 1e-15


def test_euler_omega_dot_isotropic_free_body():
    om = np.array([[0.3, 0.3, 0.3]])
    out = euler_omega_dot(np.eye(3), np.zeros((1, 3)), om)
    assert np.abs(out).max() < 1e-15


def test_euler_omega_dot_hand_value():
    # J=diag(1,2,3), omega=[1,1,1], torque=0:
    # omega x J omega = [1,1,1] x [1,2,3] = [1,-2,1]
    # domega = -J^-1 [1,-2,1] = [-1, 1, -1/3]
    out = euler_omega_dot(np.diag([1.0, 2.0, 3.0]), np.zeros((1, 3)),
                          np.array([[1.0, 1.0, 1.0]]))
    assert np.allclose(out[0], [-1.0, 1.0, -1.0 / 3.0], atol=1e-15)


def test_euler_omega_dot_rejects_bad_inertia():
    om = np.zeros((2, 3))
    with pytest.raises(SingularInertia):
        euler_omega_dot(np.diag([1.0, 1.0, 0.0]), np.zeros((2, 3)), om)
    with pytest.raises(SingularInertia):
        bad = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        euler_omega_dot(bad, np.zeros((2, 3)), om)
    with pytest.raises(LengthMismatch):
        euler_omega_dot(np.eye(3), np.zeros((3, 3)), om)


def test_torque_realizes_trajectory_rate():
    traj = generate_trajectory(2.0, 1 / 30, 0.3, np.radians(30), seed=15)
    torque = torque_for_trajectory(traj)
    back = euler_omega_dot(DEFAULT_INERTIA, torque, traj.omega)
    assert np.abs(back - traj.domega).max() < 1e-10


def test_dataset_determinism():
    kw = dict(duration=2.0, t_s=1 / 30, n_points=8, extent=2.0,
              amp_trans=0.3, amp_rot=0.5, seed=3,
              noise=NoiseSpec(0.05, 0.2, 0.005, seed=4))
    a = simulate_dataset(**kw)
    b = simulate_dataset(**kw)
    assert np.array_equal(a.measurements.tracks, b.measurements.tracks)
    assert np.array_equal(a.measurements.gyro, b.measurements.gyro)
    assert np.array_equal(a.scene.points, b.scene.points)


def _with_value(array, index, value):
    out = np.array(array, dtype=float)
    out[index] = value
    return out


@pytest.mark.parametrize("change, error", [
    (lambda m: {"t_s": float("nan")}, BadSampling),
    (lambda m: {"t_s": "fast"}, BadSampling),
    (lambda m: {"t_s": "0.03"}, BadSampling),
    (lambda m: {"t_s": True}, BadSampling),
    (lambda m: {"tracks": m.tracks[..., 0]}, LengthMismatch),
    (lambda m: {"flows": m.flows[:, :-1]}, LengthMismatch),
    (lambda m: {"gyro": m.gyro[:-1]}, LengthMismatch),
    (lambda m: {"torque": m.torque[:, :2]}, LengthMismatch),
    (lambda m: {"double_flows": _with_value(m.double_flows, (0, 1, 1),
                                            -np.inf)}, NonFiniteInput),
    (lambda m: {"inertia": _with_value(m.inertia, (2, 2), np.nan)},
     NonFiniteInput),
    (lambda m: {"inertia": m.inertia.ravel()}, LengthMismatch),
    # one sample may turn less than pi; a norm that overflows is above it
    (lambda m: {"gyro": _with_value(m.gyro, (4, 2), 3.15 / m.t_s)},
     BadSampling),
    (lambda m: {"gyro": _with_value(m.gyro, (4, slice(2)), 1.5e308)},
     BadSampling)])
def test_measurement_set_validate_rejects(change, error):
    meas = simulate_dataset(duration=0.3, t_s=1 / 30, n_points=5, extent=1.0,
                            amp_trans=0.1, amp_rot=0.2, seed=0).measurements
    meas.validate()
    with pytest.raises(error):
        replace(meas, **change(meas)).validate()


ARRAY_FIELDS = ("tracks", "flows", "double_flows", "gyro", "accel", "torque",
                "inertia")


@pytest.mark.parametrize("name", ARRAY_FIELDS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1j * np.inf])
def test_measurement_set_validate_names_a_non_finite_array(name, value):
    # a complex array is refused by its dtype before its values are read
    meas = simulate_dataset(duration=0.3, t_s=1 / 30, n_points=5, extent=1.0,
                            amp_trans=0.1, amp_rot=0.2, seed=0).measurements
    array = np.array(getattr(meas, name), dtype=type(value))
    array[(1,) * array.ndim] = value
    changed = replace(meas, **{name: array})
    error, message = ((BadDtype, f"^{name} must be an ndarray of integers")
                      if isinstance(value, complex)
                      else (NonFiniteInput, f"^{name} holds a non-finite value$"))
    with pytest.raises(error, match=message):
        changed.validate()


@pytest.mark.parametrize("name", ARRAY_FIELDS[:3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_measurement_set_validate_holds_an_image_band_under_its_bound(
        name, sign):
    # |x| >= sqrt(max float / (12 F P)) is refused, of either sign; the
    # float just below the bound passes
    meas = simulate_dataset(duration=0.3, t_s=1 / 30, n_points=5, extent=1.0,
                            amp_trans=0.1, amp_rot=0.2, seed=0).measurements
    bound = np.sqrt(np.finfo(float).max / 12
                    / (meas.n_frames * meas.n_points))
    band = getattr(meas, name)
    replace(meas, **{name: _with_value(band, (2, 3, 1), sign * np.nextafter(
        bound, 0.0))}).validate()
    message = f"{name} reaches {bound:.3g}, where W's Gram overflows"
    with pytest.raises(NonFiniteInput, match=f"^{re.escape(message)}$"):
        replace(meas, **{name: _with_value(band, (2, 3, 1), sign * bound)}
                ).validate()


def test_measurement_set_validate_bounds_a_complex_band_by_its_modulus():
    # both parts under the bound, the modulus at it: a complex band is
    # refused by its dtype, whatever its values
    meas = simulate_dataset(duration=0.3, t_s=1 / 30, n_points=5, extent=1.0,
                            amp_trans=0.1, amp_rot=0.2, seed=0).measurements
    bound = np.sqrt(np.finfo(float).max / 12
                    / (meas.n_frames * meas.n_points))
    tracks = meas.tracks.astype(complex)
    tracks[2, 3, 1] = complex(bound / 1.2, bound / 1.2)
    with pytest.raises(BadDtype, match="^tracks must be an ndarray"):
        replace(meas, tracks=tracks).validate()


@pytest.mark.parametrize("name, change", [
    ("gyro", lambda a: a.astype(bool)),
    ("accel", lambda a: a.astype(object)),
    ("gyro", lambda a: a.astype(str)),
    ("tracks", lambda a: a.tolist()),
    ("gyro", lambda a: a.astype(complex)),
    ("accel", lambda a: a.astype(complex)),
    pytest.param("accel", lambda a: a.astype(np.longdouble),
                 marks=pytest.mark.skipif(
                     np.dtype(np.longdouble).itemsize <= 8,
                     reason="longdouble is float64 here"))],
    ids=["bool", "object", "str", "list", "complex-gyro", "complex-accel",
         "longdouble"])
def test_measurement_set_validate_refuses_a_non_real_array(name, change):
    # one typed error naming the field, from validate and from reconstruct's
    # validate stage, before any arithmetic reads the array
    meas = simulate_dataset(duration=0.3, t_s=1 / 30, n_points=5, extent=1.0,
                            amp_trans=0.1, amp_rot=0.2, seed=0).measurements
    changed = replace(meas, **{name: change(getattr(meas, name))})
    assert issubclass(BadDtype, DynSfmError) and issubclass(BadDtype, TypeError)
    with pytest.raises(BadDtype, match=f"^{name} must be an ndarray of "
                                       "integers or floats of at most 64 bits"):
        changed.validate()
    with pytest.raises(BadDtype, match=rf"^\[validate\] {name} must be"):
        dynsfm.reconstruct(changed)


# every kind of array a caller may hand the library, and every layout
INPUT_DTYPES = [bool, np.int8, np.int16, np.int32, np.int64, np.uint8,
                np.uint16, np.uint32, np.uint64, np.float16, np.float32,
                np.float64, np.longdouble, complex, object, str]
LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "non-contiguous": lambda a: np.repeat(a, 2, axis=0)[::2],
    "zero-stride": lambda a: np.broadcast_to(a[:1], a.shape),
    "read-only": lambda a: _read_only(a.copy()),
    "list": lambda a: a.tolist(),
}


def _read_only(a):
    a.flags.writeable = False
    return a


@pytest.fixture(scope="module")
def one_second_measurements():
    return simulate_dataset(duration=1.0, t_s=1 / 30, n_points=8, extent=2.0,
                            amp_trans=0.35, amp_rot=np.radians(30), seed=0,
                            noise=NoiseSpec(0.05, 0.2, 0.005, seed=1)
                            ).measurements


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(ARRAY_FIELDS),
       dtype=st.sampled_from(INPUT_DTYPES),
       layout=st.sampled_from(sorted(LAYOUTS)))
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::dynsfm.errors.IllConditionedWarning")
def test_reconstruct_returns_a_finite_result_or_a_typed_error(
        one_second_measurements, name, dtype, layout):
    # the library boundary holds the CLI's input contract for any array a
    # caller hands it: a finite Reconstruction, or one DynSfmError; an
    # integer cast or a repeated frame may well leave a degenerate,
    # ill-conditioned problem, which is warned of
    meas = one_second_measurements
    with np.errstate(all="ignore"):  # the cast itself (-0.5 to uint8) may
        array = getattr(meas, name).astype(dtype)  # wrap or overflow
    array = LAYOUTS[layout](array)
    try:
        recon = dynsfm.reconstruct(replace(meas, **{name: array}))
    except DynSfmError:
        return
    for f in ("rotations", "tau", "nu", "gravity", "structure"):
        assert np.isfinite(getattr(recon, f)).all()
    assert all(np.isfinite(v) for v in recon.residuals.values())


def _zero_stride_set(frames, points):
    """A measurement set of F frames and P points whose arrays are
    zero-stride views of one value each: no band is allocated."""
    def band(*shape):
        return np.broadcast_to(np.zeros(()), shape)
    return MeasurementSet(
        t_s=1 / 200, tracks=band(frames, points, 2),
        flows=band(frames, points, 2), double_flows=band(frames, points, 2),
        gyro=band(frames, 3), accel=band(frames, 3))


@pytest.mark.parametrize("frames, points, match", [
    (MAX_FRAMES + 1, 4, "frames, above"),                 # F over
    (MAX_W_BYTES // (48 * 4000) + 1, 4000, "bytes"),      # one frame over W
    (60, MAX_W_BYTES // (48 * 60) + 1, "bytes"),          # one point over W
    (MAX_FRAMES, MAX_W_BYTES // (48 * MAX_FRAMES) + 1, "bytes")])
def test_measurement_set_validate_holds_the_size_budget(frames, points,
                                                        match):
    # the budget is checked from the shapes before any array is scanned:
    # a scan would allocate a full copy of each band, ~46 MB here
    meas = _zero_stride_set(frames, points)
    tracemalloc.start()
    try:
        with pytest.raises(OverBudget, match=match):
            meas.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5
    with pytest.raises(OverBudget, match=r"^\[validate\] "):
        dynsfm.reconstruct(meas)


def test_check_shape_holds_one_size_per_name():
    # the first shape that names F or P binds it for every later call
    # sharing the same sizes; a wrong rank or size names the field
    sizes = {}
    simulate.check_shape("tracks", (30, 8, 2), ("F", "P", 2), sizes)
    assert sizes == {"F": 30, "P": 8}
    simulate.check_shape("gyro", (30, 3), ("F", 3), sizes)
    for shape in ((29, 3), (30, 3, 1), (30, 2)):
        with pytest.raises(LengthMismatch, match=r"^gyro must be \(30, 3\)"):
            simulate.check_shape("gyro", shape, ("F", 3), sizes)
    with pytest.raises(LengthMismatch, match=r"\(F, 3\), got \(5\)"):
        simulate.check_shape("T", (5,), ("F", 3), {})
