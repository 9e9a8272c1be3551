"""Scene, trajectory and sensor simulation.

Ground truth is a rigid body carrying a camera and an IMU whose frames
coincide. Translations are sums of random-phase sinusoids with closed-form
derivatives; the rotation is the exponential of a sinusoidal axis-angle
curve, with the body angular velocity obtained through the right Jacobian
and its rate by complex-step differentiation (exact to machine precision).

The image model is affine: a projector that drops the third coordinate.
Tracks, flows (first derivatives) and double flows (second derivatives)
are emitted in closed form so that the stacked measurement matrix is
exactly rank four in the noiseless case.
"""

import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import so3
from .derivatives import differentiate_tracks, savgol_filter
from .errors import (BadDtype, BadSampling, DegenerateScene,
                     LengthMismatch, NonFiniteInput, OverBudget, TooFewPoints)

DEFAULT_GRAVITY = np.array([0.0, 0.0, -9.8])
DEFAULT_INERTIA = np.diag([0.01, 0.01, 0.02])

# Projector of the affine camera model: drops the depth coordinate.
PROJECTOR = np.array([[1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0]])

# Sinusoid frequency bands (Hz) for the default trajectory family, chosen
# so that 5 s at 30 Hz keeps finite-difference consistency errors well
# below the noiseless recovery tolerances while still exciting all axes.
TRANS_FREQ_BAND = (0.04, 0.10)
ROT_FREQ_BAND = (0.08, 0.35)
# Bound on one sample's rotation |gyro_f| t_s (rad), checked by
# MeasurementSet.validate. Rotation angles are defined up to pi: a turn
# of theta >= pi in one sample reads as one of 2 pi - theta the other way,
# so a sampled gyro cannot resolve it, and the rotation regularizer's
# increment exp_so3(phi_f) takes |phi_f| < pi. The shipped configs reach
# 0.028 rad.
MAX_SAMPLE_ROTATION = np.pi
# Smallest t_s (s), checked by MeasurementSet.validate. The translation
# normal matrix holds sums of (tap / t_s)^2, which its norms square again:
# t_s^-4 stays within the square root of the float range, the other root
# left to the taps, weights and data. The rotation increment's t_s^2 / 12
# term is bounded from above by solver.rotation_regularizer instead.
MIN_SAMPLE_INTERVAL = float(np.finfo(float).max) ** -0.125  # ~2.9e-39 s


def shaped(*dims, **kwargs):
    """A dataclass field holding an array of shape dims: sizes, or the
    names "F" (frames) and "P" (points)."""
    return field(metadata={"shape": dims}, **kwargs)


def check_shape(name, shape, dims, sizes):
    """Raise LengthMismatch unless shape is dims, one size per name across
    the calls that share the dict sizes, which binds each new name."""
    if len(shape) == len(dims) and all(
            n == (sizes.setdefault(d, n) if isinstance(d, str) else d)
            for n, d in zip(shape, dims)):
        return
    got, want = (", ".join(str(sizes.get(n, n)) for n in s)
                 for s in (shape, dims))
    raise LengthMismatch(f"{name} must be ({want}), got ({got})")


@dataclass
class Scene:
    """Static landmarks in the spatial frame, centroid exactly zero."""
    points: np.ndarray = shaped("P", 3)  # meters

    @property
    def n_points(self):
        return self.points.shape[0]


@dataclass
class Trajectory:
    """Sampled rigid-body states with analytic derivatives.

    rotations map body to spatial coordinates; omega/domega are the body
    angular velocity and its rate.
    """
    t_s: float
    rotations: np.ndarray = shaped("F", 3, 3)
    T: np.ndarray = shaped("F", 3)       # position, spatial frame (m)
    dT: np.ndarray = shaped("F", 3)      # velocity (m/s)
    ddT: np.ndarray = shaped("F", 3)     # acceleration (m/s^2)
    omega: np.ndarray = shaped("F", 3)   # body angular velocity (rad/s)
    domega: np.ndarray = shaped("F", 3)  # body angular acceleration (rad/s^2)

    @property
    def n_frames(self):
        return self.rotations.shape[0]

    @property
    def peak_speed(self):
        return float(np.linalg.norm(self.dT, axis=1).max())

    @property
    def peak_rotation(self):
        return float(so3.rotation_angle(self.rotations).max())


@dataclass
class NoiseSpec:
    """Gaussian measurement-noise levels; all zero means no corruption."""
    gyro_std: float = 0.0        # rad/s
    accel_std: float = 0.0       # m/s^2
    image_rel_std: float = 0.0   # fraction of the peak track coordinate
    seed: int = 0

    def scaled(self, factor):
        return NoiseSpec(self.gyro_std * factor, self.accel_std * factor,
                         self.image_rel_std * factor, self.seed)


# Size budget of a measurement set, and of a run that makes one: 10x the
# 60 s, 200 Hz, 24-point regime (12000 frames, 13.8 MB of image bands).
# MAX_W_BYTES bounds the three input bands, 6F x P doubles: the size W
# would have, though reconstruct never forms a W above solver.CHUNK_BYTES.
# In-process under tracemalloc, a noiseless pipeline run peaks at 120.0 MB
# (~10.0 kB per frame) with 24 points at 12000 frames, and at 75.6 MB
# (~6.6x the bands) with 4000 points at 60 frames. reconstruct, measured
# in-process at each limit on the noiseless default trajectory (2 vCPUs),
# takes 4.1-4.4 s and peaks at 328 MB (~2.7 kB per frame) at 120000 frames
# x 24 points, and 0.20 s and 9.3 MB at 60 frames x 48000 points, where
# the bands are 138 MB (a formed W took 147.5 MB). A set above either
# limit is rejected before anything is allocated.
MAX_FRAMES = 120_000
MAX_W_BYTES = 10 * 6 * 12_000 * 24 * 8  # 6F x P doubles


@dataclass
class MeasurementSet:
    """Per-frame camera and IMU observations.

    Torque and inertia are carried along when the dataset supports the
    Euler-equation angular-acceleration mode; they are control inputs,
    known exactly, and are never corrupted by add_noise.
    """
    t_s: float
    tracks: np.ndarray = shaped("F", "P", 2)
    flows: np.ndarray = shaped("F", "P", 2)         # per second
    double_flows: np.ndarray = shaped("F", "P", 2)  # per second^2
    gyro: np.ndarray = shaped("F", 3)
    accel: np.ndarray = shaped("F", 3)
    torque: np.ndarray = shaped("F", 3, default=None)   # optional
    inertia: np.ndarray = shaped(3, 3, default=None)    # optional

    @property
    def n_frames(self):
        return self.tracks.shape[0]

    @property
    def n_points(self):
        return self.tracks.shape[1]

    def validate(self):
        """Check the input contract before any arithmetic runs on it:
        BadSampling unless t_s is a real number (no str or bool), finite
        and at least MIN_SAMPLE_INTERVAL; for each array present,
        BadDtype unless it is an np.ndarray of integers or floats of at
        most 64 bits, and LengthMismatch unless it has the shape its field
        declares (shaped), with one F and one P; OverBudget if F or the
        6F x P W is above MAX_FRAMES or MAX_W_BYTES, before any array is
        read; NonFiniteInput if an array holds a NaN, an infinity or (an
        image band) a value that overflows W's Gram; BadSampling if the
        gyro turns MAX_SAMPLE_ROTATION or more in one sample. Inertia
        definiteness is checked in euler_omega_dot."""
        t_s = self.t_s
        if not isinstance(t_s, numbers.Real) or isinstance(t_s, bool):
            raise BadSampling(f"t_s must be a number, got {t_s!r}")
        if not (np.isfinite(t_s) and t_s > 0):
            raise BadSampling(f"t_s must be finite and positive, got {t_s}")
        if t_s < MIN_SAMPLE_INTERVAL:
            raise BadSampling(f"t_s {t_s:.3g} is below MIN_SAMPLE_INTERVAL "
                              f"{MIN_SAMPLE_INTERVAL:.3g} s")
        arrays, sizes = {}, {}
        for f in fields(self):
            value, dims = getattr(self, f.name), f.metadata.get("shape")
            if dims and value is not None:
                if not (isinstance(value, np.ndarray)
                        and value.dtype.kind in "iuf"
                        and value.dtype.itemsize <= 8):
                    got = getattr(value, "dtype", type(value).__name__)
                    raise BadDtype(f"{f.name} must be an ndarray of integers "
                                   f"or floats of at most 64 bits, got {got}")
                check_shape(f.name, value.shape, dims, sizes)
                arrays[f.name] = value, dims
        frames, points = sizes.get("F", 0), sizes.get("P", 0)
        if frames > MAX_FRAMES:
            raise OverBudget(f"{frames} frames, above the budget of "
                             f"{MAX_FRAMES}")
        if 6 * frames * points * 8 > MAX_W_BYTES:
            raise OverBudget(f"W of {frames} frames x {points} points is "
                             f"above the budget of {MAX_W_BYTES} bytes")
        for name, (value, dims) in arrays.items():
            # one pass each: NaN is the max, +inf too, -inf the min
            hi, lo = value.max(initial=0.0), value.min(initial=0.0)
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise NonFiniteInput(f"{name} holds a non-finite value")
            if dims == ("F", "P", 2):  # an image band, a third of W
                # factor_rank4's Gram of the 6F x P W, and its products
                # with unit vectors, are at most |W|_F^2 <= 6FP max|x|^2:
                # under half the float range, with a margin for rounding
                bound = np.sqrt(np.finfo(float).max / 12
                                / max(frames * points, 1))
                # max |value|, as lo <= 0 <= hi; in floats, where no
                # integer's negation overflows
                if max(float(hi), -float(lo)) >= bound:
                    raise NonFiniteInput(f"{name} reaches {bound:.3g}, "
                                         "where W's Gram overflows")
        with np.errstate(over="ignore"):  # an overflow is above the bound
            turn = so3.norm(self.gyro).max(initial=0.0) * t_s
        if turn >= MAX_SAMPLE_ROTATION:
            raise BadSampling(f"gyro turns {turn:.3g} rad in one sample; a "
                              f"sampled rotation must stay below pi")


@dataclass
class Dataset:
    """Full simulation artifact: ground truth plus measurements."""
    t_s: float
    gravity: np.ndarray = shaped(3)
    scene: Scene
    trajectory: Trajectory
    measurements: MeasurementSet
    noise_spec: NoiseSpec
    seed: int


def generate_scene(n_points, extent, seed):
    """Uniform points in a cube of side `extent`, re-centred to zero.

    The draw is retried (continuing the same generator) up to 10 times if
    the points come out nearly coplanar.
    """
    if n_points < 4:
        raise TooFewPoints(f"need at least 4 points, got {n_points}")
    if extent <= 0:
        raise DegenerateScene(f"extent must be positive, got {extent}")
    rng = np.random.default_rng(seed)
    for _ in range(10):
        pts = rng.uniform(-extent / 2.0, extent / 2.0, size=(n_points, 3))
        pts = pts - pts.mean(axis=0)
        s = np.linalg.svd(pts, compute_uv=False)
        if s[2] > 1e-6 * s[0]:
            return Scene(points=pts)
    raise DegenerateScene("could not draw a non-coplanar scene in 10 tries")


def _sum_of_sinusoids(rng, n_terms, freq_band):
    """Random per-axis sinusoid parameters: (amplitudes, freqs, phases)."""
    amps = [rng.uniform(0.3, 1.0, n) for n in n_terms]
    freqs = [rng.uniform(freq_band[0], freq_band[1], n) for n in n_terms]
    phases = [rng.uniform(0.0, 2.0 * np.pi, n) for n in n_terms]
    return amps, freqs, phases


def _eval_sinusoids(t, amps, freqs, phases, deriv=0):
    """d-th time derivative of the per-axis sinusoid sums at times t."""
    t = np.asarray(t)
    out = np.zeros(t.shape + (3,), dtype=np.result_type(t, float))
    for axis in range(3):
        w = 2.0 * np.pi * np.asarray(freqs[axis])
        arg = w * t[..., None] + phases[axis] + deriv * np.pi / 2.0
        out[..., axis] = (amps[axis] * w ** deriv * np.sin(arg)).sum(-1)
    return out


def generate_trajectory(duration, t_s, amp_trans, amp_rot, seed,
                        trans_freq_band=TRANS_FREQ_BAND,
                        rot_freq_band=ROT_FREQ_BAND):
    """Smooth random trajectory with exact analytic derivatives.

    Each translation axis is a sum of 2-4 random-phase sinusoids scaled so
    the per-axis peak displacement equals amp_trans; the rotation is
    exp_so3 of a sinusoidal axis-angle curve scaled so the peak rotation
    angle equals amp_rot. Peak speed is bounded by construction
    (amp_trans times the largest angular frequency) and reported via
    Trajectory.peak_speed.
    """
    n_frames = int(round(duration / t_s))
    if n_frames < 3:
        raise BadSampling(
            f"duration must cover at least 3 samples, got {duration}/{t_s}")
    rng = np.random.default_rng(seed)
    nT = rng.integers(2, 5, size=3)
    aT, fT, pT = _sum_of_sinusoids(rng, nT, trans_freq_band)
    aR, fR, pR = _sum_of_sinusoids(rng, [2, 2, 2], rot_freq_band)

    grid = np.arange(n_frames) * t_s
    fine = np.linspace(0.0, (n_frames - 1) * t_s, 4096)

    peak = np.abs(_eval_sinusoids(fine, aT, fT, pT)).max(axis=0)
    for axis in range(3):
        scale = amp_trans / peak[axis] if peak[axis] > 0 else 0.0
        aT[axis] = aT[axis] * scale
    peak_rot = np.linalg.norm(_eval_sinusoids(fine, aR, fR, pR), axis=-1).max()
    rot_scale = amp_rot / peak_rot if peak_rot > 0 else 0.0
    aR = [a * rot_scale for a in aR]

    T = _eval_sinusoids(grid, aT, fT, pT, deriv=0)
    dT = _eval_sinusoids(grid, aT, fT, pT, deriv=1)
    ddT = _eval_sinusoids(grid, aT, fT, pT, deriv=2)
    rotations = so3.exp_so3(_eval_sinusoids(grid, aR, fR, pR, deriv=0))

    def omega_at(t):
        th = _eval_sinusoids(t, aR, fR, pR, deriv=0)
        dth = _eval_sinusoids(t, aR, fR, pR, deriv=1)
        return so3.matvec(so3.right_jacobian(th), dth)

    omega = omega_at(grid)
    # complex step: omega(t) is analytic in t, so Im(omega(t + ih))/h is the
    # derivative to machine precision
    h = 1e-30
    domega = np.imag(omega_at(grid + 1j * h)) / h
    return Trajectory(t_s=t_s, rotations=rotations, T=T, dT=dT, ddT=ddT,
                      omega=omega, domega=domega)


def body_translation(trajectory):
    """tau_f = R_f^T T_f: translation expressed in the body frame."""
    return np.einsum("fij,fi->fj", trajectory.rotations, trajectory.T)


def body_velocity(trajectory):
    """nu_f = R_f^T dT_f: linear velocity expressed in the body frame."""
    return np.einsum("fij,fi->fj", trajectory.rotations, trajectory.dT)


def synthesize_imu(trajectory, gravity=DEFAULT_GRAVITY):
    """Ideal gyro and accelerometer readings.

    The gyro measures the body angular velocity exactly; the accelerometer
    measures the specific force R_f^T (ddT_f + g_s).
    """
    gyro = trajectory.omega.copy()
    accel = np.einsum("fij,fi->fj", trajectory.rotations,
                      trajectory.ddT + gravity)
    return gyro, accel


def synthesize_images(trajectory, scene, gravity=DEFAULT_GRAVITY):
    """Affine tracks, flows and double flows for every frame and point.

    With tau = R^T T, nu = R^T dT, the accelerometer reading a_imu and
    the rate blocks W1 = [w]x, W2 = W1^2 - [dw]x of so3.rate_blocks:
      x   = P (R^T X - tau)
      dx  = P (-W1 R^T X + W1 tau - nu)
      ddx = P (W2 (R^T X - tau) + 2 W1 nu - a_imu + R^T g)
    where P drops the third coordinate (it takes the first two).
    """
    RX, tau, tracks = _tracks(trajectory, scene)
    nu = body_velocity(trajectory)
    _, accel = synthesize_imu(trajectory, gravity)
    W1, W2 = so3.rate_blocks(trajectory.omega, trajectory.domega)
    offset1 = so3.matvec(W1, tau) - nu
    offset2 = (so3.matvec(-W2, tau) + so3.matvec(2.0 * W1, nu) - accel
               + so3.matvec(trajectory.rotations.transpose(0, 2, 1), gravity))
    flows = (-(RX @ W1.transpose(0, 2, 1)) + offset1[:, None])[..., :2]
    dflows = ((RX @ W2.transpose(0, 2, 1)) + offset2[:, None])[..., :2]
    return tracks, flows, dflows


def _tracks(trajectory, scene):
    """R_f^T X_p (F, P, 3), tau and the tracks P (R^T X - tau)."""
    RX, tau = scene.points @ trajectory.rotations, body_translation(trajectory)
    return RX, tau, (RX - tau[:, None])[..., :2]


def torque_for_trajectory(trajectory, inertia=DEFAULT_INERTIA):
    """Torque series realizing the trajectory's angular acceleration, so
    the Euler-equation mode reproduces domega exactly."""
    J = np.asarray(inertia, dtype=float)
    om, dom = trajectory.omega, trajectory.domega
    return dom @ J.T + so3.cross(om, om @ J.T)


def add_noise(measurements, spec, flow_mode="analytic",
              flow_filters=None):
    """Corrupt a measurement set with i.i.d. Gaussian noise.

    Image noise has per-coordinate std image_rel_std times the largest
    clean track coordinate magnitude. In "analytic" mode the flows and
    double flows get independent noise scaled by 1/t_s and 1/t_s^2; in
    "numeric" mode they are recomputed by differentiating the noisy
    tracks with `flow_filters` (a pair of DerivFilter), which propagates
    the track noise through the filter taps.
    """
    rng = np.random.default_rng(spec.seed)
    t_s = measurements.t_s
    normal = rng.standard_normal
    gyro = measurements.gyro + normal(measurements.gyro.shape) * spec.gyro_std
    accel = measurements.accel + normal(measurements.accel.shape) * spec.accel_std
    img_std = spec.image_rel_std * np.abs(measurements.tracks).max(initial=0.0)
    tracks = measurements.tracks + normal(measurements.tracks.shape) * img_std
    if flow_mode == "numeric":
        if flow_filters is None:
            flow_filters = (savgol_filter(2, 5, 1), savgol_filter(2, 5, 2))
        flows, dflows = differentiate_tracks(tracks, t_s, *flow_filters)
    elif flow_mode == "analytic":
        flows = measurements.flows + normal(
            measurements.flows.shape) * (img_std / t_s)
        dflows = measurements.double_flows + normal(
            measurements.double_flows.shape) * (img_std / t_s ** 2)
    else:
        raise ValueError(f"unknown flow mode {flow_mode!r}")
    return replace(measurements, tracks=tracks, flows=flows,
                   double_flows=dflows, gyro=gyro, accel=accel)


def simulate_dataset(duration, t_s, n_points, extent, amp_trans, amp_rot,
                     seed, noise=None, gravity=DEFAULT_GRAVITY,
                     flow_mode="analytic", flow_filters=None,
                     inertia=DEFAULT_INERTIA):
    """Generate a complete dataset: scene, trajectory, clean measurements
    with consistent torque, then optional noise corruption."""
    noise = noise if noise is not None else NoiseSpec()
    scene = generate_scene(n_points, extent, seed)
    trajectory = generate_trajectory(duration, t_s, amp_trans, amp_rot,
                                     seed + 1)
    gyro, accel = synthesize_imu(trajectory, gravity)
    if flow_mode == "numeric":  # add_noise differentiates the noisy tracks
        tracks, flows, dflows = _tracks(trajectory, scene)[2], None, None
    else:
        tracks, flows, dflows = synthesize_images(trajectory, scene, gravity)
    torque = torque_for_trajectory(trajectory, inertia)
    clean = MeasurementSet(t_s=t_s, tracks=tracks, flows=flows,
                           double_flows=dflows, gyro=gyro, accel=accel,
                           torque=torque, inertia=np.asarray(inertia, float))
    measurements = add_noise(clean, noise, flow_mode=flow_mode,
                             flow_filters=flow_filters)
    return Dataset(t_s=t_s, gravity=np.asarray(gravity, dtype=float),
                   scene=scene, trajectory=trajectory,
                   measurements=measurements, noise_spec=noise, seed=seed)
