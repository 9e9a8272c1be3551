"""Gauge alignment and error reporting.

The reconstruction is determined only up to a global rotation of the
spatial frame; the alignment is fitted on the structure points with a
rigid Procrustes step (rotation plus translation, no scaling) and then
applied consistently to the estimated poses and gravity.
"""

from dataclasses import dataclass

import numpy as np

from . import so3
from .errors import DegenerateConfiguration, DimensionMismatch


@dataclass
class Alignment:
    """Rigid transform est -> gt: x_aligned = rotation @ x + translation."""
    rotation: np.ndarray
    translation: np.ndarray

    def apply(self, pts):
        return np.asarray(pts) @ self.rotation.T + self.translation

    def rotate(self, vecs):
        return np.asarray(vecs) @ self.rotation.T


@dataclass
class ErrorReport:
    """Procrustes-aligned errors of a reconstruction against ground truth."""
    rot_err: np.ndarray       # (F,) geodesic angles (rad)
    trans_rmse: float         # m, over frames
    struct_rmse: float        # m, over points
    gravity_angle_err: float  # rad
    per_axis_err: np.ndarray  # (3,) RMS translation error along each
                              # camera axis (x, y, depth), m
    alignment: Alignment      # est -> gt fit on the structure points

    @property
    def rot_err_mean(self):
        return float(self.rot_err.mean())


def procrustes_no_scale(est, gt):
    """Optimal rotation + translation aligning est onto gt (no scaling).

    Reflections are excluded: the rotation is the SO(3) projection of the
    centered correlation matrix gt_c^T est_c.
    """
    est = np.asarray(est, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if est.shape != gt.shape or est.shape[1] != 3:
        raise DimensionMismatch(f"point sets differ: {est.shape} vs {gt.shape}")
    if est.shape[0] < 3:
        raise DegenerateConfiguration("need at least 3 points to align")
    ce, cg = est.mean(axis=0), gt.mean(axis=0)
    est_c, gt_c = est - ce, gt - cg
    if (np.linalg.svd(est_c, compute_uv=False)[1] <= 1e-12
            or np.linalg.svd(gt_c, compute_uv=False)[1] <= 1e-12):
        raise DegenerateConfiguration("point set is rank deficient")
    R = so3.project_to_so3(gt_c.T @ est_c)
    return Alignment(rotation=R, translation=cg - R @ ce)


def vector_angle(a, b):
    """Angle between two vectors, 0 if either is zero.

    Kahan's 2 atan2(|a' - b'|, |a' + b'|) of the unit vectors a', b' is
    accurate to rounding at every angle; the arccos of their dot product
    resolves an angle near zero only to ~sqrt(eps).
    """
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    a, b = np.asarray(a) / na, np.asarray(b) / nb
    return float(2.0 * np.arctan2(np.linalg.norm(a - b),
                                  np.linalg.norm(a + b)))


def evaluate(recon, trajectory, scene, gravity):
    """Error report for a reconstruction, aligned on the structure points.

    Per-axis errors are the aligned translation errors re-expressed in each
    frame's true camera axes (so the third component is the depth axis) and
    reduced to per-axis RMS values.
    """
    F = trajectory.n_frames
    if recon.rotations.shape[0] != F or recon.structure.shape[0] != scene.n_points:
        raise DimensionMismatch("reconstruction and ground truth sizes differ")
    align = procrustes_no_scale(recon.structure, scene.points)
    struct_err = align.apply(recon.structure) - scene.points
    struct_rmse = float(np.sqrt((struct_err ** 2).sum(axis=1).mean()))

    rot_err = so3.rotation_angle(align.rotation @ recon.rotations
                                 @ trajectory.rotations.transpose(0, 2, 1))

    T_est = align.apply(recon.positions)
    t_err = T_est - trajectory.T
    trans_rmse = float(np.sqrt((t_err ** 2).sum(axis=1).mean()))
    err_cam = np.einsum("fij,fi->fj", trajectory.rotations, t_err)
    per_axis = np.sqrt((err_cam ** 2).mean(axis=0))

    g_angle = vector_angle(align.rotate(recon.gravity), gravity)
    return ErrorReport(rot_err=rot_err, trans_rmse=trans_rmse,
                       struct_rmse=struct_rmse, gravity_angle_err=g_angle,
                       per_axis_err=per_axis, alignment=align)
