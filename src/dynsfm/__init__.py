"""dynsfm: affine structure from motion with inertial measurements.

Simulates a rigid body carrying a camera and an IMU, stacks the affine
image measurements and their derivatives into a rank-four matrix, and
recovers motion, structure and gravity with a closed-form factorization
pipeline. Includes an IMU-only dead-reckoning baseline and a
Procrustes-based evaluation harness.
"""

from .baseline import imu_dead_reckon
from .config import RunConfig, reference_config, reference_noise_config
from .derivatives import (DerivFilter, differentiate_series,
                          differentiate_tracks, euler_omega_dot,
                          omega_dot_series, savgol_filter)
from .evaluate import Alignment, ErrorReport, evaluate, procrustes_no_scale
from .simulate import (DEFAULT_GRAVITY, DEFAULT_INERTIA, Dataset,
                       MeasurementSet, NoiseSpec, Scene, Trajectory,
                       add_noise, generate_scene, generate_trajectory,
                       simulate_dataset, synthesize_images, synthesize_imu,
                       torque_for_trajectory)
from .solver import (Reconstruction, SolverOptions, assemble_C, assemble_W,
                     factor_rank4, reconstruct)

__all__ = [
    "Alignment", "Dataset", "DerivFilter", "ErrorReport",
    "MeasurementSet", "NoiseSpec", "Reconstruction", "RunConfig", "Scene",
    "SolverOptions", "Trajectory", "DEFAULT_GRAVITY", "DEFAULT_INERTIA",
    "add_noise", "assemble_C", "assemble_W", "differentiate_series",
    "differentiate_tracks", "euler_omega_dot", "evaluate", "factor_rank4",
    "generate_scene", "generate_trajectory", "imu_dead_reckon",
    "omega_dot_series", "reference_config", "reference_noise_config",
    "procrustes_no_scale", "reconstruct", "savgol_filter",
    "simulate_dataset", "synthesize_images", "synthesize_imu",
    "torque_for_trajectory",
]

__version__ = "0.1.0"
