"""Geometric substrate: rigid-body math, cameras, and the Gaussian map."""

from .camera import Camera, Intrinsics
from .covariance import build_covariance, covariance_gradients
from .init import seed_from_rgbd
from .model import GaussianCloud, inverse_sigmoid, sigmoid
from .se3 import (
    apply_se3,
    hat,
    point_jacobian_wrt_twist,
    quat_multiply,
    quat_normalize,
    quat_to_rotmat,
    random_rotation,
    relative_pose,
    rotmat_to_quat,
    se3_exp,
    se3_inverse,
    se3_project,
    se3_log,
    so3_exp,
    so3_log,
    vee,
)

__all__ = [
    "Camera",
    "Intrinsics",
    "build_covariance",
    "covariance_gradients",
    "GaussianCloud",
    "seed_from_rgbd",
    "sigmoid",
    "inverse_sigmoid",
    "apply_se3",
    "hat",
    "vee",
    "so3_exp",
    "so3_log",
    "se3_exp",
    "se3_log",
    "se3_inverse",
    "se3_project",
    "relative_pose",
    "point_jacobian_wrt_twist",
    "quat_to_rotmat",
    "rotmat_to_quat",
    "quat_multiply",
    "quat_normalize",
    "random_rotation",
]
