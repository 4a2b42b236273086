"""Pinhole camera model.

The camera pose is camera-to-world (``T_c2w``); :meth:`Camera.world_to_camera`
applies the inverse.  Image coordinates follow the usual computer-vision
convention: ``u`` grows rightwards (columns), ``v`` grows downwards (rows),
and the pixel centre of column ``u`` / row ``v`` is at ``(u + 0.5, v + 0.5)``
in continuous coordinates.  The camera looks down its +z axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .se3 import se3_inverse

__all__ = ["Intrinsics", "Camera"]


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics for an image of ``width`` x ``height`` pixels."""

    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    @classmethod
    def from_fov(cls, width: int, height: int, fov_x_deg: float = 70.0) -> "Intrinsics":
        """Build intrinsics from a horizontal field of view in degrees."""
        fov = np.deg2rad(fov_x_deg)
        fx = width / (2.0 * np.tan(fov / 2.0))
        return cls(width=width, height=height, fx=fx, fy=fx,
                   cx=width / 2.0, cy=height / 2.0)

    @property
    def matrix(self) -> np.ndarray:
        """The 3x3 calibration matrix K."""
        return np.array([
            [self.fx, 0.0, self.cx],
            [0.0, self.fy, self.cy],
            [0.0, 0.0, 1.0],
        ])

    def scaled(self, factor: float) -> "Intrinsics":
        """Return intrinsics for an image resized by ``factor``.

        Used by the low-resolution sampling baseline (Fig. 10).
        """
        return Intrinsics(
            width=max(1, int(round(self.width * factor))),
            height=max(1, int(round(self.height * factor))),
            fx=self.fx * factor,
            fy=self.fy * factor,
            cx=self.cx * factor,
            cy=self.cy * factor,
        )

    def check_pixels(self, pixels: np.ndarray) -> None:
        """Raise ``ValueError`` naming the first row of the integer
        ``(K, 2)`` ``(u, v)`` array ``pixels`` that lies outside the image.

        One unsigned compare checks every coordinate: a negative one wraps
        to a value past any image edge.  The rows are looked at only when
        it fails."""
        inside = pixels.astype(np.uint64) < np.array(
            [self.width, self.height], np.uint64)
        if not inside.all():
            u, v = pixels[int(np.argmin(inside.all(axis=1)))]
            raise ValueError(f"pixel ({u}, {v}) lies outside the "
                             f"{self.width}x{self.height} image")

    def project(self, p_cam: np.ndarray) -> np.ndarray:
        """Project camera-frame points ``(N, 3)`` to pixel coordinates ``(N, 2)``.

        No clipping is performed; callers must cull points behind the camera.
        """
        p_cam = np.asarray(p_cam, dtype=float)
        z = p_cam[:, 2]
        u = self.fx * p_cam[:, 0] / z + self.cx
        v = self.fy * p_cam[:, 1] / z + self.cy
        return np.stack([u, v], axis=-1)

    def backproject(self, pixels: np.ndarray, depth: np.ndarray) -> np.ndarray:
        """Lift pixel coordinates ``(N, 2)`` with depths ``(N,)`` to camera frame."""
        pixels = np.asarray(pixels, dtype=float)
        depth = np.asarray(depth, dtype=float)
        x = (pixels[:, 0] - self.cx) / self.fx * depth
        y = (pixels[:, 1] - self.cy) / self.fy * depth
        return np.stack([x, y, depth], axis=-1)

    def pixel_grid(self) -> np.ndarray:
        """Return ``(H, W, 2)`` continuous coordinates of all pixel centres."""
        us = np.arange(self.width) + 0.5
        vs = np.arange(self.height) + 0.5
        uu, vv = np.meshgrid(us, vs)
        return np.stack([uu, vv], axis=-1)


@dataclass
class Camera:
    """A posed pinhole camera: intrinsics plus a camera-to-world transform."""

    intrinsics: Intrinsics
    pose_c2w: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self) -> None:
        self.pose_c2w = np.asarray(self.pose_c2w, dtype=float)
        if self.pose_c2w.shape != (4, 4):
            raise ValueError("pose must be a 4x4 matrix")

    @property
    def pose_w2c(self) -> np.ndarray:
        return se3_inverse(self.pose_c2w)

    @property
    def position(self) -> np.ndarray:
        """Camera centre in world coordinates."""
        return self.pose_c2w[:3, 3].copy()

    def world_to_camera(self, p_world: np.ndarray) -> np.ndarray:
        """Map world points ``(N, 3)`` into the camera frame."""
        p_world = np.asarray(p_world, dtype=float)
        w2c = self.pose_w2c
        return p_world @ w2c[:3, :3].T + w2c[:3, 3]

    def with_pose(self, pose_c2w: np.ndarray) -> "Camera":
        """Return a copy of this camera at a different pose."""
        return replace(self, pose_c2w=np.asarray(pose_c2w, dtype=float).copy())

    def copy(self) -> "Camera":
        return self.with_pose(self.pose_c2w)
