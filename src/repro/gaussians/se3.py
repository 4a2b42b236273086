"""Rigid-body (SE(3)) and rotation math used throughout the SLAM stack.

Camera poses are stored as 4x4 homogeneous matrices mapping *camera-frame*
points to *world-frame* points (camera-to-world, the SLAM convention of
SplaTAM and MonoGS).  The tracker optimizes a local twist ``xi`` in the
tangent space at the current estimate: ``T <- T @ exp(xi)`` for a
right-multiplicative update, which keeps the Jacobians of camera-frame
points simple (see :func:`point_jacobian_wrt_twist`).

Twist layout is ``xi = (rho, phi)`` — translation first, rotation second —
matching the common robotics convention (Barfoot, "State Estimation for
Robotics").
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hat",
    "vee",
    "so3_exp",
    "so3_log",
    "se3_exp",
    "se3_log",
    "se3_inverse",
    "se3_project",
    "quat_to_rotmat",
    "rotmat_to_quat",
    "quat_multiply",
    "quat_normalize",
    "random_rotation",
    "point_jacobian_wrt_twist",
    "apply_se3",
    "relative_pose",
]

_EPS = 1e-12


def hat(phi: np.ndarray) -> np.ndarray:
    """Return the 3x3 skew-symmetric matrix of a 3-vector.

    ``hat(a) @ b == cross(a, b)`` for all 3-vectors ``b``.
    """
    x, y, z = np.asarray(phi, dtype=float)
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


def vee(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hat`: extract the 3-vector from a skew matrix."""
    m = np.asarray(m, dtype=float)
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Rodrigues' formula: map an axis-angle vector to a rotation matrix."""
    phi = np.asarray(phi, dtype=float)
    theta = float(np.linalg.norm(phi))
    K = hat(phi)
    if theta < 1e-8:
        # Second-order Taylor expansion is exact to machine precision here.
        return np.eye(3) + K + 0.5 * (K @ K)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * K + b * (K @ K)


def so3_log(R: np.ndarray) -> np.ndarray:
    """Map a rotation matrix to its axis-angle vector (inverse of exp)."""
    R = np.asarray(R, dtype=float)
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_theta))
    if theta < 1e-8:
        return vee(R - R.T) / 2.0
    if abs(np.pi - theta) < 1e-6:
        # Near pi the standard formula is singular; recover the axis from
        # the symmetric part R + I = 2 (axis axis^T) (1 - cos) / ... .
        B = (R + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diag(B), 0.0))
        # Fix signs using the off-diagonals.
        if B[0, 1] < 0:
            axis[1] = -axis[1]
        if B[0, 2] < 0:
            axis[2] = -axis[2]
        if axis[0] == 0.0 and B[1, 2] < 0:
            axis[2] = -axis[2]
        n = np.linalg.norm(axis)
        if n < _EPS:
            return np.zeros(3)
        return theta * axis / n
    return theta * vee(R - R.T) / (2.0 * np.sin(theta))


def _left_jacobian(phi: np.ndarray) -> np.ndarray:
    """Left Jacobian of SO(3), used by the SE(3) exponential."""
    theta = float(np.linalg.norm(phi))
    K = hat(phi)
    if theta < 1e-8:
        return np.eye(3) + 0.5 * K + (K @ K) / 6.0
    a = (1.0 - np.cos(theta)) / (theta * theta)
    b = (theta - np.sin(theta)) / (theta ** 3)
    return np.eye(3) + a * K + b * (K @ K)


def _left_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(phi))
    K = hat(phi)
    if theta < 1e-8:
        return np.eye(3) - 0.5 * K + (K @ K) / 12.0
    half = theta / 2.0
    cot = 1.0 / np.tan(half)
    b = (1.0 - half * cot) / (theta * theta)
    return np.eye(3) - 0.5 * K + b * (K @ K)


def se3_exp(xi: np.ndarray) -> np.ndarray:
    """Exponential map from a twist ``(rho, phi)`` to a 4x4 transform."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    rho, phi = xi[:3], xi[3:]
    T = np.eye(4)
    T[:3, :3] = so3_exp(phi)
    T[:3, 3] = _left_jacobian(phi) @ rho
    return T


def se3_log(T: np.ndarray) -> np.ndarray:
    """Logarithm map from a 4x4 transform to its twist ``(rho, phi)``."""
    T = np.asarray(T, dtype=float)
    phi = so3_log(T[:3, :3])
    rho = _left_jacobian_inv(phi) @ T[:3, 3]
    return np.concatenate([rho, phi])


def se3_inverse(T: np.ndarray) -> np.ndarray:
    """Invert a rigid transform without a general matrix inverse."""
    T = np.asarray(T, dtype=float)
    R = T[:3, :3]
    out = np.eye(4)
    out[:3, :3] = R.T
    out[:3, 3] = -R.T @ T[:3, 3]
    return out


def se3_project(T: np.ndarray) -> np.ndarray:
    """The rigid transform nearest ``T``: its rotation block put onto
    SO(3) as ``U Vᵀ`` of its SVD (the sign flipped where ``det < 0``) and
    the bottom row set to ``0 0 0 1``.

    :func:`se3_inverse` transposes the rotation block, so a pose chained
    through it (the constant-velocity prior) feeds any drift from
    orthonormality back into itself; projecting after each step stops
    that.
    """
    T = np.asarray(T, dtype=float)
    U, _, Vt = np.linalg.svd(T[:3, :3])
    if np.linalg.det(U @ Vt) < 0.0:
        U[:, -1] = -U[:, -1]
    out = T.copy()
    out[:3, :3] = U @ Vt
    out[3] = (0.0, 0.0, 0.0, 1.0)
    return out


def apply_se3(T: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Transform an (N, 3) array of points by a 4x4 rigid transform."""
    points = np.asarray(points, dtype=float)
    return points @ T[:3, :3].T + T[:3, 3]


def relative_pose(T_a: np.ndarray, T_b: np.ndarray) -> np.ndarray:
    """Return the transform taking frame ``a`` to frame ``b``: ``inv(a) @ b``."""
    return se3_inverse(T_a) @ T_b


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Normalize quaternions (``(..., 4)``, w-x-y-z order) to unit length."""
    q = np.asarray(q, dtype=float)
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    return q / np.maximum(norm, _EPS)


def quat_to_rotmat(q: np.ndarray) -> np.ndarray:
    """Convert unit quaternions ``(..., 4)`` (w, x, y, z) to rotation matrices."""
    q = quat_normalize(q)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1 - 2 * (y * y + z * z)
    R[..., 0, 1] = 2 * (x * y - w * z)
    R[..., 0, 2] = 2 * (x * z + w * y)
    R[..., 1, 0] = 2 * (x * y + w * z)
    R[..., 1, 1] = 1 - 2 * (x * x + z * z)
    R[..., 1, 2] = 2 * (y * z - w * x)
    R[..., 2, 0] = 2 * (x * z - w * y)
    R[..., 2, 1] = 2 * (y * z + w * x)
    R[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def rotmat_to_quat(R: np.ndarray) -> np.ndarray:
    """Convert a single 3x3 rotation matrix to a unit quaternion (w,x,y,z)."""
    R = np.asarray(R, dtype=float)
    trace = np.trace(R)
    if trace > 0.0:
        s = np.sqrt(trace + 1.0) * 2.0
        q = np.array([
            0.25 * s,
            (R[2, 1] - R[1, 2]) / s,
            (R[0, 2] - R[2, 0]) / s,
            (R[1, 0] - R[0, 1]) / s,
        ])
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array([
            (R[2, 1] - R[1, 2]) / s,
            0.25 * s,
            (R[0, 1] + R[1, 0]) / s,
            (R[0, 2] + R[2, 0]) / s,
        ])
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array([
            (R[0, 2] - R[2, 0]) / s,
            (R[0, 1] + R[1, 0]) / s,
            0.25 * s,
            (R[1, 2] + R[2, 1]) / s,
        ])
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array([
            (R[1, 0] - R[0, 1]) / s,
            (R[0, 2] + R[2, 0]) / s,
            (R[1, 2] + R[2, 1]) / s,
            0.25 * s,
        ])
    return quat_normalize(q)


def quat_multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternions in (w, x, y, z) order."""
    w1, x1, y1, z1 = np.moveaxis(np.asarray(q1, dtype=float), -1, 0)
    w2, x2, y2, z2 = np.moveaxis(np.asarray(q2, dtype=float), -1, 0)
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=-1)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Draw a uniformly random rotation matrix (via random quaternion)."""
    q = rng.normal(size=4)
    return quat_to_rotmat(quat_normalize(q))


def point_jacobian_wrt_twist(p_cam: np.ndarray) -> np.ndarray:
    """Jacobian of camera-frame points w.r.t. a right-multiplied twist.

    With pose update ``T_c2w <- T_c2w @ exp(xi)``, a world point ``p_w``
    maps to camera frame as ``p_c = exp(-xi) @ inv(T) @ p_w``, so the
    derivative of ``p_c`` with respect to ``xi`` at ``xi = 0`` is
    ``d p_c / d xi = [-I | hat(p_c)]`` (translation block first).

    Parameters
    ----------
    p_cam:
        ``(N, 3)`` points already expressed in the camera frame.

    Returns
    -------
    ``(N, 3, 6)`` array of Jacobians.
    """
    p_cam = np.asarray(p_cam, dtype=float)
    n = p_cam.shape[0]
    J = np.zeros((n, 3, 6))
    J[:, 0, 0] = -1.0
    J[:, 1, 1] = -1.0
    J[:, 2, 2] = -1.0
    x, y, z = p_cam[:, 0], p_cam[:, 1], p_cam[:, 2]
    # Rotation block: d p_c / d phi = hat(p_c), laid out column by column.
    J[:, 0, 4] = -z
    J[:, 0, 5] = y
    J[:, 1, 3] = z
    J[:, 1, 5] = -x
    J[:, 2, 3] = -y
    J[:, 2, 4] = x
    return J
