"""SE(3)/SO(3) math: exp/log consistency, group laws, and Jacobians."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians import (
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
    se3_log,
    se3_project,
    so3_exp,
    so3_log,
    vee,
)

unit_floats = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def twists(max_angle=np.pi - 0.2):
    return st.lists(unit_floats, min_size=6, max_size=6).map(
        lambda v: np.asarray(v) * np.array([1, 1, 1,
                                            max_angle / np.sqrt(3),
                                            max_angle / np.sqrt(3),
                                            max_angle / np.sqrt(3)]))


class TestHatVee:
    def test_hat_produces_cross_product(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.normal(size=3), rng.normal(size=3)
            assert np.allclose(hat(a) @ b, np.cross(a, b))

    def test_hat_is_skew(self):
        m = hat([1.0, 2.0, 3.0])
        assert np.allclose(m, -m.T)

    @given(st.lists(unit_floats, min_size=3, max_size=3))
    def test_vee_inverts_hat(self, v):
        v = np.asarray(v)
        assert np.allclose(vee(hat(v)), v)


class TestSO3:
    @given(twists())
    @settings(max_examples=50, deadline=None)
    def test_exp_is_rotation(self, xi):
        R = so3_exp(xi[3:])
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-9)
        assert np.isclose(np.linalg.det(R), 1.0)

    @given(twists())
    @settings(max_examples=50, deadline=None)
    def test_log_inverts_exp(self, xi):
        phi = xi[3:]
        assert np.allclose(so3_log(so3_exp(phi)), phi, atol=1e-6)

    def test_exp_zero_is_identity(self):
        assert np.allclose(so3_exp(np.zeros(3)), np.eye(3))

    def test_log_identity_is_zero(self):
        assert np.allclose(so3_log(np.eye(3)), np.zeros(3))

    def test_log_near_pi(self):
        phi = np.array([np.pi - 1e-8, 0.0, 0.0])
        recovered = so3_log(so3_exp(phi))
        assert np.isclose(np.linalg.norm(recovered), np.pi, atol=1e-5)

    def test_small_angle_taylor(self):
        phi = np.array([1e-10, -2e-10, 1e-10])
        assert np.allclose(so3_exp(phi), np.eye(3) + hat(phi), atol=1e-15)


class TestSE3:
    @given(twists())
    @settings(max_examples=50, deadline=None)
    def test_log_inverts_exp(self, xi):
        assert np.allclose(se3_log(se3_exp(xi)), xi, atol=1e-6)

    @given(twists())
    @settings(max_examples=50, deadline=None)
    def test_inverse(self, xi):
        T = se3_exp(xi)
        assert np.allclose(T @ se3_inverse(T), np.eye(4), atol=1e-9)

    def test_inverse_matches_numpy(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            T = se3_exp(rng.normal(0, 0.5, 6))
            assert np.allclose(se3_inverse(T), np.linalg.inv(T))

    def test_exp_is_homogeneous(self):
        T = se3_exp(np.array([0.1, 0.2, 0.3, 0.01, 0.02, 0.03]))
        assert np.allclose(T[3], [0, 0, 0, 1])

    def test_relative_pose(self):
        rng = np.random.default_rng(2)
        a = se3_exp(rng.normal(0, 0.3, 6))
        b = se3_exp(rng.normal(0, 0.3, 6))
        assert np.allclose(a @ relative_pose(a, b), b)

    def test_apply_se3_matches_matmul(self):
        rng = np.random.default_rng(3)
        T = se3_exp(rng.normal(0, 0.4, 6))
        pts = rng.normal(size=(17, 3))
        expected = (T[:3, :3] @ pts.T).T + T[:3, 3]
        assert np.allclose(apply_se3(T, pts), expected)


class TestProject:
    @staticmethod
    def assert_rigid(T):
        R = T[:3, :3]
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-14
        assert np.linalg.det(R) > 0.0
        assert np.array_equal(T[3], [0.0, 0.0, 0.0, 1.0])

    @given(twists())
    @settings(max_examples=50, deadline=None)
    def test_rigid_input_barely_moves(self, xi):
        T = se3_exp(xi)
        P = se3_project(T)
        self.assert_rigid(P)
        assert np.abs(P - T).max() < 1e-14

    def test_drifted_rotation_returns_to_so3(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            T = se3_exp(rng.normal(0, 0.5, 6))
            drifted = T.copy()
            drifted[:3, :3] *= 1.0 + rng.normal(0, 0.05, (3, 3))
            drifted[3] = [1e-3, 0.0, 0.0, 1.0]
            P = se3_project(drifted)
            self.assert_rigid(P)
            assert np.array_equal(P[:3, 3], T[:3, 3])
            assert np.abs(P[:3, :3] - T[:3, :3]).max() < 0.2

    def test_reflection_becomes_a_rotation(self):
        T = np.diag([1.0, 1.0, -1.0, 1.0])
        self.assert_rigid(se3_project(T))


class TestQuaternions:
    @given(st.lists(unit_floats, min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_normalize_unit(self, q):
        q = np.asarray(q)
        if np.linalg.norm(q) < 1e-3:
            return
        assert np.isclose(np.linalg.norm(quat_normalize(q)), 1.0)

    def test_roundtrip_rotmat(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            R = random_rotation(rng)
            q = rotmat_to_quat(R)
            assert np.allclose(quat_to_rotmat(q), R, atol=1e-9)

    def test_multiply_matches_rotation_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            q1 = quat_normalize(rng.normal(size=4))
            q2 = quat_normalize(rng.normal(size=4))
            R = quat_to_rotmat(quat_multiply(q1, q2))
            assert np.allclose(R, quat_to_rotmat(q1) @ quat_to_rotmat(q2),
                               atol=1e-9)

    def test_identity_quaternion(self):
        assert np.allclose(quat_to_rotmat(np.array([1.0, 0, 0, 0])), np.eye(3))


class TestTwistJacobian:
    def test_matches_numerical(self):
        rng = np.random.default_rng(6)
        T = se3_exp(rng.normal(0, 0.3, 6))
        p_world = rng.normal(size=(5, 3)) + np.array([0, 0, 3.0])
        w2c = se3_inverse(T)
        p_cam = apply_se3(w2c, p_world)
        J = point_jacobian_wrt_twist(p_cam)
        eps = 1e-7
        for j in range(6):
            xi = np.zeros(6)
            xi[j] = eps
            p_plus = apply_se3(se3_inverse(T @ se3_exp(xi)), p_world)
            p_minus = apply_se3(se3_inverse(T @ se3_exp(-xi)), p_world)
            num = (p_plus - p_minus) / (2 * eps)
            assert np.allclose(J[:, :, j], num, atol=1e-5)

    def test_shape(self):
        J = point_jacobian_wrt_twist(np.zeros((7, 3)))
        assert J.shape == (7, 3, 6)

    def test_translation_block_is_minus_identity(self):
        J = point_jacobian_wrt_twist(np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(J[0, :, :3], -np.eye(3))
