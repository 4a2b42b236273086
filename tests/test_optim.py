"""Adam optimizer: convergence and state handling."""

import numpy as np
import pytest

from repro.slam import Adam


class TestAdam:
    def test_converges_on_quadratic(self):
        target = np.array([1.0, -2.0, 0.5])
        x = np.zeros(3)
        opt = Adam(3, lr=0.1)
        for _ in range(300):
            grad = 2 * (x - target)
            x = x + opt.step(grad)
        assert np.allclose(x, target, atol=1e-3)

    def test_step_direction_opposes_gradient(self):
        opt = Adam(4, lr=0.01)
        grad = np.array([1.0, -1.0, 2.0, 0.0])
        step = opt.step(grad)
        assert np.all(step[grad > 0] < 0)
        assert np.all(step[grad < 0] > 0)
        assert step[3] == 0.0

    def test_first_step_magnitude_is_lr(self):
        """Adam's bias correction makes the first step exactly lr-sized."""
        opt = Adam(1, lr=0.05)
        step = opt.step(np.array([123.0]))
        assert np.isclose(abs(step[0]), 0.05, rtol=1e-4)

    def test_per_parameter_lr(self):
        opt = Adam(2, lr=np.array([0.1, 0.001]))
        step = opt.step(np.ones(2))
        assert abs(step[0]) > abs(step[1]) * 50

    def test_shape_mismatch_raises(self):
        opt = Adam(3, lr=0.1)
        with pytest.raises(ValueError):
            opt.step(np.zeros(4))
