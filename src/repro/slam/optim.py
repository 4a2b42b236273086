"""A small Adam optimizer for flat parameter vectors.

Mapping (the packed Gaussian parameters) is a first-order optimization,
matching the Adam-based training loops of the 3DGS-SLAM systems the paper
builds on; tracking's 6-vector twist uses BFGS instead (``tracker.py``).
``lr`` may be a scalar or a per-parameter array, which is how the mapper
gives means/scales/opacities/colors their own learning rates.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Adam (Kingma & Ba) on a flat numpy parameter vector."""

    def __init__(self, size: int, lr, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = np.broadcast_to(np.asarray(lr, dtype=float), (size,)).copy()
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, grad: np.ndarray) -> np.ndarray:
        """Return the parameter *update* (to be added) for this gradient."""
        grad = np.asarray(grad, dtype=float)
        if grad.shape != self.m.shape:
            raise ValueError(
                f"gradient shape {grad.shape} != state shape {self.m.shape}")
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1 ** self.t)
        v_hat = self.v / (1.0 - self.beta2 ** self.t)
        return -self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
