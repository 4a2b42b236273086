"""The Gaussian map representation.

:class:`GaussianCloud` is a struct-of-arrays container for the trainable
scene parameters.  Following SplaTAM, Gaussians are *isotropic*: each has a
single log-scale, which makes the analytic gradients of the differentiable
rasterizer tractable while preserving the workload structure (the
performance models only care about pixel-Gaussian intersection counts, not
about covariance anisotropy).

Parameterization (all trainable):

- ``means``       ``(N, 3)`` world-space centres,
- ``log_scales``  ``(N,)``   ``scale = exp(log_scale)`` (metres),
- ``logit_opacities`` ``(N,)`` ``opacity = sigmoid(logit)``,
- ``colors``      ``(N, 3)`` RGB in [0, 1] (clamped at render time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GaussianCloud", "FrozenCloud", "sigmoid", "inverse_sigmoid"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic function."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def inverse_sigmoid(p: np.ndarray) -> np.ndarray:
    """Logit of ``p``; clipped away from {0, 1} for stability."""
    p = np.clip(np.asarray(p, dtype=float), 1e-6, 1.0 - 1e-6)
    return np.log(p / (1.0 - p))


@dataclass
class GaussianCloud:
    """Struct-of-arrays container for an isotropic 3D Gaussian scene."""

    means: np.ndarray
    log_scales: np.ndarray
    logit_opacities: np.ndarray
    colors: np.ndarray

    def __post_init__(self) -> None:
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.log_scales = np.atleast_1d(np.asarray(self.log_scales, dtype=float))
        self.logit_opacities = np.atleast_1d(
            np.asarray(self.logit_opacities, dtype=float))
        self.colors = np.atleast_2d(np.asarray(self.colors, dtype=float))
        n = self.means.shape[0]
        if self.means.shape != (n, 3):
            raise ValueError("means must have shape (N, 3)")
        if self.log_scales.shape != (n,):
            raise ValueError("log_scales must have shape (N,)")
        if self.logit_opacities.shape != (n,):
            raise ValueError("logit_opacities must have shape (N,)")
        if self.colors.shape != (n, 3):
            raise ValueError("colors must have shape (N, 3)")

    def __len__(self) -> int:
        return self.means.shape[0]

    @classmethod
    def empty(cls) -> "GaussianCloud":
        return cls(
            means=np.zeros((0, 3)),
            log_scales=np.zeros((0,)),
            logit_opacities=np.zeros((0,)),
            colors=np.zeros((0, 3)),
        )

    @classmethod
    def create(
        cls,
        means: np.ndarray,
        scales: np.ndarray,
        opacities: np.ndarray,
        colors: np.ndarray,
    ) -> "GaussianCloud":
        """Construct from *natural* parameters (scales, opacities in [0,1])."""
        scales = np.atleast_1d(np.asarray(scales, dtype=float))
        return cls(
            means=means,
            log_scales=np.log(np.maximum(scales, 1e-8)),
            logit_opacities=inverse_sigmoid(opacities),
            colors=colors,
        )

    @property
    def scales(self) -> np.ndarray:
        """Scales in metres: ``exp(log_scales)``."""
        return np.exp(self.log_scales)

    @property
    def opacities(self) -> np.ndarray:
        """Opacities in (0, 1): ``sigmoid(logit_opacities)``."""
        return sigmoid(self.logit_opacities)

    def copy(self) -> "GaussianCloud":
        return GaussianCloud(
            means=self.means.copy(),
            log_scales=self.log_scales.copy(),
            logit_opacities=self.logit_opacities.copy(),
            colors=self.colors.copy(),
        )

    def subset(self, index: np.ndarray) -> "GaussianCloud":
        """Return a new cloud containing only the indexed Gaussians."""
        return GaussianCloud(
            means=self.means[index],
            log_scales=self.log_scales[index],
            logit_opacities=self.logit_opacities[index],
            colors=self.colors[index],
        )

    def extend(self, other: "GaussianCloud") -> "GaussianCloud":
        """Return a new cloud with ``other``'s Gaussians appended."""
        return GaussianCloud(
            means=np.concatenate([self.means, other.means], axis=0),
            log_scales=np.concatenate([self.log_scales, other.log_scales]),
            logit_opacities=np.concatenate(
                [self.logit_opacities, other.logit_opacities]),
            colors=np.concatenate([self.colors, other.colors], axis=0),
        )

    def prune(self, keep: np.ndarray) -> "GaussianCloud":
        """Alias of :meth:`subset` with a boolean mask, reading as intent."""
        keep = np.asarray(keep, dtype=bool)
        return self.subset(np.nonzero(keep)[0])

    # ---- flat parameter vector interface (used by the optimizers) ----

    PARAM_KEYS = ("means", "log_scales", "logit_opacities", "colors")

    def pack(self) -> np.ndarray:
        """Flatten all trainable parameters into a single vector."""
        return np.concatenate([
            self.means.ravel(),
            self.log_scales,
            self.logit_opacities,
            self.colors.ravel(),
        ])

    def unpack(self, vector: np.ndarray) -> "GaussianCloud":
        """Inverse of :meth:`pack` with this cloud's shapes."""
        n = len(self)
        vector = np.asarray(vector, dtype=float)
        expected = 3 * n + n + n + 3 * n
        if vector.shape != (expected,):
            raise ValueError(
                f"parameter vector has {vector.shape}, expected ({expected},)")
        means = vector[:3 * n].reshape(n, 3)
        log_scales = vector[3 * n:4 * n]
        logit_opacities = vector[4 * n:5 * n]
        colors = vector[5 * n:].reshape(n, 3)
        return GaussianCloud(means, log_scales, logit_opacities, colors)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


class FrozenCloud(GaussianCloud):
    """A read-only snapshot of a cloud with its derived parameters computed
    once.

    Tracking holds the map fixed for a whole pose optimization, so its
    renders read ``scales`` and ``opacities`` from here instead of
    re-evaluating ``exp`` and ``sigmoid`` over the whole cloud on every
    iteration.  Every array is a non-writeable view: the snapshot is
    valid only while nobody writes the cloud it was taken from.  The
    cloud-building methods (``copy``, ``subset``, ``extend``, ``unpack``)
    return ordinary, writeable clouds.
    """

    def __init__(self, cloud: GaussianCloud):
        super().__init__(*(_read_only(getattr(cloud, key))
                           for key in self.PARAM_KEYS))
        self._scales = _read_only(cloud.scales)
        self._opacities = _read_only(cloud.opacities)

    @property
    def scales(self) -> np.ndarray:
        return self._scales

    @property
    def opacities(self) -> np.ndarray:
        return self._opacities
