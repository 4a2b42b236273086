"""Absolute trajectory error (ATE) with Umeyama alignment.

The standard SLAM pose-accuracy metric (Sturm et al., IROS 2012): align
the estimated trajectory to the ground truth with the best-fit rigid (or
similarity) transform, then report the RMSE of the residual translations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

__all__ = ["umeyama_alignment", "ate_rmse", "AteResult"]


@dataclass(frozen=True)
class AteResult:
    """ATE summary statistics, all in metres."""

    rmse: float
    mean: float
    median: float
    max: float
    #: Per-frame translation error the statistics summarise.
    per_frame: Tuple[float, ...] = field(repr=False)


def umeyama_alignment(source: np.ndarray, target: np.ndarray,
                      with_scale: bool = False):
    """Best-fit transform aligning ``source`` points onto ``target``.

    Returns ``(R, t, s)`` with ``target ~= s * R @ source + t`` in the
    least-squares sense (Umeyama 1991).  ``with_scale=False`` fixes s = 1
    (rigid alignment, the SLAM convention for RGB-D trajectories).
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if source.shape != target.shape or source.ndim != 2 or source.shape[1] != 3:
        raise ValueError("expected matching (N, 3) point sets")
    n = source.shape[0]
    if n < 3:
        raise ValueError("need at least 3 poses to align")

    mu_s = source.mean(axis=0)
    mu_t = target.mean(axis=0)
    xs = source - mu_s
    xt = target - mu_t
    cov = xt.T @ xs / n
    U, D, Vt = np.linalg.svd(cov)
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    if with_scale:
        var_s = (xs ** 2).sum() / n
        s = float(np.trace(np.diag(D) @ S) / var_s)
    else:
        s = 1.0
    t = mu_t - s * R @ mu_s
    return R, t, s


def ate_rmse(estimated: np.ndarray, ground_truth: np.ndarray,
             align: bool = True, with_scale: bool = False) -> AteResult:
    """ATE of estimated camera centres vs ground truth.

    Both inputs are ``(N, 3)`` positions or ``(N, 4, 4)`` pose arrays.
    """
    est = _positions(estimated)
    gt = _positions(ground_truth)
    if align:
        R, t, s = umeyama_alignment(est, gt, with_scale=with_scale)
        est = s * est @ R.T + t
    err = np.linalg.norm(est - gt, axis=1)
    return AteResult(
        rmse=float(np.sqrt(np.mean(err ** 2))),
        mean=float(err.mean()),
        median=float(np.median(err)),
        max=float(err.max()),
        per_frame=tuple(float(e) for e in err),
    )


def _positions(traj: np.ndarray) -> np.ndarray:
    traj = np.asarray(traj, dtype=float)
    if traj.ndim == 3 and traj.shape[1:] == (4, 4):
        return traj[:, :3, 3]
    if traj.ndim == 2 and traj.shape[1] == 3:
        return traj
    raise ValueError("trajectory must be (N, 3) positions or (N, 4, 4) poses")
