"""Host-speed calibration.

The shared host this benchmark runs on gives a process anywhere from its
full speed to about half of it.  The share changes within seconds and
drifts over minutes as other tenants' load comes and goes.  Every repeat
of a workload does the same work bit for bit, so that drift is the main
source of spread between invocations.

:func:`sample` times a fixed unit of work that is frozen here, outside the
program, and resembles the program's hottest code: front-to-back
compositing, once over a few pixels (the reference kernel's per-pixel
calls: many numpy calls on arrays of a few dozen elements) and once over a
16x16 tile (the tile pipeline's calls on arrays of thousands).  The two
slow down by different amounts when the host is busy, and so do the
program's sparse and tile paths; the unit spends about half its time in
each.  Units timed around a call, and inside it at probe sites, measure
how fast the host was during that call; :func:`slowdown` turns them into
the factor by which the call's time is divided, so the benchmark reports
times at the reference host speed.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

import numpy as np

__all__ = ["REFERENCE_UNIT_S", "sample", "slowdown"]

#: The unit's time at the reference host speed: about the fastest the
#: 2-core VM the benchmark was defined on ran it.
REFERENCE_UNIT_S = 1.9e-3

_RNG = np.random.default_rng(0)


def _scene(pixels: int, candidates: int, extent: float):
    pix = _RNG.random((pixels, 2)) * extent
    means = _RNG.random((candidates, 2)) * extent
    inv_2var = 1.0 / (2.0 * (0.5 + _RNG.random(candidates)) ** 2)
    return pix, means, inv_2var, _RNG.random(candidates), np.ones((pixels, 1))


_PIXEL = _scene(4, 24, 8.0)
_TILE = _scene(256, 48, 16.0)


def _composite(pix, means, inv_2var, opacity, ones) -> None:
    """The α and transmittance arithmetic of front-to-back compositing."""
    du = pix[:, 0:1] - means[None, :, 0]
    dv = pix[:, 1:2] - means[None, :, 1]
    g = np.exp(-(du * du + dv * dv) * inv_2var[None, :])
    alpha = np.minimum(opacity[None, :] * g, 0.99)
    alpha = np.where(alpha >= 1.0 / 255.0, alpha, 0.0)
    gamma = np.cumprod(1.0 - alpha, axis=1)
    np.concatenate([ones, gamma[:, :-1]], axis=1)


def _unit() -> None:
    for _ in range(50):
        _composite(*_PIXEL)
    for _ in range(3):
        _composite(*_TILE)


def sample(seconds: float) -> List[float]:
    """Times (s) of back-to-back calibration units over ``seconds``."""
    times = []
    end = perf_counter() + seconds
    while True:
        start = perf_counter()
        _unit()
        stop = perf_counter()
        times.append(stop - start)
        if stop >= end:
            return times


def slowdown(units: List[float]) -> float:
    """How many times slower than the reference speed the host ran the
    calibration ``units``."""
    return statistics.median(units) / REFERENCE_UNIT_S
