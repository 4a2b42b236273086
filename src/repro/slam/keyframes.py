"""Keyframe bookkeeping for the mapper.

Mapping fine-tunes the map against a window of ``w`` recent keyframes
(Sec. II-A).  The buffer keeps every ``keyframe_every``-th frame plus the
first frame (which anchors the global reference), and serves a window of
them for each mapping invocation — the current frame is always included.

The window is chosen by recency alone (:meth:`KeyframeBuffer.select`):
the most recent ``window`` keyframes, the anchor and the current frame,
the paper's setting (Sec. VII-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.features import sobel_magnitude

__all__ = ["Keyframe", "KeyframeBuffer"]


@dataclass
class Keyframe:
    """A stored observation with its estimated pose."""

    index: int
    pose_c2w: np.ndarray
    color: np.ndarray
    depth: np.ndarray
    # Lazily memoized Sobel texture-weight map of ``color``.  Keyframe
    # colors never change, but the mapper re-samples every window
    # keyframe on every invocation — without the cache it recomputes the
    # same filter response each time.  Excluded from equality/repr.
    _texture_weight: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False)

    def texture_weight(self) -> np.ndarray:
        """``(H, W)`` Sobel magnitude of ``color``, computed once."""
        if self._texture_weight is None:
            self._texture_weight = sobel_magnitude(self.color)
        return self._texture_weight


class KeyframeBuffer:
    """Fixed-cadence keyframe store with a recency window."""

    def __init__(self, keyframe_every: int, window: int):
        if keyframe_every <= 0 or window <= 0:
            raise ValueError("cadence and window must be positive")
        self.keyframe_every = keyframe_every
        self.window = window
        self._keyframes: List[Keyframe] = []

    def __len__(self) -> int:
        return len(self._keyframes)

    def maybe_add(self, index: int, pose_c2w: np.ndarray,
                  color: np.ndarray, depth: np.ndarray) -> bool:
        """Store the frame if it falls on the keyframe cadence."""
        if index % self.keyframe_every != 0:
            return False
        self._keyframes.append(Keyframe(
            index=index,
            pose_c2w=np.asarray(pose_c2w, float).copy(),
            color=color,
            depth=depth,
        ))
        return True

    def select(self, current: Keyframe) -> List[Keyframe]:
        """Keyframes for one mapping call: current + recent window + anchor."""
        recent = self._keyframes[-self.window:]
        chosen = list(recent)
        if self._keyframes and self._keyframes[0] not in chosen:
            chosen.insert(0, self._keyframes[0])
        if all(kf.index != current.index for kf in chosen):
            chosen.append(current)
        return chosen
