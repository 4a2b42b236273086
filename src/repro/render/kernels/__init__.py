"""Sparse-rendering kernels (pixel pipeline, Sec. IV-B/V).

The pixel pipeline's sort + composite + backward stages run on one
production kernel, with a per-pixel oracle kept beside it for tests:

- ``"vectorized"`` — the production kernel (:data:`DEFAULT_BACKEND`):
  batched segmented stages over a flattened CSR-style (pixel, Gaussian)
  pair list.  One global ``np.lexsort`` replaces the per-pixel depth
  sorts, a ragged-to-padded ``cumprod`` computes every pixel's
  transmittance prefix at once, and the backward pass produces all pair
  gradients in one shot before a single ``np.add.at`` aggregation (the
  scoreboard/merge-unit analogue).
- ``"reference"`` — the original per-pixel Python loop: one
  :func:`composite_forward` / :func:`composite_backward` call per sampled
  pixel; slow, but trivially auditable.  It is the oracle the vectorized
  kernel must match bit for bit (outputs, gradients and every
  ``PipelineStats`` counter); only tests and the ``kernels`` bench
  scenario select it, by name.

Both consume the same candidate pair list
(:mod:`repro.render.kernels.candidates`) and the same preemptive-α filter
run by :func:`repro.core.pixel_pipeline.render_sparse`, so candidate /
α-check / sort-key counters are shared by construction; the equivalence
suite (``tests/test_kernel_backends.py``) pins down the rest.  The small
registry below is the seam through which the oracle is selected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

__all__ = [
    "DEFAULT_BACKEND",
    "KernelBackend",
    "available_backends",
    "get_kernel",
    "register_kernel",
    "resolve_backend",
]

#: Backend used when the caller names none: the production kernel.
DEFAULT_BACKEND = "vectorized"


@dataclass(frozen=True)
class KernelBackend:
    """One registered sparse-kernel implementation."""

    name: str
    description: str
    forward: Callable
    backward: Callable
    # Whether forward() requires the candidate pairs in pixel-major CSR
    # order.  A backend that globally re-sorts the pairs itself (the
    # vectorized lexsort) sets this False and skips the reorder pass.
    needs_pixel_major_pairs: bool = True
    # Whether forward() consumes the flat per-pair α / clipped arrays the
    # pipeline's α stage computed (so the kernel need not re-evaluate the
    # Gaussian falloff).  The reference loop recomputes inside
    # composite_forward — that's the point of an oracle.
    wants_pair_alpha: bool = False


_REGISTRY: Dict[str, KernelBackend] = {}


def register_kernel(backend: KernelBackend) -> KernelBackend:
    """Register (or replace) a kernel backend under ``backend.name``."""
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> Tuple[str, ...]:
    """Names of the registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_backend(name=None) -> str:
    """Resolve a backend name: explicit arg, else :data:`DEFAULT_BACKEND`."""
    resolved = name or DEFAULT_BACKEND
    if resolved not in _REGISTRY:
        raise ValueError(
            f"unknown kernel backend {resolved!r}; "
            f"available: {', '.join(available_backends())}")
    return resolved


def get_kernel(name=None) -> KernelBackend:
    """Return the :class:`KernelBackend` for ``name`` (after resolution)."""
    return _REGISTRY[resolve_backend(name)]


# Importing the implementations registers them.
from . import reference as _reference  # noqa: E402,F401
from . import vectorized as _vectorized  # noqa: E402,F401
