"""What is left of the deleted temporal-coherence render cache.

Every sparse render now takes one path (projection, the compiled
candidate cull, falloff, composite).  This module survives only because
the benchmark's layer table still imports :class:`RenderCache` and patches
``RenderCache.project_and_candidates`` and this module's
``candidate_pairs``; the benchmark change that drops the ``render.cache``
layer (ROADMAP item 4) deletes it.
"""

from .kernels.candidates import candidate_pairs  # noqa: F401


class RenderCache:
    def project_and_candidates(self, *args, **kwargs):
        raise RuntimeError("the render cache was deleted")
