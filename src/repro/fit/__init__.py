"""General multi-view 3DGS scene fitting (isotropic and anisotropic)."""

from .trainer import FitResult, SceneFitter

__all__ = ["FitResult", "SceneFitter"]
