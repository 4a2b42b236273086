"""SPLATONIC's primary contribution: adaptive sparse pixel sampling and the
pixel-based rendering pipeline (Sec. IV), plus the high-level facade."""

from .foveated import foveation_tile_map, sample_foveated_pixels
from .features import (
    harris_response,
    sobel_gradients,
    sobel_magnitude,
    to_grayscale,
)
from .pixel_pipeline import (
    SparseRenderResult,
    backward_sparse,
    render_sparse,
)
from .sampling import (
    MAPPING_TILE,
    TRACKING_TILE,
    UNSEEN_TRANSMITTANCE,
    MappingSamples,
    sample_mapping_pixels,
    sample_tracking_pixels,
    tile_origins,
    unseen_mask,
)
from .splatonic import Splatonic, SplatonicConfig

__all__ = [
    "foveation_tile_map",
    "sample_foveated_pixels",
    "harris_response",
    "sobel_gradients",
    "sobel_magnitude",
    "to_grayscale",
    "SparseRenderResult",
    "render_sparse",
    "backward_sparse",
    "MAPPING_TILE",
    "TRACKING_TILE",
    "UNSEEN_TRANSMITTANCE",
    "MappingSamples",
    "sample_mapping_pixels",
    "sample_tracking_pixels",
    "tile_origins",
    "unseen_mask",
    "Splatonic",
    "SplatonicConfig",
]
