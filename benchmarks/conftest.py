"""Shared fixtures for the figure-reproduction benchmarks.

The expensive artifact (the probe map: a short sequence mapped at its
ground-truth poses, with the probe camera at a true pose) is built once
per session; individual benches only measure workloads on it, evaluate
their models and print the figure's rows.
"""

import pytest

from repro.bench import build_bundle


@pytest.fixture(scope="session")
def bundle():
    """The default proxy scenario (room0, 96x64, SplaTAM sparse mapper)."""
    return build_bundle()
