"""Shared fixtures."""

import pytest

from repro.render.kernels import vectorized

#: ``vectorized.WALK_MIN_PIXELS`` values that force each branch of
#: ``vectorized.slot_scan`` on every block, whatever its pixel count.
SCAN_BRANCHES = {"walk": 0, "accumulate": 1 << 62}


@pytest.fixture(scope="class", params=sorted(SCAN_BRANCHES))
def scan_branch(request):
    """Run a whole test class with one of ``slot_scan``'s two branches
    forced.  Class-scoped (not ``monkeypatch``) so that hypothesis tests
    can use it."""
    saved = vectorized.WALK_MIN_PIXELS
    vectorized.WALK_MIN_PIXELS = SCAN_BRANCHES[request.param]
    yield request.param
    vectorized.WALK_MIN_PIXELS = saved
