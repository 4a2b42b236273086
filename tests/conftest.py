"""Shared fixtures."""

import pytest

from .padded_oracle import shadow_engine

#: ``padded_oracle.WALK_MIN_PIXELS`` values that force each branch of
#: ``padded_oracle.slot_scan`` on every call, whatever its pixel count.
SCAN_BRANCHES = {"walk": 0, "accumulate": 1 << 62}


@pytest.fixture(scope="class", params=sorted(SCAN_BRANCHES))
def scan_branch(request):
    """Run a whole test class with every compiled composite and reverse
    pass checked bit for bit against the slot-major padded numpy oracle
    (``tests/padded_oracle.py``), one of ``slot_scan``'s two branches
    forced.  Class-scoped (not ``monkeypatch``) so that hypothesis tests
    can use it."""
    with shadow_engine(SCAN_BRANCHES[request.param]):
        yield request.param
