"""The padded oracle's ``slot_scan``: both branches give numpy's
sequential scans bit for bit (``cumsum``, ``cumprod``, flip-``cumsum``
down axis 0)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from .padded_oracle import same_bits, slot_scan

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 1e-16, -1e16]
ELEMENTS = st.one_of(st.sampled_from(SPECIAL),
                     st.floats(-1e6, 1e6, allow_subnormal=True))
# Sequential and pairwise sums of one column differ here: 1 + 1e-16 rounds
# back to 1.0 fifteen times, while eight partial sums do not.  A total
# taken with np.add.reduce (pairwise when the reduced axis is innermost,
# as for K = 1) fails on it.
PAIRWISE_TRAP = np.array([1.0] + [1e-16] * 15)[:, None]


@pytest.mark.usefixtures("scan_branch")
class TestSlotScan:
    @given(x=arrays(np.float64, array_shapes(min_dims=2, max_dims=2,
                                             min_side=1, max_side=20),
                    elements=ELEMENTS),
           stride=st.sampled_from(["contiguous", "flipped slots",
                                   "flipped lanes"]))
    @example(x=PAIRWISE_TRAP, stride="contiguous")
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy(self, x, stride):
        if stride == "flipped slots":
            x = x[::-1]
        elif stride == "flipped lanes":
            x = x[:, ::-1]
        with np.errstate(all="ignore"):
            assert same_bits(slot_scan(np.add, x), np.cumsum(x, axis=0))
            assert same_bits(slot_scan(np.multiply, x),
                             np.cumprod(x, axis=0))
            assert same_bits(slot_scan(np.add, x, reverse=True),
                             np.flip(np.cumsum(np.flip(x, axis=0), axis=0),
                                     axis=0))
            assert same_bits(slot_scan(np.add, x, total=True),
                             np.cumsum(x, axis=0)[-1])

    def test_total_is_sequential(self):
        total = slot_scan(np.add, PAIRWISE_TRAP, total=True)
        assert total.shape == (1,) and total[0] == 1.0
        assert np.add.reduce(PAIRWISE_TRAP, axis=0)[0] != 1.0
