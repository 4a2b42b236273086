"""The aggregation scatter is ``np.add.at`` onto zeros, bit for bit
(NaN payloads aside).

:func:`repro.render.backward.scatter_add` replaces every production
``np.add.at`` scatter; the dense and sparse equivalence suites rely on it
adding each index's terms in input order starting from ``+0.0``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render.backward import scatter_add

# Every float, the special values included: -0.0, ±inf and NaN.
WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308,
                     5e-324]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)


@st.composite
def scatters(draw):
    """``(idx, values, n)``: repeated, unsorted (or empty) indices below
    ``n`` — sometimes well below — with 1-D or ``(P, k)`` values."""
    n = draw(st.integers(1, 12))
    idx = draw(st.lists(st.integers(0, n - 1), max_size=40))
    n += draw(st.integers(0, 5))   # minlength beyond the largest index
    trailing = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    flat = draw(st.lists(WEIGHTS, min_size=len(idx) * int(np.prod(trailing)),
                         max_size=len(idx) * int(np.prod(trailing))))
    values = np.array(flat, dtype=float).reshape((len(idx),) + trailing)
    return np.array(idx, dtype=np.int64), values, n


def bits(a):
    """The bytes of ``a`` with every NaN made the canonical quiet NaN:
    IEEE 754 leaves the payload (and sign) a NaN operand propagates
    unspecified, and ``np.add.at``'s inner loops differ in it."""
    a = a.copy()
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def add_at_onto_zeros(idx, values, n):
    out = np.zeros((n,) + values.shape[1:])
    np.add.at(out, idx, values)
    return out


@given(scatters())
@settings(max_examples=300, deadline=None)
def test_matches_add_at_bit_for_bit(case):
    idx, values, n = case
    with np.errstate(over="ignore", invalid="ignore"):
        got = scatter_add(idx, values, n)
        want = add_at_onto_zeros(idx, values, n)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert bits(got) == bits(want)


def test_order_is_input_order():
    """Float addition is not associative: the sum must be left to right."""
    idx = np.zeros(3, dtype=np.int64)
    values = np.array([1e16, 1.0, -1e16])
    assert scatter_add(idx, values, 1)[0] == (0.0 + 1e16 + 1.0) - 1e16
    assert scatter_add(idx, values[::-1].copy(), 1)[0] == (
        (0.0 - 1e16) + 1.0) + 1e16


def test_empty_and_untouched_rows_are_positive_zero():
    out = scatter_add(np.zeros(0, dtype=np.int64), np.zeros((0, 3)), 4)
    assert out.shape == (4, 3)
    assert not np.signbit(out).any()
    out = scatter_add(np.array([1]), np.array([-0.0]), 3)
    assert not np.signbit(out).any()


def test_result_is_c_contiguous():
    rng = np.random.default_rng(0)
    out = scatter_add(rng.integers(0, 5, 50), rng.normal(size=(50, 3)), 5)
    assert out.flags.c_contiguous
