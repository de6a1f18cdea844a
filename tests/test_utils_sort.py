"""The sort kernels against the NumPy calls whose contracts they keep.

:func:`factorize` must equal ``np.unique(values, return_inverse=True)``
(codes and count), whichever path it takes: the presence table for a
column spanning at most ``TABLE_SPAN_FACTOR`` times its length, an
unstable sort otherwise. :func:`stable_argsort` must equal
``np.argsort(keys, kind="stable")`` for keys of any width and sign.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import sort
from repro.utils.sort import TABLE_SPAN_FACTOR, factorize, stable_argsort

_INT64 = np.iinfo(np.int64)
_DTYPES = (np.uint8, np.uint16, np.uint32, np.int64)


def unique_codes(values):
    unique, inverse = np.unique(values, return_inverse=True)
    return inverse.reshape(-1).tolist(), len(unique)


@st.composite
def integer_columns(draw):
    """A column of one dtype whose values lie in a drawn window, so the
    span ranges from a single value to the dtype's whole range."""
    dtype = draw(st.sampled_from(_DTYPES))
    info = np.iinfo(dtype)
    low = draw(st.integers(int(info.min), int(info.max)))
    high = draw(
        st.one_of(
            st.integers(low, min(low + 64, int(info.max))),
            st.integers(low, int(info.max)),
        )
    )
    values = draw(
        st.lists(st.integers(low, high), min_size=0, max_size=300)
    )
    return np.array(values, dtype=dtype)


def bound_column(n, extra):
    """``n >= 2`` values, negative ones among them, spanning exactly
    ``TABLE_SPAN_FACTOR * n + extra``."""
    span = TABLE_SPAN_FACTOR * n + extra
    values = np.random.default_rng(n).integers(0, span, n) - span // 2
    values[0] = -(span // 2)
    values[-1] = values[0] + span - 1
    return values


class TestFactorize:
    @settings(max_examples=300, deadline=None)
    @given(integer_columns())
    def test_equals_np_unique(self, values):
        codes, count = factorize(values)
        assert codes.dtype == np.int64
        assert (codes.tolist(), count) == unique_codes(values)

    @pytest.mark.parametrize("n", [2, 7, 1000])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_span_at_the_table_bound_and_one_above(
        self, monkeypatch, n, extra
    ):
        values = bound_column(n, extra)
        sorted_calls = []

        def spy(column):
            sorted_calls.append(len(column))
            return original(column)

        original = sort._sorted_codes
        monkeypatch.setattr(sort, "_sorted_codes", spy)
        codes, count = factorize(values)
        assert (codes.tolist(), count) == unique_codes(values)
        # The bound decides the path: at it a table, above it a sort.
        assert bool(sorted_calls) == (extra > 0)

    @pytest.mark.parametrize(
        "values",
        [
            [_INT64.min, _INT64.max],
            [_INT64.max, _INT64.min, 0, _INT64.min],
            [_INT64.max, _INT64.max - 1],
            [_INT64.min],
        ],
    )
    def test_int64_extremes_do_not_overflow_the_span(self, values):
        column = np.array(values, dtype=np.int64)
        codes, count = factorize(column)
        assert (codes.tolist(), count) == unique_codes(column)

    def test_empty_and_one_row(self):
        codes, count = factorize(np.zeros(0, dtype=np.int64))
        assert codes.dtype == np.int64
        assert (codes.tolist(), count) == ([], 0)
        codes, count = factorize(np.array([-5], dtype=np.int64))
        assert (codes.tolist(), count) == ([0], 1)


@st.composite
def key_columns(draw):
    """Keys below, at and above the uint16 radix width (2**16) and
    2**32, negative, and the int64 extremes."""
    dtype = draw(st.sampled_from(_DTYPES))
    info = np.iinfo(dtype)
    ceiling = draw(
        st.sampled_from(
            [(1 << 16) - 1, 1 << 16, (1 << 32) - 1, 1 << 32, int(info.max)]
        )
    )
    ceiling = min(ceiling, int(info.max))
    floor = int(info.min) if draw(st.booleans()) else 0
    values = draw(
        st.lists(
            st.one_of(
                st.integers(floor, ceiling),
                st.sampled_from([floor, ceiling, max(ceiling - 1, floor)]),
            ),
            min_size=0,
            max_size=300,
        )
    )
    return np.array(values, dtype=dtype)


class TestStableArgsort:
    @settings(max_examples=300, deadline=None)
    @given(key_columns())
    def test_equals_the_stable_numpy_sort(self, keys):
        order = stable_argsort(keys)
        assert order.tolist() == np.argsort(keys, kind="stable").tolist()

    @pytest.mark.parametrize(
        "top", [(1 << 16) - 1, 1 << 16, (1 << 32) - 1, 1 << 32]
    )
    def test_keys_at_the_radix_width_and_above(self, top):
        keys = np.random.default_rng(top & 0xFF).integers(0, 64, 5000)
        keys = np.where(keys % 3 == 0, top, keys * (top // 64))
        assert (
            stable_argsort(keys).tolist()
            == np.argsort(keys, kind="stable").tolist()
        )

    def test_empty_and_one_row(self):
        assert stable_argsort(np.zeros(0, dtype=np.int64)).tolist() == []
        assert stable_argsort(np.array([1 << 40])).tolist() == [0]
