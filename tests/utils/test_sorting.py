"""group_sort: a packed-key sort that reproduces a stable argsort exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.sorting import group_sort

GROUP_DTYPES = [np.int32, np.int64]


class TestMatchesStableArgsort:
    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=200),
           st.sampled_from(GROUP_DTYPES))
    @settings(max_examples=120, deadline=None)
    def test_positions(self, values, dtype):
        groups = np.array(values, dtype=dtype)
        got = group_sort(groups, np.arange(groups.size, dtype=np.int64), groups.size)
        want = np.argsort(groups, kind="stable")
        assert got.dtype == np.int64
        assert got.tobytes() == want.astype(np.int64).tobytes()

    @given(st.lists(st.lists(st.integers(min_value=0, max_value=8), max_size=12), max_size=30))
    @settings(max_examples=120, deadline=None)
    def test_set_ids_as_members(self, sets):
        # The postings shape: members are each entry's set id, non-decreasing
        # in input order and repeated when a set lists a node twice.
        nodes = np.array([v for members in sets for v in members], dtype=np.int32)
        set_of_entry = np.repeat(np.arange(len(sets), dtype=np.int64),
                                 [len(members) for members in sets])
        got = group_sort(nodes, set_of_entry, len(sets))
        want = set_of_entry[np.argsort(nodes, kind="stable")]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", GROUP_DTYPES)
    def test_empty(self, dtype):
        got = group_sort(np.empty(0, dtype=dtype), np.empty(0, dtype=np.int64), 0)
        assert got.dtype == np.int64 and got.size == 0

    @pytest.mark.parametrize("dtype", GROUP_DTYPES)
    def test_single_group(self, dtype):
        groups = np.full(7, 3, dtype=dtype)
        assert group_sort(groups, np.arange(7), 7).tolist() == list(range(7))

    @pytest.mark.parametrize("dtype", GROUP_DTYPES)
    def test_all_distinct(self, dtype):
        groups = np.array([4, 0, 6, 2, 5, 1, 3], dtype=dtype)
        got = group_sort(groups, np.arange(7), 7)
        assert got.tolist() == np.argsort(groups, kind="stable").tolist()
        assert groups[got].tolist() == list(range(7))

    def test_large_group_ids_still_exact(self):
        # Keys near the top of int64 must not wrap.
        bound = 4
        top = (np.iinfo(np.int64).max - (bound - 1)) // bound
        groups = np.array([top, 0, top, 0], dtype=np.int64)
        assert group_sort(groups, np.arange(4), bound).tolist() == [1, 3, 0, 2]


def test_rejects_keys_that_overflow_int64():
    bound = 4
    top = (np.iinfo(np.int64).max - (bound - 1)) // bound
    with pytest.raises(OverflowError, match="int64"):
        group_sort(np.array([0, top + 1], dtype=np.int64), np.arange(2), bound)
