"""Property tests for the streaming fold's sorted-set merge kernel.

``merge_unique`` must be bit-identical to the set operations it
replaces (``np.union1d`` for the merge, ``np.setdiff1d`` for the fresh
elements).  That identity is what makes the streaming layer's
incremental day folds indistinguishable from batch recomputation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipspace.kernels import merge_unique

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)


def unique_array(values):
    return np.unique(np.asarray(values, dtype=np.uint32))


class TestMergeUnique:
    @given(st.lists(addresses), st.lists(addresses))
    @settings(max_examples=100, deadline=None)
    def test_matches_union(self, left, right):
        a, b = unique_array(left), unique_array(right)
        merged, fresh = merge_unique(a, b)
        assert np.array_equal(merged, np.union1d(a, b))
        assert np.array_equal(b[fresh], np.setdiff1d(b, a))

    def test_no_fresh_returns_existing_unchanged(self):
        a = unique_array([1, 2, 3])
        merged, fresh = merge_unique(a, unique_array([2, 3]))
        assert merged is a
        assert not fresh.any()

    def test_empty_existing_copies_batch(self):
        b = unique_array([7, 9])
        merged, fresh = merge_unique(np.asarray([], dtype=np.uint32), b)
        assert np.array_equal(merged, b)
        assert merged is not b
        assert fresh.all()

