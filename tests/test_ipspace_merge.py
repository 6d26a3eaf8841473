"""Property tests for the sorted-merge incremental kernels.

Every merge kernel's contract is bit-identity with the rebuild-from-
scratch path it replaces: ``merge_sorted_rows`` against re-sorting the
concatenation, ``merge_unique``/``remove_sorted`` against the set
operations.  That identity is what makes the streaming layer's
incremental day folds indistinguishable from batch recomputation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trials import TrialEnsemble
from repro.ipspace.kernels import (
    merge_sorted,
    merge_sorted_rows,
    merge_unique,
    remove_sorted,
    sorted_rows,
)

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)


def sorted_array(values):
    return np.sort(np.asarray(values, dtype=np.uint32))


def unique_array(values):
    return np.unique(np.asarray(values, dtype=np.uint32))


def matrix_pair_strategy(max_trials=5, max_width=30, max_batch=12):
    """(rows, batch) with equal trial counts, both row-sorted."""
    trials = st.shared(
        st.integers(min_value=0, max_value=max_trials), key="trials"
    )

    def matrix(width_range):
        return trials.flatmap(
            lambda t: st.integers(*width_range).flatmap(
                lambda w: st.lists(
                    st.lists(addresses, min_size=w, max_size=w),
                    min_size=t,
                    max_size=t,
                ).map(
                    lambda rows: np.sort(
                        np.asarray(rows, dtype=np.uint32).reshape(t, w),
                        axis=1,
                    )
                )
            )
        )

    return st.tuples(matrix((0, max_width)), matrix((0, max_batch)))


class TestMergeSorted:
    @given(st.lists(addresses), st.lists(addresses))
    @settings(max_examples=100, deadline=None)
    def test_matches_concat_sort(self, left, right):
        a, b = sorted_array(left), sorted_array(right)
        merged = merge_sorted(a, b)
        assert np.array_equal(merged, np.sort(np.concatenate([a, b])))

    def test_stable_ties_keep_existing_first(self):
        merged = merge_sorted(
            np.asarray([5, 5], dtype=np.uint32), np.asarray([5], dtype=np.uint32)
        )
        assert np.array_equal(merged, [5, 5, 5])


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


class TestRemoveSorted:
    @given(st.lists(addresses), st.lists(addresses))
    @settings(max_examples=100, deadline=None)
    def test_matches_setdiff(self, values, victims):
        a = unique_array(values)
        # Only victims present in ``a`` are legal to remove.
        v = np.intersect1d(unique_array(victims), a)
        assert np.array_equal(remove_sorted(a, v), np.setdiff1d(a, v))

    def test_remove_everything(self):
        a = unique_array([1, 5, 9])
        assert remove_sorted(a, a).size == 0


class TestMergeSortedRows:
    @given(matrix_pair_strategy())
    @settings(max_examples=60, deadline=None)
    def test_matches_resort_of_concat(self, pair):
        rows, batch = pair
        merged = merge_sorted_rows(rows, batch)
        reference = sorted_rows(np.concatenate([rows, batch], axis=1))
        assert merged.dtype == np.uint32
        assert np.array_equal(merged, reference)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row-count mismatch"):
            merge_sorted_rows(
                np.zeros((2, 3), dtype=np.uint32),
                np.zeros((3, 1), dtype=np.uint32),
            )


class TestEnsembleMerge:
    def test_merged_with_equals_redraw_concat(self):
        rng = np.random.default_rng(42)
        matrix = np.sort(
            rng.integers(0, 2**32, size=(7, 20), dtype=np.uint32), axis=1
        )
        ensemble = TrialEnsemble(matrix=matrix)
        extra = rng.integers(0, 2**32, size=(7, 4), dtype=np.uint32)
        grown = ensemble.merged_with(extra)
        reference = np.sort(np.concatenate([matrix, extra], axis=1), axis=1)
        assert np.array_equal(grown.matrix, reference)
        assert grown.start == ensemble.start
        assert grown.source_tag == ensemble.source_tag

    def test_merged_with_rejects_wrong_trial_count(self):
        ensemble = TrialEnsemble(matrix=np.zeros((3, 2), dtype=np.uint32))
        with pytest.raises(ValueError, match="3 trials"):
            ensemble.merged_with(np.zeros((2, 1), dtype=np.uint32))
