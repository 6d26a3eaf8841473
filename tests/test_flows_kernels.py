"""Unit and property tests for the shared columnar kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.kernels import (
    distinct_pairs,
    grouped_cumsum,
    pair_order,
    repeat_offsets,
    sample_day_segments,
    segment_first_true,
    segment_ids,
    segment_positions,
)

_U32_MAX = 2**32 - 1
_U64_MAX = 2**64 - 1


class TestOffsets:
    def test_repeat_offsets(self):
        assert list(repeat_offsets(np.asarray([2, 0, 3]))) == [0, 2, 2, 5]

    def test_segment_ids(self):
        assert list(segment_ids(np.asarray([2, 0, 3]))) == [0, 0, 2, 2, 2]

    def test_segment_positions(self):
        assert list(segment_positions(np.asarray([2, 0, 3]))) == [0, 1, 0, 1, 2]

    def test_empty(self):
        empty = np.asarray([], dtype=np.int64)
        assert repeat_offsets(empty).tolist() == [0]
        assert segment_ids(empty).size == 0
        assert segment_positions(empty).size == 0


class TestSampleDaySegments:
    def test_requests_respected(self):
        rng = np.random.default_rng(0)
        lo = np.asarray([10, 20, 30])
        hi = np.asarray([19, 24, 29])  # lengths 10, 5, 0 (empty range)
        counts = np.asarray([4, 9, 3])
        owners, days = sample_day_segments(lo, hi, counts, rng)
        assert (np.bincount(owners, minlength=3) == [4, 5, 0]).all()
        for i in range(3):
            mine = days[owners == i]
            assert np.unique(mine).size == mine.size  # distinct
            assert ((mine >= lo[i]) & (mine <= hi[i])).all()

    def test_zero_count_contributes_nothing(self):
        rng = np.random.default_rng(1)
        owners, days = sample_day_segments(
            np.asarray([0]), np.asarray([13]), np.asarray([0]), rng
        )
        assert owners.size == 0 and days.size == 0

    def test_all_empty(self):
        rng = np.random.default_rng(2)
        owners, days = sample_day_segments(
            np.asarray([5, 9]), np.asarray([4, 8]), np.asarray([3, 3]), rng
        )
        assert owners.size == 0 and days.size == 0

    def test_no_events(self):
        rng = np.random.default_rng(3)
        empty = np.asarray([], dtype=np.int64)
        owners, days = sample_day_segments(empty, empty, empty, rng)
        assert owners.size == 0 and days.size == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            sample_day_segments(
                np.asarray([0]), np.asarray([1, 2]), np.asarray([1]),
                np.random.default_rng(0),
            )

    def test_deterministic_per_seed(self):
        lo = np.zeros(50, dtype=np.int64)
        hi = np.full(50, 13, dtype=np.int64)
        counts = np.full(50, 4, dtype=np.int64)
        a = sample_day_segments(lo, hi, counts, np.random.default_rng(7))
        b = sample_day_segments(lo, hi, counts, np.random.default_rng(7))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_uniform_coverage(self):
        # Over many draws of 1 day from [0, 13], every day appears.
        lo = np.zeros(2000, dtype=np.int64)
        hi = np.full(2000, 13, dtype=np.int64)
        counts = np.ones(2000, dtype=np.int64)
        _, days = sample_day_segments(lo, hi, counts, np.random.default_rng(8))
        assert np.unique(days).size == 14

    @given(st.lists(
        st.tuples(
            st.integers(min_value=-5, max_value=20),   # lo
            st.integers(min_value=0, max_value=15),    # range length - 1 offset
            st.integers(min_value=0, max_value=20),    # requested count
        ),
        min_size=0, max_size=30,
    ))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_event_semantics(self, spec):
        """Per event: exactly min(count, range length) distinct in-range days."""
        lo = np.asarray([s[0] for s in spec], dtype=np.int64)
        hi = np.asarray([s[0] + s[1] - 3 for s in spec], dtype=np.int64)
        counts = np.asarray([s[2] for s in spec], dtype=np.int64)
        owners, days = sample_day_segments(lo, hi, counts, np.random.default_rng(9))
        per_owner = np.bincount(owners, minlength=lo.size) if lo.size else []
        for i, got in enumerate(per_owner):
            length = max(0, hi[i] - lo[i] + 1)
            assert got == min(counts[i], length)
            mine = days[owners == i]
            assert np.unique(mine).size == mine.size
            if mine.size:
                assert mine.min() >= lo[i] and mine.max() <= hi[i]


class TestGroupedCumsum:
    def test_matches_python_loop(self):
        rng = np.random.default_rng(10)
        counts = np.asarray([3, 1, 5, 2])
        starts = repeat_offsets(counts)[:-1]
        values = rng.integers(-5, 6, size=int(counts.sum()))
        got = grouped_cumsum(values, starts, counts)
        expected = np.concatenate(
            [np.cumsum(values[s:s + c]) for s, c in zip(starts, counts)]
        )
        assert np.array_equal(got, expected)

    def test_integer_exact(self):
        counts = np.asarray([4])
        got = grouped_cumsum(np.asarray([1, 1, 1, 1]), np.asarray([0]), counts)
        assert got.dtype.kind == "i"
        assert got.tolist() == [1, 2, 3, 4]

    def test_empty(self):
        empty = np.asarray([], dtype=np.int64)
        assert grouped_cumsum(empty, empty, empty).size == 0


class TestSegmentFirstTrue:
    def test_matches_python_loop(self):
        rng = np.random.default_rng(11)
        counts = np.asarray([4, 2, 6, 1, 3])
        starts = repeat_offsets(counts)[:-1]
        mask = rng.random(int(counts.sum())) < 0.3
        got = segment_first_true(mask, starts, counts)
        for i, (start, count) in enumerate(zip(starts, counts)):
            segment = mask[start:start + count]
            hits = np.flatnonzero(segment)
            expected = hits[0] if hits.size else count
            assert got[i] == expected

    def test_no_true_returns_count(self):
        counts = np.asarray([3])
        got = segment_first_true(
            np.asarray([False, False, False]), np.asarray([0]), counts
        )
        assert got.tolist() == [3]

    def test_empty(self):
        empty = np.asarray([], dtype=np.int64)
        assert segment_first_true(np.asarray([], dtype=bool), empty, empty).size == 0


@st.composite
def key_value_columns(draw):
    """Parallel ``uint64`` keys and ``uint32`` values drawn from pools of
    at most four, so rows repeat in one column and in both; the ends of
    both ranges are common."""
    key = st.sampled_from([0, _U64_MAX]) | st.integers(0, _U64_MAX)
    value = st.sampled_from([0, _U32_MAX]) | st.integers(0, _U32_MAX)
    keys = draw(st.lists(key, min_size=1, max_size=4))
    values = draw(st.lists(value, min_size=1, max_size=4))
    rows = draw(
        st.lists(st.tuples(st.sampled_from(keys), st.sampled_from(values)),
                 max_size=120)
    )
    return (
        np.asarray([k for k, _ in rows], dtype=np.uint64),
        np.asarray([v for _, v in rows], dtype=np.uint32),
    )


class TestPairOrder:
    """``pair_order`` orders both columns exactly as ``np.lexsort`` does."""

    @given(key_value_columns())
    @settings(max_examples=200, deadline=None)
    def test_columns_equal_lexsort_columns(self, columns):
        keys, values = columns
        order = pair_order(keys, values)
        expected = np.lexsort((values, keys))
        assert order.dtype == expected.dtype
        assert np.array_equal(np.sort(order), np.arange(keys.size))
        assert np.array_equal(keys[order], keys[expected])
        assert np.array_equal(values[order], values[expected])
        first = np.ones(keys.size, dtype=bool)
        first[1:] = (keys[expected][1:] != keys[expected][:-1]) | (
            values[expected][1:] != values[expected][:-1]
        )
        got_keys, got_values = distinct_pairs(keys, values)
        assert got_keys.dtype == keys.dtype and got_values.dtype == values.dtype
        assert np.array_equal(got_keys, keys[expected][first])
        assert np.array_equal(got_values, values[expected][first])

    def test_empty(self):
        order = pair_order(
            np.asarray([], dtype=np.uint64), np.asarray([], dtype=np.uint32)
        )
        assert order.size == 0
        assert order.dtype == np.lexsort((np.zeros(0), np.zeros(0))).dtype

    def test_int64_values_in_range(self):
        # The spam aggregate's day column is int64.
        keys = np.asarray([5, 3, 5, 3, 5], dtype=np.uint32)
        days = np.asarray([2, 9, 0, 9, 2], dtype=np.int64)
        order = pair_order(keys, days)
        assert keys[order].tolist() == [3, 3, 5, 5, 5]
        assert days[order].tolist() == [9, 9, 0, 2, 2]

    @pytest.mark.parametrize("bad", [-1, 2**32, _U64_MAX])
    def test_values_outside_uint32_raise(self, bad):
        dtype = np.int64 if bad < 0 else np.uint64
        values = np.asarray([0, bad], dtype=dtype)
        with pytest.raises(ValueError, match="uint32 range"):
            pair_order(np.zeros(2, dtype=np.uint64), values)
        with pytest.raises(ValueError, match="uint32 range"):
            distinct_pairs(np.zeros(2, dtype=np.uint64), values)

    def test_mismatched_columns_raise(self):
        with pytest.raises(ValueError, match="same shape"):
            pair_order(np.zeros(3, dtype=np.uint64), np.zeros(2, dtype=np.uint32))
