"""Unit and property tests for the batched prefix kernels.

The kernels evaluate a whole ``(trials, cardinality)`` matrix at once;
every test checks them against the scalar per-trial reference
(:func:`repro.ipspace.cidr.block_count` / ``np.intersect1d`` /
:func:`repro.ipspace.cidr.contains`) — the contract is bit-identity,
not approximation.  The count kernels work through the matrix
:data:`~repro.ipspace.kernels.ROW_CHUNK` rows at a time, so the
clustered-matrix properties draw more trials than that.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipspace import cidr as icidr
from repro.ipspace.kernels import (
    ROW_CHUNK,
    block_counts_2d,
    intersection_counts_2d,
    member_counts_2d,
)

PREFIXES = (0, 8, 16, 20, 24, 28, 31, 32)

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)


def matrix_strategy(min_trials=0, max_trials=6, min_width=0, max_width=40):
    """Random sorted uint32 trial matrices (duplicates allowed)."""
    width = st.shared(
        st.integers(min_value=min_width, max_value=max_width), key="width"
    )
    row = width.flatmap(
        lambda w: st.lists(addresses, min_size=w, max_size=w)
    )
    return st.lists(
        row, min_size=min_trials, max_size=max_trials
    ).map(
        lambda rows: np.sort(
            np.asarray(rows, dtype=np.uint32).reshape(
                len(rows), len(rows[0]) if rows else 0
            ),
            axis=1,
        )
    )


def clustered_matrices(min_trials=ROW_CHUNK + 1, max_trials=2 * ROW_CHUNK + 3):
    """Row-sorted matrices with more trials than a row chunk, whose
    addresses (and a fixed report's) share their high bits: every prefix
    length then sees both repeated and distinct blocks, and hits."""

    def build(args):
        seed, trials, width, span_bits, present_size = args
        rng = np.random.default_rng(seed)
        span = 1 << span_bits
        base = int(rng.integers(0, (1 << 32) - span + 1))
        rows = base + rng.integers(0, span, size=(trials, width))
        present = base + rng.integers(0, span, size=present_size)
        return (
            np.sort(rows.astype(np.uint32), axis=1),
            present.astype(np.uint32),
        )

    return st.tuples(
        st.integers(0, 2**32 - 1),
        st.integers(min_trials, max_trials),
        st.integers(0, 12),
        st.integers(0, 32),
        st.integers(0, 30),
    ).map(build)


prefix_lists = st.lists(st.integers(0, 32), min_size=1, max_size=8)


def reference_block_counts(rows, prefixes):
    return np.array(
        [[icidr.block_count(row, n) for n in prefixes] for row in rows],
        dtype=np.int64,
    ).reshape(rows.shape[0], len(prefixes))


def reference_intersections(rows, blocks, prefixes):
    return np.array(
        [
            [
                np.intersect1d(icidr.unique_blocks(row, n), blocks[column]).size
                for column, n in enumerate(prefixes)
            ]
            for row in rows
        ],
        dtype=np.int64,
    ).reshape(rows.shape[0], len(prefixes))


def weighted_blocks(present, prefixes):
    """Per-prefix (blocks, address multiplicities) of a fixed report."""
    pairs = [
        np.unique(icidr.mask_array(present, n), return_counts=True)
        for n in prefixes
    ]
    return (
        [blocks for blocks, _ in pairs],
        [counts.astype(np.int64) for _, counts in pairs],
    )


def reference_covered(rows, blocks, weights, prefixes):
    """The §6 per-trial reference: each fixed block's weight, summed
    over the blocks the row covers."""
    return np.array(
        [
            [
                int(weights[column][
                    np.isin(blocks[column], icidr.unique_blocks(row, n))
                ].sum())
                for column, n in enumerate(prefixes)
            ]
            for row in rows
        ],
        dtype=np.int64,
    ).reshape(rows.shape[0], len(prefixes))


class TestSortedRows:
    """The kernels' input: a 2-D ``uint32`` matrix of sorted rows."""

    def test_kernels_reject_non_2d(self):
        with pytest.raises(ValueError):
            block_counts_2d(np.zeros(4, dtype=np.uint32), (24,))
        with pytest.raises(ValueError):
            block_counts_2d(np.zeros((2, 2), dtype=np.int64), (24,))


class TestBlockCounts2D:
    def test_empty_matrix(self):
        out = block_counts_2d(np.empty((0, 0), dtype=np.uint32), PREFIXES)
        assert out.shape == (0, len(PREFIXES))

    def test_zero_width_rows(self):
        out = block_counts_2d(np.empty((3, 0), dtype=np.uint32), PREFIXES)
        assert np.array_equal(out, np.zeros((3, len(PREFIXES)), dtype=np.int64))

    def test_duplicates_collapse(self):
        rows = np.array([[1, 1, 1, 1]], dtype=np.uint32)
        out = block_counts_2d(rows, (24, 32))
        assert np.array_equal(out, [[1, 1]])

    def test_saturation_at_32(self):
        rows = np.sort(
            np.arange(40, dtype=np.uint32).reshape(2, 20), axis=1
        )
        out = block_counts_2d(rows, (32,))
        assert (out[:, 0] == 20).all()

    @given(matrix_strategy())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_reference(self, rows):
        out = block_counts_2d(rows, PREFIXES)
        assert np.array_equal(out, reference_block_counts(rows, PREFIXES))

    @given(clustered_matrices(), prefix_lists)
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_across_row_chunks(self, case, prefixes):
        rows, _ = case
        out = block_counts_2d(rows, prefixes)
        assert np.array_equal(out, reference_block_counts(rows, prefixes))

    def test_prefixes_zero_and_thirty_two(self):
        rows = np.array([[5, 5, 9, 0xFFFFFFFF]], dtype=np.uint32)
        assert np.array_equal(block_counts_2d(rows, (32, 0)), [[3, 1]])

    def test_neighbours_differing_in_bit_zero(self):
        rows = np.array([[0x0A000000, 0x0A000001]], dtype=np.uint32)
        out = block_counts_2d(rows, (0, 30, 31, 32))
        assert np.array_equal(out, [[1, 1, 1, 2]])

    def test_neighbours_differing_in_bit_thirty_one(self):
        rows = np.array([[0x00000000, 0x80000000]], dtype=np.uint32)
        out = block_counts_2d(rows, (0, 1, 2, 32))
        assert np.array_equal(out, [[1, 2, 2, 2]])

    def test_out_of_range_prefix_rejected(self):
        with pytest.raises(ValueError):
            block_counts_2d(np.zeros((1, 2), dtype=np.uint32), (33,))


class TestIntersectionCounts2D:
    @given(matrix_strategy(), st.lists(addresses, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_matches_intersect1d_reference(self, rows, present):
        present = np.asarray(present, dtype=np.uint32)
        blocks = [icidr.unique_blocks(present, n) for n in PREFIXES]
        out = intersection_counts_2d(rows, blocks, PREFIXES)
        assert np.array_equal(
            out, reference_intersections(rows, blocks, PREFIXES)
        )

    @given(clustered_matrices(), prefix_lists)
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_across_row_chunks(self, case, prefixes):
        rows, present = case
        blocks = [icidr.unique_blocks(present, n) for n in prefixes]
        out = intersection_counts_2d(rows, blocks, prefixes)
        assert np.array_equal(
            out, reference_intersections(rows, blocks, prefixes)
        )

    @given(clustered_matrices(), prefix_lists)
    @settings(max_examples=40, deadline=None)
    def test_weighted_matches_reference_across_row_chunks(self, case, prefixes):
        rows, present = case
        blocks, weights = weighted_blocks(present, prefixes)
        out = intersection_counts_2d(
            rows, blocks, prefixes, weights_by_prefix=weights
        )
        assert np.array_equal(
            out, reference_covered(rows, blocks, weights, prefixes)
        )

    def test_prefixes_zero_and_thirty_two(self):
        rows = np.array([[5, 9], [6, 7]], dtype=np.uint32)
        present = np.array([9, 200], dtype=np.uint32)
        prefixes = (0, 32)
        blocks = [icidr.unique_blocks(present, n) for n in prefixes]
        out = intersection_counts_2d(rows, blocks, prefixes)
        assert np.array_equal(out, [[1, 1], [1, 0]])

    def test_duplicate_cells_count_once(self):
        rows = np.array([[7, 7, 7]], dtype=np.uint32)
        present = np.array([7, 7, 8], dtype=np.uint32)
        prefixes = (0, 24, 32)
        blocks = [icidr.unique_blocks(present, n) for n in prefixes]
        assert np.array_equal(
            intersection_counts_2d(rows, blocks, prefixes), [[1, 1, 1]]
        )
        blocks, weights = weighted_blocks(present, prefixes)
        out = intersection_counts_2d(rows, blocks, prefixes, weights)
        assert np.array_equal(out, [[3, 3, 2]])

    def test_neighbours_differing_in_bit_zero(self):
        rows = np.array([[0x0A000000]], dtype=np.uint32)
        present = np.array([0x0A000001], dtype=np.uint32)
        prefixes = (30, 31, 32)
        blocks = [icidr.unique_blocks(present, n) for n in prefixes]
        out = intersection_counts_2d(rows, blocks, prefixes)
        assert np.array_equal(out, [[1, 1, 0]])

    def test_neighbours_differing_in_bit_thirty_one(self):
        rows = np.array([[0x00000000, 0x7FFFFFFF]], dtype=np.uint32)
        present = np.array([0x80000000], dtype=np.uint32)
        prefixes = (0, 1, 32)
        blocks = [icidr.unique_blocks(present, n) for n in prefixes]
        out = intersection_counts_2d(rows, blocks, prefixes)
        assert np.array_equal(out, [[1, 0, 0]])

    def test_non_nested_block_sets_rejected(self):
        rows = np.array([[0x0A000001]], dtype=np.uint32)
        near = np.array([0x0A000001], dtype=np.uint32)
        far = np.array([0x14000001], dtype=np.uint32)
        blocks = (icidr.unique_blocks(near, 24), icidr.unique_blocks(far, 32))
        with pytest.raises(ValueError, match="do not nest"):
            intersection_counts_2d(rows, blocks, (24, 32))

    def test_unsorted_finest_block_set_rejected(self):
        rows = np.array([[1]], dtype=np.uint32)
        blocks = (np.array([9, 3], dtype=np.uint32),)
        with pytest.raises(ValueError, match="sorted unique"):
            intersection_counts_2d(rows, blocks, (32,))

    def test_weighted_counts_multiplicities(self):
        # Target has 3 addresses in 10.0.0.0/24, 1 elsewhere.
        target = np.array(
            [0x0A000001, 0x0A000002, 0x0A000003, 0x14000001], dtype=np.uint32
        )
        blocks, weights = np.unique(
            icidr.mask_array(target, 24), return_counts=True
        )
        rows = np.sort(
            np.array([[0x0A0000FF, 0x30000000]], dtype=np.uint32), axis=1
        )
        out = intersection_counts_2d(
            rows, (blocks,), (24,), weights_by_prefix=(weights.astype(np.int64),)
        )
        assert out[0, 0] == 3  # covers all three 10.0.0.x addresses

    def test_empty_block_sets(self):
        rows = np.array([[1, 2, 3]], dtype=np.uint32)
        empty = np.empty(0, dtype=np.uint32)
        out = intersection_counts_2d(rows, (empty, empty), (24, 32))
        assert np.array_equal(out, [[0, 0]])

    def test_mismatched_lengths_rejected(self):
        rows = np.array([[1]], dtype=np.uint32)
        with pytest.raises(ValueError):
            intersection_counts_2d(rows, (np.empty(0, dtype=np.uint32),), (24, 32))


class TestMemberCounts2D:
    @given(matrix_strategy(), st.lists(addresses, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_matches_contains_reference(self, rows, covering):
        covering = np.asarray(covering, dtype=np.uint32)
        blocks = [icidr.unique_blocks(covering, n) for n in PREFIXES]
        out = member_counts_2d(rows, blocks, PREFIXES)
        expected = np.array(
            [
                [
                    int(icidr.contains(row, blocks[column], n).sum())
                    for column, n in enumerate(PREFIXES)
                ]
                for row in rows
            ],
            dtype=np.int64,
        ).reshape(rows.shape[0], len(PREFIXES))
        assert np.array_equal(out, expected)

    def test_counts_with_multiplicity(self):
        # Unlike the intersection kernel, members count duplicate
        # addresses individually (the §6 population semantics).
        rows = np.array([[0x0A000001, 0x0A000001, 0x0A000002]], dtype=np.uint32)
        blocks = icidr.unique_blocks(
            np.array([0x0A000009], dtype=np.uint32), 24
        )
        out = member_counts_2d(rows, (blocks,), (24,))
        assert out[0, 0] == 3
