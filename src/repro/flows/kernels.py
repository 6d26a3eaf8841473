"""Columnar kernels shared by the traffic generator and the detectors.

The flow-generation and detection hot paths operate on *segments*: a
flat array carrying many variable-length groups back to back (one group
per bot event, per source address, per day).  These helpers implement
the segment primitives those paths need without any per-group Python
loop:

* :func:`repeat_offsets` / :func:`segment_positions` — the
  ``np.cumsum``-offset bookkeeping behind every ``np.repeat`` expansion;
* :func:`sample_day_segments` — draw ``k_i`` *distinct* days uniformly
  from each event's ``[lo_i, hi_i]`` day range, for all events at once
  (the batched replacement for per-event
  ``rng.choice(days, replace=False)``);
* :func:`grouped_cumsum` — per-segment cumulative sums over a
  segment-sorted array (exact for integer inputs);
* :func:`segment_first_true` — each segment's first ``True`` position,
  which is how the TRW detector finds every source's first threshold
  crossing;
* :func:`pack64` / :func:`segment_bounds` / :func:`grouped_sum` — the
  packed-key grouping trio behind the columnar scan detector: two
  32-bit-ranged columns packed into one ``uint64`` sort key, run
  boundaries of the sorted keys, and exact per-run sums via
  ``np.add.reduceat``;
* :func:`pair_order` — the ``(key, value)`` row order of
  ``np.lexsort`` from two ``np.argsort`` passes, the second over a
  packed ``(key run, value)`` column;
* :func:`pair_run_starts` / :func:`distinct_pairs` / :func:`sum_by_key`
  — the set-union and grouped-sum steps the mergeable detector
  aggregates fold with.

All kernels are deterministic given the RNG: each draws a fixed number
of variates that depends only on the input shapes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "repeat_offsets",
    "segment_ids",
    "segment_positions",
    "sample_day_segments",
    "grouped_cumsum",
    "segment_first_true",
    "pack64",
    "segment_bounds",
    "grouped_sum",
    "pair_order",
    "pair_run_starts",
    "distinct_pairs",
    "sum_by_key",
]


def repeat_offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums of ``counts``: element ``i`` is where segment
    ``i`` starts in the flattened array (length ``n + 1``; the last entry
    is the total)."""
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def segment_ids(counts: np.ndarray) -> np.ndarray:
    """Owner index of every element of the flattened segments
    (``[0, 0, 1, 1, 1, ...]`` for counts ``[2, 3, ...]``)."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.repeat(np.arange(counts.size, dtype=np.int64), counts)


def segment_positions(counts: np.ndarray) -> np.ndarray:
    """Position of every element *within its own segment*
    (``[0, 1, 0, 1, 2, ...]`` for counts ``[2, 3, ...]``)."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    starts = repeat_offsets(counts)[:-1]
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def sample_day_segments(
    lo: np.ndarray,
    hi: np.ndarray,
    counts: np.ndarray,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample distinct days from many inclusive ranges at once.

    For every event ``i`` with day range ``[lo_i, hi_i]`` (empty when
    ``hi_i < lo_i``), draws ``min(counts_i, hi_i - lo_i + 1)`` *distinct*
    days uniformly without replacement.  Returns ``(owners, days)``
    flat arrays: ``days[j]`` is one sampled day belonging to event
    ``owners[j]``; events whose range is empty (or whose count is zero)
    simply contribute nothing.

    This is the batched form of the per-event
    ``rng.choice(np.arange(lo, hi + 1), size=k, replace=False)`` loop:
    every candidate day of every event gets one uniform sort key, and
    each event keeps its ``k_i`` smallest keys.  One ``rng.random`` call
    replaces the per-event draws, so cost is O(total days) regardless of
    how many events there are.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if not (lo.size == hi.size == counts.size):
        raise ValueError("lo, hi and counts must have equal length")

    lengths = np.maximum(hi - lo + 1, 0)
    want = np.clip(counts, 0, lengths)
    total = int(lengths.sum())
    if total == 0:
        empty = np.asarray([], dtype=np.int64)
        return empty, empty

    owners = np.repeat(np.arange(lo.size, dtype=np.int64), lengths)
    offsets = repeat_offsets(lengths)[:-1]
    positions = np.arange(total, dtype=np.int64) - np.repeat(offsets, lengths)
    candidate_days = np.repeat(lo, lengths) + positions

    # One key per candidate day; a stable sort keyed on (owner, key)
    # keeps segments contiguous while shuffling within each, so the
    # first k_i slots of each segment are a uniform k_i-subset.
    keys = rng.random(total)
    order = np.lexsort((keys, owners))
    keep = positions < np.repeat(want, lengths)
    return owners[keep], candidate_days[order][keep]


def pack64(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Pack two 32-bit-ranged columns into one ``uint64`` sort key.

    Sorting the packed key is exactly the lexicographic sort on
    ``(hi, lo)``, so one ``np.sort``/``np.argsort`` pass replaces a
    two-column ``np.lexsort`` or a row-table ``np.unique(axis=0)``.
    Both inputs must already lie in ``[0, 2**32)``; values outside that
    range would alias other keys, so they raise.
    """
    hi = np.asarray(hi)
    lo = np.asarray(lo)
    if hi.size and (hi.min() < 0 or hi.max() >> 32):
        raise ValueError("pack64 hi column out of uint32 range")
    if lo.size and (lo.min() < 0 or lo.max() >> 32):
        raise ValueError("pack64 lo column out of uint32 range")
    return (hi.astype(np.uint64) << np.uint64(32)) | lo.astype(np.uint64)


def segment_bounds(sorted_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Run boundaries of a key-sorted array: ``(starts, counts)``.

    ``starts[i]`` is the first position of run ``i`` of equal keys and
    ``counts[i]`` its length — the ``return_index``/``return_counts``
    outputs of ``np.unique`` without re-sorting an already sorted array.
    """
    keys = np.asarray(sorted_keys)
    if keys.size == 0:
        empty = np.asarray([], dtype=np.int64)
        return empty, empty
    boundary = np.empty(keys.size, dtype=bool)
    boundary[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    counts = np.diff(np.append(starts, keys.size))
    return starts, counts


def grouped_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Exact per-segment sums of a segment-contiguous array.

    ``starts`` are segment start positions (as from
    :func:`segment_bounds`); integer inputs stay integer, and boolean
    masks count as ``int64`` (``np.add.reduceat`` would OR them).
    """
    values = np.asarray(values)
    if values.dtype == bool:
        values = values.astype(np.int64)
    if starts.size == 0:
        return np.zeros(0, dtype=values.dtype)
    return np.add.reduceat(values, starts)


def pair_order(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row order that sorts two parallel columns by ``(keys, values)``.

    Argsorts ``keys`` once, numbers the runs of equal keys, and
    argsorts the packed ``(run, value)`` column (:func:`pack64`).  The
    order is that of ``np.lexsort((values, keys))`` except among rows
    equal in both columns, which no reader of the two columns can tell
    apart.  ``keys`` may be any integer column; ``values`` must lie in
    ``[0, 2**32)`` and raise ``ValueError`` otherwise, as :func:`pack64`
    does.
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.shape != values.shape:
        raise ValueError("pair_order columns must have the same shape")
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    new_run = np.zeros(sorted_keys.size, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_run[1:])
    del sorted_keys
    return by_key[np.argsort(pack64(np.cumsum(new_run), values[by_key]))]


def pair_run_starts(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mask of the first row of every run of equal ``(keys, values)`` rows.

    The two parallel columns must already be sorted lexicographically
    (as by :func:`pair_order`); the masked rows are then the distinct
    pairs, in sorted order.
    """
    first = np.empty(keys.size, dtype=bool)
    if keys.size:
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        first[1:] |= values[1:] != values[:-1]
    return first


def distinct_pairs(
    keys: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``(keys, values)`` rows, sorted lexicographically
    (ordered by :func:`pair_order`, so ``values`` lie in ``[0, 2**32)``)."""
    order = pair_order(keys, values)
    keys = keys[order]
    values = values[order]
    first = pair_run_starts(keys, values)
    return keys[first], values[first]


def sum_by_key(keys: np.ndarray, *columns: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Sorted unique ``keys`` and each column summed per key.

    Sums are exact for integer columns and for integer-valued ``float64``
    columns whose totals stay below 2**53, so the result does not depend
    on the order of the input rows.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts, _ = segment_bounds(keys)
    sums = [grouped_sum(column[order], starts) for column in columns]
    return (keys[starts], *sums)


def grouped_cumsum(
    values: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per-segment cumulative sums of a segment-contiguous array.

    ``starts``/``counts`` describe back-to-back segments (as returned by
    ``np.unique(..., return_index=True, return_counts=True)`` on the
    sorted segment keys).  Integer inputs stay exact: the global-cumsum
    rebase below is pure integer arithmetic for them.
    """
    if values.size == 0:
        return values.copy()
    running = np.cumsum(values)
    base = running[starts] - values[starts]
    return running - np.repeat(base, counts)


def segment_first_true(
    mask: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """First ``True`` position within each segment, or ``counts_i`` when
    the segment has none (positions are segment-relative)."""
    counts = np.asarray(counts, dtype=np.int64)
    if mask.size == 0:
        return np.zeros(counts.size, dtype=np.int64)
    positions = np.arange(mask.size, dtype=np.int64) - np.repeat(starts, counts)
    sentinel = np.where(mask, positions, mask.size)
    return np.minimum(np.minimum.reduceat(sentinel, starts), counts)
