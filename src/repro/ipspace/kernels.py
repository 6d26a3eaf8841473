"""Batched prefix-aggregation kernels over trial matrices.

The statistical layer evaluates the same block-level quantities —
:math:`|C_n(S)|` (Eq. 1/3) and :math:`|C_n(S) \\cap C_n(T)|`
(Eqs. 4-5) — over *ensembles* of equal-cardinality address sets: the
paper's 1000 random control subsets.  These kernels compute those
quantities for every trial and every prefix length in a few full-matrix
numpy passes instead of a per-trial Python loop.

All kernels take a ``(trials, cardinality)`` ``uint32`` matrix whose
**rows are sorted ascending**.  One row-sort pays for every prefix
length.  The values sharing their first n bits with ``x`` form an
interval around ``x``, so in a sorted row a cell starts a new /n block
iff its common prefix length (lcp) with its left neighbour is below n —
and that length, ``32 - bit_length(x ^ left)``, is one number per cell
for all prefixes at once.  :func:`block_counts_2d` and
:func:`intersection_counts_2d` turn each cell into the interval of
prefix lengths it counts at and histogram the intervals per row: one
pass over the matrix, in chunks of :data:`ROW_CHUNK` rows, for all 17
prefixes of the paper's figures.

Rows may contain duplicate addresses (a duplicate never starts a new
block, so unique-block counts come out right); empty matrices — zero
trials or zero cardinality — yield all-zero counts.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.ipspace.addr import prefix_mask
from repro.ipspace.cidr import mask_array
from repro.obs import metrics as obs_metrics

__all__ = [
    "block_counts_2d",
    "intersection_counts_2d",
    "member_counts_2d",
    "merge_unique",
]

#: Rows per pass: keeps every temporary at ``ROW_CHUNK x cardinality``
#: cells (a few MB at paper scale) however many trials the matrix holds.
ROW_CHUNK = 64
#: Prefix-interval endpoints 0..33: a cell counts at the prefix lengths
#: ``start <= n < end``, and 33 means "past /32".
_BINS = 34


def _check_matrix(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"trial matrix must be 2-D, got shape {rows.shape}")
    if rows.dtype != np.uint32:
        raise ValueError(f"trial matrix must be uint32, got {rows.dtype}")
    return rows


def _bit_length(values: np.ndarray) -> np.ndarray:
    """Element-wise ``int.bit_length`` of a ``uint32`` array, as ``int32``.

    ``frexp`` writes each value, exactly representable in ``float64``,
    as ``m * 2**e`` with ``0.5 <= m < 1``: ``e`` is the bit length (0
    for 0).  The common prefix length of ``x`` and ``y`` is then
    ``32 - _bit_length(x ^ y)``.
    """
    return np.frexp(values)[1]


def _check_prefixes(prefixes: Sequence[int]) -> np.ndarray:
    for n in prefixes:
        prefix_mask(n)  # raises on a length outside 0..32
    return np.asarray(prefixes, dtype=np.intp)


def _block_starts(chunk: np.ndarray) -> np.ndarray:
    """The shortest prefix length at which each cell starts a block.

    In a sorted row a cell opens a new /n block iff its common prefix
    with its left neighbour is shorter than n, i.e. iff
    ``n >= 1 + lcp``; the first cell of a row opens one at every n.
    A duplicate gets 33: it never starts a block.
    """
    starts = np.zeros(chunk.shape, dtype=np.int32)
    np.subtract(
        _BINS - 1, _bit_length(chunk[:, 1:] ^ chunk[:, :-1]), out=starts[:, 1:]
    )
    return starts


def _present_ends(chunk: np.ndarray, finest: np.ndarray) -> np.ndarray:
    """One past the longest prefix at which each cell's block is present.

    The block of ``x`` at n is in the nested block sets iff some block
    of the finest set shares ``x``'s first n bits, and the block sharing
    the most is ``x``'s predecessor or successor in sorted ``finest``
    (the values sharing a prefix with ``x`` form an interval around
    it).  Lengths past the finest prefix are never read, so ``x`` need
    not be masked first.
    """
    idx = np.searchsorted(finest, chunk)
    succ = finest[np.minimum(idx, finest.size - 1)]
    np.subtract(idx, 1, out=idx)
    np.maximum(idx, 0, out=idx)
    nearest = np.minimum(chunk ^ succ, chunk ^ finest[idx])
    return (_BINS - 1) - _bit_length(nearest)


def _count_columns(
    starts: np.ndarray, ends: Optional[np.ndarray], columns: np.ndarray
) -> np.ndarray:
    """Per row and column, the cells with ``starts <= columns[j] < ends``.

    A difference histogram over the 34 possible interval endpoints —
    +1 at each start, -1 at each end — cumulated along the prefix axis
    gives every prefix length's count at once.  ``ends=None`` means no
    cell's interval ends before /32.
    """
    rows = starts.shape[0]
    base = (np.arange(rows, dtype=np.int32) * _BINS)[:, None]
    if ends is None:
        diff = np.bincount((starts + base).ravel(), minlength=rows * _BINS)
    else:
        hit = starts < ends
        diff = np.bincount((starts + base)[hit], minlength=rows * _BINS)
        diff -= np.bincount((ends + base)[hit], minlength=rows * _BINS)
    return np.cumsum(diff.reshape(rows, _BINS), axis=1)[:, columns]


def _finest_blocks(
    blocks_by_prefix: Sequence[np.ndarray], prefixes: Tuple[int, ...]
) -> np.ndarray:
    """The block set at the longest prefix, checked to nest all the others.

    The one-pass intersection needs every ``blocks_by_prefix[j]`` to be
    the distinct /``prefixes[j]`` masks of that finest set — which holds
    whenever each set is ``cidr_set(report, n)`` of one report.
    """
    top = max(prefixes)
    finest = np.asarray(blocks_by_prefix[prefixes.index(top)])
    if finest.size and not (
        (finest[1:] > finest[:-1]).all()
        and (mask_array(finest, top) == finest).all()
    ):
        raise ValueError(f"the /{top} block set is not sorted unique networks")
    for blocks, n in zip(blocks_by_prefix, prefixes):
        masked = mask_array(finest, n)
        keep = np.ones(masked.size, dtype=bool)
        np.not_equal(masked[1:], masked[:-1], out=keep[1:])
        if not np.array_equal(masked[keep], blocks):
            raise ValueError(
                f"block sets do not nest: the /{n} set is not the /{n} "
                f"masks of the /{top} set"
            )
    return finest


def block_counts_2d(
    rows: np.ndarray, prefixes: Sequence[int]
) -> np.ndarray:
    """:math:`|C_n(\\text{row})|` for every row and prefix length.

    ``rows`` is a row-sorted ``(trials, cardinality)`` ``uint32`` matrix;
    the result is ``(trials, len(prefixes))`` ``int64``.  This is the
    batched form of the Figure 2/3 Monte-Carlo statistic: one pass over
    the matrix finds each cell's common prefix length with its left
    neighbour, and a per-row histogram of those lengths counts the
    blocks at every prefix.
    """
    rows = _check_matrix(rows)
    columns = _check_prefixes(prefixes)
    out = np.zeros((rows.shape[0], columns.size), dtype=np.int64)
    if rows.size == 0:
        return out
    obs_metrics.inc("kernels.block_counts_2d.trials", rows.shape[0])
    for lo in range(0, rows.shape[0], ROW_CHUNK):
        starts = _block_starts(rows[lo:lo + ROW_CHUNK])
        out[lo:lo + ROW_CHUNK] = _count_columns(starts, None, columns)
    return out


def intersection_counts_2d(
    rows: np.ndarray,
    blocks_by_prefix: Sequence[np.ndarray],
    prefixes: Sequence[int],
    weights_by_prefix: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """Block intersections of every row with a fixed per-prefix block set.

    For each row ``S`` and prefix ``n`` (with ``blocks_by_prefix[j]`` the
    sorted unique masked networks of the fixed report at ``n``), computes
    :math:`|C_n(S) \\cap C_n(T)|` — the Eq. 4/5 quantity batched over the
    whole ensemble.  With ``weights_by_prefix`` (one weight per fixed
    block), each intersected block contributes its weight instead of 1:
    passing per-block address multiplicities turns the kernel into "how
    many of the fixed report's *addresses* fall inside the row's blocks"
    (the §6 null-model statistic).

    The block sets must nest — each the masks of the set at the longest
    prefix, as ``cidr_set`` of one report gives — or ``ValueError`` is
    raised.  A cell then counts at exactly the prefixes from where it
    starts a block in its row up to the longest at which its block is
    present, so one pass and a difference histogram give every column.

    ``rows`` must be row-sorted; the result is
    ``(trials, len(prefixes))`` ``int64``.
    """
    rows = _check_matrix(rows)
    prefixes = tuple(prefixes)
    columns = _check_prefixes(prefixes)
    if len(blocks_by_prefix) != len(prefixes):
        raise ValueError(
            f"{len(blocks_by_prefix)} block sets for {len(prefixes)} prefixes"
        )
    if weights_by_prefix is not None and len(weights_by_prefix) != len(prefixes):
        raise ValueError(
            f"{len(weights_by_prefix)} weight sets for {len(prefixes)} prefixes"
        )
    out = np.zeros((rows.shape[0], len(prefixes)), dtype=np.int64)
    if rows.size == 0 or not prefixes:
        return out
    obs_metrics.inc("kernels.intersection_counts_2d.trials", rows.shape[0])
    finest = _finest_blocks(blocks_by_prefix, prefixes)
    if finest.size == 0:
        return out
    for lo in range(0, rows.shape[0], ROW_CHUNK):
        chunk = rows[lo:lo + ROW_CHUNK]
        starts = _block_starts(chunk)
        ends = _present_ends(chunk, finest)
        if weights_by_prefix is None:
            out[lo:lo + ROW_CHUNK] = _count_columns(starts, ends, columns)
            continue
        # Weighted: each hit cell adds its block's weight at every
        # prefix it counts at, looked up among the hit cells only.
        hit = starts < ends
        row_of = np.nonzero(hit)[0]
        cells, first, last = chunk[hit], starts[hit], ends[hit]
        for column, n in enumerate(prefixes):
            sel = (first <= n) & (n < last)
            blocks = blocks_by_prefix[column]
            weights = np.asarray(weights_by_prefix[column], dtype=np.int64)
            idx = np.searchsorted(blocks, mask_array(cells[sel], n))
            np.add.at(out[lo:lo + ROW_CHUNK, column], row_of[sel], weights[idx])
    return out


def member_counts_2d(
    rows: np.ndarray,
    blocks_by_prefix: Sequence[np.ndarray],
    prefixes: Sequence[int],
) -> np.ndarray:
    """How many of each row's *elements* fall inside a fixed block set.

    Unlike :func:`intersection_counts_2d` this counts addresses with
    multiplicity (the Eq. 7-9 scoring and blocklist-coverage quantity),
    so rows need not be sorted or deduplicated.  ``blocks_by_prefix[j]``
    must be sorted unique masked networks at ``prefixes[j]``; the result
    is ``(trials, len(prefixes))`` ``int64``.
    """
    rows = _check_matrix(rows)
    prefixes = tuple(prefixes)
    if len(blocks_by_prefix) != len(prefixes):
        raise ValueError(
            f"{len(blocks_by_prefix)} block sets for {len(prefixes)} prefixes"
        )
    out = np.zeros((rows.shape[0], len(prefixes)), dtype=np.int64)
    if rows.size == 0:
        return out
    obs_metrics.inc("kernels.member_counts_2d.trials", rows.shape[0])
    for column, n in enumerate(prefixes):
        blocks = np.asarray(blocks_by_prefix[column])
        if blocks.size == 0:
            continue
        masked = mask_array(rows, n)
        idx = np.searchsorted(blocks, masked)
        np.minimum(idx, blocks.size - 1, out=idx)
        out[:, column] = np.count_nonzero(blocks[idx] == masked, axis=1)
    return out


# -- sorted-set union for the streaming fold and the score table -------------
#
# The stream merges each day's reports into its sorted-unique rolling
# sets without a re-sort: one searchsorted of the sorted day-batch
# against the set finds which elements are new and where they go.
# BlockScores.from_counts unions the per-class block sets the same way.


def merge_unique(
    existing: np.ndarray, batch: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge a sorted-unique ``batch`` into a sorted-unique ``existing``.

    Returns ``(merged, fresh)`` where ``fresh`` marks the batch elements
    that were *not* already present — the per-day delta the stream
    reports as fresh addresses.
    """
    existing = np.asarray(existing)
    batch = np.asarray(batch, dtype=existing.dtype)
    if batch.size == 0:
        return existing, np.zeros(0, dtype=bool)
    if existing.size == 0:
        return batch.copy(), np.ones(batch.size, dtype=bool)
    idx = np.searchsorted(existing, batch)
    clipped = np.minimum(idx, existing.size - 1)
    fresh = ~((idx < existing.size) & (existing[clipped] == batch))
    if not fresh.any():
        return existing, fresh
    merged = np.insert(existing, idx[fresh], batch[fresh])
    return merged, fresh

