"""Precomputed interval index over IPv4 space for O(log n) lookups.

The streaming query surface answers ``score(ip)`` / ``is_blocked(ip)``
against the *current* blocklist and score table.  Both are sets of
disjoint CIDR blocks, i.e. sorted non-overlapping inclusive address
intervals, so one binary search over the interval starts resolves any
address: find the last interval starting at or below the address, then
check the address against that interval's end.  Batches (``lookup``,
``values_at``) run it as one ``searchsorted``; a single address
(``contains``, ``value_of``) runs :func:`bisect.bisect_right` over
Python-list copies of the arrays, built on the first single lookup, so
it pays no per-call NumPy overhead.

The index is frozen at build time (rebuilt per ingested day by the
stream layer, which is cheap — thousands of blocks — compared to the
per-query cost it removes) and handles the paper's edge geometry:
/32 blocks are one-address intervals, reserved or unobserved ranges are
simply absent (lookups miss), and an empty blocklist is an index of
zero intervals that rejects everything.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from repro.ipspace.addr import AddressLike, as_array, as_int, block_size, prefix_mask

__all__ = ["IntervalIndex"]


@dataclass(frozen=True)
class IntervalIndex:
    """Sorted disjoint inclusive ``[start, end]`` intervals with values.

    ``starts``/``ends`` are ``uint32`` arrays; ``values`` (optional)
    carries one float payload per interval — the block's uncleanliness
    score in the stream layer.  Addresses outside every interval look
    up as misses (``False`` membership, default value).
    """

    starts: np.ndarray
    ends: np.ndarray
    values: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        starts = np.asarray(self.starts, dtype=np.uint32)
        ends = np.asarray(self.ends, dtype=np.uint32)
        if starts.shape != ends.shape or starts.ndim != 1:
            raise ValueError("starts and ends must be matching 1-D arrays")
        if np.any(ends < starts):
            raise ValueError("interval ends before it starts")
        if starts.size > 1:
            if np.any(starts[1:] <= starts[:-1]):
                raise ValueError("interval starts must be strictly increasing")
            if np.any(starts[1:].astype(np.int64) <= ends[:-1].astype(np.int64)):
                raise ValueError("intervals overlap")
        starts = starts.copy()
        ends = ends.copy()
        starts.setflags(write=False)
        ends.setflags(write=False)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ends", ends)
        if self.values is not None:
            values = np.asarray(self.values, dtype=np.float64).copy()
            if values.shape != starts.shape:
                raise ValueError("values shape does not match intervals")
            values.setflags(write=False)
            object.__setattr__(self, "values", values)

    @classmethod
    def empty(cls) -> "IntervalIndex":
        """An index with no intervals (every lookup misses)."""
        return cls(
            starts=np.asarray([], dtype=np.uint32),
            ends=np.asarray([], dtype=np.uint32),
        )

    @classmethod
    def from_blocks(
        cls,
        networks: np.ndarray,
        prefix_len: int,
        values: Optional[np.ndarray] = None,
    ) -> "IntervalIndex":
        """Index the sorted masked ``networks`` of one prefix length.

        Same-prefix CIDR blocks are disjoint by construction; a /32
        block degenerates to a one-address interval (``start == end``).
        A network with host bits set raises ``ValueError``: it would
        index an interval straddling two blocks.
        """
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"prefix length out of range: {prefix_len}")
        networks = np.asarray(networks, dtype=np.uint32)
        if np.any(networks & np.uint32(prefix_mask(prefix_len)) != networks):
            raise ValueError(f"networks are not /{prefix_len} network addresses")
        span = np.int64(block_size(prefix_len) - 1)
        ends = (networks.astype(np.int64) + span).astype(np.uint32)
        return cls(starts=networks, ends=ends, values=values)

    def __len__(self) -> int:
        return int(self.starts.size)

    def covered_addresses(self) -> int:
        """Total addresses inside any interval."""
        if self.starts.size == 0:
            return 0
        spans = self.ends.astype(np.int64) - self.starts.astype(np.int64) + 1
        return int(spans.sum())

    # -- lookups ----------------------------------------------------------

    def _slots(self, addresses: np.ndarray) -> np.ndarray:
        """Candidate interval per address: last interval starting <= it."""
        return np.searchsorted(self.starts, addresses, side="right") - 1

    def lookup(self, addresses) -> np.ndarray:
        """Boolean membership mask for an address array."""
        addresses = as_array(addresses)
        if self.starts.size == 0:
            return np.zeros(addresses.shape, dtype=bool)
        slots = self._slots(addresses)
        clipped = np.maximum(slots, 0)
        return (slots >= 0) & (addresses <= self.ends[clipped])

    @cached_property
    def _scalar_views(self) -> Tuple[List[int], List[int], Optional[List[float]]]:
        # Built on the first single lookup, not at construction: the
        # stream layer's checkpoint snapshots rebuild their indexes but
        # never serve a lookup, so only the live index pays for these.
        values = None if self.values is None else self.values.tolist()
        return self.starts.tolist(), self.ends.tolist(), values

    def contains(self, address: AddressLike) -> bool:
        """Whether one address falls inside any interval."""
        address = as_int(address)
        starts, ends, _ = self._scalar_views
        slot = bisect_right(starts, address) - 1
        return slot >= 0 and address <= ends[slot]

    def values_at(self, addresses, default: float = 0.0) -> np.ndarray:
        """Per-address interval values; ``default`` outside every interval."""
        if self.values is None:
            raise ValueError("index was built without values")
        addresses = as_array(addresses)
        out = np.full(addresses.shape, float(default), dtype=np.float64)
        if self.starts.size == 0:
            return out
        slots = self._slots(addresses)
        clipped = np.maximum(slots, 0)
        hit = (slots >= 0) & (addresses <= self.ends[clipped])
        out[hit] = self.values[clipped[hit]]
        return out

    def value_of(self, address: AddressLike, default: float = 0.0) -> float:
        """The value of the interval containing one address."""
        address = as_int(address)
        starts, ends, values = self._scalar_views
        if values is None:
            raise ValueError("index was built without values")
        default = float(default)
        slot = bisect_right(starts, address) - 1
        if slot >= 0 and address <= ends[slot]:
            return values[slot]
        return default

    def __repr__(self) -> str:
        return (
            f"IntervalIndex(intervals={len(self)}, "
            f"addresses={self.covered_addresses()}, "
            f"values={self.values is not None})"
        )
