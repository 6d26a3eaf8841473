"""A multidimensional uncleanliness metric.

The paper's conclusion (§7) sketches its follow-on goal: "a more rigorous
and precise uncleanliness metric ... a multidimensional uncleanliness
metric to measure the aggregate probability that an address is occupied",
motivated by the finding that the indicators are *not* one-dimensional —
bots, scanning and spamming move together while phishing follows its own
geography (§5.2).

This module provides that forward-looking API: per-CIDR-block scores that
aggregate evidence from multiple report classes, keeping each dimension
visible so that bot-like and phishing-like uncleanliness can be weighted
(or inspected) separately.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core import cidr as rcidr
from repro.core.report import Report
from repro.ipspace.addr import AddressLike, as_array, as_int, prefix_mask
from repro.ipspace.cidr import CIDRBlock, mask_array
from repro.ipspace.kernels import merge_unique

__all__ = [
    "DEFAULT_WEIGHTS",
    "BlockScores",
    "UncleanlinessScorer",
    "block_jaccard",
]

#: Default per-class weights: bots and their activity classes co-move
#: (Figure 4), phishing is an independent dimension (Figure 5), and
#: observed C&C rendezvous (the §7 extension indicator) is conclusive
#: evidence of occupation.
DEFAULT_WEIGHTS: Mapping[str, float] = MappingProxyType(
    {
        "bots": 1.0,
        "scanning": 0.8,
        "spam": 0.8,
        "phishing": 0.5,
        "cnc": 1.0,
    }
)


@dataclass(frozen=True)
class BlockScores:
    """Scored CIDR blocks at one prefix length: the §7 score table.

    ``blocks`` is a strictly increasing ``uint32`` array of
    ``/prefix_len`` network addresses and ``scores`` the aligned
    ``float64`` scores in ``[0, 1]``; both are read-only.
    ``class_counts`` holds the aligned per-class address counts (empty
    for models without per-class evidence).  Every address lookup runs
    one of two searches: :meth:`scores_of` for an array, ``_row`` — one
    :func:`bisect.bisect_left` over list views of ``blocks`` and
    ``scores``, built on the first single lookup — for one address.
    """

    prefix_len: int
    blocks: np.ndarray
    class_counts: Dict[str, np.ndarray]
    scores: np.ndarray

    def __post_init__(self) -> None:
        mask = np.uint32(prefix_mask(self.prefix_len))
        blocks = as_array(self.blocks)
        scores = np.asarray(self.scores, dtype=np.float64)
        if blocks.shape != scores.shape or blocks.ndim != 1:
            raise ValueError(
                f"blocks {blocks.shape} and scores {scores.shape} must be "
                "aligned 1-D arrays"
            )
        if np.any(blocks[1:] <= blocks[:-1]):
            raise ValueError("blocks must be strictly increasing")
        if np.any(blocks & mask != blocks):
            raise ValueError(f"blocks are not /{self.prefix_len} network addresses")
        for name, column in self.class_counts.items():
            if np.shape(column) != blocks.shape:
                raise ValueError(f"{name!r} counts are not aligned with blocks")
        blocks.setflags(write=False)
        scores.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "scores", scores)

    # -- lookups ----------------------------------------------------------

    @cached_property
    def _views(self) -> Tuple[int, List[int], List[float]]:
        # Built on the first single lookup, not at construction: the
        # stream's checkpoint snapshots hold tables that never serve a
        # lookup, so only the live table pays for these.
        return prefix_mask(self.prefix_len), self.blocks.tolist(), self.scores.tolist()

    def _row(self, address: AddressLike) -> int:
        """Row of the block containing ``address``, or -1 if unscored."""
        net = as_int(address)
        mask, blocks, _ = self._views
        net &= mask
        row = bisect_left(blocks, net)
        return row if row < len(blocks) and blocks[row] == net else -1

    def score_of(self, address: AddressLike) -> float:
        """Aggregate score of the block containing ``address`` (0 if unseen)."""
        row = self._row(address)
        return self._views[2][row] if row >= 0 else 0.0

    def scores_of(self, addresses) -> np.ndarray:
        """Vectorised :meth:`score_of`: one ``float64`` per address."""
        nets = mask_array(addresses, self.prefix_len)
        out = np.zeros(nets.shape, dtype=np.float64)
        if self.blocks.size:
            rows = np.minimum(np.searchsorted(self.blocks, nets), self.blocks.size - 1)
            hit = self.blocks[rows] == nets
            out[hit] = self.scores[rows[hit]]
        return out

    def in_blocklist(self, address: AddressLike, threshold: float) -> bool:
        """Whether ``address`` lies in :meth:`blocklist` ``(threshold)``:
        in a scored block whose score is ``>= threshold``."""
        row = self._row(address)
        return row >= 0 and self._views[2][row] >= threshold

    def dimensions_of(self, address: AddressLike) -> Dict[str, int]:
        """Per-class address counts for the block containing ``address``."""
        row = self._row(address)
        return {
            cls: int(col[row]) if row >= 0 else 0
            for cls, col in self.class_counts.items()
        }

    # -- ordering ---------------------------------------------------------

    def ranked_blocks(self, count: Optional[int] = None) -> np.ndarray:
        """The blocks best first (score descending, ties by ascending
        block), optionally truncated to ``count``."""
        ranked = self.blocks[np.lexsort((self.blocks, -self.scores))]
        return ranked if count is None else ranked[: max(int(count), 0)]

    def top(self, count: int) -> List[dict]:
        """The ``count`` most unclean blocks, with per-class evidence."""
        order = np.argsort(self.scores)[::-1][: max(int(count), 0)]
        rows = []
        for idx in order:
            row = {
                "block": str(CIDRBlock(int(self.blocks[idx]), self.prefix_len)),
                "score": round(float(self.scores[idx]), 4),
            }
            for cls, col in self.class_counts.items():
                row[cls] = int(col[idx])
            rows.append(row)
        return rows

    def blocklist(self, threshold: float) -> List[CIDRBlock]:
        """Blocks whose score meets ``threshold`` — a deployable blocklist."""
        chosen = self.blocks[self.scores >= threshold]
        return [CIDRBlock(int(net), self.prefix_len) for net in chosen]

    def __len__(self) -> int:
        return int(self.blocks.size)

    @classmethod
    def from_counts(
        cls,
        prefix_len: int,
        per_class: Mapping[str, Tuple[np.ndarray, np.ndarray]],
        weights: Mapping[str, float],
    ) -> "BlockScores":
        """The §7 score table from per-class block counts.

        ``per_class`` maps each class to ``(blocks, counts)``: its sorted
        unique masked networks and the member-address count of each.
        Every class contributes saturating evidence ``1 - exp(-count/4)``
        and the classes combine through a ``weights``-weighted noisy-OR,
        multiplied in ``per_class`` order — floating multiplication is
        not associative, so two callers agree bit for bit only when they
        pass their classes in the same order.
        """
        blocks = np.zeros(0, dtype=np.uint32)
        for nets, _ in per_class.values():
            blocks, _ = merge_unique(blocks, nets)
        class_counts: Dict[str, np.ndarray] = {}
        miss_probability = np.ones(blocks.size, dtype=np.float64)
        for name, (nets, counts) in per_class.items():
            column = np.zeros(blocks.size, dtype=np.int64)
            column[np.searchsorted(blocks, nets)] = counts
            class_counts[name] = column
            evidence = 1.0 - np.exp(-column / 4.0)  # saturates around ~12 addrs
            miss_probability *= 1.0 - np.clip(weights[name], 0, 1) * evidence
        return cls(
            prefix_len=prefix_len,
            blocks=blocks,
            class_counts=class_counts,
            scores=1.0 - miss_probability,
        )

    @classmethod
    def from_addresses(
        cls,
        prefix_len: int,
        per_class: Mapping[str, np.ndarray],
        weights: Mapping[str, float],
    ) -> "BlockScores":
        """The §7 score table from per-class address arrays.

        Counts each class's addresses per ``/prefix_len`` block and
        scores the counts with :meth:`from_counts`, in ``per_class``
        order.  :meth:`UncleanlinessScorer.score` and the stream fold
        both score through here, so equal sets give identical tables.
        """
        return cls.from_counts(
            prefix_len,
            {
                name: np.unique(
                    mask_array(addresses, prefix_len), return_counts=True
                )
                for name, addresses in per_class.items()
            },
            weights,
        )


class UncleanlinessScorer:
    """Aggregates report classes into per-block uncleanliness scores.

    Each class contributes a saturating evidence term
    ``1 - exp(-count / 4)``, so one spammer does not equal thirty, but
    thirty does not equal three thousand either; class terms combine
    through a weighted noisy-OR (:meth:`BlockScores.from_counts`),
    reflecting "aggregate probability that an address is occupied" (§7).
    """

    def __init__(
        self,
        prefix_len: int = 24,
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"prefix length out of range: {prefix_len}")
        self.prefix_len = prefix_len
        self.weights = dict(weights) if weights is not None else dict(DEFAULT_WEIGHTS)
        for cls, weight in self.weights.items():
            if weight < 0:
                raise ValueError(f"negative weight for class {cls!r}")

    def score(self, reports: Mapping[str, Report]) -> BlockScores:
        """Score every block touched by any of ``reports``.

        ``reports`` maps a class name (must appear in the scorer's
        weights) to the report providing that dimension's evidence.
        """
        unknown = set(reports) - set(self.weights)
        if unknown:
            raise ValueError(f"no weights for report classes: {sorted(unknown)}")
        if not reports:
            raise ValueError("at least one report is required")

        return BlockScores.from_addresses(
            self.prefix_len,
            {cls: report.addresses for cls, report in reports.items()},
            self.weights,
        )


def block_jaccard(first: Report, second: Report, prefix_len: int) -> float:
    """Jaccard similarity of two reports' block sets at ``prefix_len``.

    A compact cross-relationship measure: bots/scan/spam pairs score far
    higher than any pairing with phishing (§5.2's multidimensionality
    finding).
    """
    a = rcidr.cidr_set(first, prefix_len)
    b = rcidr.cidr_set(second, prefix_len)
    union = np.union1d(a, b).size
    if union == 0:
        return 0.0
    return float(np.intersect1d(a, b).size / union)
