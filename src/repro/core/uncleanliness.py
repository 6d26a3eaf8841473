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

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core import cidr as rcidr
from repro.core.report import Report
from repro.ipspace.addr import AddressLike
from repro.ipspace.cidr import CIDRBlock, mask_address, mask_array
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
    """Scored CIDR blocks: one row per block seen in any input report."""

    prefix_len: int
    blocks: np.ndarray  # sorted masked network ints
    class_counts: Dict[str, np.ndarray]  # per-class address counts per block
    scores: np.ndarray  # aggregate score per block, in [0, 1]

    def score_of(self, address: AddressLike) -> float:
        """Aggregate score of the block containing ``address`` (0 if unseen)."""
        net = np.uint32(mask_address(address, self.prefix_len))
        idx = int(np.searchsorted(self.blocks, net))
        if idx < self.blocks.size and self.blocks[idx] == net:
            return float(self.scores[idx])
        return 0.0

    def dimensions_of(self, address: AddressLike) -> Dict[str, int]:
        """Per-class address counts for the block containing ``address``."""
        net = np.uint32(mask_address(address, self.prefix_len))
        idx = int(np.searchsorted(self.blocks, net))
        if idx < self.blocks.size and self.blocks[idx] == net:
            return {cls: int(col[idx]) for cls, col in self.class_counts.items()}
        return {cls: 0 for cls in self.class_counts}

    def top(self, count: int) -> List[dict]:
        """The ``count`` most unclean blocks, with per-class evidence."""
        order = np.argsort(self.scores)[::-1][:count]
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

        per_class = {
            cls: np.unique(
                mask_array(report.addresses, self.prefix_len), return_counts=True
            )
            for cls, report in reports.items()
        }
        return BlockScores.from_counts(self.prefix_len, per_class, self.weights)


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
