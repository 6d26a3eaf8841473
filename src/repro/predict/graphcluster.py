"""Haider/Scheffer-style greedy graph-clustering predictor.

Haider and Scheffer ("Finding Botnets Using Minimal Graph Clusterings",
ICML 2012) infer botnets by clustering attacking hosts whose behaviour
co-occurs, scoring each cluster as a unit: evidence against any member
raises suspicion of every member.  The transfer to address-block
prediction: infected populations occupy *runs* of adjacent CIDR blocks
(the same spatial concentration the uncleanliness paper measures), so
blocks near strong evidence deserve that evidence's score.

The adaptation is a greedy single-link clustering over the sorted
training blocks, vectorised end to end:

1. Blocks at ``prefix_len`` are sorted (they already are) and a cluster
   boundary is drawn wherever the gap to the previous block exceeds
   ``merge_gap`` block widths, or the ``prefix_len - 8`` parent prefix
   changes — single-link merge without ever materialising a graph.
2. Each cluster pools its members' evidence ``sum(log1p(count))`` and
   scores ``1 - exp(-evidence / tau)`` — the same saturating form as
   the uncleanliness scorer, so rival scores share one axis.
3. Isolated singleton clusters below ``min_support`` addresses are
   damped by ``singleton_penalty``: one lone address is weak evidence
   of a population (the minimal-clustering intuition that a botnet
   explanation must cover multiple observations).
4. Every member block inherits its cluster's score, so a weak block
   inside a strong run outranks a strong block standing alone —
   exactly where this model's ranking departs from per-block
   uncleanliness.

Departures from Haider/Scheffer are catalogued in DESIGN.md: the
clustering is spatial single-link over address gaps rather than a
minimal clustering over attack co-occurrence graphs, and there is no
Bayesian model selection over the number of clusters.

Deterministic by construction — pure numpy, no RNG anywhere.
"""

from __future__ import annotations

import numpy as np

from repro.core.uncleanliness import BlockScores
from repro.ipspace.addr import block_size
from repro.ipspace.cidr import mask_array
from repro.predict.protocol import BasePredictor

__all__ = ["GraphClusterPredictor"]


class GraphClusterPredictor(BasePredictor):
    """Greedy single-link block clustering (Haider/Scheffer style).

    Parameters
    ----------
    merge_gap:
        Maximum gap, in block widths, bridged when merging adjacent
        blocks into one cluster (1 = only touching-or-one-hole runs).
    min_support:
        Minimum addresses a singleton cluster needs to escape damping.
    singleton_penalty:
        Multiplier applied to under-supported singleton clusters,
        in ``[0, 1]``.
    tau:
        Evidence scale of the saturating cluster score.
    """

    name = "graphcluster"

    def __init__(
        self,
        merge_gap: int = 1,
        min_support: int = 2,
        singleton_penalty: float = 0.5,
        tau: float = 4.0,
    ) -> None:
        super().__init__()
        if merge_gap < 0:
            raise ValueError("merge_gap must be non-negative")
        if min_support < 1:
            raise ValueError("min_support must be at least 1")
        if not 0.0 <= singleton_penalty <= 1.0:
            raise ValueError("singleton_penalty must lie in [0, 1]")
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.merge_gap = int(merge_gap)
        self.min_support = int(min_support)
        self.singleton_penalty = float(singleton_penalty)
        self.tau = float(tau)

    def params(self) -> dict:
        return {
            "merge_gap": self.merge_gap,
            "min_support": self.min_support,
            "singleton_penalty": self.singleton_penalty,
            "tau": self.tau,
        }

    # -- model ------------------------------------------------------------

    def cluster_ids(self, prefix_len: int) -> np.ndarray:
        """Cluster label per sorted training block (0..n_clusters-1).

        Exposed for inspection and tests; :meth:`score_blocks` uses the
        same labelling.
        """
        blocks, _ = self._block_counts(prefix_len)
        return self._cluster(blocks, prefix_len)

    def _block_counts(self, prefix_len: int):
        masked = mask_array(self.training_addresses, prefix_len)
        return np.unique(masked, return_counts=True)

    def _cluster(self, blocks: np.ndarray, prefix_len: int) -> np.ndarray:
        """Single-link labels: a boundary wherever the gap exceeds
        ``merge_gap`` block widths or the parent prefix changes."""
        if blocks.size == 0:
            return np.zeros(0, dtype=np.int64)
        step = np.int64(block_size(prefix_len))
        wide = blocks.astype(np.int64)
        gaps = np.diff(wide)
        parent_len = max(prefix_len - 8, 0)
        parents = mask_array(blocks, parent_len)
        boundary = (gaps > self.merge_gap * step) | (
            parents[1:] != parents[:-1]
        )
        labels = np.zeros(blocks.size, dtype=np.int64)
        labels[1:] = np.cumsum(boundary)
        return labels

    def _score_blocks(self, prefix_len: int) -> BlockScores:
        blocks, counts = self._block_counts(prefix_len)
        labels = self._cluster(blocks, prefix_len)
        if blocks.size == 0:
            return BlockScores(prefix_len=prefix_len, blocks=blocks,
                               class_counts={}, scores=np.zeros(0))
        starts = np.flatnonzero(np.diff(labels, prepend=-1))
        evidence = np.add.reduceat(np.log1p(counts.astype(np.float64)),
                                   starts)
        support = np.add.reduceat(counts.astype(np.int64), starts)
        sizes = np.diff(np.append(starts, blocks.size))
        cluster_scores = 1.0 - np.exp(-evidence / self.tau)
        weak = (sizes == 1) & (support < self.min_support)
        cluster_scores[weak] *= self.singleton_penalty
        return BlockScores(
            prefix_len=prefix_len,
            blocks=blocks,
            class_counts={},
            scores=cluster_scores[labels],
        )
