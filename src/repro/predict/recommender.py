"""Soldo-style implicit-recommendation predictor.

Soldo, Le and Markopoulou ("Predictive Blacklisting as an Implicit
Recommendation System", INFOCOM 2010) treat blacklist prediction as a
recommender problem: victims are "users", attacker sources are "items",
and the rating matrix holds time-smoothed attack intensities.  Their
predictor combines an exponentially-weighted time-series model per
victim-attacker cell with a neighborhood model over victims that attack
in common, plus cross-victim propagation to sources a victim has not
seen yet.

This adaptation keeps each of those stages, scaled to the repo's data
model (tagged :class:`~repro.core.report.Report` feeds standing in for
victim logs, CIDR blocks standing in for attacker sources):

1. **EWMA time smoothing** — each feed's per-block ``log1p`` address
   count is decayed by ``0.5 ** (age / halflife_days)``, where age is
   the gap between the feed's report-period end and the prediction
   window's end ("now").  Fresh feeds dominate, stale feeds fade.
2. **Victim neighborhood (CF)** — feeds are blended with their cosine
   neighbors over the shared-block co-occurrence matrix, so a block a
   similar feed keeps reporting is recommended to feeds that have not
   seen it (the implicit-recommendation step).
3. **Spatial smoothing** — intensities are shrunk toward the mean of
   the observed sibling blocks under the same ``prefix_len - 8``
   parent, encoding the paper-under-reproduction's own finding that
   unclean blocks cluster spatially.
4. **Adjacent expansion** — immediately adjacent unobserved sibling
   blocks inherit a ``spatial``-damped mean of their observed
   neighbors, so the predicted set is a strict superset of the
   training footprint (the hallmark that distinguishes this model from
   the uncleanliness baseline, whose support is exactly the training
   blocks).

Departures from Soldo et al. are catalogued in DESIGN.md: no SVD
latent factors (their third model family), victims are whole feeds
rather than individual contributors, and the recommendation is a
single global blocklist rather than per-victim lists.

Deterministic by construction — pure numpy, no RNG anywhere.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.uncleanliness import BlockScores
from repro.ipspace.addr import block_size
from repro.ipspace.cidr import mask_array
from repro.predict.protocol import BasePredictor

__all__ = ["RecommenderPredictor"]

#: Evidence scale of the final saturating transform (matches the
#: uncleanliness scorer's ``counts / 4`` convention so rival scores are
#: comparable on one axis).
_EVIDENCE_SCALE = 4.0


class RecommenderPredictor(BasePredictor):
    """Implicit-recommendation blocklist predictor (Soldo et al. style).

    Parameters
    ----------
    halflife_days:
        EWMA half-life for report-age decay; a feed whose period ended
        one half-life before the window end contributes at 50% weight.
    blend:
        Weight of the victim-neighborhood (CF) term against each feed's
        own time-smoothed intensities, in ``[0, 1]``.
    spatial:
        Strength of parent-prefix spatial smoothing and of the adjacent
        block expansion, in ``[0, 1]``.
    expand:
        When true (default), adjacent unobserved sibling blocks enter
        the ranking with damped scores; when false the support equals
        the observed training blocks.
    """

    name = "recommender"

    def __init__(
        self,
        halflife_days: float = 30.0,
        blend: float = 0.5,
        spatial: float = 0.25,
        expand: bool = True,
    ) -> None:
        super().__init__()
        if halflife_days <= 0:
            raise ValueError("halflife_days must be positive")
        if not 0.0 <= blend <= 1.0:
            raise ValueError("blend must lie in [0, 1]")
        if not 0.0 <= spatial <= 1.0:
            raise ValueError("spatial must lie in [0, 1]")
        self.halflife_days = float(halflife_days)
        self.blend = float(blend)
        self.spatial = float(spatial)
        self.expand = bool(expand)

    def params(self) -> dict:
        return {
            "halflife_days": self.halflife_days,
            "blend": self.blend,
            "spatial": self.spatial,
            "expand": self.expand,
        }

    # -- model ------------------------------------------------------------

    def _feed_decay(self, tag: str) -> float:
        """EWMA weight of one feed: ``0.5 ** (age / halflife)``."""
        reference = self._reference_date()
        report = self.training[tag]
        if reference is None or report.period is None:
            return 1.0
        age_days = max((reference - report.period[1]).days, 0)
        return float(0.5 ** (age_days / self.halflife_days))

    def _intensity_matrix(
        self, prefix_len: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(blocks, V): V[f, b] = decayed log1p address count of feed f
        in block b, over the union block axis."""
        training = self.training
        tags = sorted(training)
        per_feed: List[Tuple[np.ndarray, np.ndarray]] = []
        for tag in tags:
            masked = mask_array(training[tag].addresses, prefix_len)
            feed_blocks, counts = np.unique(masked, return_counts=True)
            per_feed.append((feed_blocks, counts))
        blocks = np.unique(np.concatenate([fb for fb, _ in per_feed]))
        matrix = np.zeros((len(tags), blocks.size), dtype=np.float64)
        for row, (tag, (feed_blocks, counts)) in enumerate(zip(tags, per_feed)):
            idx = np.searchsorted(blocks, feed_blocks)
            matrix[row, idx] = self._feed_decay(tag) * np.log1p(counts)
        return blocks, matrix

    @staticmethod
    def _neighborhood(matrix: np.ndarray) -> np.ndarray:
        """Row-normalised cosine similarity over feeds (the victim
        neighborhood of the CF step)."""
        norms = np.sqrt((matrix * matrix).sum(axis=1))
        norms = np.maximum(norms, np.finfo(np.float64).tiny)
        unit = matrix / norms[:, np.newaxis]
        similarity = unit @ unit.T
        row_sums = np.maximum(similarity.sum(axis=1),
                              np.finfo(np.float64).tiny)
        return similarity / row_sums[:, np.newaxis]

    def _smooth_spatial(
        self, blocks: np.ndarray, intensity: np.ndarray, prefix_len: int
    ) -> np.ndarray:
        """Shrink each block toward its parent-prefix sibling mean."""
        if self.spatial == 0.0 or blocks.size == 0:
            return intensity
        parent_len = max(prefix_len - 8, 0)
        parents = mask_array(blocks, parent_len)
        _, inverse, counts = np.unique(
            parents, return_inverse=True, return_counts=True
        )
        sums = np.bincount(inverse, weights=intensity)
        parent_mean = sums[inverse] / counts[inverse]
        return (1.0 - self.spatial) * intensity + self.spatial * parent_mean

    def _expand_adjacent(
        self, blocks: np.ndarray, intensity: np.ndarray, prefix_len: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Add unobserved sibling blocks adjacent to observed ones.

        A candidate is ``block ± block_size`` inside the same
        ``prefix_len - 8`` parent; its intensity is ``spatial`` times
        the mean of its observed adjacent neighbors.  Returns the
        merged (blocks, intensity) arrays, still sorted.
        """
        if not self.expand or self.spatial == 0.0 or prefix_len == 0:
            return blocks, intensity
        step = np.int64(block_size(prefix_len))
        parent_len = max(prefix_len - 8, 0)
        wide = blocks.astype(np.int64)
        candidates = np.concatenate([wide - step, wide + step])
        sources = np.concatenate([wide, wide])
        valid = (candidates >= 0) & (candidates <= np.int64(0xFFFFFFFF))
        candidates, sources = candidates[valid], sources[valid]
        same_parent = mask_array(
            candidates.astype(np.uint32), parent_len
        ) == mask_array(sources.astype(np.uint32), parent_len)
        candidates = candidates[same_parent]
        unseen = np.setdiff1d(
            candidates.astype(np.uint32), blocks, assume_unique=False
        )
        if unseen.size == 0:
            return blocks, intensity
        # Mean observed intensity over each candidate's two neighbors.
        neighbor_sum = np.zeros(unseen.size, dtype=np.float64)
        neighbor_count = np.zeros(unseen.size, dtype=np.int64)
        for offset in (-step, step):
            neighbor = (unseen.astype(np.int64) + offset)
            in_range = (neighbor >= 0) & (neighbor <= np.int64(0xFFFFFFFF))
            pos = np.searchsorted(blocks, neighbor.astype(np.uint32))
            pos = np.minimum(pos, blocks.size - 1)
            hit = in_range & (blocks[pos] == neighbor.astype(np.uint32))
            neighbor_sum[hit] += intensity[pos[hit]]
            neighbor_count[hit] += 1
        inherited = self.spatial * neighbor_sum / np.maximum(neighbor_count, 1)
        merged_blocks = np.concatenate([blocks, unseen])
        merged_intensity = np.concatenate([intensity, inherited])
        order = np.argsort(merged_blocks, kind="stable")
        return merged_blocks[order], merged_intensity[order]

    def _score_blocks(self, prefix_len: int) -> BlockScores:
        blocks, matrix = self._intensity_matrix(prefix_len)
        # Neighborhood blend: each feed mixed with its cosine neighbors,
        # then summed into one global intensity per block.
        neighborhood = self._neighborhood(matrix)
        blended = (1.0 - self.blend) * matrix + self.blend * (
            neighborhood @ matrix
        )
        intensity = blended.sum(axis=0)
        intensity = self._smooth_spatial(blocks, intensity, prefix_len)
        blocks, intensity = self._expand_adjacent(blocks, intensity, prefix_len)
        scores = 1.0 - np.exp(-intensity / _EVIDENCE_SCALE)
        return BlockScores(
            prefix_len=prefix_len, blocks=blocks, class_counts={}, scores=scores
        )
