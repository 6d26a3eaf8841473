"""Rolling uncleanliness tracking.

The paper evaluates one static snapshot (an October fortnight scored
against a May report).  Operating the idea means running it as a loop:
every reporting period, fold the new unclean reports into per-block
scores, refresh the blocklist, age out stale entries, and measure how
well the current list covers the *next* period's hostile population.
:class:`UncleanlinessTracker` is that loop, built from the library's
scorer (§7 metric) and TTL blocklist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.core.blocklist import Blocklist
from repro.core.report import Report
from repro.core.stats import exceedance_fraction, summarize
from repro.core.uncleanliness import UncleanlinessScorer
from repro.ipspace.kernels import member_counts_2d

__all__ = ["TrackerConfig", "UncleanlinessTracker"]


@dataclass(frozen=True)
class TrackerConfig:
    """Tracker policy."""

    #: Blocklist granularity (the paper's operative /24).
    prefix_len: int = 24

    #: Score a block must reach in one update to be (re)listed.
    listing_threshold: float = 0.5

    #: Entry lifetime per (re)listing.
    ttl_days: int = 45

    #: Evidence decay half-life (long, per temporal uncleanliness).
    score_half_life_days: float = 60.0

    #: Per-class evidence weights (None = scorer defaults).
    weights: Optional[Dict[str, float]] = None

    def validate(self) -> None:
        if not 0 <= self.prefix_len <= 32:
            raise ValueError("prefix_len out of range")
        if not 0 <= self.listing_threshold <= 1:
            raise ValueError("listing_threshold must be in [0, 1]")
        if self.ttl_days <= 0:
            raise ValueError("ttl_days must be positive")


class UncleanlinessTracker:
    """Maintains a scored blocklist across reporting periods."""

    def __init__(self, config: TrackerConfig = TrackerConfig()) -> None:
        config.validate()
        self.config = config
        self.blocklist = Blocklist(
            prefix_len=config.prefix_len,
            default_ttl_days=config.ttl_days,
            score_half_life_days=config.score_half_life_days,
        )
        self.history: List[dict] = []

    def update(self, day: int, reports: Mapping[str, Report]) -> dict:
        """Fold one period's reports into the list; returns a snapshot.

        ``reports`` maps class names (must be known to the scorer's
        weights) to that period's reports.
        """
        if not reports:
            raise ValueError("update needs at least one report")
        weights = self.config.weights
        if weights is None:
            scorer = UncleanlinessScorer(prefix_len=self.config.prefix_len)
            # Restrict default weights to the classes supplied.
            scorer.weights = {
                cls: w for cls, w in scorer.weights.items() if cls in reports
            }
            missing = set(reports) - set(scorer.weights)
            for cls in missing:
                scorer.weights[cls] = 1.0
        else:
            scorer = UncleanlinessScorer(
                prefix_len=self.config.prefix_len, weights=weights
            )
        scores = scorer.score(reports)
        listed = self.blocklist.add_scores(
            scores, day, threshold=self.config.listing_threshold
        )
        pruned = self.blocklist.prune(day)
        snapshot = {
            "day": day,
            "scored_blocks": len(scores),
            "listed_or_refreshed": listed,
            "pruned": pruned,
            "active_entries": len(self.blocklist.entries(day)),
        }
        self.history.append(snapshot)
        return snapshot

    def evaluate(
        self,
        day: int,
        hostile: Report,
        benign: Optional[Report] = None,
        control: Optional[Report] = None,
        rng: Optional[np.random.Generator] = None,
        subsets: int = 1000,
    ) -> dict:
        """Score the current list against ground truth on ``day``.

        Returns the hostile coverage (recall) and, when a benign
        population is supplied, the collateral rate (fraction of benign
        addresses the list would drop).

        When ``control`` is supplied (``rng`` then required), also runs
        the Monte-Carlo null of §4/§5 against the *current list*: the
        coverage the active blocks achieve over ``subsets`` random
        control subsets of hostile cardinality.  Adds
        ``control_coverage`` (a :class:`~repro.core.stats.
        BoxplotSummary` of per-subset coverage fractions) and
        ``coverage_exceedance`` (the fraction of control subsets the
        hostile coverage beats — the tracker is doing real work when
        this is near 1).  The exceedance compares exact covered-address
        counts; only the reported fractions are rounded.
        """
        result = {
            "day": day,
            "active_entries": len(self.blocklist.entries(day)),
            "hostile_coverage": round(self.blocklist.coverage(hostile, day), 4),
        }
        if benign is not None:
            result["benign_collateral"] = round(
                self.blocklist.coverage(benign, day), 4
            )
        if control is not None:
            if rng is None:
                raise ValueError("control evaluation requires an explicit rng")
            matrix = self.control_coverage_matrix(
                day, len(hostile), control, rng, subsets=subsets
            )
            covered = int(self.blocklist.blocked_mask(hostile.addresses, day).sum())
            result["control_coverage"] = summarize(
                matrix[:, 0] / max(len(hostile), 1)
            )
            result["coverage_exceedance"] = round(
                exceedance_fraction(covered, matrix[:, 0]), 4
            )
        return result

    def control_coverage_matrix(
        self,
        day: int,
        size: int,
        control: Report,
        rng: np.random.Generator,
        subsets: int = 1000,
    ) -> np.ndarray:
        """Monte-Carlo matrix of covered-address counts for the active list.

        One column (the list's single prefix length) and ``subsets``
        rows: how many of each random control subset's addresses the
        list in force on ``day`` blocks, all counted by one
        :func:`member_counts_2d` call.  This is the null for
        :meth:`evaluate`, the coverage the list would achieve against
        random equal-cardinality addresses rather than the period's
        hostile population.
        """
        from repro.core.sampling import monte_carlo

        networks = (self.blocklist.active_networks(day),)
        prefixes = (self.config.prefix_len,)
        return monte_carlo(
            control,
            size,
            subsets,
            rng,
            statistic=lambda trials: member_counts_2d(trials, networks, prefixes),
        )

    def series(self) -> List[dict]:
        """All update snapshots, oldest first."""
        return list(self.history)

    def __repr__(self) -> str:
        return (
            f"UncleanlinessTracker(updates={len(self.history)}, "
            f"blocklist={self.blocklist!r})"
        )
