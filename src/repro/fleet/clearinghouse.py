"""The clearinghouse: pooled cross-network uncleanliness.

The paper's §4-§5 story is told from one network's vantage point; the
clearinghouse retells it from many.  Each member network contributes a
:class:`ShardFeed` — its report set plus the calendar day the feed is
current *as of* — and the clearinghouse pools the feeds into a shared
uncleanliness view with an explicit staleness/quorum policy:

* a feed older than ``max_staleness_days`` behind the freshest feed is
  **stale** and excluded from pooling (never silently blended in);
* a shard the supervisor gave up on is **quarantined** and absent;
* pooled scores are the noisy-OR of whatever feeds remain — they
  degrade gracefully as feeds drop out and converge back to the
  fault-free values once every shard recovers;
* if fewer than ``quorum`` feeds remain, scoring raises the typed
  :class:`QuorumError` instead of returning a quietly weaker answer
  (``allow_partial=True`` opts into the degraded view explicitly).

Pooling is pure set algebra (sorted unions of addresses), so the pooled
view is bit-identical regardless of shard scheduling order, retry
history, or which subset of shards delivered — only *membership*
matters, exactly the determinism contract the fleet supervisor needs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core import folds
from repro.core.report import Report, ReportType
from repro.core.uncleanliness import BlockScores, UncleanlinessScorer
from repro.obs import metrics as obs_metrics

log = logging.getLogger("repro.fleet.clearinghouse")

__all__ = ["FleetError", "QuorumError", "ShardFeed", "Clearinghouse"]


class FleetError(RuntimeError):
    """Base class for typed fleet/clearinghouse failures."""


class QuorumError(FleetError):
    """Too few feeds available to satisfy the clearinghouse policy."""


@dataclass(frozen=True)
class ShardFeed:
    """One member network's contribution to the clearinghouse.

    ``reports`` maps feed tags (``"bot"``, ``"spam"``, ...) to that
    network's :class:`~repro.core.report.Report`; ``as_of`` is the
    proleptic ordinal of the feed's last covered calendar day (0 when
    the reports carry no period), used by the staleness policy.
    """

    name: str
    reports: Mapping[str, Report] = field(repr=False)
    as_of: int = 0

    def report(self, tag: str) -> Report:
        return self.reports[tag]


class Clearinghouse:
    """Pool per-network report feeds into a shared uncleanliness view."""

    def __init__(
        self,
        feeds: Iterable[ShardFeed],
        *,
        quarantined: Sequence[str] = (),
        quorum: int = 1,
        max_staleness_days: Optional[int] = None,
        prefix_len: int = 24,
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.feeds: Tuple[ShardFeed, ...] = tuple(feeds)
        names = [feed.name for feed in self.feeds]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate feed names: {names}")
        if quorum < 1:
            raise ValueError(f"quorum must be >= 1: {quorum}")
        self.quarantined: Tuple[str, ...] = tuple(quarantined)
        self.quorum = int(quorum)
        self.max_staleness_days = max_staleness_days
        self.prefix_len = int(prefix_len)
        self.weights: Dict[str, float] = dict(
            weights if weights is not None else folds.DEFAULT_CLASS_WEIGHTS
        )
        #: The freshest feed's day; staleness is measured against it.
        self.head: int = max((feed.as_of for feed in self.feeds), default=0)
        if max_staleness_days is None:
            self.stale: Tuple[str, ...] = ()
        else:
            self.stale = tuple(
                feed.name
                for feed in self.feeds
                if self.head - feed.as_of > max_staleness_days
            )
        self.available: Tuple[ShardFeed, ...] = tuple(
            feed for feed in self.feeds if feed.name not in self.stale
        )
        obs_metrics.set_gauge("fleet.pool.feeds", len(self.available))
        obs_metrics.set_gauge("fleet.pool.stale", len(self.stale))
        if self.degraded:
            obs_metrics.inc("fleet.pool.degraded")
            log.warning(
                "clearinghouse degraded: available=%s stale=%s quarantined=%s",
                [feed.name for feed in self.available],
                list(self.stale),
                list(self.quarantined),
            )

    # -- policy ------------------------------------------------------------

    @property
    def quorum_met(self) -> bool:
        return len(self.available) >= self.quorum

    @property
    def degraded(self) -> bool:
        """Any feed missing, stale, or quarantined — the pooled view is
        weaker than the fault-free one."""
        return bool(self.quarantined or self.stale or not self.quorum_met)

    def feed(self, name: str) -> ShardFeed:
        for candidate in self.feeds:
            if candidate.name == name:
                return candidate
        if name in self.quarantined:
            raise FleetError(f"shard {name!r} is quarantined; no feed delivered")
        raise KeyError(f"no feed named {name!r}")

    # -- pooling -----------------------------------------------------------

    def _sources(self, exclude: Sequence[str]) -> Tuple[ShardFeed, ...]:
        excluded = set(exclude)
        return tuple(feed for feed in self.available if feed.name not in excluded)

    def pooled_report(self, tag: str, exclude: Sequence[str] = ()) -> Report:
        """The union of every available feed's ``tag`` report.

        Unions are computed as sorted unique address sets and the period
        spans the earliest start to the latest end of the carriers that
        have one, so the result is independent of feed order and of
        which retry attempt produced each feed.  Raises
        :class:`QuorumError` when no feed remains.
        """
        sources = self._sources(exclude)
        carriers = [feed for feed in sources if tag in feed.reports]
        if not carriers:
            if not sources:
                raise QuorumError(
                    f"no feeds available to pool {tag!r} "
                    f"(stale={list(self.stale)} quarantined={list(self.quarantined)})"
                )
            raise KeyError(f"no available feed carries report tag {tag!r}")
        reports = [feed.reports[tag] for feed in carriers]
        merged = np.unique(np.concatenate([report.addresses for report in reports]))
        periods = [report.period for report in reports if report.period]
        return Report(
            tag=f"pool:{tag}",
            addresses=merged,
            report_type=ReportType.PROVIDED,
            data_class=reports[0].data_class,
            period=(
                (min(start for start, _ in periods), max(end for _, end in periods))
                if periods
                else None
            ),
        )

    def _score(self, feeds_reports: Mapping[str, Report]) -> BlockScores:
        # Classes are folded in CLASS_OF_TAG order (the exact float
        # multiplication order of the single-network batch path), so a
        # one-feed pool is bit-identical to that network's local scores.
        scorer = UncleanlinessScorer(
            prefix_len=self.prefix_len,
            weights={cls: self.weights.get(cls, 1.0) for cls in feeds_reports},
        )
        return scorer.score(feeds_reports)

    def pooled_scores(
        self, exclude: Sequence[str] = (), allow_partial: bool = False
    ) -> BlockScores:
        """Noisy-OR uncleanliness over the feeds actually present.

        A missing class feed simply drops out of the product (graceful
        degradation, not an error); too few *feeds* is a policy breach
        and raises :class:`QuorumError` unless ``allow_partial``.
        """
        if not allow_partial and not self.quorum_met:
            raise QuorumError(
                f"only {len(self.available)} of {len(self.feeds) + len(self.quarantined)}"
                f" feed(s) available; quorum is {self.quorum}"
            )
        class_reports: Dict[str, Report] = {}
        for tag, cls in folds.CLASS_OF_TAG.items():
            try:
                class_reports[cls] = self.pooled_report(tag, exclude=exclude)
            except KeyError:
                continue
        if not class_reports:
            raise QuorumError("no scoreable class feeds present")
        return self._score(class_reports)

    def local_scores(self, name: str) -> BlockScores:
        """One network's own view, through the same scoring pipeline."""
        feed = self.feed(name)
        class_reports = {
            cls: feed.reports[tag]
            for tag, cls in folds.CLASS_OF_TAG.items()
            if tag in feed.reports
        }
        if not class_reports:
            raise QuorumError(f"feed {name!r} carries no scoreable reports")
        return self._score(class_reports)

    # -- reporting ---------------------------------------------------------

    def availability(self) -> List[dict]:
        """Per-shard availability rows (fresh / stale / quarantined)."""
        rows = []
        for feed in self.feeds:
            rows.append(
                {
                    "network": feed.name,
                    "status": "stale" if feed.name in self.stale else "fresh",
                    "as_of": feed.as_of,
                    "lag_days": self.head - feed.as_of,
                    "reports": len(feed.reports),
                    "addresses": int(
                        sum(len(report) for report in feed.reports.values())
                    ),
                }
            )
        for name in self.quarantined:
            rows.append(
                {
                    "network": name,
                    "status": "quarantined",
                    "as_of": "-",
                    "lag_days": "-",
                    "reports": 0,
                    "addresses": 0,
                }
            )
        return rows

    def manifest(self) -> dict:
        """The availability/policy block for the run manifest."""
        return {
            "feeds": [feed.name for feed in self.feeds],
            "available": [feed.name for feed in self.available],
            "stale": list(self.stale),
            "quarantined": list(self.quarantined),
            "quorum": self.quorum,
            "quorum_met": self.quorum_met,
            "max_staleness_days": self.max_staleness_days,
            "head_day": self.head,
            "degraded": self.degraded,
        }
