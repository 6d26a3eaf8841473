"""The incremental uncleanliness fold.

:class:`IncrementalState` consumes :class:`~repro.stream.batches.DayBatch`
objects in day order and keeps only what it cannot recompute:

* the rolling report sets (provided feeds merged as they arrive, scan
  detections unioned per day, spam flags recomputed from the running
  :class:`~repro.detect.spam.SpamAggregates`, folded one day at a time
  with ``SpamAggregates.merge_all`` — spam is the one *non-monotone*
  report: a source can unflag as its size variance grows, and then it
  simply leaves the spam set);
* the running spam aggregate, the feeds' report metadata and the cursor.

Everything else is derived from the report sets.  Each day the §7
noisy-OR score table is rebuilt from the bot, scan, spam and phish sets
with :meth:`BlockScores.from_addresses` — the counting and scoring code
:meth:`UncleanlinessScorer.score` runs, fed the classes in the fixed
:data:`repro.core.folds.CLASS_ORDER` — together with the threshold
blocklist array.  The table itself serves the low-latency query
surface.  R_unclean (``report("unclean")``) and its §4 density counts
(``block_counts``) are computed on demand as the union of the current
sets.

Work per day is proportional to the day's flow volume plus the current
state (merging into the rolling sets and the spam aggregate, recounting
the four class sets, rebuilding the score table), never to the flows
already folded, while replaying a whole window reproduces the batch
path bit for bit (``tests/test_stream_replay.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Tuple

import numpy as np

from repro import obs
from repro.core import cidr as rcidr
from repro.core import folds
from repro.core.report import DataClass, Report, ReportType
from repro.core.uncleanliness import BlockScores
from repro.detect.scan import ScanDetector, ScanDetectorConfig
from repro.detect.spam import SpamAggregates, SpamDetectorConfig
from repro.ipspace.kernels import merge_unique
from repro.obs import metrics as obs_metrics
from repro.sim.timeline import Window
from repro.stream.batches import DayBatch

__all__ = ["StreamConfig", "IncrementalState", "IngestDelta"]

#: Tags the fold computes itself; feeds may not deliver them.
_COMPUTED_TAGS = ("scan", "spam", "unclean")

_EMPTY_U32 = np.asarray([], dtype=np.uint32)


@dataclass(frozen=True)
class StreamConfig:
    """Configuration of the streaming fold (fingerprintable)."""

    #: The observation window the stream folds over.
    window: Window

    #: Scored block granularity (the paper's /24 default).
    prefix_len: int = 24

    #: Score threshold for the recommended blocklist.
    threshold: float = 0.5

    #: Per-class noisy-OR weights, as a (class, weight) tuple so the
    #: config stays hashable/fingerprintable.  Order is the evaluation
    #: order and must match :data:`repro.core.folds.CLASS_ORDER`.
    weights: Tuple[Tuple[str, float], ...] = folds.DEFAULT_CLASS_WEIGHTS

    #: Prefix lengths of the R_unclean block-count densities.
    prefixes: Tuple[int, ...] = tuple(rcidr.PREFIX_RANGE)

    #: Detector calibrations (must match the batch scenario's for
    #: replay equivalence).
    scan_detector: ScanDetectorConfig = ScanDetectorConfig()
    spam_detector: SpamDetectorConfig = SpamDetectorConfig()

    def validate(self) -> None:
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"prefix length out of range: {self.prefix_len}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold out of [0, 1]: {self.threshold}")
        if tuple(cls for cls, _ in self.weights) != folds.CLASS_ORDER:
            raise ValueError(
                "weights must list the scoring classes in CLASS_ORDER"
            )
        for n in self.prefixes:
            if not 0 <= n <= 32:
                raise ValueError(f"prefix length out of range: {n}")
        self.scan_detector.validate()
        self.spam_detector.validate()


@dataclass(frozen=True)
class IngestDelta:
    """What one day's ingest changed — the per-day metric payload."""

    day: int
    flows: int
    #: Newly reported addresses per tag (post reserved-range filtering).
    fresh: Mapping[str, int] = field(default_factory=dict)
    #: Spam sources that unflagged this day (the non-monotone case).
    retracted_spam: int = 0
    #: Scored blocks / blocklist entries after this day.
    blocks: int = 0
    blocklist_size: int = 0


class IncrementalState:
    """Rolling uncleanliness state: ``fold(ingest, days)``."""

    def __init__(self, config: StreamConfig) -> None:
        config.validate()
        self.config = config
        #: Last ingested day (start_day - 1 when nothing ingested yet).
        self.cursor = config.window.start_day - 1
        self.days_ingested = 0
        self.flows_ingested = 0
        self._addresses: Dict[str, np.ndarray] = {
            "scan": _EMPTY_U32,
            "spam": _EMPTY_U32,
        }
        self._meta: Dict[str, Tuple[str, str, object]] = {}
        self._spam = SpamAggregates.empty()
        self._rebuild_derived()

    # -- ingest ------------------------------------------------------------

    def ingest(self, batch: DayBatch) -> IngestDelta:
        """Fold one day in.  Days must arrive in strictly increasing
        order within the configured window."""
        day = int(batch.day)
        if day <= self.cursor:
            raise ValueError(
                f"day {day} already ingested (cursor at {self.cursor})"
            )
        if not self.config.window.contains_day(day):
            raise ValueError(
                f"day {day} outside window {self.config.window}"
            )
        with obs.instrument("stream.ingest", events=len(batch.flows), day=day):
            return self._ingest(batch, day)

    def _ingest(self, batch: DayBatch, day: int) -> IngestDelta:
        fresh: Dict[str, int] = {}

        # 1. Provided feeds: merge each delivered report into its tag.
        for tag, report in batch.provided.items():
            if tag in _COMPUTED_TAGS:
                raise ValueError(
                    f"tag {tag!r} is computed by the fold, not a feed"
                )
            filtered = report.without_reserved()
            self._meta.setdefault(
                tag, (filtered.report_type, filtered.data_class, filtered.period)
            )
            merged, new = merge_unique(
                self._addresses.get(tag, _EMPTY_U32), filtered.addresses
            )
            self._addresses[tag] = merged
            fresh[tag] = int(np.count_nonzero(new))

        # 2. Scan: hour-bucketed, hours never span days, so per-day
        # detections union to the whole-window detection.
        scanners = folds.observed_report(
            "scan",
            ScanDetector(self.config.scan_detector).detect(batch.flows),
            self.config.window,
        ).addresses
        merged, new = merge_unique(self._addresses["scan"], scanners)
        self._addresses["scan"] = merged
        fresh["scan"] = int(np.count_nonzero(new))

        # 3. Spam: fold exact aggregates, recompute the flag set — the
        # non-monotone step; a source can leave the report.
        self._spam = SpamAggregates.merge_all(
            [self._spam, SpamAggregates.from_flows(batch.flows)]
        )
        spam_now = folds.observed_report(
            "spam", self._spam.flagged(self.config.spam_detector),
            self.config.window,
        ).addresses
        spam_before = self._addresses["spam"]
        fresh["spam"] = int(np.setdiff1d(spam_now, spam_before).size)
        retracted = int(np.setdiff1d(spam_before, spam_now).size)
        self._addresses["spam"] = spam_now

        # 4. Derived views: score table and blocklist.
        self._rebuild_derived()

        self.cursor = day
        self.days_ingested += 1
        self.flows_ingested += len(batch.flows)

        delta = IngestDelta(
            day=day,
            flows=len(batch.flows),
            fresh=fresh,
            retracted_spam=retracted,
            blocks=len(self._scores),
            blocklist_size=int(self._blocklist.size),
        )
        self._record_metrics(delta)
        return delta

    def _rebuild_derived(self) -> None:
        """Recompute the score table and blocklist from the report sets.

        The score table comes from :meth:`BlockScores.from_addresses`,
        the code :meth:`UncleanlinessScorer.score` runs, fed the class
        sets in :data:`repro.core.folds.CLASS_ORDER`: shared counting
        makes the counts identical, and the shared noisy-OR and class
        order make the floats identical.  A feed not yet delivered
        counts as an empty set.
        """
        self._scores = BlockScores.from_addresses(
            self.config.prefix_len,
            {
                cls: self._addresses.get(tag, _EMPTY_U32)
                for tag, cls in folds.CLASS_OF_TAG.items()
            },
            dict(self.config.weights),
        )
        self._blocklist = folds.blocklist_networks(self._scores, self.config.threshold)

    def _record_metrics(self, delta: IngestDelta) -> None:
        obs_metrics.inc("stream.ingest.days")
        obs_metrics.inc("stream.ingest.flows", delta.flows)
        for tag, count in delta.fresh.items():
            obs_metrics.inc(f"stream.fresh.{tag}", count)
        if delta.retracted_spam:
            obs_metrics.inc("stream.retracted.spam", delta.retracted_spam)
        obs_metrics.set_gauge("stream.blocks", delta.blocks)
        obs_metrics.set_gauge("stream.blocklist.size", delta.blocklist_size)
        obs_metrics.set_gauge("stream.cursor", delta.day)

    def snapshot(self) -> "IncrementalState":
        """An independent copy of the fold at its current cursor.

        Checkpoints must store snapshots, not the live state: the store's
        memory tier keeps objects by reference, and ingest replaces the
        entries of the report-set and metadata dicts in place, so an
        aliased checkpoint would silently advance past the day it claims
        to commit.  The report arrays, the spam aggregate and the score
        table's arrays are never mutated (merges and rebuilds replace
        them), so those are shared.  The score table object is not: the
        live one grows lazily built lookup views, which every snapshot
        the memory tier keeps would otherwise hold on to.
        """
        clone = IncrementalState.__new__(IncrementalState)
        clone.config = self.config
        clone.cursor = self.cursor
        clone.days_ingested = self.days_ingested
        clone.flows_ingested = self.flows_ingested
        clone._addresses = dict(self._addresses)
        clone._meta = dict(self._meta)
        clone._spam = self._spam
        clone._scores = replace(self._scores)
        clone._blocklist = self._blocklist
        return clone

    # -- query surface -----------------------------------------------------

    def report(self, tag: str) -> Report:
        """The rolling report for ``tag``, metadata and all — equal (by
        ``Report.__eq__``) to the batch pipeline's report once the whole
        window has been replayed."""
        if tag == "unclean":
            return Report(
                tag="unclean",
                addresses=np.concatenate([
                    self._addresses.get(member, _EMPTY_U32)
                    for member in folds.UNCLEAN_TAGS
                ]),
                report_type=ReportType.PROVIDED,
                data_class=DataClass.SPECIAL,
                period=self.config.window.dates(),
            )
        if tag in ("scan", "spam"):
            return folds.observed_report(
                tag, self._addresses[tag], self.config.window
            )
        try:
            report_type, data_class, period = self._meta[tag]
        except KeyError:
            raise KeyError(f"no such report in stream state: {tag!r}") from None
        return Report(
            tag=tag,
            addresses=self._addresses[tag],
            report_type=report_type,
            data_class=data_class,
            period=period,
        )

    @property
    def tags(self) -> Tuple[str, ...]:
        """All report tags currently available (computed tags included)."""
        return tuple(sorted(self._addresses)) + ("unclean",)

    def scores(self) -> BlockScores:
        """The current §7 score table (shares arrays with the state)."""
        return self._scores

    def blocklist(self) -> np.ndarray:
        """Sorted masked networks at or above the score threshold."""
        return self._blocklist

    def block_counts(self) -> Dict[int, int]:
        """``{prefix_len: |C_n(R_unclean)|}`` — the §4 density counts."""
        return rcidr.block_counts(self.report("unclean"), self.config.prefixes)

    def __repr__(self) -> str:
        return (
            f"IncrementalState(window={self.config.window}, "
            f"cursor={self.cursor}, days={self.days_ingested}, "
            f"blocks={len(self._scores)}, "
            f"blocklist={int(self._blocklist.size)})"
        )
