"""The incremental uncleanliness fold.

:class:`IncrementalState` consumes :class:`~repro.stream.batches.DayBatch`
objects in day order and maintains, at all times, exactly what the batch
pipeline would compute for the days ingested so far:

* the rolling report sets (provided feeds merged as they arrive, scan
  detections unioned per day, spam flags recomputed from the running
  :class:`~repro.detect.spam.SpamAggregates`, folded one day at a time
  with the same ``merge_all`` the chunked detector uses — spam is the
  one *non-monotone* report: a source can unflag as its size variance
  grows);
* per-class :class:`BlockCounter` tables — exact integer address counts
  per scored block, incremented by fresh addresses and decremented when
  a spam source unflags, pruning blocks whose counts reach zero so the
  scored block set matches the batch scorer's;
* per-prefix block counters over R_unclean for the §4 density
  statistics (``block_counts``);
* the §7 noisy-OR score table, recomputed each day from the exact
  counts in the fixed :data:`repro.core.folds.CLASS_ORDER` (floating
  multiplication order matters), plus the threshold blocklist and the
  interval indexes serving the low-latency query surface.

Work per day is proportional to the day's flow volume and the score
rebuild (``O(blocks)``), never to the accumulated window — that is the
speedup :mod:`benchmarks.bench_stream` guards — while replaying a whole
window reproduces the batch path bit for bit
(``tests/test_stream_replay.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.core import folds
from repro.core.report import DataClass, Report, ReportType
from repro.core.uncleanliness import BlockScores
from repro.detect.scan import ScanDetector, ScanDetectorConfig
from repro.detect.spam import SpamAggregates, SpamDetectorConfig
from repro.core.cidr import PREFIX_RANGE
from repro.ipspace.cidr import mask_array
from repro.ipspace.intervals import IntervalIndex
from repro.ipspace.kernels import merge_unique, remove_sorted
from repro.obs import metrics as obs_metrics
from repro.sim.timeline import Window
from repro.stream.batches import DayBatch

__all__ = ["StreamConfig", "BlockCounter", "IncrementalState", "IngestDelta"]

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

    #: Prefix lengths tracked for R_unclean block-count densities.
    prefixes: Tuple[int, ...] = tuple(PREFIX_RANGE)

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


class BlockCounter:
    """Exact address counts per CIDR block at one prefix length.

    Tracks, for a dynamic set of addresses, how many member addresses
    fall in each touched block — supporting increment (new addresses),
    decrement (retracted addresses, i.e. spam unflags) and zero-count
    pruning, so ``blocks`` is at all times exactly
    :math:`C_n(S)` of the underlying set ``S``.
    """

    __slots__ = ("prefix_len", "blocks", "counts")

    def __init__(
        self,
        prefix_len: int,
        blocks: Optional[np.ndarray] = None,
        counts: Optional[np.ndarray] = None,
    ) -> None:
        self.prefix_len = int(prefix_len)
        self.blocks = (
            np.asarray(blocks, dtype=np.uint32)
            if blocks is not None
            else _EMPTY_U32.copy()
        )
        self.counts = (
            np.asarray(counts, dtype=np.int64)
            if counts is not None
            else np.asarray([], dtype=np.int64)
        )
        if self.blocks.size != self.counts.size:
            raise ValueError("blocks and counts must align")

    def add(self, addresses: np.ndarray) -> None:
        """Count ``addresses`` (unique, newly added to the set) in."""
        if addresses.size == 0:
            return
        nets, per_block = np.unique(
            mask_array(addresses, self.prefix_len), return_counts=True
        )
        merged, fresh = merge_unique(self.blocks, nets)
        if fresh.any():
            positions = np.searchsorted(self.blocks, nets[fresh])
            self.counts = np.insert(self.counts, positions, 0)
            self.blocks = merged
        self.counts[np.searchsorted(self.blocks, nets)] += per_block

    def remove(self, addresses: np.ndarray) -> None:
        """Count ``addresses`` (unique, just removed from the set) out,
        pruning blocks whose count reaches zero."""
        if addresses.size == 0:
            return
        nets, per_block = np.unique(
            mask_array(addresses, self.prefix_len), return_counts=True
        )
        positions = np.searchsorted(self.blocks, nets)
        if positions.size and (
            positions.max(initial=0) >= self.blocks.size
            or not np.array_equal(self.blocks[positions], nets)
        ):
            raise ValueError("removing addresses from blocks never added")
        self.counts[positions] -= per_block
        if (self.counts[positions] < 0).any():
            raise ValueError("block count went negative")
        if (self.counts[positions] == 0).any():
            keep = self.counts > 0
            self.blocks = self.blocks[keep]
            self.counts = self.counts[keep]

    def __len__(self) -> int:
        return int(self.blocks.size)

    def __repr__(self) -> str:
        return (
            f"BlockCounter(/{self.prefix_len}, blocks={len(self)}, "
            f"addresses={int(self.counts.sum())})"
        )


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
        self._class_counters = {
            cls: BlockCounter(config.prefix_len) for cls in folds.CLASS_ORDER
        }
        self._unclean = _EMPTY_U32
        self._prefix_counters = {
            int(n): BlockCounter(n) for n in config.prefixes
        }
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
        fresh: Dict[str, np.ndarray] = {}

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
            fresh[tag] = filtered.addresses[new]

        # 2. Scan: hour-bucketed, hours never span days, so per-day
        # detections union to the whole-window detection.
        scanners = folds.observed_report(
            "scan",
            ScanDetector(self.config.scan_detector).detect(batch.flows),
            self.config.window,
        ).addresses
        merged, new = merge_unique(self._addresses["scan"], scanners)
        self._addresses["scan"] = merged
        fresh["scan"] = scanners[new]

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
        spam_added = np.setdiff1d(spam_now, spam_before).astype(np.uint32)
        spam_removed = np.setdiff1d(spam_before, spam_now).astype(np.uint32)
        self._addresses["spam"] = spam_now
        fresh["spam"] = spam_added

        # 4. Per-class score counters follow the report deltas.
        for tag, cls in folds.CLASS_OF_TAG.items():
            added = fresh.get(tag)
            if added is not None and added.size:
                self._class_counters[cls].add(added)
        self._class_counters[DataClass.SPAM].remove(spam_removed)

        # 5. R_unclean and its per-prefix density counters.
        additions = _EMPTY_U32
        for tag in folds.UNCLEAN_TAGS:
            additions, _ = merge_unique(additions, fresh.get(tag, _EMPTY_U32))
        self._unclean, new = merge_unique(self._unclean, additions)
        added_unclean = additions[new]
        removed_unclean = self._unclean_removals(spam_removed)
        if removed_unclean.size:
            self._unclean = remove_sorted(self._unclean, removed_unclean)
        for counter in self._prefix_counters.values():
            counter.add(added_unclean)
            counter.remove(removed_unclean)

        # 6. Derived views: scores, blocklist, interval indexes.
        self._rebuild_derived()

        self.cursor = day
        self.days_ingested += 1
        self.flows_ingested += len(batch.flows)

        delta = IngestDelta(
            day=day,
            flows=len(batch.flows),
            fresh={tag: int(arr.size) for tag, arr in fresh.items()},
            retracted_spam=int(spam_removed.size),
            blocks=len(self._scores),
            blocklist_size=int(self._blocklist.size),
        )
        self._record_metrics(delta)
        return delta

    def _unclean_removals(self, spam_removed: np.ndarray) -> np.ndarray:
        """Retracted spam sources no other unclean report still claims."""
        if spam_removed.size == 0:
            return _EMPTY_U32
        still_claimed = np.zeros(spam_removed.size, dtype=bool)
        for tag in folds.UNCLEAN_TAGS:
            if tag == "spam":
                continue
            addresses = self._addresses.get(tag)
            if addresses is None or addresses.size == 0:
                continue
            idx = np.searchsorted(addresses, spam_removed)
            idx[idx == addresses.size] = 0
            still_claimed |= addresses[idx] == spam_removed
        return spam_removed[~still_claimed]

    def _rebuild_derived(self) -> None:
        """Recompute scores/blocklist/indexes from the exact counters.

        The score table comes from :meth:`BlockScores.from_counts`, the
        same function :meth:`UncleanlinessScorer.score` uses, fed the
        counters in :data:`repro.core.folds.CLASS_ORDER`: the counters
        make the counts identical and the shared function and class
        order make the floats identical.
        """
        counters = self._class_counters
        self._scores = BlockScores.from_counts(
            self.config.prefix_len,
            {
                cls: (counters[cls].blocks, counters[cls].counts)
                for cls in folds.CLASS_ORDER
            },
            dict(self.config.weights),
        )
        self._blocklist = folds.blocklist_networks(self._scores, self.config.threshold)
        self._score_index = IntervalIndex.from_blocks(
            self._scores.blocks, self.config.prefix_len,
            values=self._scores.scores,
        )
        self._block_index = IntervalIndex.from_blocks(
            self._blocklist, self.config.prefix_len
        )

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
        memory tier keeps objects by reference, and the fold mutates its
        counter arrays in place, so an aliased checkpoint would silently
        advance past the day it claims to commit.  Report arrays and spam
        aggregates are never mutated in place (merges replace them), so
        those are shared; only the counters are copied.
        """
        clone = IncrementalState.__new__(IncrementalState)
        clone.config = self.config
        clone.cursor = self.cursor
        clone.days_ingested = self.days_ingested
        clone.flows_ingested = self.flows_ingested
        clone._addresses = dict(self._addresses)
        clone._meta = dict(self._meta)
        clone._spam = self._spam
        clone._class_counters = {
            cls: BlockCounter(c.prefix_len, c.blocks.copy(), c.counts.copy())
            for cls, c in self._class_counters.items()
        }
        clone._unclean = self._unclean
        clone._prefix_counters = {
            n: BlockCounter(c.prefix_len, c.blocks.copy(), c.counts.copy())
            for n, c in self._prefix_counters.items()
        }
        clone._rebuild_derived()
        return clone

    # -- query surface -----------------------------------------------------

    def report(self, tag: str) -> Report:
        """The rolling report for ``tag``, metadata and all — equal (by
        ``Report.__eq__``) to the batch pipeline's report once the whole
        window has been replayed."""
        if tag == "unclean":
            return Report(
                tag="unclean",
                addresses=self._unclean,
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

    @property
    def score_index(self) -> IntervalIndex:
        """Interval index over all scored blocks, valued by score."""
        return self._score_index

    @property
    def block_index(self) -> IntervalIndex:
        """Interval index over the current blocklist."""
        return self._block_index

    def block_counts(self) -> Dict[int, int]:
        """``{prefix_len: |C_n(R_unclean)|}`` — the §4 density counts."""
        return {n: len(counter) for n, counter in self._prefix_counters.items()}

    def __repr__(self) -> str:
        return (
            f"IncrementalState(window={self.config.window}, "
            f"cursor={self.cursor}, days={self.days_ingested}, "
            f"blocks={len(self._scores)}, "
            f"blocklist={int(self._blocklist.size)})"
        )
