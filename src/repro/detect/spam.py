"""Behavioural spam detection over flow logs.

The paper's ``spam`` report comes from "a behavioral spam detection
technique" (under review at the time, so unspecified).  What the analyses
consume is only the resulting *report* — a set of source addresses — so
any behavioural detector whose recall is biased toward bulk senders
preserves the paper's results.

This implementation flags sources by mail-delivery behaviour visible in
flow data alone (NetFlow has no payload):

* at least ``min_messages`` payload-bearing flows to port 25 during the
  window (bulk volume),
* a sending rate of at least ``min_daily_rate`` messages per active day
  (burstiness), and
* message size regularity: the coefficient of variation of flow sizes at
  or below ``max_size_cv`` (template mail bodies are near-uniform, human
  mail is not).

Every verdict goes through one mergeable aggregate,
:class:`SpamAggregates`: :meth:`~SpamAggregates.from_flows` reduces any
span of flows to exact per-source columns plus the distinct
``(source, day)`` table, :meth:`~SpamAggregates.merge_all` folds
aggregates of any split of a log, and :meth:`~SpamAggregates.flagged`
applies the thresholds.  Batch detection (:meth:`SpamDetector.detect`),
the out-of-core fold (:meth:`SpamDetector.detect_chunked`) and the
stream's day fold (:class:`repro.stream.state.IncrementalState`)
therefore agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Union

import numpy as np

from repro import obs
from repro.flows.kernels import distinct_pairs, sum_by_key
from repro.flows.log import FlowLog
from repro.flows.record import Protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.flows.chunked import ChunkedFlowLog

__all__ = ["SpamDetectorConfig", "SpamDetector", "SpamAggregates"]

_SMTP_PORT = 25
_DAY_SECONDS = 86_400.0


@dataclass(frozen=True)
class SpamDetectorConfig:
    """Detector calibration."""

    #: Minimum SMTP deliveries in the window.
    min_messages: int = 10

    #: Minimum deliveries per active sending day.
    min_daily_rate: float = 4.0

    #: Maximum coefficient of variation of delivery sizes.
    max_size_cv: float = 1.5

    def validate(self) -> None:
        if self.min_messages <= 0:
            raise ValueError("min_messages must be positive")
        if self.min_daily_rate <= 0:
            raise ValueError("min_daily_rate must be positive")
        if self.max_size_cv <= 0:
            raise ValueError("max_size_cv must be positive")


@dataclass(frozen=True)
class SpamAggregates:
    """Mergeable per-source SMTP sufficient statistics.

    Per-source message counts, size sums and squared size sums, plus
    the distinct ``(source, day)`` table :meth:`flagged` counts active
    days from.  The sums are exact in ``float64`` (integer counts and
    integer-valued sums far below 2**53, so addition is associative)
    and the day table is a set, so :meth:`merge_all` over *any* split of
    a flow log — by day, by size, mid-day or interleaved — reproduces
    :meth:`from_flows` on the whole log bit for bit.
    """

    sources: np.ndarray  # sorted unique uint32
    messages: np.ndarray  # int64: SMTP deliveries per source
    size_sums: np.ndarray  # float64 (exact): sum of delivery sizes
    size_sq_sums: np.ndarray  # float64 (exact): sum of squared sizes
    day_sources: np.ndarray  # uint32: distinct (source, day) pairs,
    day_values: np.ndarray  # int64:  lex-sorted parallel columns

    @classmethod
    def empty(cls) -> "SpamAggregates":
        return cls(
            sources=np.asarray([], dtype=np.uint32),
            messages=np.asarray([], dtype=np.int64),
            size_sums=np.asarray([], dtype=np.float64),
            size_sq_sums=np.asarray([], dtype=np.float64),
            day_sources=np.asarray([], dtype=np.uint32),
            day_values=np.asarray([], dtype=np.int64),
        )

    @classmethod
    def from_flows(cls, flows: FlowLog) -> "SpamAggregates":
        """Aggregate the SMTP deliveries of any span of flows."""
        smtp = (
            (flows.protocol == Protocol.TCP)
            & (flows.dst_port == _SMTP_PORT)
            & flows.payload_bearing_mask()
        )
        src = flows.src_addr[smtp]
        if src.size == 0:
            return cls.empty()  # weighted bincount of nothing is int64
        sources, inverse = np.unique(src, return_inverse=True)
        sizes = flows.octets[smtp].astype(np.float64)
        day_sources, day_values = distinct_pairs(
            src, (flows.start_time[smtp] // _DAY_SECONDS).astype(np.int64)
        )
        return cls(
            sources=sources,
            messages=np.bincount(inverse, minlength=sources.size).astype(np.int64),
            size_sums=np.bincount(inverse, weights=sizes, minlength=sources.size),
            size_sq_sums=np.bincount(
                inverse, weights=sizes**2, minlength=sources.size
            ),
            day_sources=day_sources,
            day_values=day_values,
        )

    @classmethod
    def merge_all(cls, parts: "Iterable[SpamAggregates]") -> "SpamAggregates":
        """Merge aggregates of any split of one window in one reduction.

        Per-source sums add and the day tables union; both are exact in
        any order, so the result is the same for any split, order and
        grouping of ``parts``.
        """
        parts = [p for p in parts if p.sources.size]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        sources, messages, size_sums, size_sq_sums = sum_by_key(
            np.concatenate([p.sources for p in parts]),
            np.concatenate([p.messages for p in parts]),
            np.concatenate([p.size_sums for p in parts]),
            np.concatenate([p.size_sq_sums for p in parts]),
        )
        day_sources, day_values = distinct_pairs(
            np.concatenate([p.day_sources for p in parts]),
            np.concatenate([p.day_values for p in parts]),
        )
        return cls(
            sources=sources,
            messages=messages,
            size_sums=size_sums,
            size_sq_sums=size_sq_sums,
            day_sources=day_sources,
            day_values=day_values,
        )

    def flagged(self, config: SpamDetectorConfig) -> np.ndarray:
        """Sorted unique sources the detector flags at these aggregates."""
        counts = self.messages
        # Every (source, day) pair's source has a message, so the
        # searchsorted positions are exact source indices.
        active_days = np.bincount(
            np.searchsorted(self.sources, self.day_sources),
            minlength=self.sources.size,
        )
        daily_rate = counts / np.maximum(active_days, 1)
        means = self.size_sums / np.maximum(counts, 1)
        variances = np.maximum(
            self.size_sq_sums / np.maximum(counts, 1) - means**2, 0.0
        )
        cv = np.sqrt(variances) / np.maximum(means, 1e-9)
        mask = (
            (counts >= config.min_messages)
            & (daily_rate >= config.min_daily_rate)
            & (cv <= config.max_size_cv)
        )
        return self.sources[mask]


class SpamDetector:
    """Flags bulk SMTP senders from flow behaviour."""

    def __init__(self, config: SpamDetectorConfig = SpamDetectorConfig()) -> None:
        config.validate()
        self.config = config

    def detect(self, flows: FlowLog) -> np.ndarray:
        """Sorted unique source addresses flagged as spammers."""
        with obs.instrument("detect.spam", events=len(flows)):
            return SpamAggregates.from_flows(flows).flagged(self.config)

    def detect_chunked(
        self, chunks: Union["ChunkedFlowLog", Iterable[FlowLog]]
    ) -> np.ndarray:
        """:meth:`detect` as a fold over flow-log chunks.

        Accepts a :class:`~repro.flows.chunked.ChunkedFlowLog` or any
        iterable of :class:`FlowLog` spans; one chunk plus the running
        :class:`SpamAggregates` is resident at a time, and the flagged
        set is bit-identical to :meth:`detect` on the concatenated log
        for any chunking (day-straddling boundaries included).
        """
        from repro.flows.chunked import ChunkedFlowLog, fold_partials

        if isinstance(chunks, ChunkedFlowLog):
            chunks = chunks.iter_chunks()
        with obs.instrument("detect.spam_chunked"):
            aggregates = fold_partials(
                (SpamAggregates.from_flows(chunk) for chunk in chunks),
                rows=lambda a: a.sources.size + a.day_sources.size,
                merge_all=SpamAggregates.merge_all,
            )
            return aggregates.flagged(self.config)
