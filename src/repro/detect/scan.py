"""Behavioural scan detection over flow logs.

Models the detector behind the paper's observed ``scan`` report: the
threshold/fan-out method of Gates et al. (CMU/SEI-2006-TR-005), which the
paper notes "is calibrated to identify scans that take place over an hour"
(§6.2).  A source is flagged as a scanner if, within any one-hour bucket,
it contacts at least ``min_targets`` distinct destinations and at least
``min_failed_fraction`` of its flows in that bucket show no ACK (i.e. the
connections never completed).

The hourly calibration is load-bearing for the paper: "slow" scanners that
touch fewer than ~30 addresses per day never accumulate enough fan-out in
an hour and land in the unknown class of §6 rather than the scan report.

Evaluation is one mergeable aggregate, :class:`ScanAggregates`, with
three operations: :meth:`~ScanAggregates.from_flows` packs the
``(source, hour)`` group key into one ``uint64``
(:func:`repro.flows.kernels.pack64`), orders the window with a single
``np.lexsort`` over ``(packed pair, destination)`` and reads flow and
failed-flow totals and the distinct ``(source, hour, destination)``
triples off run boundaries — no row-table ``np.unique(axis=0)`` passes;
:meth:`~ScanAggregates.merge_all` folds aggregates of any split of a
log; and :meth:`~ScanAggregates.flagged` applies the thresholds.  Every
column is an exact integer and triple dedup commutes with set union, so
:meth:`ScanDetector.detect` (one aggregate), the chunked fold
:meth:`ScanDetector.detect_chunked` and any other split of the window
reach the same verdict by construction.
:meth:`ScanDetector.detect_reference` retains the original row-table
formulation as the semantic reference the property tests pin the
aggregate to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Tuple

import numpy as np

from repro import obs
from repro.flows.kernels import (
    distinct_pairs,
    grouped_sum,
    pack64,
    pair_run_starts,
    segment_bounds,
    sum_by_key,
)
from repro.flows.log import FlowLog
from repro.flows.record import Protocol, TCPFlags

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flows.chunked import ChunkedFlowLog

__all__ = ["ScanDetectorConfig", "ScanDetector", "ScanAggregates"]

_HOUR_SECONDS = 3600.0
_HI = np.uint64(32)
_LO = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class ScanDetectorConfig:
    """Detector calibration."""

    #: Minimum distinct destinations contacted within one hour.
    min_targets: int = 30

    #: Minimum fraction of the source's flows in that hour with no ACK.
    min_failed_fraction: float = 0.5

    def validate(self) -> None:
        if self.min_targets <= 0:
            raise ValueError("min_targets must be positive")
        if not 0 <= self.min_failed_fraction <= 1:
            raise ValueError("min_failed_fraction must be in [0, 1]")


def _sorted_tcp(
    flows: FlowLog,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The TCP flows as ``(pair key, destination, no-ACK)`` columns sorted
    by ``(pair key, destination)``, plus the hour base of the keys.

    Pair keys pack ``(source, hour - base)``; hours are rebased to the
    window minimum so any real capture packs (the rebased span would
    only overflow after ~490,000 years of traffic, which :func:`pack64`
    turns into a loud error rather than key aliasing).  The masked
    columns and the sort permutation die with this frame, before the
    caller builds its tables.
    """
    tcp = flows.protocol == Protocol.TCP
    hours = (flows.start_time[tcp] // _HOUR_SECONDS).astype(np.int64)
    base = int(hours.min()) if hours.size else 0
    pair_key = pack64(flows.src_addr[tcp], hours - base)
    del hours
    dst = flows.dst_addr[tcp]
    order = np.lexsort((dst, pair_key))
    no_ack = (flows.tcp_flags[tcp][order] & TCPFlags.ACK) == 0
    return pair_key[order], dst[order], no_ack, base


def _rebase(keys: np.ndarray, shift: int) -> np.ndarray:
    """Packed ``(source, hour - b)`` keys re-expressed against base
    ``b - shift``."""
    if shift == 0:
        return keys
    return pack64(keys >> _HI, (keys & _LO) + np.uint64(shift))


@dataclass(frozen=True)
class ScanAggregates:
    """Mergeable per-``(source, hour)`` sufficient statistics.

    Groups are packed ``(source, hour - base)`` keys.  Everything the
    detector thresholds on reduces to exact integer totals per group
    plus the distinct ``(source, hour, destination)`` triple set; both
    merge exactly under any partition of the flow window, so flags from
    merged aggregates and flags from one whole-window aggregate agree
    bit for bit.

    ``pair_keys`` is sorted and unique; the triples are sorted by
    ``(triple_keys, triple_dsts)``, and every group owns at least one
    triple, so the runs of ``triple_keys`` line up with ``pair_keys``.
    """

    base: int  # hour subtracted before packing
    pair_keys: np.ndarray  # uint64: (source, hour - base) groups
    flow_totals: np.ndarray  # int64: TCP flows in the group
    failed_totals: np.ndarray  # int64: no-ACK flows in the group
    triple_keys: np.ndarray  # uint64: group of each distinct triple
    triple_dsts: np.ndarray  # uint32: destination of each triple

    @classmethod
    def empty(cls) -> "ScanAggregates":
        u64 = np.asarray([], dtype=np.uint64)
        i64 = np.asarray([], dtype=np.int64)
        return cls(
            base=0, pair_keys=u64, flow_totals=i64, failed_totals=i64,
            triple_keys=u64, triple_dsts=np.asarray([], dtype=np.uint32),
        )

    @classmethod
    def from_flows(cls, flows: FlowLog) -> "ScanAggregates":
        """Aggregate any span of flows (one lexsort, run-boundary counts)."""
        pk, dk, no_ack, base = _sorted_tcp(flows)
        starts, flow_totals = segment_bounds(pk)
        # A triple's first row in (pair, dst) order marks one distinct
        # destination of its pair.
        first_triple = pair_run_starts(pk, dk)
        return cls(
            base=base,
            pair_keys=pk[starts],
            flow_totals=flow_totals,
            failed_totals=grouped_sum(no_ack, starts),
            triple_keys=pk[first_triple],
            triple_dsts=dk[first_triple],
        )

    @classmethod
    def merge_all(cls, parts: "Iterable[ScanAggregates]") -> "ScanAggregates":
        """Merge aggregates of any split of one window in one reduction.

        Keys are rebased to the smallest part base, then integer totals
        add per group and triple sets union.  Both are associative and
        commutative, so the result is the same for any split, order and
        grouping of ``parts`` — chunks may straddle hours, days or even
        interleave sources.
        """
        parts = [p for p in parts if p.pair_keys.size]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        base = min(p.base for p in parts)
        pair_keys, flow_totals, failed_totals = sum_by_key(
            np.concatenate([_rebase(p.pair_keys, p.base - base) for p in parts]),
            np.concatenate([p.flow_totals for p in parts]),
            np.concatenate([p.failed_totals for p in parts]),
        )
        triple_keys, triple_dsts = distinct_pairs(
            np.concatenate([_rebase(p.triple_keys, p.base - base) for p in parts]),
            np.concatenate([p.triple_dsts for p in parts]),
        )
        return cls(
            base=base,
            pair_keys=pair_keys,
            flow_totals=flow_totals,
            failed_totals=failed_totals,
            triple_keys=triple_keys,
            triple_dsts=triple_dsts,
        )

    def flagged(self, config: ScanDetectorConfig) -> np.ndarray:
        """Sorted unique sources the detector flags at these aggregates."""
        _, target_counts = segment_bounds(self.triple_keys)
        failed_fraction = self.failed_totals / np.maximum(self.flow_totals, 1)
        mask = (target_counts >= config.min_targets) & (
            failed_fraction >= config.min_failed_fraction
        )
        return np.unique((self.pair_keys[mask] >> _HI).astype(np.uint32))


class ScanDetector:
    """Hourly fan-out scan detector."""

    def __init__(self, config: ScanDetectorConfig = ScanDetectorConfig()) -> None:
        config.validate()
        self.config = config

    def detect(self, flows: FlowLog) -> np.ndarray:
        """Sorted unique source addresses flagged as scanners."""
        with obs.instrument("detect.scan", events=len(flows)):
            return ScanAggregates.from_flows(flows).flagged(self.config)

    def detect_chunked(self, chunks: "Iterable[FlowLog]") -> np.ndarray:
        """Fold the detector over flow-log chunks without materialising.

        ``chunks`` is any iterable of :class:`FlowLog` spans covering the
        window — typically ``ChunkedFlowLog.iter_chunks()``.  The result
        is bit-identical to :meth:`detect` on the concatenated log for
        any chunking.
        """
        from repro.flows.chunked import ChunkedFlowLog, fold_partials

        if isinstance(chunks, ChunkedFlowLog):
            chunks = chunks.iter_chunks()
        with obs.instrument("detect.scan_chunked"):
            aggregates = fold_partials(
                (ScanAggregates.from_flows(chunk) for chunk in chunks),
                rows=lambda a: a.pair_keys.size + a.triple_keys.size,
                merge_all=ScanAggregates.merge_all,
            )
            return aggregates.flagged(self.config)

    # -- row-table reference ----------------------------------------------

    def detect_reference(self, flows: FlowLog) -> np.ndarray:
        """The original ``np.unique(axis=0)`` row-table formulation.

        Semantically identical to :meth:`detect` (the property tests pin
        the aggregate to it) but interpreter- and sort-bound: three
        row-table unique passes over stacked int64 triples.  Kept as the
        readable specification; not for large logs.

        ``pairs`` and ``all_pairs`` below are the same table by
        construction — every raw pair owns at least one deduped triple
        and ``np.unique`` sorts rows lexicographically both times.
        """
        tcp = flows.select(flows.protocol == Protocol.TCP)
        if len(tcp) == 0:
            return np.asarray([], dtype=np.uint32)

        hours = (tcp.start_time // _HOUR_SECONDS).astype(np.int64)
        no_ack = (tcp.tcp_flags & TCPFlags.ACK) == 0

        triples = np.stack(
            [tcp.src_addr.astype(np.int64), hours, tcp.dst_addr.astype(np.int64)],
            axis=1,
        )
        unique_triples = np.unique(triples, axis=0)
        pairs, target_counts = np.unique(
            unique_triples[:, :2], axis=0, return_counts=True
        )

        raw_pairs = np.stack([tcp.src_addr.astype(np.int64), hours], axis=1)
        all_pairs, inverse = np.unique(raw_pairs, axis=0, return_inverse=True)
        flow_totals = np.bincount(inverse, minlength=all_pairs.shape[0])
        failed_totals = np.bincount(inverse[no_ack], minlength=all_pairs.shape[0])
        failed_fraction = failed_totals / np.maximum(flow_totals, 1)

        flagged = (target_counts >= self.config.min_targets) & (
            failed_fraction >= self.config.min_failed_fraction
        )
        return np.unique(pairs[flagged, 0]).astype(np.uint32)
