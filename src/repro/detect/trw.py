"""Threshold Random Walk scan detection (Jung et al., Oakland 2004).

The paper cites two scan-detection lineages for its ``scan`` class (§3.1):
the Gates et al. fan-out method (implemented in
:mod:`repro.detect.scan`) and the sequential hypothesis testing of Jung,
Paxson, Berger & Balakrishnan.  This module implements the latter so both
reporting methods the paper names are available.

For each remote source we observe a sequence of first-contact connection
outcomes :math:`Y_i` (success = the flow shows an ACK, failure = it does
not).  Under hypothesis :math:`H_0` (benign) successes have probability
``theta0``; under :math:`H_1` (scanner) they have probability ``theta1 <
theta0``.  The likelihood ratio

.. math::

   \\Lambda(n) = \\prod_{i=1}^{n}
   \\frac{P(Y_i \\mid H_1)}{P(Y_i \\mid H_0)}

is updated per outcome and compared with thresholds
:math:`\\eta_0 = \\beta / (1 - \\alpha)` and
:math:`\\eta_1 = (1 - \\beta) / \\alpha` derived from the target false
positive rate ``alpha`` and false negative rate ``beta``.  Crossing
:math:`\\eta_1` declares the source a scanner; crossing :math:`\\eta_0`
declares it benign (and, as in the paper's usage, stops the walk).

Although the test is *defined* sequentially, it is evaluated here as an
array kernel: first contacts are deduplicated with ``np.unique``,
outcomes are sorted by (source, time), each source's log-likelihood
trajectory is a grouped cumulative sum, and the verdict is read off at
the segment's first threshold crossing — exactly where the sequential
walk would have frozen it.  :meth:`TRWDetector.walk_reference` retains
the straightforward per-outcome loop as the semantic reference; the
property tests assert the two agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Tuple, Union

import numpy as np

from repro import obs
from repro.flows.kernels import (
    grouped_cumsum,
    pack64,
    segment_bounds,
    segment_first_true,
    segment_positions,
)
from repro.flows.log import FlowLog
from repro.flows.record import Protocol, TCPFlags

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.flows.chunked import ChunkedFlowLog

__all__ = ["FirstContactAggregates", "TRWConfig", "TRWDetector", "TRWState"]


@dataclass(frozen=True)
class TRWConfig:
    """Sequential hypothesis test parameters (defaults follow the paper)."""

    #: P(success | benign source).
    theta0: float = 0.8

    #: P(success | scanner).
    theta1: float = 0.2

    #: Target false positive rate.
    alpha: float = 0.01

    #: Target false negative rate.
    beta: float = 0.01

    def validate(self) -> None:
        if not 0 < self.theta1 < self.theta0 < 1:
            raise ValueError("need 0 < theta1 < theta0 < 1")
        if not 0 < self.alpha < 1 or not 0 < self.beta < 1:
            raise ValueError("alpha and beta must be in (0, 1)")

    @property
    def upper_threshold(self) -> float:
        """:math:`\\eta_1`: crossing it declares a scanner."""
        return (1 - self.beta) / self.alpha

    @property
    def lower_threshold(self) -> float:
        """:math:`\\eta_0`: crossing it declares the source benign."""
        return self.beta / (1 - self.alpha)

    @property
    def success_step(self) -> float:
        """Log-likelihood increment for a successful connection."""
        return math.log(self.theta1 / self.theta0)

    @property
    def failure_step(self) -> float:
        """Log-likelihood increment for a failed connection."""
        return math.log((1 - self.theta1) / (1 - self.theta0))


@dataclass
class TRWState:
    """Walk state for one source."""

    log_ratio: float = 0.0
    outcomes: int = 0
    verdict: str = "pending"  # "pending" | "scanner" | "benign"


@dataclass(frozen=True)
class FirstContactAggregates:
    """Mergeable per-pair first-contact state for streaming TRW.

    TRW's only cross-flow coupling is "first contact per (src, dst)
    pair", and *earliest* is a min — so the partial state per chunk is
    simply each pair's minimal ``(start_time, global log position)``
    flow, which merges exactly for **any** positional split of the log.
    ``positions`` are global offsets into the unchunked log so that the
    tie-break between equal-time contacts reproduces the in-memory
    stable sort bit for bit (restricted to TCP flows, global order and
    TCP-filtered order coincide).
    """

    #: Sorted unique ``(src << 32) | dst`` pair keys (uint64).
    pair_keys: np.ndarray
    #: Earliest start time seen for each pair (float64).
    times: np.ndarray
    #: Global log position of that earliest flow (int64).
    positions: np.ndarray
    #: Whether that flow carried an ACK (bool).
    acked: np.ndarray

    @classmethod
    def empty(cls) -> "FirstContactAggregates":
        return cls(
            pair_keys=np.asarray([], dtype=np.uint64),
            times=np.asarray([], dtype=np.float64),
            positions=np.asarray([], dtype=np.int64),
            acked=np.asarray([], dtype=bool),
        )

    @classmethod
    def from_flows(cls, flows: FlowLog, offset: int = 0) -> "FirstContactAggregates":
        """Aggregate one chunk whose first flow sits at global ``offset``."""
        tcp = flows.protocol == Protocol.TCP
        positions = offset + np.flatnonzero(tcp)
        if positions.size == 0:
            return cls.empty()
        keys = pack64(flows.src_addr[tcp], flows.dst_addr[tcp])
        times = flows.start_time[tcp]
        acked = (flows.tcp_flags[tcp] & TCPFlags.ACK) != 0
        return cls._first_per_pair(keys, times, positions, acked)

    @staticmethod
    def _first_per_pair(keys, times, positions, acked) -> "FirstContactAggregates":
        # Sort by (pair, time, position); the head of each pair run is
        # that pair's earliest contact under the exact tie-break the
        # in-memory stable time sort uses.
        order = np.lexsort((positions, times, keys))
        sorted_keys = keys[order]
        starts, _ = segment_bounds(sorted_keys)
        head = order[starts]
        return FirstContactAggregates(
            pair_keys=sorted_keys[starts],
            times=times[head],
            positions=positions[head],
            acked=acked[head],
        )

    @classmethod
    def merge_all(
        cls, parts: "Iterable[FirstContactAggregates]"
    ) -> "FirstContactAggregates":
        """Merge any number of partials in one sort over their union.

        Per-pair min of ``(time, position)`` is associative and
        commutative, so the result is the same for any split, order and
        grouping of ``parts``.
        """
        parts = [p for p in parts if p.pair_keys.size]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        return cls._first_per_pair(
            np.concatenate([p.pair_keys for p in parts]),
            np.concatenate([p.times for p in parts]),
            np.concatenate([p.positions for p in parts]),
            np.concatenate([p.acked for p in parts]),
        )

    def contacts(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(sources, successes)`` in global (time, position) order —
        the exact input sequence of the in-memory walk kernel."""
        order = np.lexsort((self.positions, self.times))
        sources = (self.pair_keys[order] >> np.uint64(32)).astype(np.uint32)
        return sources, self.acked[order]


class TRWDetector:
    """Sequential hypothesis-test scan detector over a flow log."""

    def __init__(self, config: TRWConfig = TRWConfig()) -> None:
        config.validate()
        self.config = config

    def _first_contacts(self, flows: FlowLog) -> Tuple[np.ndarray, np.ndarray]:
        """First-contact outcomes in time order, as columnar arrays.

        Only the first flow to each (source, destination) pair counts —
        TRW is defined over first-contact connection attempts.  Returns
        ``(sources, successes)`` ordered by start time (ties broken by
        log position, matching the sequential reference).
        """
        tcp = flows.protocol == Protocol.TCP
        start_time = flows.start_time[tcp]
        if start_time.size == 0:
            return (
                np.asarray([], dtype=np.uint32),
                np.asarray([], dtype=bool),
            )
        order = np.argsort(start_time, kind="stable")
        src = flows.src_addr[tcp][order]
        dst = flows.dst_addr[tcp][order]
        # np.unique(return_index) keeps the EARLIEST position per pair,
        # which in time-sorted order is exactly the first contact.
        key = (src.astype(np.uint64) << np.uint64(32)) | dst.astype(np.uint64)
        _, first = np.unique(key, return_index=True)
        first.sort()  # back to chronological order
        acked = (flows.tcp_flags[tcp][order][first] & TCPFlags.ACK) != 0
        return src[first], acked

    def _walk_kernel(
        self, flows: FlowLog
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The array form of the sequential test.

        Returns ``(sources, log_ratio, outcomes, verdict_code)``, one row
        per unique source (codes: 0 pending, 1 scanner, 2 benign).  The
        per-outcome log-likelihood trajectory of each source is an exact
        grouped cumulative count of failures (an integer kernel) scaled
        by the two step sizes; the verdict and state are read off at the
        first threshold crossing, so everything after a source's crossing
        is ignored — the walk-freezing semantics of the loop.
        """
        return self._walk_from_contacts(*self._first_contacts(flows))

    def _walk_from_contacts(
        self, contact_src: np.ndarray, contact_success: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run the walk over a time-ordered first-contact sequence."""
        cfg = self.config
        upper = math.log(cfg.upper_threshold)
        lower = math.log(cfg.lower_threshold)

        if contact_src.size == 0:
            empty = np.asarray([], dtype=np.int64)
            return contact_src, empty.astype(np.float64), empty, empty

        # Group outcomes by source, preserving time order within each.
        by_source = np.argsort(contact_src, kind="stable")
        success = contact_success[by_source]
        sources, starts, counts = np.unique(
            contact_src[by_source], return_index=True, return_counts=True
        )

        # Trajectory after k outcomes = failures*f_step + successes*s_step.
        # The grouped failure count is integer-exact, so each source's
        # trajectory is computed independently of its neighbours.
        failures = grouped_cumsum((~success).astype(np.int64), starts, counts)
        seen = segment_positions(counts) + 1
        trajectory = (
            failures * cfg.failure_step + (seen - failures) * cfg.success_step
        )

        crossed = (trajectory >= upper) | (trajectory <= lower)
        first_cross = segment_first_true(crossed, starts, counts)  # counts if none
        decided = first_cross < counts
        stop = starts + np.where(decided, first_cross, counts - 1)
        log_ratio = trajectory[stop]
        outcomes = np.where(decided, first_cross + 1, counts)
        verdict_code = np.where(
            decided, np.where(log_ratio >= upper, 1, 2), 0
        ).astype(np.int64)
        return sources, log_ratio, outcomes, verdict_code

    _VERDICTS = ("pending", "scanner", "benign")

    def walk(self, flows: FlowLog) -> Dict[int, TRWState]:
        """Run the walk for every source; returns final per-source state."""
        sources, log_ratio, outcomes, verdict_code = self._walk_kernel(flows)
        verdicts = self._VERDICTS
        return {
            source: TRWState(log_ratio=ratio, outcomes=count, verdict=verdicts[code])
            for source, ratio, count, code in zip(
                sources.tolist(), log_ratio.tolist(),
                outcomes.tolist(), verdict_code.tolist(),
            )
        }

    def detect(self, flows: FlowLog) -> np.ndarray:
        """Sorted unique source addresses declared scanners."""
        with obs.instrument("detect.trw", events=len(flows)):
            sources, _, _, verdict_code = self._walk_kernel(flows)
            return sources[verdict_code == 1].astype(np.uint32)

    def detect_chunked(
        self, chunks: Union["ChunkedFlowLog", Iterable[FlowLog]]
    ) -> np.ndarray:
        """:meth:`detect` as a fold over flow-log chunks.

        Accepts a :class:`~repro.flows.chunked.ChunkedFlowLog` or any
        iterable of positional :class:`FlowLog` slices; only one chunk
        plus the per-pair first-contact table is resident at a time.
        Bit-identical to :meth:`detect` on the concatenated log for any
        chunking, because the fold keeps each pair's earliest contact
        under the same (time, log position) order the in-memory kernel
        sorts by.
        """
        from repro.flows.chunked import ChunkedFlowLog, fold_partials

        if isinstance(chunks, ChunkedFlowLog):
            chunks = chunks.iter_chunks()
        with obs.instrument("detect.trw_chunked"):
            seen = [0]

            def _parts():
                for chunk in chunks:
                    part = FirstContactAggregates.from_flows(
                        chunk, offset=seen[0]
                    )
                    seen[0] += len(chunk)
                    yield part

            aggregate = fold_partials(
                _parts(),
                rows=lambda a: a.pair_keys.size,
                merge_all=FirstContactAggregates.merge_all,
            )
            obs.metrics.inc("detect.trw_chunked.events", seen[0])
            sources, _, _, verdict_code = self._walk_from_contacts(
                *aggregate.contacts()
            )
            return sources[verdict_code == 1].astype(np.uint32)

    # -- sequential reference ---------------------------------------------

    def _outcomes(self, flows: FlowLog) -> Iterable[Tuple[int, bool]]:
        """Yield (source, success) first-contact outcomes in time order
        (the per-flow loop the kernel replaces; kept for verification)."""
        tcp = flows.select(flows.protocol == Protocol.TCP)
        order = np.argsort(tcp.start_time, kind="stable")
        seen: set = set()
        src = tcp.src_addr
        dst = tcp.dst_addr
        acked = (tcp.tcp_flags & TCPFlags.ACK) != 0
        for i in order:
            key = (int(src[i]), int(dst[i]))
            if key in seen:
                continue
            seen.add(key)
            yield int(src[i]), bool(acked[i])

    def walk_reference(self, flows: FlowLog) -> Dict[int, TRWState]:
        """The original per-outcome sequential walk.

        This is the semantic specification the vectorized
        :meth:`walk` must match (the property tests compare them); it is
        interpreter-bound and should not be used on large logs.
        """
        cfg = self.config
        upper = math.log(cfg.upper_threshold)
        lower = math.log(cfg.lower_threshold)
        success_step = cfg.success_step
        failure_step = cfg.failure_step

        states: Dict[int, TRWState] = {}
        for source, success in self._outcomes(flows):
            state = states.setdefault(source, TRWState())
            if state.verdict != "pending":
                continue
            state.log_ratio += success_step if success else failure_step
            state.outcomes += 1
            if state.log_ratio >= upper:
                state.verdict = "scanner"
            elif state.log_ratio <= lower:
                state.verdict = "benign"
        return states
