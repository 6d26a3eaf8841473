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
walk would have frozen it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro import obs
from repro.flows.kernels import (
    grouped_cumsum,
    segment_first_true,
    segment_positions,
)
from repro.flows.log import FlowLog
from repro.flows.record import Protocol, TCPFlags

__all__ = ["TRWConfig", "TRWDetector", "TRWState"]


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
        log position, the order the sequential walk consumes them in).
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
        is ignored — the walk-freezing semantics of the sequential test.
        """
        contact_src, contact_success = self._first_contacts(flows)
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
