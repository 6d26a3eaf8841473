"""Reference implementations the equivalence tests compare against.

Each oracle is the readable, interpreter-bound formulation of a
quantity the program computes with a vectorised kernel:

* :func:`run_trials` is the per-trial Monte Carlo — one ``Report`` and
  one Python call per trial, under ``monte_carlo``'s exact seeding —
  and the ``*_vector`` / :func:`list_coverage` functions are the
  per-trial statistics of the §4-§6 nulls it evaluates;
* :func:`scan_detect_reference` is the row-table fan-out scan detector;
* :func:`trw_walk_reference` is the per-outcome sequential TRW walk.

They are specifications, not fast paths: none belongs in ``src/``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core import cidr as rcidr
from repro.core.report import Report
from repro.detect.scan import ScanDetectorConfig
from repro.detect.trw import TRWConfig, TRWState
from repro.flows.log import FlowLog
from repro.flows.record import Protocol, TCPFlags
from repro.ipspace import cidr as icidr

_HOUR_SECONDS = 3600.0


# -- the per-trial Monte Carlo ------------------------------------------------


def run_trials(
    control: Report,
    size: int,
    count: int,
    rng: np.random.Generator,
    per_trial: Callable[[Report], object],
) -> np.ndarray:
    """``monte_carlo`` one trial at a time.

    One 16-byte draw from ``rng`` roots a ``SeedSequence``; trial ``i``
    samples its own ``Report`` from spawned child ``i`` and
    ``per_trial`` evaluates it.  Under equal rng states the result must
    equal ``monte_carlo`` with the matching kernel, bit for bit.
    """
    root = np.random.SeedSequence(int.from_bytes(rng.bytes(16), "little"))
    values = []
    for index, child in enumerate(root.spawn(count)):
        subset = control.sample(
            size, np.random.default_rng(child), tag=f"{control.tag}[{index}]"
        )
        values.append(per_trial(subset))
    return np.asarray(values, dtype=float)


def block_count_vector(subset: Report, prefixes: Sequence[int]) -> List[int]:
    """:math:`|C_n(S)|` per prefix: the Figure 2/3 statistic."""
    return [icidr.block_count(subset.addresses, n) for n in prefixes]


def intersection_vector(
    subset: Report,
    present_blocks: Sequence[np.ndarray],
    prefixes: Sequence[int],
) -> List[int]:
    """:math:`|C_n(S) \\cap C_n(R_{present})|` per prefix: the Figure 4/5
    statistic against precomputed present-report block sets."""
    return [
        int(np.intersect1d(rcidr.cidr_set(subset, n), blocks).size)
        for blocks, n in zip(present_blocks, prefixes)
    ]


def covered_count_vector(
    subset: Report, target: Report, prefixes: Sequence[int]
) -> List[int]:
    """How many of ``target``'s addresses :math:`C_n(S)` covers, per
    prefix: the §6 null-model statistic."""
    return [
        int(
            np.isin(
                icidr.mask_array(target.addresses, n), rcidr.cidr_set(subset, n)
            ).sum()
        )
        for n in prefixes
    ]


def list_coverage(
    subset: Report, networks: np.ndarray, prefix_len: int
) -> Tuple[int]:
    """How many of the subset's addresses a blocklist of sorted /n
    ``networks`` covers: the tracker's null statistic."""
    return (int(icidr.contains(subset.addresses, networks, prefix_len).sum()),)


# -- detectors ----------------------------------------------------------------


def scan_detect_reference(
    config: ScanDetectorConfig, flows: FlowLog
) -> np.ndarray:
    """The fan-out scan detector as ``np.unique(axis=0)`` row tables.

    Sorted unique sources that, in some hour, contact at least
    ``min_targets`` distinct destinations with at least
    ``min_failed_fraction`` of their TCP flows unanswered (no ACK).
    ``pairs`` and ``all_pairs`` below are the same table by
    construction: every raw pair owns at least one deduped triple, and
    ``np.unique`` sorts rows lexicographically both times.
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

    flagged = (target_counts >= config.min_targets) & (
        failed_fraction >= config.min_failed_fraction
    )
    return np.unique(pairs[flagged, 0]).astype(np.uint32)


def _first_contact_outcomes(flows: FlowLog) -> Iterator[Tuple[int, bool]]:
    """``(source, success)`` for each first contact of a (source,
    destination) pair, in start-time order with log order breaking ties."""
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


def trw_walk_reference(config: TRWConfig, flows: FlowLog) -> Dict[int, TRWState]:
    """The sequential TRW walk, one first-contact outcome at a time.

    Each source's log-likelihood ratio moves by the success or failure
    step per outcome until it crosses a threshold, where its verdict
    freezes.
    """
    upper = math.log(config.upper_threshold)
    lower = math.log(config.lower_threshold)
    success_step = config.success_step
    failure_step = config.failure_step

    states: Dict[int, TRWState] = {}
    for source, success in _first_contact_outcomes(flows):
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
