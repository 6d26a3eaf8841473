"""The §6 virtual blocking experiment.

Evaluates whether blocking the CIDR blocks of a months-old bot report
would have been *effective*: how much hostile vs. legitimate traffic the
blocks would have caught during a later observation window.

Pipeline (following §6.1):

1. **Candidate extraction** — every external address observed in border
   traffic that (a) shares a /24 with an address of the old bot report
   and (b) generated at least one TCP record during the window.
2. **Partition** — candidates split into three reports:

   * ``hostile``: also present in the period's unclean reports (the union
     of bot, phish, scan and spam);
   * ``unknown``: not reported, and *never* exchanged payload (no TCP
     flow with >=36 bytes of payload and an ACK);
   * ``innocent``: not reported, but did exchange payload.

3. **Scoring** — for each prefix length n in [24, 32], count candidates
   inside :math:`C_n(R_{bot-test})`: ``pop(n)`` over hostile+innocent
   (Eq. 7), ``TP(n)`` over hostile (Eq. 8), ``FP(n)`` over innocent
   (Eq. 9).  Unknown addresses are tallied but never scored (§6.1).

The result reproduces Table 3 and the ROC view of §6.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core import cidr as rcidr
from repro.core.report import DataClass, Report, ReportType
from repro.core.stats import BoxplotSummary, summarize
from repro.flows.log import FlowLog
from repro.flows.record import Protocol
from repro.ipspace import cidr as _lowcidr
from repro.ipspace.kernels import intersection_counts_2d, member_counts_2d

__all__ = [
    "BLOCKING_PREFIXES",
    "CandidatePartition",
    "BlockingRow",
    "BlockingResult",
    "partition_candidates",
    "blocking_test",
    "blocking_test_blocks",
    "control_blocking_distribution",
]

#: §6 examines blocking at prefix lengths 24..32: "24 bits is the minimum
#: block size at which R_bot-test is an unambiguously better predictor".
BLOCKING_PREFIXES = tuple(range(24, 33))


@dataclass(frozen=True)
class CandidatePartition:
    """The candidate set and its hostile/unknown/innocent split (Table 2)."""

    candidate: Report
    hostile: Report
    unknown: Report
    innocent: Report

    def __post_init__(self) -> None:
        total = len(self.hostile) + len(self.unknown) + len(self.innocent)
        if total != len(self.candidate):
            raise ValueError(
                "partition does not cover the candidate set: "
                f"{len(self.hostile)}+{len(self.unknown)}+{len(self.innocent)} "
                f"!= {len(self.candidate)}"
            )

    def table2_rows(self) -> List[dict]:
        """Inventory rows in the shape of the paper's Table 2."""
        return [
            report.summary_row()
            for report in (self.candidate, self.hostile, self.unknown, self.innocent)
        ]


@dataclass(frozen=True)
class BlockingRow:
    """One row of Table 3."""

    prefix: int
    true_positives: int
    false_positives: int
    population: int
    unknown: int

    @property
    def tp_rate(self) -> float:
        """TP / scored population (the paper's ~90% at /24)."""
        return self.true_positives / self.population if self.population else 0.0

    @property
    def fp_rate(self) -> float:
        return self.false_positives / self.population if self.population else 0.0

    @property
    def tp_rate_assuming_unknown_hostile(self) -> float:
        """TP rate if unknowns are counted hostile (the paper's 97%)."""
        total = self.population + self.unknown
        if not total:
            return 0.0
        return (self.true_positives + self.unknown) / total

    def as_dict(self) -> dict:
        return {
            "n": self.prefix,
            "TP(n)": self.true_positives,
            "FP(n)": self.false_positives,
            "pop(n)": self.population,
            "unknown": self.unknown,
        }


@dataclass(frozen=True)
class BlockingResult:
    """Table 3 plus derived ROC quantities."""

    rows: tuple

    def row(self, prefix: int) -> BlockingRow:
        for r in self.rows:
            if r.prefix == prefix:
                return r
        raise KeyError(f"no blocking row for prefix {prefix}")

    def table3(self) -> List[dict]:
        return [r.as_dict() for r in self.rows]

    def roc_points(self) -> List[dict]:
        """Per-prefix operating points (§6.2's ROC analysis)."""
        return [
            {
                "n": r.prefix,
                "tp_rate": round(r.tp_rate, 4),
                "fp_rate": round(r.fp_rate, 4),
                "tp_rate_unknown_hostile": round(
                    r.tp_rate_assuming_unknown_hostile, 4
                ),
            }
            for r in self.rows
        ]

    def monotone_decreasing(self) -> bool:
        """All four columns shrink (weakly) as the prefix lengthens."""
        for earlier, later in zip(self.rows, self.rows[1:]):
            if later.prefix <= earlier.prefix:
                continue
            if (
                later.true_positives > earlier.true_positives
                or later.false_positives > earlier.false_positives
                or later.population > earlier.population
                or later.unknown > earlier.unknown
            ):
                return False
        return True


def partition_candidates(
    flows: FlowLog,
    bot_test: Report,
    unclean: Report,
    candidate_prefix: int = 24,
    period=None,
) -> CandidatePartition:
    """Extract and partition the candidate set from a border capture.

    ``flows`` is the window's border traffic, ``bot_test`` the old bot
    report whose /24s are under consideration, and ``unclean`` the union
    of the window's unclean reports.  ``period`` (calendar dates of the
    observation window) defaults to the unclean union's period — the
    candidates are observed during the traffic window, not at the old
    report's date.
    """
    if period is None:
        period = unclean.period
    tcp = flows.select(flows.protocol == Protocol.TCP)
    test_blocks = rcidr.cidr_set(bot_test, candidate_prefix)

    sources = tcp.unique_sources()
    in_blocks = _lowcidr.contains(sources, test_blocks, candidate_prefix)
    candidate_addrs = sources[in_blocks]
    candidate = Report(
        tag="candidate",
        addresses=candidate_addrs,
        report_type=ReportType.OBSERVED,
        data_class=DataClass.NONE,
        period=period,
    )

    hostile = candidate.intersection(unclean, tag="hostile")

    payload_sources = tcp.payload_bearing_sources()
    rest = candidate.difference(hostile, tag="rest")
    had_payload = np.isin(rest.addresses, payload_sources)
    unknown = rest.filtered(~had_payload, tag="unknown")
    innocent = rest.filtered(had_payload, tag="innocent")
    return CandidatePartition(
        candidate=candidate, hostile=hostile, unknown=unknown, innocent=innocent
    )


def blocking_test_blocks(
    partition: CandidatePartition,
    blocks_by_prefix: Sequence[np.ndarray],
    prefixes: Sequence[int] = BLOCKING_PREFIXES,
) -> BlockingResult:
    """Score a virtual block of arbitrary per-prefix block sets.

    The predictor-generic half of the §6 experiment:
    ``blocks_by_prefix[i]`` is any model's sorted blocked set at
    ``prefixes[i]`` (the paper's choice is ``C_n(R_{bot-test})``, via
    :func:`blocking_test`).  Implements Eqs. 7-9: at each n, count the
    hostile (TP), innocent (FP) and combined (pop) candidates falling
    inside the blocked blocks; unknowns are tallied separately and never
    scored.  All prefixes are scored in one batched kernel pass per
    candidate class (:func:`repro.ipspace.kernels.member_counts_2d`).
    """
    prefixes = tuple(prefixes)
    blocks_by_prefix = list(blocks_by_prefix)
    if len(blocks_by_prefix) != len(prefixes):
        raise ValueError(
            f"{len(blocks_by_prefix)} block sets for {len(prefixes)} prefixes"
        )

    def scores(report: Report) -> np.ndarray:
        return member_counts_2d(
            report.addresses[np.newaxis, :], blocks_by_prefix, prefixes
        )[0]

    tp = scores(partition.hostile)
    fp = scores(partition.innocent)
    unknown = scores(partition.unknown)
    rows = [
        BlockingRow(
            prefix=n,
            true_positives=int(tp[column]),
            false_positives=int(fp[column]),
            population=int(tp[column] + fp[column]),
            unknown=int(unknown[column]),
        )
        for column, n in enumerate(prefixes)
    ]
    return BlockingResult(rows=tuple(rows))


def blocking_test(
    partition: CandidatePartition,
    bot_test: Report,
    prefixes: Sequence[int] = BLOCKING_PREFIXES,
) -> BlockingResult:
    """Score the virtual block of :math:`C_n(R_{bot-test})` per prefix.

    The paper's §6 configuration of :func:`blocking_test_blocks`: the
    blocked sets are the old bot report's own CIDR sets.
    """
    prefixes = tuple(sorted(prefixes))
    blocks_by_prefix = [rcidr.cidr_set(bot_test, n) for n in prefixes]
    return blocking_test_blocks(partition, blocks_by_prefix, prefixes)


def control_blocking_distribution(
    partition: CandidatePartition,
    bot_test: Report,
    control: Report,
    rng: np.random.Generator,
    prefixes: Sequence[int] = BLOCKING_PREFIXES,
    subsets: int = 1000,
) -> Dict[str, Dict[int, BoxplotSummary]]:
    """The §6 null model: would a *random* report block as much?

    Draws ``subsets`` equal-cardinality random subsets of ``control``
    (the same Monte-Carlo machinery as §4/§5) and scores each subset's
    virtual block against the partition's hostile and innocent
    candidates.  Returns ``{"hostile"|"innocent": {n: BoxplotSummary}}``
    — the distribution the observed TP(n)/FP(n) of
    :func:`blocking_test` should tower over (hostile) or resemble
    (innocent) if the old bot report's blocks carry real signal.
    """
    size = len(bot_test)
    out: Dict[str, Dict[int, BoxplotSummary]] = {}
    prefixes = tuple(sorted(prefixes))
    for name, target in (
        ("hostile", partition.hostile),
        ("innocent", partition.innocent),
    ):
        matrix = monte_carlo_covered_counts(
            target, control, size, subsets, rng, prefixes
        )
        out[name] = {
            n: summarize(matrix[:, column])
            for column, n in enumerate(prefixes)
        }
    return out


def monte_carlo_covered_counts(
    target: Report,
    control: Report,
    size: int,
    subsets: int,
    rng: np.random.Generator,
    prefixes: Sequence[int],
) -> np.ndarray:
    """Monte-Carlo matrix of covered-address counts: per subset and
    prefix, how many of ``target``'s addresses the subset's blocks catch.

    The target is pre-aggregated into per-prefix ``(blocks,
    multiplicities)``, so one weighted :func:`intersection_counts_2d`
    call counts every subset and prefix.
    """
    from repro.core.sampling import monte_carlo

    prefixes = tuple(prefixes)
    blocks, weights = [], []
    for n in prefixes:
        uniques, counts = np.unique(
            _lowcidr.mask_array(target.addresses, n), return_counts=True
        )
        blocks.append(uniques)
        weights.append(counts.astype(np.int64))
    return monte_carlo(
        control,
        size,
        subsets,
        rng,
        statistic=lambda trials: intersection_counts_2d(
            trials, blocks, prefixes, weights_by_prefix=weights
        ),
    )
