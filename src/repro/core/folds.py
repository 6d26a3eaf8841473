"""Reusable window-fold steps shared by the batch stages and the stream.

The batch pipeline (:mod:`repro.core.stages`) computes every windowed
quantity over the whole observation window at once; the streaming layer
(:mod:`repro.stream`) folds the same quantities one day-batch at a
time.  Both paths must agree *bit for bit* — that replay-equivalence
invariant is what lets the streaming service reuse the paper's Table 2/3
validation unchanged — so the window logic lives here, once:

* report constructors (tag, type, class, period metadata) for the
  observed detector reports and the unclean union;
* the day-slicing of a window's flow log (every flow lands in exactly
  one day-batch, keyed by ``start_time // DAY_SECONDS``);
* the class mapping and scoring step from Table 1 report tags to the
  §7 multidimensional uncleanliness scores and the derived blocklist.

Decomposability notes, enforced by ``tests/test_stream_replay.py`` and
``tests/test_detect_modes.py``: the scan detector buckets by hour and
hours never span days, so unioning per-day detections equals
whole-window detection; the spam detector's statistics are one exact
mergeable aggregate (:class:`repro.detect.spam.SpamAggregates`) whose
``merge_all`` is exact for any split of the log, days included; report
sets are unions of per-day address deltas; and the noisy-OR scores are
recomputed from exact integer per-block counts in a fixed class order.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.core.report import DataClass, Report, ReportType
from repro.core.uncleanliness import (
    DEFAULT_WEIGHTS,
    BlockScores,
    UncleanlinessScorer,
)
from repro.flows.log import FlowLog
from repro.sim.timeline import DAY_SECONDS, Window

__all__ = [
    "UNCLEAN_TAGS",
    "CLASS_OF_TAG",
    "CLASS_ORDER",
    "DEFAULT_CLASS_WEIGHTS",
    "day_slices",
    "slice_day",
    "observed_report",
    "unclean_union",
    "class_reports",
    "batch_scores",
    "blocklist_networks",
]

#: The four reports whose union is R_unclean (Table 2), in union order.
UNCLEAN_TAGS: Tuple[str, ...] = ("bot", "phish", "scan", "spam")

#: Report tag -> scorer class, in the fixed class order scoring uses.
#: Dict insertion order is load-bearing: the noisy-OR multiplies class
#: evidence terms in mapping order, and floating multiplication is not
#: associative, so batch and stream must walk the classes identically.
CLASS_OF_TAG: Dict[str, str] = {
    "bot": DataClass.BOTS,
    "scan": DataClass.SCANNING,
    "spam": DataClass.SPAM,
    "phish": DataClass.PHISHING,
}

#: The scoring classes in evaluation order.
CLASS_ORDER: Tuple[str, ...] = tuple(CLASS_OF_TAG.values())

#: Default per-class weights for the streaming scorer: the §7 defaults
#: restricted to the classes the stream actually folds, in CLASS_ORDER.
DEFAULT_CLASS_WEIGHTS: Tuple[Tuple[str, float], ...] = tuple(
    (cls, DEFAULT_WEIGHTS[cls]) for cls in CLASS_ORDER
)

#: Metadata of the observed (detector-generated) report tags.
_OBSERVED_META = {
    "scan": DataClass.SCANNING,
    "spam": DataClass.SPAM,
}


def slice_day(flows: FlowLog, day: int) -> FlowLog:
    """The flows starting within simulation day ``day``."""
    return flows.in_time_range(day * DAY_SECONDS, (day + 1) * DAY_SECONDS)


def day_slices(flows: FlowLog, window: Window) -> Iterator[Tuple[int, FlowLog]]:
    """``(day, flows-of-day)`` for every day of ``window``, in order.

    Every flow of a window capture starts inside the window, so the
    slices partition the log: concatenating them (in any order) covers
    each flow exactly once — the property that makes day-folding the
    detectors equivalent to running them whole-window.
    """
    for day in window.days():
        yield day, slice_day(flows, day)


def observed_report(tag: str, addresses: np.ndarray, window: Window) -> Report:
    """An observed detector report with the batch pipeline's metadata."""
    try:
        data_class = _OBSERVED_META[tag]
    except KeyError:
        raise ValueError(f"not an observed report tag: {tag!r}") from None
    return Report(
        tag=tag,
        addresses=addresses,
        report_type=ReportType.OBSERVED,
        data_class=data_class,
        period=window.dates(),
    ).without_reserved()


def unclean_union(reports: Mapping[str, Report], window: Window) -> Report:
    """R_unclean: the union of the four unclean reports (Table 2)."""
    union = reports[UNCLEAN_TAGS[0]]
    for tag in UNCLEAN_TAGS[1:]:
        union = union | reports[tag]
    return Report(
        tag="unclean",
        addresses=union.addresses,
        report_type=ReportType.PROVIDED,
        data_class=DataClass.SPECIAL,
        period=window.dates(),
    )


def class_reports(reports: Mapping[str, Report]) -> Dict[str, Report]:
    """The scorer's ``{class: report}`` mapping, in :data:`CLASS_ORDER`."""
    return {cls: reports[tag] for tag, cls in CLASS_OF_TAG.items()}


def batch_scores(
    reports: Mapping[str, Report],
    prefix_len: int = 24,
    weights: Optional[Mapping[str, float]] = None,
) -> BlockScores:
    """The batch-path score table the stream must reproduce exactly.

    Scores the four unclean class reports with the §7 scorer; the
    replay-equivalence tests compare the incremental state's rolling
    counts and scores against this, bit for bit.
    """
    if weights is None:
        weights = dict(DEFAULT_CLASS_WEIGHTS)
    scorer = UncleanlinessScorer(prefix_len=prefix_len, weights=weights)
    return scorer.score(class_reports(reports))


def blocklist_networks(scores: BlockScores, threshold: float) -> np.ndarray:
    """The recommended blocklist as a sorted masked-network array."""
    return scores.blocks[scores.scores >= threshold]
