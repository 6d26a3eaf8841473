"""Shard runners shared by the fleet tests.

A runner is pickled into pool workers, so it must be a module-level
callable; this module holds the cheap synthetic one that the fleet,
chaos and api tests run instead of simulating a network.
"""

from typing import Dict, Tuple

import numpy as np

from repro.core import folds
from repro.core.report import DataClass, Report, ReportType
from repro.fleet import NetworkShard
from repro.sim.timeline import PAPER_WINDOWS


def synthetic_reports(
    shard: NetworkShard, feed_tags: Tuple[str, ...]
) -> Dict[str, Report]:
    """A cheap deterministic runner for the fleet tests.

    Pure function of the shard's seed — the same determinism contract
    as :func:`repro.fleet.scenario_reports` at a millionth of the cost.
    """
    rng = np.random.default_rng(shard.config.seed)
    period = PAPER_WINDOWS.OCTOBER.dates()
    out: Dict[str, Report] = {}
    for tag in feed_tags:
        size = 4096 if tag == "control" else 256
        addresses = np.unique(
            rng.integers(1 << 24, 1 << 31, size=size, dtype=np.uint32)
        )
        out[tag] = Report(
            tag=tag,
            addresses=addresses,
            report_type=ReportType.PROVIDED,
            data_class=folds.CLASS_OF_TAG.get(tag, DataClass.NONE),
            period=period,
        )
    return out
