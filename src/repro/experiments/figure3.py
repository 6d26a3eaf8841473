"""Figure 3: comparative density of the four unclean classes.

One spatial uncleanliness test (Eq. 3) per unclean report — bot, phish,
spam, scan — against 1000 equal-cardinality random control subsets.  The
paper's claim, checked per class: the unclean report populates no more
*n*-bit blocks than any control subset, at every prefix length in
[16, 32].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.density import DensityResult
from repro.core.sampling import monte_carlo_rng
from repro.core.scenario import PaperScenario
from repro.experiments.common import render_table

__all__ = ["REPORT_TAGS", "Figure3Result", "run", "format_result"]

#: The four panels of Figure 3, in paper order.
REPORT_TAGS = ("bot", "phish", "spam", "scan")


@dataclass(frozen=True)
class Figure3Result:
    """One density test per unclean class."""

    panels: Dict[str, DensityResult]

    def all_hold(self) -> bool:
        """Spatial uncleanliness holds for every class."""
        return all(result.hypothesis_holds() for result in self.panels.values())

    def rows(self) -> List[dict]:
        out = []
        for tag, result in self.panels.items():
            for n in result.prefixes:
                out.append(
                    {
                        "report": tag,
                        "prefix": n,
                        "observed_blocks": result.observed[n],
                        "control_median": result.control[n].median,
                        "density_ratio": round(result.density_ratio(n), 2),
                        "denser": result.denser_than_control(n),
                    }
                )
        return out

    def summary_rows(self) -> List[dict]:
        return [
            {
                "report": tag,
                "holds": result.hypothesis_holds(),
                "ratio@/20": round(result.density_ratio(20), 2),
                "ratio@/24": round(result.density_ratio(24), 2),
            }
            for tag, result in self.panels.items()
        ]


def run(
    scenario: PaperScenario,
    rng: Optional[np.random.Generator] = None,
    subsets: int = 200,
    workers: Optional[int] = None,
) -> Figure3Result:
    """Regenerate the four panels of Figure 3."""
    from repro.api import evaluate

    rng = rng if rng is not None else monte_carlo_rng(scenario.config.seed)
    panels = {
        tag: evaluate(
            scenario,
            metric="density",
            train=scenario.report(tag),
            control=scenario.control,
            rng=rng,
            subsets=subsets,
            workers=workers,
        )
        for tag in REPORT_TAGS
    }
    return Figure3Result(panels=panels)


def format_result(result: Figure3Result) -> str:
    lines = [
        "Figure 3: comparative density of unclean blocks vs. control",
        "",
        render_table(result.summary_rows()),
        "",
        f"spatial uncleanliness holds for all classes: {result.all_hold()}",
    ]
    return "\n".join(lines)
