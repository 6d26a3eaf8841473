"""Figure 4: predictive capacity of the five-month-old bot report.

One temporal uncleanliness test (Eq. 5) per present-day unclean report,
with :math:`R_{bot-test}` (May 10th, 186 addresses) as the past report.
The paper's claims, checked per panel:

* bot-test is a better predictor than control — at the 95% level — for
  future **bots**, **spamming** and **scanning** over a band of mid-length
  prefixes (paper: 20-25, 19-32 and 20-24 bits respectively);
* bot-test is **not** a better predictor of future **phishing** (panel
  ii), the result that makes uncleanliness multidimensional;
* at short prefixes the random control becomes competitive (the spatial
  clustering of the unclean report costs it coarse-block coverage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.prediction import PredictionResult
from repro.core.sampling import monte_carlo_rng
from repro.core.scenario import PaperScenario
from repro.experiments.common import render_table
from repro.experiments.paper_values import FIGURE4_PREDICTIVE_RANGES

__all__ = ["TARGET_TAGS", "Figure4Result", "run", "format_result"]

#: The four panels: (i) bots, (ii) phishing, (iii) spam, (iv) scanning.
TARGET_TAGS = ("bot", "phish-present", "spam", "scan")


@dataclass(frozen=True)
class Figure4Result:
    """One prediction test per panel."""

    panels: Dict[str, PredictionResult]

    def bot_spam_scan_predicted(self) -> bool:
        """Temporal uncleanliness holds for the botnet-linked classes."""
        return all(
            self.panels[tag].hypothesis_holds() for tag in ("bot", "spam", "scan")
        )

    def phishing_not_predicted(self, tolerance: int = 1) -> bool:
        """Bot-test fails to predict phishing.

        ``tolerance`` allows a stray single-prefix exceedance (Monte-Carlo
        noise at small cardinalities) without counting as prediction.
        """
        return len(self.panels["phish-present"].predictive_prefixes()) <= tolerance

    def summary_rows(self) -> List[dict]:
        rows = []
        for tag, result in self.panels.items():
            rows.append(
                {
                    "target": tag,
                    "predictive_range": result.predictive_range() or "-",
                    "paper_range": FIGURE4_PREDICTIVE_RANGES[tag] or "-",
                    "holds": result.hypothesis_holds(),
                }
            )
        return rows

    def rows(self) -> List[dict]:
        out = []
        for tag, result in self.panels.items():
            for row in result.rows():
                row = dict(row)
                row["target"] = tag
                out.append(row)
        return out


def run(
    scenario: PaperScenario,
    rng: Optional[np.random.Generator] = None,
    subsets: int = 200,
) -> Figure4Result:
    """Regenerate the four panels of Figure 4."""
    # Each panel is the uncleanliness predictor (fit on bot-test) run
    # through the facade's evaluate() entry; with a shared explicit rng
    # the panel numbers are bit-identical to the legacy per-report
    # prediction_test calls.
    from repro.api import evaluate

    rng = rng if rng is not None else monte_carlo_rng(scenario.config.seed)
    panels = {
        tag: evaluate(
            scenario,
            metric="prediction",
            train=scenario.bot_test,
            present=scenario.report(tag),
            control=scenario.control,
            rng=rng,
            subsets=subsets,
        )
        for tag in TARGET_TAGS
    }
    return Figure4Result(panels=panels)


def format_result(result: Figure4Result) -> str:
    lines = [
        "Figure 4: predictive capacity of R_bot-test vs. control",
        "",
        render_table(result.summary_rows()),
        "",
        f"bots/spam/scan predicted: {result.bot_spam_scan_predicted()}",
        f"phishing NOT predicted: {result.phishing_not_predicted()}",
    ]
    return "\n".join(lines)
