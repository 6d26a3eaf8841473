"""Figure 5: phishing predicts phishing.

The counterpart to Figure 4(ii): with :math:`R_{phish-test}` (the May
listings) as the past report, the same prediction test against the
October phishing sub-report succeeds — temporal uncleanliness holds for
phishing too, just along its own dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.prediction import PredictionResult
from repro.core.sampling import monte_carlo_rng
from repro.core.scenario import PaperScenario
from repro.experiments.common import render_table

__all__ = ["Figure5Result", "run", "format_result"]


@dataclass(frozen=True)
class Figure5Result:
    """The phishing-on-phishing prediction test."""

    prediction: PredictionResult

    def phishing_self_predicts(self) -> bool:
        return self.prediction.hypothesis_holds()

    def rows(self):
        return self.prediction.rows()


def run(
    scenario: PaperScenario,
    rng: Optional[np.random.Generator] = None,
    subsets: int = 200,
) -> Figure5Result:
    """Regenerate Figure 5."""
    from repro.api import evaluate

    rng = rng if rng is not None else monte_carlo_rng(scenario.config.seed)
    prediction = evaluate(
        scenario,
        metric="prediction",
        train=scenario.phish_test,
        present=scenario.phish_present,
        control=scenario.control,
        rng=rng,
        subsets=subsets,
    )
    return Figure5Result(prediction=prediction)


def format_result(result: Figure5Result) -> str:
    lines = [
        "Figure 5: predictive capacity of past phishing reports",
        "",
        render_table(result.rows()),
        "",
        f"phishing self-predicts: {result.phishing_self_predicts()} "
        f"(range {result.prediction.predictive_range()})",
    ]
    return "\n".join(lines)
