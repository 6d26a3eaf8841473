"""Temporal uncleanliness: predictive capacity of past unclean reports.

Implements §5 of the paper.  Given a past report and a present report, the
predictor quality at prefix length *n* is the block intersection
:math:`|C_n(R_{past}) \\cap C_n(R_{present})|` (Eq. 4).  The temporal
uncleanliness hypothesis (Eq. 5) holds if there is some prefix length at
which the past *unclean* report intersects the present unclean report more
than equal-cardinality random control subsets do.

The paper's criterion: the past report is a *better predictor* at *n* if
its intersection beats the control intersection in at least 95% of 1000
random control draws (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import cidr as rcidr
from repro.core.report import Report
from repro.core.sampling import monte_carlo
from repro.core.stats import BoxplotSummary, exceedance_fraction, summarize
from repro.ipspace.kernels import intersection_counts_2d

__all__ = [
    "BETTER_PREDICTOR_LEVEL",
    "PredictionResult",
    "control_intersection_distribution",
    "prediction_test_blocks",
    "prediction_test",
]

#: The paper's 95% better-predictor criterion (§5.2).
BETTER_PREDICTOR_LEVEL = 0.95


@dataclass(frozen=True)
class PredictionResult:
    """Outcome of a temporal uncleanliness test for one (past, present) pair.

    Attributes
    ----------
    past_tag, present_tag:
        Tags of the reports compared.
    prefixes:
        Prefix lengths evaluated.
    observed:
        ``{n: |C_n(past) ∩ C_n(present)|}``.
    control:
        ``{n: BoxplotSummary}`` of control-subset intersections.
    exceedance:
        ``{n: fraction of control draws the observed value beats}``.
    """

    past_tag: str
    present_tag: str
    prefixes: tuple
    observed: Dict[int, int]
    control: Dict[int, BoxplotSummary]
    exceedance: Dict[int, float]

    def better_predictor(self, prefix_len: int, level: float = BETTER_PREDICTOR_LEVEL) -> bool:
        """Whether the past report beats control at this prefix (95% rule)."""
        return self.exceedance[prefix_len] >= level

    def predictive_prefixes(self, level: float = BETTER_PREDICTOR_LEVEL) -> List[int]:
        """All prefix lengths where the past report is a better predictor."""
        return [n for n in self.prefixes if self.better_predictor(n, level)]

    def predictive_range(self, level: float = BETTER_PREDICTOR_LEVEL) -> Optional[Tuple[int, int]]:
        """The (shortest, longest) predictive prefix lengths, if any.

        For bot-test vs bots the paper reports 20-25 bits; vs spam 19-32;
        vs scan 20-24 (§5.2).
        """
        winners = self.predictive_prefixes(level)
        if not winners:
            return None
        return (min(winners), max(winners))

    def hypothesis_holds(self, level: float = BETTER_PREDICTOR_LEVEL) -> bool:
        """Eq. 5: some prefix length exists where past beats control."""
        return bool(self.predictive_prefixes(level))

    def rows(self) -> List[dict]:
        """Per-prefix rows suitable for tabular output (Figs. 4-5)."""
        return [
            {
                "prefix": n,
                "observed_intersection": self.observed[n],
                "control_median": self.control[n].median,
                "control_q95": self.control[n].q95,
                "exceedance": round(self.exceedance[n], 4),
                "better_predictor": self.better_predictor(n),
            }
            for n in self.prefixes
        ]


def control_intersection_distribution(
    present_blocks: Tuple[np.ndarray, ...],
    control: Report,
    size: int,
    subsets: int,
    rng: np.random.Generator,
    prefixes: Sequence[int],
) -> Dict[int, np.ndarray]:
    """Monte-Carlo intersection distributions over random control subsets.

    Draws ``subsets`` control subsets of cardinality ``size`` and
    returns ``{n: array of |C_n(subset) ∩ present_blocks[n]|}``.  This
    is the §5 null model with the predictor factored out: the observed
    side compares *any* predicted block sets against the same
    distribution, which is what lets one Monte-Carlo run serve every
    rival model in a head-to-head comparison (the distribution depends
    only on the present blocks, the control report and the cardinality
    budget — never on the predictor).  Every subset and prefix is
    counted by one :func:`intersection_counts_2d` call.
    """
    prefixes = tuple(prefixes)
    if len(present_blocks) != len(prefixes):
        raise ValueError(
            f"{len(present_blocks)} block sets for {len(prefixes)} prefixes"
        )
    if size > len(control):
        raise ValueError(
            f"control report ({len(control)}) smaller than subset size ({size})"
        )
    matrix = monte_carlo(
        control,
        size,
        subsets,
        rng,
        statistic=lambda trials: intersection_counts_2d(
            trials, present_blocks, prefixes
        ),
    )
    return {n: matrix[:, column] for column, n in enumerate(prefixes)}


def prediction_test_blocks(
    predicted_blocks: Sequence[np.ndarray],
    present_blocks: Sequence[np.ndarray],
    control_values: Dict[int, np.ndarray],
    prefixes: Sequence[int],
    past_tag: str,
    present_tag: str,
) -> PredictionResult:
    """Assemble a :class:`PredictionResult` for arbitrary predicted blocks.

    The predictor-generic half of the §5 test: ``predicted_blocks[i]``
    is any model's sorted predicted block set at ``prefixes[i]``,
    ``present_blocks[i]`` the present report's blocks, and
    ``control_values`` the null distribution from
    :func:`control_intersection_distribution` (shareable across
    models).  Pure comparison — no sampling, no RNG.
    """
    prefixes = tuple(prefixes)
    observed = {
        n: int(np.intersect1d(predicted, blocks).size)
        for n, predicted, blocks in zip(
            prefixes, predicted_blocks, present_blocks
        )
    }
    control_summaries = {
        n: summarize(control_values[n]) for n in prefixes
    }
    exceedance = {
        n: exceedance_fraction(observed[n], control_values[n])
        for n in prefixes
    }
    return PredictionResult(
        past_tag=past_tag,
        present_tag=present_tag,
        prefixes=prefixes,
        observed=observed,
        control=control_summaries,
        exceedance=exceedance,
    )


def prediction_test(
    past: Report,
    present: Report,
    control: Report,
    rng: np.random.Generator,
    prefixes: Sequence[int] = tuple(rcidr.PREFIX_RANGE),
    subsets: int = 1000,
) -> PredictionResult:
    """Run the temporal uncleanliness test of §5.2.

    Compares ``|C_n(past) ∩ C_n(present)|`` against the distribution of
    ``|C_n(random control subset) ∩ C_n(present)|`` over ``subsets``
    draws, where each control subset has the cardinality of ``past``
    (the equal-cardinality condition of Eq. 5).
    """
    prefixes = rcidr.prefix_tuple(prefixes)
    size = len(past)
    if size == 0:
        raise ValueError("cannot run a prediction test with an empty past report")
    past_blocks = tuple(rcidr.cidr_set(past, n) for n in prefixes)
    present_blocks = tuple(rcidr.cidr_set(present, n) for n in prefixes)
    control_values = control_intersection_distribution(
        present_blocks, control, size, subsets, rng, prefixes
    )
    return prediction_test_blocks(
        past_blocks,
        present_blocks,
        control_values,
        prefixes,
        past_tag=past.tag,
        present_tag=present.tag,
    )
