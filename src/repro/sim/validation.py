"""Statistical validation of the simulation substrate.

The reproduction's conclusions are only as good as its generators, so the
distributional contracts the simulator documents are checked statistically
rather than assumed:

* compromise **start days** are uniform over the horizon (Poisson-process
  arrivals);
* compromise **durations**, standardised by their per-event means, are
  unit-exponential (the defender-persistence model);
* **channel assignment** is uniform over the configured C&C channels;
* compromise **placement** increases with network uncleanliness
  (opportunistic acquisition lands where defence is weak).

Each check returns a :class:`CheckResult` with the test statistic and
p-value; :func:`validate_botnet` bundles them.  Uses scipy for the KS,
chi-square and rank-correlation machinery, imported by each check when
it runs: ``scipy.stats`` takes about a second to import, and importing
the package must not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.sim.botnet import BotnetSimulation

__all__ = ["CheckResult", "validate_botnet"]

#: Checks pass when the p-value clears this level (two-sided tests) or,
#: for the association check, when the correlation is positive and
#: significant at it.
DEFAULT_LEVEL = 0.01


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one distributional check."""

    name: str
    statistic: float
    p_value: float
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "check": self.name,
            "statistic": round(self.statistic, 4),
            "p_value": round(self.p_value, 4),
            "passed": self.passed,
            "detail": self.detail,
        }


def check_start_days_uniform(
    botnet: BotnetSimulation, level: float = DEFAULT_LEVEL
) -> CheckResult:
    """KS test of start days against Uniform(0, horizon)."""
    from scipy import stats

    horizon = botnet.config.horizon_days
    # Continuity correction: add uniform jitter inside the day bucket.
    jitter = np.random.default_rng(0).random(botnet.start_day.size)
    values = (botnet.start_day + jitter) / horizon
    statistic, p_value = stats.kstest(values, "uniform")
    return CheckResult(
        name="start_days_uniform",
        statistic=float(statistic),
        p_value=float(p_value),
        passed=bool(p_value > level),
        detail="Poisson arrivals imply uniform start days",
    )


def check_durations_exponential(
    botnet: BotnetSimulation, level: float = DEFAULT_LEVEL
) -> CheckResult:
    """KS test of standardised durations against Exp(1).

    Each event's duration is exponential with its own uncleanliness-
    driven mean; dividing by that mean should collapse them onto a unit
    exponential.  Horizon-truncated events are censored and excluded, as
    is the floor-at-one-day discretisation (durations of exactly one day
    carry rounding mass).
    """
    from scipy import stats

    cfg = botnet.config
    if botnet.dynamics is None:
        unclean = botnet.internet.uncleanliness[botnet.network_index]
    else:
        epoch_days = botnet.dynamics.config.epoch_days
        unclean = botnet.dynamics.uncleanliness[
            botnet.start_day // epoch_days, botnet.network_index
        ]
    means = cfg.base_duration_days + cfg.duration_gain_days * unclean

    def standardise(durations: np.ndarray) -> np.ndarray:
        usable = (botnet.start_day + durations < cfg.horizon_days - 1) & (
            durations > 1
        )
        return durations[usable] / means[usable]

    observed = standardise(
        (botnet.end_day - botnet.start_day).astype(np.float64)
    )
    # Reference sample pushed through the exact same pipeline (exponential
    # draw, floor to whole days, one-day minimum, truncation filter), so
    # the two-sample KS compares like with like.
    rng = np.random.default_rng(0xD0C)
    reference = standardise(
        np.maximum(1, rng.exponential(means).astype(np.int64)).astype(np.float64)
    )
    statistic, p_value = stats.ks_2samp(observed, reference)
    return CheckResult(
        name="durations_exponential",
        statistic=float(statistic),
        p_value=float(p_value),
        passed=bool(p_value > level),
        detail="standardised compromise durations ~ Exp(1), day-discretised",
    )


def check_channels_uniform(
    botnet: BotnetSimulation, level: float = DEFAULT_LEVEL
) -> CheckResult:
    """Chi-square test of channel assignment uniformity."""
    from scipy import stats

    counts = np.bincount(botnet.channel, minlength=botnet.config.num_channels)
    statistic, p_value = stats.chisquare(counts)
    return CheckResult(
        name="channels_uniform",
        statistic=float(statistic),
        p_value=float(p_value),
        passed=bool(p_value > level),
        detail="bots join C&C channels uniformly",
    )


def check_placement_tracks_uncleanliness(
    botnet: BotnetSimulation, level: float = DEFAULT_LEVEL
) -> CheckResult:
    """Spearman correlation of per-network compromise rate vs uncleanliness.

    Rates are normalised by population so the association isolates the
    uncleanliness term of the placement weights.
    """
    from scipy import stats

    internet = botnet.internet
    counts = np.bincount(botnet.network_index, minlength=internet.num_networks)
    rate = counts / internet.population.astype(np.float64)
    correlation, p_value = stats.spearmanr(rate, internet.uncleanliness)
    return CheckResult(
        name="placement_tracks_uncleanliness",
        statistic=float(correlation),
        p_value=float(p_value),
        passed=bool(correlation > 0.3 and p_value < level),
        detail="compromise rate rises with network uncleanliness",
    )


def validate_botnet(
    botnet: BotnetSimulation, level: float = DEFAULT_LEVEL
) -> List[CheckResult]:
    """Run every botnet check; returns the individual results."""
    return [
        check_start_days_uniform(botnet, level),
        check_durations_exponential(botnet, level),
        check_channels_uniform(botnet, level),
        check_placement_tracks_uncleanliness(botnet, level),
    ]
