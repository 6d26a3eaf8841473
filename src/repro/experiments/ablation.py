"""Ablations of the design choices DESIGN.md calls out.

Each ablation varies one generative or analytic knob and measures the
effect on the paper's headline quantities, using fast small-scale
scenarios so a sweep stays cheap:

* **uncleanliness tail** — how heavy the per-/16 uncleanliness tail is
  drives spatial clustering.  Flattening the tail (alpha -> 1+) should
  erase the bot report's density advantage.
* **report age** — temporal uncleanliness means *networks* stay unclean
  even as individual bots churn, so a months-old report should predict
  about as well as a fresh one (the paper's five-month "extreme case").
* **estimator** — the naive IANA-uniform control inflates the apparent
  density gap; the empirical estimator is the honest baseline (Fig. 2).
* **prefix band** — the operative band of the predictor: below ~/19 the
  control wins, at very long prefixes both predictors starve (§5.2).
* **blacklist evasion** — attackers who avoid listed /24s (Ramachandran
  et al.) erode fine-grained prediction, but the unclean /16s keep
  leaking information.
* **clustering** — homogeneous blocks vs the network-aware clustering
  the paper rejects in §4.1: the verdict survives, the equal-population
  reading does not.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.density import density_test
from repro.core.prediction import prediction_test
from repro.core.sampling import naive_sample
from repro.core.scenario import PaperScenario, ScenarioConfig
from repro.core import cidr as rcidr
from repro.ipspace import cidr as icidr
from repro.experiments.common import render_table

__all__ = [
    "uncleanliness_tail_ablation",
    "report_age_ablation",
    "estimator_ablation",
    "prefix_band_ablation",
    "evasion_ablation",
    "clustering_ablation",
    "field_stability_ablation",
    "format_rows",
]

_SUBSETS = 100


def _small_config(seed: int) -> ScenarioConfig:
    return ScenarioConfig.small(seed=seed)


def uncleanliness_tail_ablation(
    alphas: Sequence[float] = (0.15, 0.28, 0.6, 1.2),
    seed: int = 11,
) -> List[dict]:
    """Sweep the Beta alpha of per-/16 uncleanliness.

    Small alpha = heavy unclean tail = strong clustering.  Reports the
    bot report's density ratio at /24 (control median blocks / observed
    blocks) and whether Eq. 3 holds.
    """
    rows = []
    for alpha in alphas:
        config = _small_config(seed)
        config = replace(
            config, internet=replace(config.internet, uncleanliness_alpha=alpha)
        )
        scenario = PaperScenario(config)
        rng = np.random.default_rng(seed)
        result = density_test(
            scenario.bot, scenario.control, rng, subsets=_SUBSETS
        )
        rows.append(
            {
                "uncleanliness_alpha": alpha,
                "bot_blocks@/24": result.observed[24],
                "control_median@/24": result.control[24].median,
                "density_ratio@/24": round(result.density_ratio(24), 2),
                "spatial_holds": result.hypothesis_holds(),
            }
        )
    return rows


def report_age_ablation(
    gaps_days: Sequence[int] = (150, 90, 30, 7),
    seed: int = 13,
) -> List[dict]:
    """Sweep the age of the past bot report.

    The paper deliberately tests the "extreme case" of a five-month-old
    report (§3.2): if that works, fresher reports should too.  This
    ablation draws the test botnet's channel membership at several gaps
    before the October window and measures the predictive band against
    October bots.  Temporal uncleanliness — networks staying unclean —
    should make prediction robust across all ages (individual bots churn;
    the networks do not).
    """
    from repro.sim.timeline import PAPER_WINDOWS, Window

    config = _small_config(seed)
    scenario = PaperScenario(config)
    rng = np.random.default_rng(seed)
    rows = []
    for gap in gaps_days:
        day = PAPER_WINDOWS.OCTOBER.start_day - gap
        members = scenario.botnet.channel_members(
            config.bot_test_channel, Window(day, day)
        )
        if members.size > config.bot_test_size:
            members = rng.choice(members, size=config.bot_test_size, replace=False)
        if members.size == 0:
            rows.append(
                {"report_age_days": gap, "report_size": 0,
                 "predictive_prefixes": 0, "range": "-"}
            )
            continue
        from repro.core.report import Report

        past = Report(tag=f"bot-test-{gap}d", addresses=members)
        result = prediction_test(
            past, scenario.bot, scenario.control, rng, subsets=_SUBSETS
        )
        winners = result.predictive_prefixes()
        rows.append(
            {
                "report_age_days": gap,
                "report_size": len(past),
                "predictive_prefixes": len(winners),
                "range": result.predictive_range() or "-",
            }
        )
    return rows


def estimator_ablation(
    scenario: Optional[PaperScenario] = None,
    seed: int = 17,
    prefixes: Sequence[int] = (16, 20, 24, 28),
) -> List[dict]:
    """Naive vs empirical control estimates at selected prefixes.

    The apparent density advantage of the bot report is inflated several
    fold when measured against the naive estimate — the reason the paper
    (Fig. 2) adopts the empirical estimate.
    """
    scenario = scenario or PaperScenario(_small_config(seed))
    rng = np.random.default_rng(seed)
    size = len(scenario.bot)
    empirical = scenario.control.sample(size, rng)
    naive = naive_sample(size, rng)
    rows = []
    for n in prefixes:
        observed = icidr.block_count(scenario.bot, n)
        emp = icidr.block_count(empirical, n)
        nai = icidr.block_count(naive, n)
        rows.append(
            {
                "prefix": n,
                "bot_blocks": observed,
                "empirical_blocks": emp,
                "naive_blocks": nai,
                "gap_vs_empirical": round(emp / max(observed, 1), 2),
                "gap_vs_naive": round(nai / max(observed, 1), 2),
            }
        )
    return rows


def prefix_band_ablation(
    scenario: Optional[PaperScenario] = None,
    seed: int = 19,
    subsets: int = _SUBSETS,
) -> List[dict]:
    """Exceedance per prefix for bot-test vs October bots.

    Shows the three regimes of §5.2: control competitive at short
    prefixes, the unclean report dominant in the mid band, and both
    predictors starving (intersections -> 0) at the long end.
    """
    scenario = scenario or PaperScenario(_small_config(seed))
    rng = np.random.default_rng(seed)
    result = prediction_test(
        scenario.bot_test, scenario.bot, scenario.control, rng, subsets=subsets
    )
    return [
        {
            "prefix": n,
            "observed_intersection": result.observed[n],
            "control_median": result.control[n].median,
            "exceedance": round(result.exceedance[n], 3),
            "better_predictor": result.better_predictor(n),
        }
        for n in result.prefixes
    ]


def evasion_ablation(
    strengths: Sequence[float] = (0.0, 0.5, 0.9, 1.0),
    seed: int = 29,
) -> List[dict]:
    """Blacklist-aware attackers (Ramachandran et al., §2 of the paper).

    The paper notes that botnet owners "place a higher premium on
    addresses not present on blacklists" and that uncleanliness-based
    prediction "may impact the costs noted by Ramachandran".  This
    ablation closes the loop: attackers of varying evasion strength avoid
    compromising the /24s of the published bot-test report, and we
    measure how much of the report's predictive power survives.

    Even at full evasion some power remains at coarse prefixes: evading
    a /24 list does not move the attacker out of the unclean /16 it sits
    in — the paper's argument for uncleanliness as a *network* property.
    """
    from repro.core.report import Report
    from repro.sim.botnet import BotnetSimulation
    from repro.sim.timeline import PAPER_WINDOWS

    config = _small_config(seed)
    baseline = PaperScenario(config)
    avoided = rcidr.cidr_set(baseline.bot_test, 24)

    rows = []
    for strength in strengths:
        botnet_config = replace(config.botnet, evasion_strength=strength)
        evading = BotnetSimulation(
            baseline.internet,
            botnet_config,
            np.random.default_rng(seed + 1),
            avoided_blocks=avoided,
        )
        future = Report(
            tag=f"bots-evasion-{strength}",
            addresses=evading.active_addresses(PAPER_WINDOWS.OCTOBER),
        )
        rng = np.random.default_rng(seed + 2)
        result = prediction_test(
            baseline.bot_test, future, baseline.control, rng, subsets=_SUBSETS
        )
        rows.append(
            {
                "evasion_strength": strength,
                "intersection@/24": result.observed[24],
                "exceedance@/24": round(result.exceedance[24], 3),
                "intersection@/16": result.observed[16],
                "exceedance@/16": round(result.exceedance[16], 3),
                "predictive_prefixes": len(result.predictive_prefixes()),
            }
        )
    return rows


def clustering_ablation(
    deaggregation_probabilities: Sequence[float] = (0.0, 0.3, 0.7),
    seed: int = 31,
    subsets: int = 50,
) -> List[dict]:
    """Homogeneous blocks vs network-aware clustering (§4.1's rejection).

    The paper models networks as equal-sized CIDR blocks and rejects
    heterogeneous network-aware clustering because cluster populations
    "differ in size by several orders of magnitude".  This ablation
    measures both sides: for each partitioning, the size dispersion of
    the partitions and the clustering verdict (do bots touch fewer
    partitions than equal-cardinality control subsets?).

    The verdict survives either way — bots cluster under any reasonable
    partitioning — but the heterogeneous partitions' size spread makes
    the equal-population ceteris paribus reading of the counts impossible,
    which is exactly the paper's reason for homogeneous blocks.
    """
    from repro.ipspace.clusters import synthesize_table

    scenario = PaperScenario(_small_config(seed))
    rng = np.random.default_rng(seed)
    size = len(scenario.bot)

    rows = []
    # Homogeneous /24 baseline (the paper's choice).
    control_counts = [
        icidr.block_count(subset, 24)
        for subset in _control_subsets(scenario, size, subsets, rng)
    ]
    rows.append(
        {
            "partitioning": "/24 blocks",
            "partitions": "-",
            "size_spread": "1x",
            "bot_partitions": icidr.block_count(scenario.bot, 24),
            "control_median": float(np.median(control_counts)),
            "bots_cluster": icidr.block_count(scenario.bot, 24)
            <= float(np.median(control_counts)),
        }
    )
    for p in deaggregation_probabilities:
        table = synthesize_table(
            scenario.internet, np.random.default_rng(seed + 1), p
        )
        sizes = table.cluster_sizes()
        bot_clusters = table.cluster_count(scenario.bot.addresses)
        control_cluster_counts = [
            table.cluster_count(subset.addresses)
            for subset in _control_subsets(scenario, size, subsets, rng)
        ]
        median = float(np.median(control_cluster_counts))
        rows.append(
            {
                "partitioning": f"clusters(p={p})",
                "partitions": len(table),
                "size_spread": f"{sizes.max() // sizes.min()}x",
                "bot_partitions": bot_clusters,
                "control_median": median,
                "bots_cluster": bot_clusters <= median,
            }
        )
    return rows


def field_stability_ablation(
    stabilities=(1.0, 0.9, 0.5, 0.0),
    seed: int = 37,
) -> List[dict]:
    """Sweep the stability of the uncleanliness field itself.

    This probes the paper's core temporal mechanism directly.  The paper
    assumes — and finds — that a network's propensity to harbour bots is
    stable over months.  Here the per-/24 uncleanliness becomes an AR(1)
    process (:mod:`repro.sim.dynamics`); with ``stability=1`` the field
    is frozen (the paper's world), with ``stability=0`` hygiene
    reshuffles monthly.

    The expected — and observed — readings: *spatial* uncleanliness
    (instantaneous clustering) survives at every stability, while
    *temporal* prediction from a five-month-old report degrades as the
    field destabilises.
    """
    from repro.core.report import Report
    from repro.sim.botnet import BotnetSimulation
    from repro.sim.dynamics import DynamicsConfig, UncleanlinessProcess
    from repro.sim.internet import SyntheticInternet
    from repro.sim.timeline import PAPER_WINDOWS

    config = _small_config(seed)
    internet = SyntheticInternet(config.internet, np.random.default_rng(seed))
    control = Report(
        tag="control",
        addresses=internet.sample_unique_hosts(
            config.control_size, np.random.default_rng(seed + 1)
        ),
    )

    rows = []
    for stability in stabilities:
        process = UncleanlinessProcess(
            internet,
            DynamicsConfig(
                stability=stability,
                horizon_days=config.botnet.horizon_days,
            ),
            np.random.default_rng(seed + 2),
        )
        botnet = BotnetSimulation(
            internet, config.botnet, np.random.default_rng(seed + 3),
            dynamics=process,
        )
        past_members = botnet.channel_members(
            config.bot_test_channel, PAPER_WINDOWS.BOT_TEST
        )
        rng = np.random.default_rng(seed + 4)
        if past_members.size > config.bot_test_size:
            past_members = rng.choice(
                past_members, size=config.bot_test_size, replace=False
            )
        october = Report(
            tag="bots-october",
            addresses=botnet.active_addresses(PAPER_WINDOWS.OCTOBER),
        )
        if past_members.size == 0 or len(october) == 0:
            rows.append(
                {"stability": stability, "field_correlation": "-",
                 "spatial_holds": "-", "predictive_prefixes": 0}
            )
            continue
        past = Report(tag="bot-test", addresses=past_members)

        spatial = density_test(october, control, rng, subsets=_SUBSETS)
        temporal = prediction_test(past, october, control, rng, subsets=_SUBSETS)
        rows.append(
            {
                "stability": stability,
                "field_correlation": round(
                    process.field_correlation(
                        PAPER_WINDOWS.BOT_TEST.start_day,
                        PAPER_WINDOWS.OCTOBER.start_day,
                    ),
                    3,
                ),
                "spatial_holds": spatial.hypothesis_holds(),
                "predictive_prefixes": len(temporal.predictive_prefixes()),
            }
        )
    return rows


def _control_subsets(scenario, size, count, rng):
    from repro.core.sampling import empirical_subsets

    return empirical_subsets(scenario.control, size, count, rng)


def format_rows(title: str, rows: List[dict]) -> str:
    return f"{title}\n\n{render_table(rows)}"
