#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from a full-scale run of every experiment.

Runs each table/figure module against the default (full reproduction
scale) scenario, writes the paper-vs-measured record the repository
ships, then checks the paper's shape claims on the same results.  The
file is written either way; the exit status is 1 when any shape check
fails, and each failing check is named on stderr.

Run:  python benchmarks/generate_experiments_md.py [output-path]
"""

import sys
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core.scenario import PaperScenario, ScenarioConfig
from repro.experiments import (
    ablation,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    table1,
    table2,
    table3,
)

SUBSETS = 200


def block(text: str) -> str:
    return "```\n" + text + "\n```"


def shape_checks(
    t1, t2, t3, f1, f2, f3, f4, f5, ab: Dict[str, List[dict]]
) -> List[Tuple[str, bool]]:
    """The paper's shape claims as ``(name, holds)`` pairs.

    Each bound is the one the claim has always been checked at;
    Figure 3's mid-band margin is one check per panel.
    """
    sizes = {row["tag"]: row["size"] for row in t1.rows()}
    peak_week = f1.bot_address_overlap.index(max(f1.bot_address_overlap))
    f5_range = f5.prediction.predictive_range()
    band_winners = [row["prefix"] for row in ab["band"] if row["better_predictor"]]
    spreads = [
        row["size_spread"] for row in ab["clustering"]
        if row["partitioning"].startswith("clusters(p=0.")
    ]
    evasion, stability = ab["evasion"], ab["stability"]
    return [
        # Table 1: control >> bot > spam > scan, at the paper's ratios
        # (0.24 and 0.64).
        ("table 1: size ordering matches the paper", t1.size_ordering_matches()),
        ("table 1: every report is non-empty",
         all(size > 0 for size in sizes.values())),
        ("table 1: 0.1 < |scan|/|bot| < 0.5",
         0.1 < sizes["scan"] / sizes["bot"] < 0.5),
        ("table 1: 0.4 < |spam|/|bot| < 0.9",
         0.4 < sizes["spam"] / sizes["bot"] < 0.9),
        # Table 2: unknown > hostile >> innocent; blocked space idle.
        ("table 2: partition shape matches the paper",
         t2.partition_shape_matches()),
        ("table 2: blocked space sparsely utilised", t2.sparse_utilisation()),
        # Table 3: monotone columns, high TP rate, FP gone at long n.
        ("table 3: every column falls monotonically with n", t3.monotone()),
        ("table 3: TP rate at /24 >= 0.80", t3.high_tp_rate(floor=0.80)),
        ("table 3: TP rate at /24 >= 0.90 counting unknowns hostile",
         t3.tp_rate_at_24_unknown_hostile() >= 0.90),
        ("table 3: FP vanishes at long prefixes",
         t3.fp_vanishes_at_long_prefixes()),
        # Figure 1: the report's bots scan, the /24 overlay sees more,
        # and activity drops after publication.
        ("figure 1: peak overlap > 15% of the bot report",
         f1.peak_overlap_fraction() > 0.15),
        ("figure 1: /24 overlay >= address overlap every week",
         f1.block_overlay_dominates()),
        ("figure 1: activity drops after the report",
         f1.activity_drops_after_report()),
        ("figure 1: peak overlap within 2 weeks of the report",
         abs(peak_week - f1.report_week) <= 2),
        # Figure 2: naive >> empirical, doubling per bit; bot densest.
        ("figure 2: naive estimate overdisperses", f2.naive_overdisperses()),
        ("figure 2: naive estimate doubles per bit", f2.naive_doubles_per_bit()),
        ("figure 2: bot report densest", f2.bot_densest()),
        ("figure 2: naive > 3x empirical median at /16",
         f2.density.naive[16].median > 3 * f2.density.control[16].median),
        # Figure 3: Eq. 3 for every class, with a mid-band margin.
        ("figure 3: Eq. 3 holds for every class at every n", f3.all_hold()),
        *(
            (f"figure 3 ({tag}): density ratio at /20 > 1.3",
             panel.density_ratio(20) > 1.3)
            for tag, panel in f3.panels.items()
        ),
        # Figure 4: bot-test predicts bots, spam and scan across the
        # operative band, but not phishing.
        ("figure 4: bot, spam and scan predicted at the 95% level",
         f4.bot_spam_scan_predicted()),
        ("figure 4: bot, spam and scan each win somewhere in /20-/24",
         all(
             any(20 <= n <= 24 for n in f4.panels[tag].predictive_prefixes())
             for tag in ("bot", "spam", "scan")
         )),
        ("figure 4: phishing not predicted", f4.phishing_not_predicted()),
        # Figure 5: phishing predicts phishing.
        ("figure 5: past phishing predicts future phishing",
         f5.phishing_self_predicts()),
        ("figure 5: the predictive range starts at or below /24",
         f5_range is not None and f5_range[0] <= 24),
        ("figure 5: the predictive range is ordered",
         f5_range is not None and f5_range[1] >= f5_range[0]),
        # Ablations.
        ("ablation tail: heavier tail clusters more",
         ab["tail"][0]["density_ratio@/24"] > ab["tail"][-1]["density_ratio@/24"]),
        ("ablation age: every report age predicts",
         all(row["predictive_prefixes"] > 0 for row in ab["age"])),
        ("ablation estimator: naive always inflates the gap",
         all(row["gap_vs_naive"] >= row["gap_vs_empirical"]
             for row in ab["estimator"])),
        ("ablation band: some prefix predicts", bool(band_winners)),
        ("ablation band: a predictive prefix in /20-/24",
         any(20 <= n <= 24 for n in band_winners)),
        ("ablation evasion: full evasion guts /24 prediction",
         evasion[-1]["intersection@/24"]
         < 0.3 * max(evasion[0]["intersection@/24"], 1)),
        ("ablation evasion: a predictive band survives",
         evasion[-1]["predictive_prefixes"] > 0),
        ("ablation evasion: the unclean /16s still leak",
         evasion[-1]["intersection@/16"] >= 0.5 * evasion[0]["intersection@/16"]),
        ("ablation clustering: bots cluster under every partitioning",
         all(row["bots_cluster"] for row in ab["clustering"])),
        ("ablation clustering: heterogeneous partitions vary in size",
         any(spread not in ("1x",) for spread in spreads)),
        ("ablation stability: spatial clustering survives any stability",
         all(row["spatial_holds"] is True for row in stability)),
        ("ablation stability: prediction needs field memory",
         stability[0]["predictive_prefixes"]
         > 3 * max(stability[-1]["predictive_prefixes"], 1)),
    ]


def main() -> int:
    output_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    started = time.time()
    print("building full-scale scenario...")
    scenario = PaperScenario(ScenarioConfig())
    rng = np.random.default_rng(0xEC0)

    sections = []
    sections.append(
        "# EXPERIMENTS — paper vs. measured\n\n"
        "Every table and figure of the paper's evaluation, regenerated by\n"
        "this repository at reproduction scale (~1/64 of the paper's data\n"
        "volumes; the control report is 250k addresses instead of 46.9M,\n"
        "the provided bot report ~10k instead of 621,861, while the small\n"
        "hypothesis-testing reports are kept at natural size: R_bot-test\n"
        "has exactly 186 addresses).  Absolute counts therefore differ by\n"
        "construction; the *shape* claims — who wins, by what factor,\n"
        "where crossovers and collapses fall — are checked by the\n"
        "generator named below, which exits non-zero naming every shape\n"
        "check that fails, and recorded here.  Monte-Carlo tests use "
        f"{SUBSETS} control subsets (paper: 1000).\n\n"
        f"Scenario seed: `{scenario.config.seed}`.  Regenerate with\n"
        "`python benchmarks/generate_experiments_md.py`.\n"
    )

    print("table 1...")
    t1 = table1.run(scenario)
    sections.append("## Table 1 — report inventory\n\n" + block(table1.format_result(t1)))

    print("table 2...")
    t2 = table2.run(scenario)
    sections.append(
        "## Table 2 — prediction-test reports\n\n"
        + block(table2.format_result(t2))
        + "\n\nShape notes: unknown > hostile >> innocent, as in the paper\n"
        "(708/287/35).  The candidate set is ~2x the paper's relative to\n"
        "blocked /24s and utilisation ~4-5% (paper <2%): the simulator's\n"
        "occupied /24s carry denser live populations than the 2006\n"
        "Internet.  Same order, same conclusion — the blocked space is\n"
        "nearly idle.\n"
    )

    print("table 3...")
    t3 = table3.run(scenario)
    sections.append(
        "## Table 3 — TP/FP counts per prefix\n\n"
        + block(table3.format_result(t3))
        + "\n\nShape notes: all columns fall monotonically with n; the TP\n"
        f"rate at /24 is {t3.tp_rate_at_24():.2f} (paper ~0.90) and\n"
        f"{t3.tp_rate_at_24_unknown_hostile():.2f} counting unknowns as\n"
        "hostile (paper 0.97); FP collapses past /26-/28 just as in the\n"
        "paper once live hosts are spread realistically across each /24.\n"
    )

    print("figure 1 (18 weekly simulations)...")
    f1 = figure1.run()
    sections.append(
        "## Figure 1 — scanning vs. botnet population\n\n"
        + block(figure1.format_result(f1))
        + "\n\nShape notes: the reported botnet scans for weeks before the\n"
        "report exists; the /24 overlay identifies more of the botnet\n"
        "than address matching alone (first evidence of spatial\n"
        "uncleanliness); activity collapses after publication (paper:\n"
        "peak overlap ~35%; measured "
        f"{f1.peak_overlap_fraction():.0%}).\n"
    )

    print("figure 2...")
    f2 = figure2.run(scenario, rng, subsets=SUBSETS, naive_subsets=20)
    sections.append(
        "## Figure 2 — density estimation techniques\n\n"
        + block(figure2.format_result(f2))
        + "\n\nShape notes: the naive IANA-uniform estimate is far above\n"
        "the empirical one and doubles per added bit while saturated; the\n"
        "bot report is denser than both everywhere.  Matches the paper's\n"
        "reason for adopting the empirical estimate.\n"
    )

    print("figure 3...")
    f3 = figure3.run(scenario, rng, subsets=SUBSETS)
    sections.append(
        "## Figure 3 — comparative density of the four unclean classes\n\n"
        + block(figure3.format_result(f3))
        + "\n\nShape notes: every class satisfies Eq. 3 at every prefix in\n"
        "[16, 32] — spatial uncleanliness holds for bots, phishing, spam\n"
        "and scanning, exactly the paper's result.\n"
    )

    print("figure 4...")
    f4 = figure4.run(scenario, rng, subsets=SUBSETS)
    sections.append(
        "## Figure 4 — predictive capacity of R_bot-test\n\n"
        + block(figure4.format_result(f4))
        + "\n\nShape notes: the five-month-old 186-address bot report beats\n"
        "control at the 95% level for future bots, spamming and scanning\n"
        "across the paper's operative band (>= ~20 bits; our band extends\n"
        "shorter because the scaled /16 space is far smaller than the real\n"
        "Internet's, which weakens the control's coarse-block advantage) —\n"
        "and fails entirely for phishing, reproducing the paper's\n"
        "multidimensionality result.\n"
    )

    print("figure 5...")
    f5 = figure5.run(scenario, rng, subsets=SUBSETS)
    sections.append(
        "## Figure 5 — phishing predicts phishing\n\n"
        + block(figure5.format_result(f5))
        + "\n\nShape notes: past phishing IS a better-than-control\n"
        "predictor of future phishing — temporal uncleanliness holds on\n"
        "the phishing dimension too, as in the paper.\n"
    )

    print("ablations...")
    ablations = [
        ("tail", "Uncleanliness tail (Beta alpha) vs. spatial clustering",
         ablation.uncleanliness_tail_ablation()),
        ("age", "Bot-report age vs. temporal prediction",
         ablation.report_age_ablation()),
        ("estimator", "Naive vs. empirical control estimation (full scale)",
         ablation.estimator_ablation(scenario)),
        ("band", "Predictor quality across the prefix band (full scale)",
         ablation.prefix_band_ablation(scenario)),
        ("evasion", "Blacklist-aware attackers vs. prediction",
         ablation.evasion_ablation()),
        ("clustering", "Homogeneous /24 blocks vs network-aware clustering",
         ablation.clustering_ablation()),
        ("stability", "Uncleanliness-field stability (the temporal mechanism)",
         ablation.field_stability_ablation()),
    ]
    ab = {key: rows for key, _, rows in ablations}
    tables = [ablation.format_rows(title, rows) for _, title, rows in ablations]
    sections.append(
        "## Ablations (beyond the paper)\n\n" + block("\n\n".join(tables))
        + "\n\nReadings: clustering strength tracks the uncleanliness\n"
        "tail; prediction is robust to report age (networks stay unclean\n"
        "while individual bots churn); the naive estimator inflates the\n"
        "density gap several-fold; the predictor has the paper's three\n"
        "regimes across the prefix band; blacklist-aware attackers gut\n"
        "/24-level prediction but the unclean /16s keep leaking; the\n"
        "clustering verdict survives heterogeneous partitioning while the\n"
        "equal-population reading does not; and temporal prediction\n"
        "collapses exactly when the uncleanliness field loses its memory\n"
        "— the paper's mechanism, demonstrated.\n"
    )

    with open(output_path, "w") as handle:
        handle.write("\n\n".join(sections) + "\n")
    print(f"wrote {output_path} in {time.time() - started:.0f}s")

    checks = shape_checks(t1, t2, t3, f1, f2, f3, f4, f5, ab)
    failed = [name for name, holds in checks if not holds]
    for name in failed:
        print(f"shape check failed: {name}", file=sys.stderr)
    print(f"{len(checks) - len(failed)} of {len(checks)} shape checks hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
