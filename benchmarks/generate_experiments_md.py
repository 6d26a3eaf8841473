#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from a full-scale run of every experiment.

Runs each table/figure module against the default (full reproduction
scale) scenario and writes the paper-vs-measured record the repository
ships.  Takes a few minutes.

Run:  python benchmarks/generate_experiments_md.py [output-path]
"""

import sys
import time

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


def main() -> None:
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
        "where crossovers and collapses fall — are asserted by the\n"
        "benchmark suite (`pytest benchmarks/ --benchmark-only`) and\n"
        "recorded here.  Monte-Carlo tests use "
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
    ab = []
    ab.append(ablation.format_rows(
        "Uncleanliness tail (Beta alpha) vs. spatial clustering",
        ablation.uncleanliness_tail_ablation(),
    ))
    ab.append(ablation.format_rows(
        "Bot-report age vs. temporal prediction",
        ablation.report_age_ablation(),
    ))
    ab.append(ablation.format_rows(
        "Naive vs. empirical control estimation (full scale)",
        ablation.estimator_ablation(scenario),
    ))
    ab.append(ablation.format_rows(
        "Predictor quality across the prefix band (full scale)",
        ablation.prefix_band_ablation(scenario),
    ))
    ab.append(ablation.format_rows(
        "Blacklist-aware attackers vs. prediction",
        ablation.evasion_ablation(),
    ))
    ab.append(ablation.format_rows(
        "Homogeneous /24 blocks vs network-aware clustering",
        ablation.clustering_ablation(),
    ))
    ab.append(ablation.format_rows(
        "Uncleanliness-field stability (the temporal mechanism)",
        ablation.field_stability_ablation(),
    ))
    sections.append(
        "## Ablations (beyond the paper)\n\n" + block("\n\n".join(ab))
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


if __name__ == "__main__":
    main()
