"""Tests for the experiment modules (figures and tables)."""

import numpy as np
import pytest

from repro import api
from repro.core.sampling import clear_null_memo, monte_carlo_rng
from repro.experiments import (
    ablation,
    figure2,
    figure3,
    figure4,
    figure5,
    table1,
    table2,
    table3,
)
from repro.experiments.common import render_table

SUBSETS = 60


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(777)


class TestRenderTable:
    def test_alignment(self):
        text = render_table([{"a": 1, "bb": "x"}, {"a": 100, "bb": "y"}])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "bb" in lines[0]
        assert len(lines) == 3

    def test_empty(self):
        assert render_table([]) == "(no rows)"

    def test_explicit_columns(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_float_formatting(self):
        assert "0.1235" in render_table([{"x": 0.123456}])


class TestFigure2:
    def test_result_claims(self, small_scenario, rng):
        result = figure2.run(small_scenario, rng, subsets=SUBSETS, naive_subsets=10)
        assert result.naive_overdisperses()
        assert result.naive_doubles_per_bit()
        assert result.bot_densest()

    def test_rows_cover_band(self, small_scenario, rng):
        result = figure2.run(small_scenario, rng, subsets=10, naive_subsets=5)
        assert [row["prefix"] for row in result.rows()] == list(range(16, 33))

    def test_format(self, small_scenario, rng):
        result = figure2.run(small_scenario, rng, subsets=10, naive_subsets=5)
        text = figure2.format_result(result)
        assert "Figure 2" in text
        assert "naive" in text


class TestFigure3:
    def test_all_panels_hold(self, small_scenario, rng):
        result = figure3.run(small_scenario, rng, subsets=SUBSETS)
        assert set(result.panels) == set(figure3.REPORT_TAGS)
        assert result.all_hold()

    def test_summary_rows(self, small_scenario, rng):
        result = figure3.run(small_scenario, rng, subsets=10)
        rows = result.summary_rows()
        assert {row["report"] for row in rows} == set(figure3.REPORT_TAGS)

    def test_format(self, small_scenario, rng):
        result = figure3.run(small_scenario, rng, subsets=10)
        assert "Figure 3" in figure3.format_result(result)


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self, small_scenario):
        return figure4.run(
            small_scenario, np.random.default_rng(778), subsets=SUBSETS
        )

    def test_bot_spam_scan_predicted(self, result):
        assert result.bot_spam_scan_predicted()

    def test_phishing_not_predicted(self, result):
        assert result.phishing_not_predicted()

    def test_summary_has_paper_ranges(self, result):
        rows = result.summary_rows()
        by_target = {row["target"]: row for row in rows}
        assert by_target["bot"]["paper_range"] == (20, 25)
        assert by_target["phish-present"]["paper_range"] == "-"

    def test_format(self, result):
        text = figure4.format_result(result)
        assert "Figure 4" in text
        assert "phishing NOT predicted: True" in text


class TestFigure5:
    def test_phishing_self_predicts(self, small_scenario, rng):
        result = figure5.run(small_scenario, rng, subsets=SUBSETS)
        assert result.phishing_self_predicts()
        assert "Figure 5" in figure5.format_result(result)

    def test_default_rng_matches_cli(self, small_scenario):
        # Without an rng the module seeds the Monte Carlo exactly as the
        # CLI and the api facade do, so all three print the same numbers.
        seed = small_scenario.config.seed
        default = figure5.run(small_scenario, subsets=20)
        cli = figure5.run(
            small_scenario, np.random.default_rng(seed ^ 0xC1D), subsets=20
        )
        assert figure5.format_result(default) == figure5.format_result(cli)


def _figure(module, **kwargs):
    def run(scenario):
        rng = monte_carlo_rng(scenario.config.seed)
        return module.format_result(module.run(scenario, rng, **kwargs))

    return run


def _compare(scenario):
    comparison = api.compare(scenario, subsets=20)
    return render_table(comparison.summary_table()), comparison.auc_ranking()


class TestNullsDrawnOncePerProcess:
    """A reproduction gives every experiment a fresh Monte-Carlo rng, so
    Figure 3's bot panel repeats Figure 2's null and the comparison
    repeats Figure 4's first.  Each is drawn once, and the outputs equal
    those of a run that draws it again."""

    @pytest.mark.parametrize(
        "first,second",
        [
            (_figure(figure2, subsets=20, naive_subsets=5),
             _figure(figure3, subsets=20)),
            (_figure(figure4, subsets=20), _compare),
        ],
        ids=["figure2-figure3", "figure4-compare"],
    )
    def test_second_step_reuses_the_first_null(
        self, small_scenario, trial_draws, first, second
    ):
        outputs, counts = [], []
        for clear_between in (False, True):
            api.clear_scenario_cache()
            trial_draws.clear()
            before = first(small_scenario)
            if clear_between:
                clear_null_memo()
            outputs.append((before, second(small_scenario)))
            counts.append(len(trial_draws))
        assert outputs[0] == outputs[1]
        assert counts[1] - counts[0] == 1


class TestTable1:
    def test_rows_and_ordering(self, small_scenario):
        result = table1.run(small_scenario)
        assert len(result.rows()) == 6
        assert result.size_ordering_matches()
        assert "Table 1" in table1.format_result(result)

    def test_paper_sizes_attached(self, small_scenario):
        rows = {row["tag"]: row for row in table1.run(small_scenario).rows()}
        assert rows["bot"]["paper_size"] == 621_861
        assert rows["control"]["paper_size"] == 46_899_928


class TestTable2:
    def test_partition_shape(self, small_scenario):
        result = table2.run(small_scenario)
        assert result.partition_shape_matches()
        assert result.blocked_slash24s > 0
        assert 0 < result.space_utilisation < 1
        assert "Table 2" in table2.format_result(result)

    def test_row_tags(self, small_scenario):
        tags = [row["tag"] for row in table2.run(small_scenario).rows()]
        assert tags == ["unclean", "candidate", "hostile", "unknown", "innocent"]


class TestTable3:
    def test_shape_claims(self, small_scenario):
        result = table3.run(small_scenario)
        assert result.monotone()
        assert result.high_tp_rate()
        assert result.fp_vanishes_at_long_prefixes()
        assert result.tp_rate_at_24_unknown_hostile() >= result.tp_rate_at_24()

    def test_rows_have_paper_columns(self, small_scenario):
        rows = table3.run(small_scenario).rows()
        assert rows[0]["n"] == 24
        assert rows[0]["paper_TP"] == 287
        assert "Table 3" in table3.format_result(table3.run(small_scenario))


class TestAblations:
    def test_tail_ablation_clustering_grows_with_heavier_tail(self):
        rows = ablation.uncleanliness_tail_ablation(alphas=(0.15, 1.2), seed=23)
        heavy, flat = rows[0], rows[1]
        assert heavy["density_ratio@/24"] > flat["density_ratio@/24"]

    def test_report_age_ablation_robust_across_ages(self):
        rows = ablation.report_age_ablation(gaps_days=(150, 7), seed=23)
        # Networks stay unclean: even a five-month-old report predicts.
        assert all(row["predictive_prefixes"] > 0 for row in rows)

    def test_estimator_ablation_naive_gap_larger(self, small_scenario):
        rows = ablation.estimator_ablation(small_scenario)
        for row in rows:
            if row["prefix"] <= 24:
                assert row["gap_vs_naive"] >= row["gap_vs_empirical"]

    def test_prefix_band_rows(self, small_scenario):
        rows = ablation.prefix_band_ablation(small_scenario, subsets=30)
        assert [row["prefix"] for row in rows] == list(range(16, 33))
        assert any(row["better_predictor"] for row in rows)

    def test_evasion_ablation_erodes_fine_prediction(self):
        rows = ablation.evasion_ablation(strengths=(0.0, 1.0), seed=29)
        none, full = rows[0], rows[1]
        assert full["intersection@/24"] < none["intersection@/24"]
        assert full["predictive_prefixes"] > 0  # /16 signal survives

    def test_clustering_ablation_verdict_and_spread(self):
        rows = ablation.clustering_ablation(
            deaggregation_probabilities=(0.5,), seed=31, subsets=20
        )
        assert all(row["bots_cluster"] for row in rows)
        hetero = [r for r in rows if r["partitioning"] == "clusters(p=0.5)"]
        assert hetero[0]["size_spread"] == "256x"

    def test_field_stability_controls_temporal_prediction(self):
        rows = ablation.field_stability_ablation(stabilities=(1.0, 0.0), seed=37)
        frozen, memoryless = rows[0], rows[1]
        assert frozen["spatial_holds"] and memoryless["spatial_holds"]
        assert frozen["predictive_prefixes"] > memoryless["predictive_prefixes"]
        assert memoryless["predictive_prefixes"] <= 2

    def test_format_rows(self):
        assert "title" in ablation.format_rows("title", [{"a": 1}])
