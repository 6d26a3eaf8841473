"""Fast tests for the Figure 1 experiment (tiny configuration)."""

import pytest

from repro.experiments import figure1
from repro.flows.generator import TrafficConfig
from repro.sim.botnet import BotnetConfig
from repro.sim.internet import InternetConfig


@pytest.fixture(scope="module")
def result():
    config = figure1.Figure1Config(
        internet=InternetConfig(num_slash16=40),
        botnet=BotnetConfig(daily_compromises=25.0, num_channels=6),
        traffic=TrafficConfig(
            benign_clients_per_day=30,
            scan_participation=0.5,
            suspicious_hosts=100,
        ),
    )
    return figure1.run(config)


class TestFigure1:
    def test_weekly_series_cover_jan_to_april(self, result):
        assert len(result.weeks) == 17
        assert len(result.unique_scanners) == 17
        assert result.weeks[0].dates()[0].month == 1
        assert result.weeks[-1].dates()[1].month == 4

    def test_report_week_is_early_march(self, result):
        week = result.weeks[result.report_week]
        assert week.dates()[0].month in (2, 3)

    def test_block_overlay_dominates(self, result):
        assert result.block_overlay_dominates()

    def test_overlap_bounded_by_report(self, result):
        assert max(result.bot_address_overlap) <= result.report_size
        assert max(result.bot_block_overlap) <= result.report_size

    def test_activity_drops_after_report(self, result):
        assert result.activity_drops_after_report()

    def test_rows_mark_report_week(self, result):
        rows = result.rows()
        marks = [row["report"] for row in rows if row["report"]]
        assert marks == ["<-- report"]

    def test_format_contains_claims(self, result):
        text = figure1.format_result(result)
        assert "peak overlap fraction" in text
        assert "activity drops after report" in text
