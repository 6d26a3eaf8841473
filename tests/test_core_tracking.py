"""Unit tests for the rolling tracker (repro.core.tracking)."""

import numpy as np
import pytest

from repro.core.report import Report
from repro.core.tracking import TrackerConfig, UncleanlinessTracker
from repro.sim.timeline import Window


def bots_report(tag, block_third, count=30):
    return Report.from_addresses(
        tag, [f"62.4.{block_third}.{i}" for i in range(1, count + 1)]
    )


class TestConfig:
    def test_defaults_valid(self):
        TrackerConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [("prefix_len", 40), ("listing_threshold", 1.5), ("ttl_days", 0)],
    )
    def test_invalid_rejected(self, field, value):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(TrackerConfig(), **{field: value}).validate()


class TestUpdate:
    def test_update_lists_evidence(self):
        tracker = UncleanlinessTracker()
        snapshot = tracker.update(0, {"bots": bots_report("w1", 9)})
        assert snapshot["listed_or_refreshed"] == 1
        assert snapshot["active_entries"] == 1
        assert tracker.blocklist.is_blocked("62.4.9.200", day=0)

    def test_update_requires_reports(self):
        with pytest.raises(ValueError):
            UncleanlinessTracker().update(0, {})

    def test_unknown_class_gets_default_weight(self):
        tracker = UncleanlinessTracker()
        snapshot = tracker.update(0, {"honeypot": bots_report("w1", 9)})
        assert snapshot["listed_or_refreshed"] == 1

    def test_weak_evidence_not_listed(self):
        tracker = UncleanlinessTracker(TrackerConfig(listing_threshold=0.9))
        snapshot = tracker.update(0, {"bots": bots_report("w1", 9, count=1)})
        assert snapshot["listed_or_refreshed"] == 0

    def test_entries_expire_between_updates(self):
        tracker = UncleanlinessTracker(TrackerConfig(ttl_days=10))
        tracker.update(0, {"bots": bots_report("w1", 9)})
        snapshot = tracker.update(30, {"bots": bots_report("w2", 10)})
        assert snapshot["pruned"] == 1
        assert snapshot["active_entries"] == 1
        assert not tracker.blocklist.is_blocked("62.4.9.1", day=30)

    def test_refresh_keeps_entry_alive(self):
        tracker = UncleanlinessTracker(TrackerConfig(ttl_days=10))
        tracker.update(0, {"bots": bots_report("w1", 9)})
        tracker.update(7, {"bots": bots_report("w2", 9)})
        assert tracker.blocklist.is_blocked("62.4.9.1", day=15)

    def test_history_series(self):
        tracker = UncleanlinessTracker()
        tracker.update(0, {"bots": bots_report("w1", 9)})
        tracker.update(7, {"bots": bots_report("w2", 10)})
        series = tracker.series()
        assert [s["day"] for s in series] == [0, 7]


class TestEvaluate:
    def test_coverage_and_collateral(self):
        tracker = UncleanlinessTracker()
        tracker.update(0, {"bots": bots_report("w1", 9)})
        hostile = Report.from_addresses("h", ["62.4.9.200", "99.0.0.1"])
        benign = Report.from_addresses("b", ["8.8.8.8", "62.4.9.201"])
        result = tracker.evaluate(1, hostile, benign)
        assert result["hostile_coverage"] == pytest.approx(0.5)
        assert result["benign_collateral"] == pytest.approx(0.5)

    def test_evaluate_without_benign(self):
        tracker = UncleanlinessTracker()
        tracker.update(0, {"bots": bots_report("w1", 9)})
        result = tracker.evaluate(1, Report.from_addresses("h", ["62.4.9.1"]))
        assert "benign_collateral" not in result


class TestScenarioLoop:
    def test_weekly_loop_predicts_next_week(self, small_scenario):
        """Run August-October weekly; the tracker's list must cover a
        large share of each FOLLOWING week's bots, far beyond chance."""
        import datetime

        from repro.sim.timeline import date_to_day

        tracker = UncleanlinessTracker(TrackerConfig(ttl_days=45))
        start = date_to_day(datetime.date(2006, 8, 7))
        coverages = []
        for week in range(10):
            this_week = Window(start + 7 * week, start + 7 * week + 6)
            next_week = Window(start + 7 * (week + 1), start + 7 * (week + 1) + 6)
            bots_now = Report.from_addresses(
                f"w{week}", small_scenario.botnet.active_addresses(this_week)
            )
            if len(bots_now) == 0:
                continue
            tracker.update(this_week.end_day, {"bots": bots_now})
            future = Report.from_addresses(
                f"w{week}+1", small_scenario.botnet.active_addresses(next_week)
            )
            if len(future):
                result = tracker.evaluate(next_week.start_day, future)
                coverages.append(result["hostile_coverage"])
        assert coverages
        assert np.mean(coverages) > 0.5


class TestControlBaseline:
    @pytest.fixture
    def control(self):
        rng = np.random.default_rng(0x7AC)
        return Report.from_addresses(
            "control",
            np.unique(rng.integers(0, 2**32, size=4000, dtype=np.uint32)),
        )

    def test_control_requires_rng(self, control):
        tracker = UncleanlinessTracker()
        tracker.update(0, {"bots": bots_report("w1", 9)})
        with pytest.raises(ValueError):
            tracker.evaluate(1, bots_report("w2", 9), control=control)

    def test_control_coverage_summary(self, control):
        tracker = UncleanlinessTracker()
        tracker.update(0, {"bots": bots_report("w1", 9)})
        result = tracker.evaluate(
            1, bots_report("w2", 9), control=control,
            rng=np.random.default_rng(2), subsets=25,
        )
        summary = result["control_coverage"]
        assert 0.0 <= summary.minimum <= summary.maximum <= 1.0
        assert 0.0 <= result["coverage_exceedance"] <= 1.0

    def test_list_beats_random_controls(self, control):
        """The tracked list covers next week's bots far better than it
        covers random equal-cardinality control subsets."""
        tracker = UncleanlinessTracker()
        tracker.update(0, {"bots": bots_report("w1", 9)})
        result = tracker.evaluate(
            1, bots_report("w2", 9), control=control,
            rng=np.random.default_rng(2), subsets=25,
        )
        assert result["hostile_coverage"] > result["control_coverage"].q95
        assert result["coverage_exceedance"] == 1.0

    def test_exceedance_counts_ties_as_ties(self):
        """A hostile coverage that only ties every control subset beats
        none of them, however the reported fraction rounds."""
        tracker = UncleanlinessTracker()
        bots = Report.from_addresses("bots", [f"62.4.9.{i}" for i in range(1, 5)])
        tracker.update(100, {"bots": bots})
        hostile = Report.from_addresses(
            "hostile", ["62.4.9.10", "62.4.9.11", "70.0.0.1"]
        )
        control = Report.from_addresses(
            "control", ["62.4.9.20", "62.4.9.21", "80.0.0.1"]
        )
        result = tracker.evaluate(
            100, hostile, control=control,
            rng=np.random.default_rng(0), subsets=10,
        )
        assert result["hostile_coverage"] == round(2 / 3, 4)
        assert result["control_coverage"].median == pytest.approx(2 / 3)
        assert result["coverage_exceedance"] == 0.0
