"""Replay equivalence: the streaming fold vs the batch pipeline.

The invariant the whole streaming layer rests on: folding a window's
day-batches through :class:`IncrementalState` — in any feed-delivery
schedule — produces *bit-identical* reports, noisy-OR scores, blocklists
and per-prefix density counts to computing everything whole-window.

Two layers of evidence:

* a hypothesis property over randomly generated traffic, windows, seeds
  and feed-delivery schedules at unit-test scale;
* the full October small scenario, compared report-by-report and
  float-by-float against the batch stage pipeline.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cidr as rcidr
from repro.core import folds
from repro.core.report import DataClass, Report, ReportType
from repro.detect.scan import ScanDetector, ScanDetectorConfig
from repro.detect.spam import SpamDetector, SpamDetectorConfig
from repro.flows.generator import TrafficConfig, TrafficGenerator
from repro.ipspace.cidr import mask_array
from repro.sim.timeline import PAPER_WINDOWS, Window
from repro.stream import DayBatch, IncrementalState, StreamConfig, day_batches
from repro.stream.checkpoint import StreamStateCodec

STREAM_FEED_TAGS = (
    "bot", "phish", "phish-present", "bot-test", "phish-test", "control",
)


def _provided_report(tag: str, addresses: np.ndarray, window: Window) -> Report:
    data_class = {"bot": DataClass.BOTS, "phish": DataClass.PHISHING}[tag]
    return Report(
        tag=tag,
        addresses=addresses,
        report_type=ReportType.PROVIDED,
        data_class=data_class,
        period=window.dates(),
    ).without_reserved()


def _batch_reports(flows, window, provided, scan_config, spam_config):
    """The whole-window reference the stream must reproduce."""
    reports = dict(provided)
    reports["scan"] = folds.observed_report(
        "scan", ScanDetector(scan_config).detect(flows), window
    )
    reports["spam"] = folds.observed_report(
        "spam", SpamDetector(spam_config).detect(flows), window
    )
    reports["unclean"] = folds.unclean_union(reports, window)
    return reports


def _assert_state_matches_batch(state, reports, stream_config):
    for tag, expected in reports.items():
        assert state.report(tag) == expected, f"report mismatch: {tag}"
    batch = folds.batch_scores(
        reports,
        prefix_len=stream_config.prefix_len,
        weights=dict(stream_config.weights),
    )
    scores = state.scores()
    assert np.array_equal(scores.blocks, batch.blocks)
    for cls in batch.class_counts:
        assert np.array_equal(scores.class_counts[cls], batch.class_counts[cls])
    assert np.array_equal(scores.scores, batch.scores)  # bit-identical floats
    assert np.array_equal(
        state.blocklist(),
        folds.blocklist_networks(batch, stream_config.threshold),
    )
    unclean = reports["unclean"].addresses
    for n, count in state.block_counts().items():
        assert count == np.unique(mask_array(unclean, n)).size, n


class TestHypothesisReplay:
    """Random windows, seeds, traffic and delivery schedules."""

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        start_day=st.integers(min_value=0, max_value=300),
        num_days=st.integers(min_value=1, max_value=4),
        scatter_feeds=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_fold_equals_batch(self, seed, start_day, num_days, scatter_feeds):
        from repro.sim.internet import InternetConfig, SyntheticInternet
        from repro.sim.botnet import BotnetConfig, BotnetSimulation

        rng = np.random.default_rng(seed)
        window = Window(start_day, start_day + num_days - 1)
        internet = SyntheticInternet(
            InternetConfig(num_slash16=12, mean_hosts=12.0),
            np.random.default_rng(seed + 1),
        )
        botnet = BotnetSimulation(
            internet,
            BotnetConfig(daily_compromises=9.0, horizon_days=start_day + num_days),
            np.random.default_rng(seed + 2),
        )
        traffic = TrafficGenerator(
            internet,
            botnet,
            TrafficConfig(benign_clients_per_day=12, suspicious_hosts=40),
        ).generate(window, np.random.default_rng(seed + 3))

        # Loosened spam thresholds so flag/unflag churn actually happens.
        scan_config = ScanDetectorConfig(min_targets=5)
        spam_config = SpamDetectorConfig(min_messages=3, min_daily_rate=1.5,
                                         max_size_cv=0.9)
        provided = {
            tag: _provided_report(
                tag,
                rng.integers(0, 2**32, size=rng.integers(1, 30),
                             dtype=np.uint32),
                window,
            )
            for tag in ("bot", "phish")
        }
        stream_config = StreamConfig(
            window=window,
            scan_detector=scan_config,
            spam_detector=spam_config,
        )

        state = IncrementalState(stream_config)
        days = list(window.days())
        # Each tag's addresses arrive split across random days — the
        # delivery schedule must not change the fold's outcome.
        assignment = {
            tag: rng.integers(0, len(days), size=report.addresses.size)
            for tag, report in provided.items()
        }
        for index, (day, flows) in enumerate(
            folds.day_slices(traffic.flows, window)
        ):
            if scatter_feeds:
                batch_provided = {
                    tag: Report(
                        tag=tag,
                        addresses=report.addresses[assignment[tag] == index],
                        report_type=report.report_type,
                        data_class=report.data_class,
                        period=report.period,
                    )
                    for tag, report in provided.items()
                }
            else:
                batch_provided = provided if index == 0 else {}
            state.ingest(DayBatch(day=day, flows=flows,
                                  provided=batch_provided))

        reports = _batch_reports(
            traffic.flows, window, provided, scan_config, spam_config
        )
        _assert_state_matches_batch(state, reports, stream_config)

        # Checkpoint codec round-trip preserves the fold exactly.
        codec = StreamStateCodec(stream_config)
        arrays, meta = codec.to_payload(state)
        restored = codec.from_payload(
            {key: np.array(value) for key, value in arrays.items()}, meta
        )
        _assert_state_matches_batch(restored, reports, stream_config)
        assert restored.cursor == state.cursor
        assert restored.days_ingested == state.days_ingested


class TestSmallScenarioReplay:
    """The full October scenario, stream vs batch, field by field."""

    @pytest.fixture(scope="class")
    def replayed(self, small_scenario):
        config = StreamConfig(
            window=PAPER_WINDOWS.OCTOBER,
            scan_detector=small_scenario.config.scan_detector,
            spam_detector=small_scenario.config.spam_detector,
        )
        state = IncrementalState(config)
        provided = {
            tag: small_scenario.report(tag) for tag in STREAM_FEED_TAGS
        }
        for batch in day_batches(small_scenario.october_traffic, provided):
            state.ingest(batch)
        return state, config

    def test_every_report_identical(self, replayed, small_scenario):
        state, _ = replayed
        for tag, expected in small_scenario.reports.items():
            assert state.report(tag) == expected, tag

    def test_scores_blocklist_densities_identical(self, replayed,
                                                  small_scenario):
        state, config = replayed
        _assert_state_matches_batch(
            state, small_scenario.reports, config
        )

    def test_density_counts_match_block_count(self, replayed, small_scenario):
        state, _ = replayed
        unclean = small_scenario.report("unclean")
        for n, count in state.block_counts().items():
            assert count == rcidr.cidr_set(unclean, n).size

    def test_cursor_and_volume(self, replayed, small_scenario):
        state, _ = replayed
        assert state.cursor == PAPER_WINDOWS.OCTOBER.end_day
        assert state.days_ingested == PAPER_WINDOWS.OCTOBER.num_days
        assert state.flows_ingested == len(
            small_scenario.october_traffic.flows
        )


class TestIngestContract:
    def test_rejects_out_of_order_days(self, tiny_traffic):
        config = StreamConfig(window=PAPER_WINDOWS.OCTOBER)
        state = IncrementalState(config)
        batches = list(day_batches(tiny_traffic))
        state.ingest(batches[0])
        with pytest.raises(ValueError, match="already ingested"):
            state.ingest(batches[0])

    def test_rejects_days_outside_window(self):
        config = StreamConfig(window=Window(10, 12))
        state = IncrementalState(config)
        with pytest.raises(ValueError, match="outside window"):
            state.ingest(DayBatch(day=42))

    def test_rejects_computed_tags_as_feeds(self):
        config = StreamConfig(window=Window(10, 12))
        state = IncrementalState(config)
        spoof = folds.observed_report(
            "scan", np.asarray([1], dtype=np.uint32), config.window
        )
        with pytest.raises(ValueError, match="computed by the fold"):
            state.ingest(DayBatch(day=10, provided={"scan": spoof}))

    def test_skipping_days_is_allowed(self, tiny_traffic):
        """Gaps are fine: a quiet day is an empty batch, and skipping it
        entirely equals ingesting it empty."""
        config = StreamConfig(window=PAPER_WINDOWS.OCTOBER)
        batches = list(day_batches(tiny_traffic))
        sparse = IncrementalState(config)
        sparse.ingest(batches[0])
        sparse.ingest(batches[2])

        empty_day = IncrementalState(config)
        empty_day.ingest(batches[0])
        empty_day.ingest(DayBatch(day=batches[1].day))
        empty_day.ingest(batches[2])
        assert np.array_equal(
            sparse.scores().scores, empty_day.scores().scores
        )
        assert np.array_equal(sparse.blocklist(), empty_day.blocklist())
