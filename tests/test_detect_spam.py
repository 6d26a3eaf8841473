"""Unit tests for the behavioural spam detector."""

import numpy as np
import pytest

from repro.detect.spam import SpamDetector, SpamDetectorConfig
from repro.flows.log import FlowBatch, FlowLog
from repro.flows.record import Protocol, TCPFlags

ACKED = TCPFlags.SYN | TCPFlags.ACK | TCPFlags.PSH | TCPFlags.FIN
DAY = 86_400.0


def build_log(entries):
    """entries: (src, dst, dst_port, octets, time[, flags])."""
    batch = FlowBatch()
    for entry in entries:
        src, dst, port, octets, t = entry[:5]
        flags = entry[5] if len(entry) > 5 else ACKED
        batch.add(src, dst, 40000, port, Protocol.TCP, 10, octets, flags, float(t))
    return FlowLog.from_batches([batch])


def spam_run(src=7, messages=20, size=1200, start=0.0, per_day=10):
    entries = []
    for i in range(messages):
        day = i // per_day
        entries.append((src, 1, 25, size, start + day * DAY + i * 60))
    return entries


class TestDetection:
    def test_bulk_sender_flagged(self):
        assert list(SpamDetector().detect(build_log(spam_run()))) == [7]

    def test_low_volume_missed(self):
        log = build_log(spam_run(messages=5))
        assert SpamDetector().detect(log).size == 0

    def test_slow_drip_missed(self):
        # 14 messages over 14 days: volume ok, rate too low.
        log = build_log(spam_run(messages=14, per_day=1))
        assert SpamDetector().detect(log).size == 0

    def test_varied_sizes_missed(self):
        # Human mail: wildly varying sizes -> high CV.
        entries = []
        sizes = [300, 500, 800, 400, 250_000, 600, 900, 350, 400_000, 700,
                 500, 650]
        for i, size in enumerate(sizes):
            entries.append((7, 1, 25, size, i * 60))
        log = build_log(entries)
        assert SpamDetector().detect(log).size == 0

    def test_non_smtp_traffic_ignored(self):
        entries = [(7, 1, 80, 1200, i * 60) for i in range(30)]
        log = build_log(entries)
        assert SpamDetector().detect(log).size == 0

    def test_syn_only_port25_ignored(self):
        # No payload (no ACK): connection attempts, not deliveries.
        entries = [(7, 1, 25, 156, i * 60, TCPFlags.SYN) for i in range(30)]
        log = build_log(entries)
        assert SpamDetector().detect(log).size == 0

    def test_multiple_sources(self):
        entries = spam_run(src=7) + spam_run(src=8, messages=3)
        detected = SpamDetector().detect(build_log(entries))
        assert list(detected) == [7]

    def test_empty_log(self):
        assert SpamDetector().detect(FlowLog.empty()).size == 0

    def test_threshold_boundary(self):
        config = SpamDetectorConfig(min_messages=10, min_daily_rate=4.0)
        ten = build_log(spam_run(messages=10, per_day=10))
        nine = build_log(spam_run(messages=9, per_day=9))
        assert SpamDetector(config).detect(ten).size == 1
        assert SpamDetector(config).detect(nine).size == 0

    def test_delivery_before_1970_raises(self):
        # The day table packs days into 32 bits; a negative day would
        # alias another, so it is refused rather than counted.
        log = build_log(spam_run(start=-DAY))
        with pytest.raises(ValueError, match="uint32 range"):
            SpamDetector().detect(log)

    def test_generator_spammers_detected(self, tiny_traffic):
        detected = set(SpamDetector().detect(tiny_traffic.flows).tolist())
        truth = set(tiny_traffic.ground_truth("spammers").tolist())
        # Behavioural detection is not perfect, but recall should be high
        # and there should be no benign-only false positives.
        assert len(detected & truth) > 0.7 * len(truth)
        hostile = truth | set(tiny_traffic.ground_truth("fast_scanners").tolist())
        benign_only = set(tiny_traffic.ground_truth("benign").tolist()) - hostile
        # Benign clients do occasionally mail, but never in bulk.
        assert len(detected & benign_only) < 0.02 * max(len(benign_only), 1)


class TestConfig:
    @pytest.mark.parametrize(
        "field,value",
        [("min_messages", 0), ("min_daily_rate", 0.0), ("max_size_cv", 0.0)],
    )
    def test_invalid_rejected(self, field, value):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(SpamDetectorConfig(), **{field: value}).validate()
