"""Unit tests for the hourly fan-out scan detector."""

import time

import numpy as np
import pytest

from repro.detect.scan import ScanDetector, ScanDetectorConfig
from repro.flows.log import FlowBatch, FlowLog
from repro.flows.record import Protocol, TCPFlags
from tests.oracles import scan_detect_reference

ACKED = TCPFlags.SYN | TCPFlags.ACK | TCPFlags.PSH


def build_log(entries):
    """entries: (src, dst, flags, start_time[, protocol])."""
    batch = FlowBatch()
    for entry in entries:
        src, dst, flags, start = entry[:4]
        proto = entry[4] if len(entry) > 4 else Protocol.TCP
        batch.add(src, dst, 40000, 445, proto, 3, 156, flags, start)
    return FlowLog.from_batches([batch])


def sweep(src, targets, hour, flags=TCPFlags.SYN):
    base = hour * 3600.0
    return [(src, 1000 + t, flags, base + t) for t in range(targets)]


class TestDetection:
    def test_fast_sweep_detected(self):
        log = build_log(sweep(7, 40, hour=2))
        assert list(ScanDetector().detect(log)) == [7]

    def test_exact_threshold_detected(self):
        config = ScanDetectorConfig(min_targets=30)
        log = build_log(sweep(7, 30, hour=2))
        assert list(ScanDetector(config).detect(log)) == [7]

    def test_below_threshold_missed(self):
        log = build_log(sweep(7, 29, hour=2))
        assert ScanDetector().detect(log).size == 0

    def test_slow_scan_across_hours_missed(self):
        # 48 targets but spread over 24 hours: 2/hour, under the floor.
        entries = []
        for hour in range(24):
            entries.extend(sweep(7, 2, hour=hour))
        # distinct targets per sweep call collide; rebuild with unique dsts
        entries = [
            (7, 5000 + i, TCPFlags.SYN, i * 1800.0) for i in range(48)
        ]
        log = build_log(entries)
        assert ScanDetector().detect(log).size == 0

    def test_successful_fanout_not_flagged(self):
        # A busy proxy talks to 40 hosts in an hour but completes its
        # connections — the failed-fraction gate holds.
        log = build_log(sweep(7, 40, hour=2, flags=ACKED))
        assert ScanDetector().detect(log).size == 0

    def test_mixed_sources(self):
        entries = sweep(7, 40, hour=2) + sweep(8, 5, hour=2)
        log = build_log(entries)
        assert list(ScanDetector().detect(log)) == [7]

    def test_udp_ignored(self):
        entries = [
            (7, 1000 + t, TCPFlags.SYN, 7200.0 + t, Protocol.UDP) for t in range(40)
        ]
        log = build_log(entries)
        assert ScanDetector().detect(log).size == 0

    def test_empty_log(self):
        assert ScanDetector().detect(FlowLog.empty()).size == 0

    def test_repeat_contacts_do_not_inflate_fanout(self):
        # 40 flows to ONE destination is not a scan.
        entries = [(7, 1000, TCPFlags.SYN, 7200.0 + t) for t in range(40)]
        log = build_log(entries)
        assert ScanDetector().detect(log).size == 0

    def test_failed_fraction_boundary(self):
        # Exactly half failed at the default 0.5 floor: flagged.
        entries = sweep(7, 20, hour=2, flags=TCPFlags.SYN) + sweep(
            7, 20, hour=2, flags=ACKED
        )
        # Make destinations disjoint between halves.
        entries = [
            (7, 1000 + t, TCPFlags.SYN, 7200.0 + t) for t in range(20)
        ] + [
            (7, 2000 + t, ACKED, 7200.0 + t) for t in range(20)
        ]
        log = build_log(entries)
        assert list(ScanDetector().detect(log)) == [7]

    def test_generator_fast_scanners_detected(self, tiny_traffic):
        detected = set(ScanDetector().detect(tiny_traffic.flows).tolist())
        truth = set(tiny_traffic.ground_truth("fast_scanners").tolist())
        assert truth <= detected

    def test_generator_slow_scanners_missed(self, tiny_traffic):
        detected = set(ScanDetector().detect(tiny_traffic.flows).tolist())
        fast = set(tiny_traffic.ground_truth("fast_scanners").tolist())
        slow = set(tiny_traffic.ground_truth("slow_scanners").tolist()) - fast
        assert not (slow & detected)


class TestEdgeCases:
    def test_tcp_empty_but_log_not(self):
        # A log carrying only UDP flows has an EMPTY TCP view; the
        # detector must come back clean, not crash on zero-length tables.
        entries = [
            (7, 1000 + t, TCPFlags.SYN, 7200.0 + t, Protocol.UDP)
            for t in range(40)
        ]
        log = build_log(entries)
        assert len(log) == 40
        result = ScanDetector().detect(log)
        assert result.size == 0
        assert result.dtype == np.uint32

    def test_empty_log_dtype(self):
        result = ScanDetector().detect(FlowLog.empty())
        assert result.size == 0
        assert result.dtype == np.uint32

    def test_exactly_min_targets_in_one_hour(self):
        # A source at exactly the floor is flagged; one fewer is not —
        # for a non-default calibration too.
        config = ScanDetectorConfig(min_targets=12)
        at_floor = build_log(sweep(7, 12, hour=5))
        below = build_log(sweep(8, 11, hour=5))
        assert list(ScanDetector(config).detect(at_floor)) == [7]
        assert ScanDetector(config).detect(below).size == 0

    def test_sweep_straddling_hour_boundary_splits(self):
        # 40 distinct targets, but the burst crosses an hour boundary
        # 20/20: neither clock-hour bucket reaches the floor, so the
        # hourly calibration (deliberately) misses it.
        entries = [
            (7, 1000 + t, TCPFlags.SYN, 2 * 3600.0 - 20.0 + t) for t in range(40)
        ]
        log = build_log(entries)
        hours = np.unique((log.start_time // 3600).astype(np.int64))
        assert hours.tolist() == [1, 2]  # really does straddle
        assert ScanDetector().detect(log).size == 0

    def test_sweep_straddling_boundary_with_enough_on_one_side(self):
        # Same straddle, but one side still clears the floor on its own.
        entries = [
            (7, 1000 + t, TCPFlags.SYN, 2 * 3600.0 - 5.0 + t) for t in range(40)
        ]
        log = build_log(entries)
        assert list(ScanDetector().detect(log)) == [7]

    def test_failed_fraction_counts_flows_not_targets(self):
        # 30 distinct failed targets plus 31 successful repeats of ONE
        # target in the same hour: fan-out passes (31 distinct) but the
        # failed FLOW fraction is 30/61 < 0.5, so no flag.
        entries = [
            (7, 1000 + t, TCPFlags.SYN, 7200.0 + t) for t in range(30)
        ] + [
            (7, 999, ACKED, 7200.0 + 100 + t) for t in range(31)
        ]
        assert ScanDetector().detect(build_log(entries)).size == 0


#: The kernel must stay at least this many times faster than the
#: row-table reference on the small scenario's October log.
SPEEDUP_FLOOR = 1.2


def best_of_3(fn):
    """Best wall-clock of three runs; returns (seconds, result)."""
    best, result = float("inf"), None
    for _ in range(3):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


class TestKernelSpeed:
    def test_kernel_outpaces_reference_on_small_scenario(self, small_scenario):
        flows = small_scenario.october_traffic.flows
        detector = ScanDetector()
        kernel_s, detected = best_of_3(lambda: detector.detect(flows))
        reference_s, expected = best_of_3(
            lambda: scan_detect_reference(detector.config, flows)
        )
        np.testing.assert_array_equal(detected, expected)
        assert detected.size > 0
        assert reference_s / kernel_s >= SPEEDUP_FLOOR


class TestConfig:
    def test_invalid_targets(self):
        with pytest.raises(ValueError):
            ScanDetectorConfig(min_targets=0).validate()

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            ScanDetectorConfig(min_failed_fraction=1.5).validate()


# -- aggregate vs row-table reference ------------------------------------


class TestKernelMatchesReference:
    def test_empty_tcp_window(self):
        # UDP-only log: the TCP mask selects nothing.
        entries = [
            (7, 1000 + t, TCPFlags.SYN, 7200.0 + t, Protocol.UDP)
            for t in range(40)
        ]
        log = build_log(entries)
        detector = ScanDetector()
        assert detector.detect(log).size == 0
        assert scan_detect_reference(detector.config, log).size == 0
