"""Unit tests for the Threshold Random Walk detector."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.trw import TRWConfig, TRWDetector
from repro.flows.log import FlowBatch, FlowLog
from repro.flows.record import Protocol, TCPFlags
from tests.oracles import trw_walk_reference

ACKED = TCPFlags.SYN | TCPFlags.ACK


def build_log(entries):
    """entries: (src, dst, acked, time)."""
    batch = FlowBatch()
    for src, dst, acked, t in entries:
        flags = ACKED if acked else TCPFlags.SYN
        batch.add(src, dst, 40000, 80, Protocol.TCP, 3, 156, flags, float(t))
    return FlowLog.from_batches([batch])


class TestConfig:
    def test_thresholds(self):
        config = TRWConfig(alpha=0.01, beta=0.01)
        assert config.upper_threshold == pytest.approx(99.0)
        assert config.lower_threshold == pytest.approx(0.01 / 0.99)

    def test_steps_signs(self):
        config = TRWConfig()
        assert config.success_step < 0  # success pushes toward benign
        assert config.failure_step > 0  # failure pushes toward scanner

    def test_invalid_thetas(self):
        with pytest.raises(ValueError):
            TRWConfig(theta0=0.2, theta1=0.8).validate()

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            TRWConfig(alpha=0.0).validate()


class TestDetection:
    def test_all_failures_flagged(self):
        entries = [(7, 100 + i, False, i) for i in range(10)]
        assert list(TRWDetector().detect(build_log(entries))) == [7]

    def test_all_successes_benign(self):
        entries = [(7, 100 + i, True, i) for i in range(10)]
        detector = TRWDetector()
        assert detector.detect(build_log(entries)).size == 0
        states = detector.walk(build_log(entries))
        assert states[7].verdict == "benign"

    def test_walk_stops_after_verdict(self):
        # 10 failures decide the walk; later successes can't undo it.
        entries = [(7, 100 + i, False, i) for i in range(10)]
        entries += [(7, 200 + i, True, 100 + i) for i in range(50)]
        detector = TRWDetector()
        states = detector.walk(build_log(entries))
        assert states[7].verdict == "scanner"
        assert states[7].outcomes < 60

    def test_minimum_failures_to_flag(self):
        # With symmetric defaults, N failures are needed where
        # N * failure_step >= ln(upper).
        config = TRWConfig()
        needed = math.ceil(
            math.log(config.upper_threshold) / config.failure_step
        )
        just_enough = [(7, 100 + i, False, i) for i in range(needed)]
        one_short = [(7, 100 + i, False, i) for i in range(needed - 1)]
        assert TRWDetector(config).detect(build_log(just_enough)).size == 1
        assert TRWDetector(config).detect(build_log(one_short)).size == 0

    def test_first_contact_only(self):
        # Repeated failures to the SAME destination count once.
        entries = [(7, 100, False, i) for i in range(50)]
        assert TRWDetector().detect(build_log(entries)).size == 0

    def test_outcomes_processed_in_time_order(self):
        # Two early successes offset two of the four failures, leaving the
        # walk undecided; processed in log order (failures first), the four
        # failures alone would cross the scanner threshold.
        entries = [(7, 100 + i, False, 50 + i) for i in range(4)]
        entries += [(7, 200 + i, True, i) for i in range(2)]
        states = TRWDetector().walk(build_log(entries))
        assert states[7].verdict == "pending"

    def test_mixed_sources_independent(self):
        entries = [(7, 100 + i, False, i) for i in range(10)]
        entries += [(8, 100 + i, True, i) for i in range(10)]
        detected = TRWDetector().detect(build_log(entries))
        assert list(detected) == [7]

    def test_generator_scanners_flagged_benign_not(self, tiny_traffic):
        detector = TRWDetector()
        detected = set(detector.detect(tiny_traffic.flows).tolist())
        fast = set(tiny_traffic.ground_truth("fast_scanners").tolist())
        hostileish = (
            fast
            | set(tiny_traffic.ground_truth("slow_scanners").tolist())
            | set(tiny_traffic.ground_truth("ephemeral").tolist())
            | set(tiny_traffic.ground_truth("suspicious").tolist())
            | set(tiny_traffic.ground_truth("spammers").tolist())
        )
        benign_only = set(tiny_traffic.ground_truth("benign").tolist()) - hostileish
        # Pure sweepers (no mitigating successful traffic) are all caught;
        # scanners that also spam or browse may stay undecided.
        pure_fast = fast - (
            set(tiny_traffic.ground_truth("spammers").tolist())
            | set(tiny_traffic.ground_truth("benign").tolist())
            | set(tiny_traffic.ground_truth("ephemeral").tolist())
            | set(tiny_traffic.ground_truth("suspicious").tolist())
        )
        assert pure_fast <= detected
        assert not (benign_only & detected)  # and spares pure clients


#: Random flow tuples over a tiny address/time space so that repeated
#: (src, dst) pairs and identical start times occur often — the regimes
#: where first-contact dedup and tie-breaking matter.
_flow_tuples = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=5),    # src
        st.integers(min_value=100, max_value=112),  # dst
        st.booleans(),                            # acked
        st.integers(min_value=0, max_value=6),    # start time (many ties)
    ),
    min_size=0,
    max_size=80,
)


class TestVectorizedMatchesReference:
    """The array kernel must agree with the sequential walk oracle."""

    @given(_flow_tuples, st.integers(min_value=0, max_value=31))
    @settings(max_examples=120, deadline=None)
    def test_walk_equivalence(self, entries, seed):
        # A seeded shuffle varies the LOG order of equal-time flows, so
        # the stable tie-break itself is exercised, not just one layout.
        rng = np.random.default_rng(seed)
        entries = [entries[i] for i in rng.permutation(len(entries))]
        log = build_log(entries)
        detector = TRWDetector()
        fast = detector.walk(log)
        slow = trw_walk_reference(detector.config, log)
        assert set(fast) == set(slow)
        for source, state in fast.items():
            reference = slow[source]
            assert state.verdict == reference.verdict
            assert state.outcomes == reference.outcomes
            assert state.log_ratio == pytest.approx(reference.log_ratio)

    @given(_flow_tuples)
    @settings(max_examples=60, deadline=None)
    def test_detect_equivalence(self, entries):
        log = build_log(entries)
        detector = TRWDetector()
        reference = sorted(
            source
            for source, state in trw_walk_reference(detector.config, log).items()
            if state.verdict == "scanner"
        )
        assert detector.detect(log).tolist() == reference

    def test_equal_start_time_ties_follow_log_order(self):
        # Four failures then two successes, ALL at t=0: log order is the
        # tie-break, so the walk crosses the scanner threshold before the
        # successes are ever consumed.
        entries = [(7, 100 + i, False, 0) for i in range(4)]
        entries += [(7, 200 + i, True, 0) for i in range(2)]
        detector = TRWDetector()
        fast = detector.walk(build_log(entries))
        slow = trw_walk_reference(detector.config, build_log(entries))
        assert fast[7].verdict == slow[7].verdict == "scanner"
        assert fast[7].outcomes == slow[7].outcomes == 4

    def test_empty_log(self):
        detector = TRWDetector()
        assert detector.walk(FlowLog.empty()) == {}
        assert detector.detect(FlowLog.empty()).size == 0
