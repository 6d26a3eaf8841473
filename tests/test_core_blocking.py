"""Unit tests for the §6 blocking pipeline (repro.core.blocking)."""

import numpy as np
import pytest

from repro.core.blocking import (
    BLOCKING_PREFIXES,
    BlockingRow,
    CandidatePartition,
    blocking_test,
    partition_candidates,
)
from repro.core.report import Report
from repro.flows.log import FlowBatch, FlowLog
from repro.flows.record import Protocol, TCPFlags


def _flow_log(entries):
    """entries: (src, dst, proto, packets, octets, flags)."""
    batch = FlowBatch()
    for i, (src, dst, proto, packets, octets, flags) in enumerate(entries):
        batch.add(src, dst, 40000, 80, proto, packets, octets, flags, float(i))
    return FlowLog.from_batches([batch])


BASE = 0x0A010100  # 10.1.1.0/24 — the bot-test block
OTHER = 0x14010100  # 20.1.1.0/24 — unrelated space
SERVER = 0x1E000001

ACKED = TCPFlags.SYN | TCPFlags.ACK | TCPFlags.PSH
SYN_ONLY = TCPFlags.SYN


@pytest.fixture
def bot_test():
    return Report.from_addresses("bot-test", [BASE + 9])


@pytest.fixture
def flows():
    return _flow_log(
        [
            (BASE + 1, SERVER, Protocol.TCP, 10, 5000, ACKED),  # payload, reported
            (BASE + 2, SERVER, Protocol.TCP, 3, 156, SYN_ONLY),  # no payload
            (BASE + 3, SERVER, Protocol.TCP, 10, 5000, ACKED),  # payload, unreported
            (BASE + 4, SERVER, Protocol.UDP, 2, 200, 0),  # UDP only: not a candidate
            (OTHER + 1, SERVER, Protocol.TCP, 10, 5000, ACKED),  # outside blocks
        ]
    )


@pytest.fixture
def unclean():
    return Report.from_addresses("unclean", [BASE + 1, OTHER + 1])


class TestPartition:
    def test_candidate_requires_tcp_and_block(self, flows, bot_test, unclean):
        part = partition_candidates(flows, bot_test, unclean)
        assert sorted(part.candidate.addresses) == [BASE + 1, BASE + 2, BASE + 3]

    def test_hostile_is_reported(self, flows, bot_test, unclean):
        part = partition_candidates(flows, bot_test, unclean)
        assert list(part.hostile.addresses) == [BASE + 1]

    def test_unknown_has_no_payload(self, flows, bot_test, unclean):
        part = partition_candidates(flows, bot_test, unclean)
        assert list(part.unknown.addresses) == [BASE + 2]

    def test_innocent_has_payload_but_unreported(self, flows, bot_test, unclean):
        part = partition_candidates(flows, bot_test, unclean)
        assert list(part.innocent.addresses) == [BASE + 3]

    def test_partition_covers_candidates(self, flows, bot_test, unclean):
        part = partition_candidates(flows, bot_test, unclean)
        assert len(part.hostile) + len(part.unknown) + len(part.innocent) == len(
            part.candidate
        )

    def test_hostile_wins_over_behaviour(self, bot_test):
        # "once an IP address is identified as hostile it cannot be
        # present in the remaining two reports" — even without payload.
        flows = _flow_log([(BASE + 7, SERVER, Protocol.TCP, 3, 156, SYN_ONLY)])
        unclean = Report.from_addresses("unclean", [BASE + 7])
        part = partition_candidates(flows, bot_test, unclean)
        assert list(part.hostile.addresses) == [BASE + 7]
        assert len(part.unknown) == 0

    def test_inconsistent_partition_rejected(self):
        candidate = Report.from_addresses("candidate", [BASE + 1, BASE + 2])
        hostile = Report.from_addresses("hostile", [BASE + 1])
        empty = Report.from_addresses("x", [])
        with pytest.raises(ValueError):
            CandidatePartition(
                candidate=candidate, hostile=hostile, unknown=empty, innocent=empty
            )

    def test_table2_rows(self, flows, bot_test, unclean):
        rows = partition_candidates(flows, bot_test, unclean).table2_rows()
        assert [row["tag"] for row in rows] == [
            "candidate",
            "hostile",
            "unknown",
            "innocent",
        ]


class TestBlockingTest:
    def test_prefix_band(self):
        assert BLOCKING_PREFIXES == tuple(range(24, 33))

    def test_counts_per_prefix(self, flows, bot_test, unclean):
        part = partition_candidates(flows, bot_test, unclean)
        result = blocking_test(part, bot_test)
        row24 = result.row(24)
        assert row24.true_positives == 1
        assert row24.false_positives == 1
        assert row24.population == 2
        assert row24.unknown == 1

    def test_slash32_blocks_only_exact_addresses(self, flows, bot_test, unclean):
        part = partition_candidates(flows, bot_test, unclean)
        row32 = blocking_test(part, bot_test).row(32)
        # bot-test contains only BASE+9, which never crossed, so nothing
        # is caught at /32.
        assert row32.population == 0
        assert row32.unknown == 0

    def test_monotone_decreasing(self, flows, bot_test, unclean):
        part = partition_candidates(flows, bot_test, unclean)
        assert blocking_test(part, bot_test).monotone_decreasing()

    def test_rates(self):
        row = BlockingRow(
            prefix=24, true_positives=9, false_positives=1, population=10, unknown=10
        )
        assert row.tp_rate == 0.9
        assert row.fp_rate == 0.1
        assert row.tp_rate_assuming_unknown_hostile == 0.95

    def test_rates_empty_population(self):
        row = BlockingRow(
            prefix=32, true_positives=0, false_positives=0, population=0, unknown=0
        )
        assert row.tp_rate == 0.0
        assert row.fp_rate == 0.0
        assert row.tp_rate_assuming_unknown_hostile == 0.0

    def test_missing_row_raises(self, flows, bot_test, unclean):
        part = partition_candidates(flows, bot_test, unclean)
        result = blocking_test(part, bot_test)
        with pytest.raises(KeyError):
            result.row(16)

    def test_roc_points(self, flows, bot_test, unclean):
        part = partition_candidates(flows, bot_test, unclean)
        points = blocking_test(part, bot_test).roc_points()
        assert len(points) == len(BLOCKING_PREFIXES)
        assert all(0 <= p["tp_rate"] <= 1 for p in points)


class TestPartitionPeriod:
    def test_partition_reports_carry_observation_period(self, flows, bot_test):
        """Table 2's observed reports cover the traffic window, not the
        old bot report's date."""
        import datetime

        period = (datetime.date(2006, 10, 1), datetime.date(2006, 10, 14))
        unclean = Report.from_addresses("unclean", [BASE + 1], period=period)
        part = partition_candidates(flows, bot_test, unclean)
        assert part.candidate.period == period
        assert part.hostile.period == period
        assert part.unknown.period == period
        assert part.innocent.period == period


class TestControlBlockingDistribution:
    @pytest.fixture
    def control(self):
        rng = np.random.default_rng(0xB10C)
        return Report.from_addresses(
            "control",
            np.unique(rng.integers(0, 2**32, size=3000, dtype=np.uint32)),
        )

    def test_null_model_summaries(self, flows, bot_test, unclean, control):
        from repro.core.blocking import control_blocking_distribution

        part = partition_candidates(flows, bot_test, unclean)
        dist = control_blocking_distribution(
            part, bot_test, control, np.random.default_rng(4),
            prefixes=(24, 28, 32), subsets=20,
        )
        assert set(dist) == {"hostile", "innocent"}
        for summaries in dist.values():
            assert set(summaries) == {24, 28, 32}
            for summary in summaries.values():
                # A covered count can never exceed the target cardinality.
                assert 0 <= summary.minimum <= summary.maximum <= len(part.candidate)

    def test_observed_blocks_beat_random_controls(self, flows, bot_test, unclean, control):
        """The §6 point: the real bot-test blocks catch far more hostile
        candidates than equal-cardinality random subsets do."""
        from repro.core.blocking import control_blocking_distribution

        part = partition_candidates(flows, bot_test, unclean)
        observed_tp = blocking_test(part, bot_test, prefixes=(24,)).row(24).true_positives
        dist = control_blocking_distribution(
            part, bot_test, control, np.random.default_rng(4),
            prefixes=(24,), subsets=20,
        )
        assert observed_tp >= dist["hostile"][24].median

    def test_matrix_matches_per_trial_reference(self, flows, bot_test, unclean, control):
        from repro.core.blocking import monte_carlo_covered_counts
        from repro.core.sampling import monte_carlo
        from repro.core.trials import CoveredCountStatistic

        part = partition_candidates(flows, bot_test, unclean)
        prefixes = (24, 32)
        batched = monte_carlo_covered_counts(
            part.hostile, control, len(bot_test), 15,
            np.random.default_rng(8), prefixes,
        )
        statistic = CoveredCountStatistic.for_report(part.hostile, prefixes)
        reference = monte_carlo(
            control, len(bot_test), 15, np.random.default_rng(8),
            statistic=statistic.per_trial,
        )
        assert np.array_equal(batched, reference)
