"""Unit tests for the DNSBL service view (repro.detect.dnsbl)."""

import numpy as np
import pytest

from repro.core.blocklist import Blocklist
from repro.core.report import Report
from repro.detect.dnsbl import DNSBLQuery, DNSBLServer
from repro.ipspace.addr import as_int
from repro.ipspace.cidr import CIDRBlock

LISTED_BLOCK = CIDRBlock.parse("62.4.9.0/24")


@pytest.fixture
def server():
    blocklist = Blocklist(default_ttl_days=30)
    blocklist.add_block(LISTED_BLOCK, day=0)
    return DNSBLServer(blocklist)


class TestQueries:
    def test_listed_subject(self, server):
        assert server.query("9.9.9.9", "62.4.9.77", day=1)

    def test_unlisted_subject(self, server):
        assert not server.query("9.9.9.9", "8.8.8.8", day=1)

    def test_expired_entry_answers_unlisted(self, server):
        assert not server.query("9.9.9.9", "62.4.9.77", day=100)

    def test_queries_logged(self, server):
        server.query("9.9.9.9", "62.4.9.1", day=3)
        (entry,) = server.query_log
        assert entry == DNSBLQuery(
            querier=as_int("9.9.9.9"),
            subject=as_int("62.4.9.1"),
            day=3,
            listed=True,
        )

    def test_query_many(self, server):
        flags = server.query_many("9.9.9.9", ["62.4.9.1", "8.8.8.8"], day=1)
        assert list(flags) == [True, False]
        assert len(server.query_log) == 2

    def test_query_volume_by_day(self, server):
        server.query("1.1.1.1", "2.2.2.2", day=5)
        server.query("1.1.1.1", "3.3.3.3", day=5)
        server.query("1.1.1.1", "4.4.4.4", day=6)
        assert server.query_volume_by_day() == {5: 2, 6: 1}


class TestCoverage:
    def test_coverage_at_detection(self, server):
        spam = Report.from_addresses(
            "spam", ["62.4.9.1", "62.4.9.2", "8.8.8.8", "9.9.9.9"]
        )
        assert server.coverage_at_detection(spam, day=1) == pytest.approx(0.5)

    def test_scenario_blocklist_covers_future_spammers(self, small_scenario):
        """Jung & Sit shape: a list built from September bot evidence
        already covers much of October's detected spam."""
        import datetime

        from repro.sim.timeline import Window, date_to_day

        september = Window.from_dates(
            datetime.date(2006, 9, 1), datetime.date(2006, 9, 30)
        )
        evidence = Report.from_addresses(
            "sept-bots", small_scenario.botnet.active_addresses(september)
        )
        blocklist = Blocklist(default_ttl_days=60)
        blocklist.add_report(evidence, day=september.end_day)
        server = DNSBLServer(blocklist)

        oct_day = date_to_day(datetime.date(2006, 10, 7))
        coverage = server.coverage_at_detection(small_scenario.spam, oct_day)
        assert coverage > 0.5  # paper-era DNSBLs hit ~80%


class TestReconnaissance:
    def _run_queries(self, server, querier, subjects, day=1):
        for subject in subjects:
            server.query(querier, subject, day=day)

    def test_botmaster_flagged(self, server):
        bots = [f"70.1.2.{i}" for i in range(1, 6)]
        self._run_queries(server, "66.6.6.6", bots)
        future = Report.from_addresses("hostile", bots)
        assert server.reconnaissance_queriers(future) == [as_int("66.6.6.6")]

    def test_mail_server_not_flagged(self, server):
        # A mail server queries a broad mix; few of its subjects turn
        # hostile later.
        mixed = [f"80.{i}.1.1" for i in range(20)] + ["70.1.2.1", "70.1.2.2", "70.1.2.3"]
        self._run_queries(server, "10.0.0.25", mixed)
        future = Report.from_addresses("hostile", ["70.1.2.1", "70.1.2.2", "70.1.2.3"])
        assert server.reconnaissance_queriers(future) == []

    def test_min_hits_floor(self, server):
        self._run_queries(server, "66.6.6.6", ["70.1.2.1", "70.1.2.2"])
        future = Report.from_addresses("hostile", ["70.1.2.1", "70.1.2.2"])
        assert server.reconnaissance_queriers(future, min_hits=3) == []

    def test_before_day_restriction(self, server):
        bots = [f"70.1.2.{i}" for i in range(1, 6)]
        self._run_queries(server, "66.6.6.6", bots, day=10)
        future = Report.from_addresses("hostile", bots)
        assert server.reconnaissance_queriers(future, before_day=10) == []
        assert server.reconnaissance_queriers(future, before_day=11) == [
            as_int("66.6.6.6")
        ]

    def test_bulk_sweeps_of_a_capture_flag_every_querier(self, tiny_traffic):
        """``query_many`` over every source of a border capture feeds the
        recon sweep: each querier that looked up the later-hostile slow
        scanners among them is flagged."""
        hostile = Report.from_addresses(
            "hostile", tiny_traffic.ground_truth("slow_scanners")
        )
        blocklist = Blocklist()
        blocklist.add_report(hostile, day=0)
        server = DNSBLServer(blocklist)
        subjects = tiny_traffic.flows.unique_sources()
        queriers = [(1 << 24) + 97 * index for index in range(8)]
        for querier in queriers:
            server.query_many(querier, subjects, day=5)
        flagged = server.reconnaissance_queriers(
            hostile, min_hits=2, min_hit_fraction=0.01
        )
        assert flagged == queriers

    def test_parameter_validation(self, server):
        future = Report.from_addresses("hostile", ["1.0.0.1"])
        with pytest.raises(ValueError):
            server.reconnaissance_queriers(future, min_hits=0)
        with pytest.raises(ValueError):
            server.reconnaissance_queriers(future, min_hit_fraction=0.0)
