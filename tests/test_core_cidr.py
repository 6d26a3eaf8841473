"""Unit tests for repro.core.cidr (report-level CIDR operations)."""

import numpy as np
import pytest

from repro.core import cidr as rcidr
from repro.core.report import Report
from repro.ipspace import cidr as icidr
from repro.ipspace.addr import as_int
from repro.ipspace.cidr import CIDRBlock


def report(tag, addrs):
    return Report.from_addresses(tag, addrs)


class TestPrefixRange:
    def test_paper_band(self):
        # §4.1: block sizes limited to between 16 and 32 bits.
        assert list(rcidr.PREFIX_RANGE) == list(range(16, 33))


class TestCidrSet:
    def test_counts(self):
        r = report("r", ["10.1.1.1", "10.1.1.2", "10.1.2.1", "10.2.0.1"])
        assert icidr.block_count(r, 24) == 3
        assert icidr.block_count(r, 16) == 2
        assert icidr.block_count(r, 32) == 4

    def test_block_counts_dict(self):
        r = report("r", ["10.1.1.1", "10.2.1.1"])
        counts = rcidr.block_counts(r, prefixes=(16, 24))
        assert counts == {16: 2, 24: 2}

    def test_cidr_blocks_objects(self):
        r = report("r", ["10.1.1.1"])
        blocks = rcidr.cidr_blocks(r, 24)
        assert blocks == [CIDRBlock.parse("10.1.1.0/24")]

    def test_monotone_in_prefix(self):
        # |C_n(S)| is non-decreasing in n.
        addrs = [f"10.{i}.{j}.{k}" for i in range(3) for j in range(4) for k in (1, 2)]
        r = report("r", addrs)
        previous = 0
        for n in rcidr.PREFIX_RANGE:
            count = icidr.block_count(r, n)
            assert count >= previous
            previous = count


class TestIntersection:
    def test_intersection_count(self):
        past = report("past", ["10.1.1.1", "10.2.1.1"])
        present = report("present", ["10.1.1.200", "10.3.0.1"])
        assert rcidr.intersection_count(past, present, 24) == 1
        assert rcidr.intersection_count(past, present, 32) == 0
        assert rcidr.intersection_count(past, present, 8) == 1

    def test_intersection_counts_dict(self):
        past = report("past", ["10.1.1.1"])
        present = report("present", ["10.1.1.2"])
        counts = rcidr.intersection_counts(past, present, prefixes=(24, 32))
        assert counts == {24: 1, 32: 0}

    def test_self_intersection_is_block_count(self):
        r = report("r", ["10.1.1.1", "10.2.1.1", "11.0.0.1"])
        for n in (16, 24, 32):
            assert rcidr.intersection_count(r, r, n) == icidr.block_count(r, n)

    def test_empty_reports(self):
        empty = report("e", [])
        other = report("o", ["10.0.0.1"])
        assert rcidr.intersection_count(empty, other, 24) == 0


class TestMembersOf:
    def test_candidate_extraction(self):
        # §6.1: addresses of `candidate` sharing a /24 with bot-test.
        covering = report("bot-test", ["10.9.9.9"])
        traffic = report(
            "crossers", ["10.9.9.1", "10.9.9.254", "10.9.8.1", "99.0.0.1"]
        )
        members = rcidr.members_of(traffic, covering, 24)
        assert sorted(members.addresses) == sorted(
            [as_int("10.9.9.1"), as_int("10.9.9.254")]
        )

    def test_members_preserve_metadata(self):
        covering = report("c", ["10.9.9.9"])
        traffic = report("t", ["10.9.9.1"])
        members = rcidr.members_of(traffic, covering, 24)
        assert members.report_type == traffic.report_type
        assert "t@c/24" == members.tag

    def test_addresses_in_blocks(self):
        r = report("r", ["10.0.0.1", "20.0.0.1"])
        blocks = rcidr.cidr_set(report("s", ["10.0.0.200"]), 24)
        inside = rcidr.addresses_in_blocks(r, blocks, 24)
        assert list(inside) == [as_int("10.0.0.1")]
