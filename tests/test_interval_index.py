"""Edge-case tests for the streaming query layer's interval index.

The geometry the index must survive: reserved/unobserved ranges miss,
/32 blocks are one-address intervals, addresses outside the observed
network resolve (not crash) at the extremes of the address space, and
an empty blocklist rejects everything.  The single-address lookups
(``contains``, ``value_of``) must agree bit for bit with the batch
ones (``lookup``, ``values_at``) and validate their input the same way.
"""

import ipaddress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ipspace.addr import as_int
from repro.ipspace.cidr import mask_array
from repro.ipspace.intervals import IntervalIndex

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestConstruction:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            IntervalIndex(
                starts=np.asarray([0, 50], dtype=np.uint32),
                ends=np.asarray([60, 100], dtype=np.uint32),
            )

    def test_rejects_unsorted_starts(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            IntervalIndex(
                starts=np.asarray([50, 0], dtype=np.uint32),
                ends=np.asarray([60, 10], dtype=np.uint32),
            )

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError, match="ends before"):
            IntervalIndex(
                starts=np.asarray([10], dtype=np.uint32),
                ends=np.asarray([5], dtype=np.uint32),
            )

    def test_rejects_value_shape_mismatch(self):
        with pytest.raises(ValueError, match="values shape"):
            IntervalIndex(
                starts=np.asarray([0], dtype=np.uint32),
                ends=np.asarray([9], dtype=np.uint32),
                values=np.asarray([1.0, 2.0]),
            )

    def test_rejects_unmasked_networks(self):
        # 10.0.0.5 at /24 would index 10.0.0.5-10.0.1.4, straddling two
        # blocks, and score addresses in the wrong one.
        with pytest.raises(ValueError, match="not /24 network addresses"):
            IntervalIndex.from_blocks(
                np.asarray([as_int("10.0.0.5")], dtype=np.uint32),
                24,
                values=np.asarray([0.9]),
            )

    def test_rejects_unmasked_network_at_top_of_space(self):
        # Its interval would wrap past 2**32 - 1; the error names the
        # real fault, not an interval that ends before it starts.
        with pytest.raises(ValueError, match="not /24 network addresses"):
            IntervalIndex.from_blocks(
                np.asarray([0xFFFFFF05], dtype=np.uint32), 24
            )

    def test_arrays_frozen(self):
        index = IntervalIndex.from_blocks(
            np.asarray([256], dtype=np.uint32), 24
        )
        with pytest.raises(ValueError):
            index.starts[0] = 0


class TestEmptyBlocklist:
    """An empty blocklist is an index of zero intervals: nothing matches."""

    def test_everything_misses(self):
        index = IntervalIndex.empty()
        assert len(index) == 0
        assert index.covered_addresses() == 0
        assert not index.contains(0)
        assert not index.contains("255.255.255.255")
        assert not index.lookup(
            np.asarray([0, 1, 2**32 - 1], dtype=np.uint32)
        ).any()

    def test_values_at_empty_valued_index(self):
        index = IntervalIndex.from_blocks(
            np.asarray([], dtype=np.uint32), 24, values=np.asarray([])
        )
        out = index.values_at(np.asarray([17], dtype=np.uint32), default=-1.0)
        assert out.tolist() == [-1.0]


class TestSlash32Blocks:
    """/32 blocks degenerate to single-address intervals."""

    def test_exact_address_only(self):
        net = int(np.uint32(0x0A000005))  # 10.0.0.5/32
        index = IntervalIndex.from_blocks(
            np.asarray([net], dtype=np.uint32), 32, values=np.asarray([0.75])
        )
        assert index.covered_addresses() == 1
        assert index.contains(net)
        assert not index.contains(net - 1)
        assert not index.contains(net + 1)
        assert index.value_of(net) == 0.75
        assert index.value_of(net + 1, default=0.0) == 0.0

    def test_adjacent_slash32s_stay_distinct(self):
        nets = np.asarray([100, 101, 102], dtype=np.uint32)
        index = IntervalIndex.from_blocks(
            nets, 32, values=np.asarray([0.1, 0.2, 0.3])
        )
        assert index.values_at(nets).tolist() == [0.1, 0.2, 0.3]


class TestOutsideObservedNetwork:
    """Addresses outside every indexed block, including space extremes."""

    def test_reserved_and_unobserved_ranges_miss(self):
        # Index covers 10.1.2.0/24 only; probe reserved/unobserved space.
        net = (10 << 24) | (1 << 16) | (2 << 8)
        index = IntervalIndex.from_blocks(
            np.asarray([net], dtype=np.uint32), 24, values=np.asarray([0.9])
        )
        probes = ["0.0.0.0", "9.255.255.255", "10.1.3.0",
                  "127.0.0.1", "224.0.0.1", "255.255.255.255"]
        for probe in probes:
            assert not index.contains(probe), probe
            assert index.value_of(probe, default=0.0) == 0.0
        assert index.contains("10.1.2.0")
        assert index.contains("10.1.2.255")
        assert index.value_of("10.1.2.77") == 0.9

    def test_below_first_interval_is_a_miss(self):
        # searchsorted slot -1: address below every start must not wrap.
        index = IntervalIndex.from_blocks(
            np.asarray([1 << 24], dtype=np.uint32), 24
        )
        assert not index.contains(0)
        mask = index.lookup(np.asarray([0, (1 << 24) - 1], dtype=np.uint32))
        assert not mask.any()

    def test_whole_space_block(self):
        index = IntervalIndex.from_blocks(np.asarray([0], dtype=np.uint32), 0)
        assert index.contains(0)
        assert index.contains(2**32 - 1)
        assert index.covered_addresses() == 2**32


class TestAgainstMaskReference:
    @given(
        st.lists(addresses, max_size=30),
        st.lists(addresses, max_size=30),
        st.sampled_from([8, 16, 24, 30, 32]),
    )
    @settings(max_examples=80, deadline=None)
    def test_lookup_matches_mask_membership(self, members, probes, prefix_len):
        """Index membership == 'probe's masked network is an indexed block'."""
        nets = np.unique(
            mask_array(np.asarray(members, dtype=np.uint32), prefix_len)
        )
        index = IntervalIndex.from_blocks(nets, prefix_len)
        probe_array = np.asarray(probes, dtype=np.uint32)
        expected = np.isin(mask_array(probe_array, prefix_len), nets)
        assert np.array_equal(index.lookup(probe_array), expected)

    @given(st.lists(addresses, min_size=1, max_size=20), st.data())
    @settings(max_examples=60, deadline=None)
    def test_values_roundtrip(self, members, data):
        nets = np.unique(mask_array(np.asarray(members, dtype=np.uint32), 24))
        values = np.linspace(0.0, 1.0, nets.size)
        index = IntervalIndex.from_blocks(nets, 24, values=values)
        pick = data.draw(st.integers(0, nets.size - 1))
        inside = int(nets[pick]) + data.draw(st.integers(0, 255))
        assert index.value_of(inside) == values[pick]

    def test_values_at_requires_values(self):
        index = IntervalIndex.from_blocks(np.asarray([0], dtype=np.uint32), 24)
        with pytest.raises(ValueError, match="without values"):
            index.values_at(np.asarray([1], dtype=np.uint32))
        with pytest.raises(ValueError, match="without values"):
            index.value_of(1)


def _bits(value) -> int:
    return int(np.float64(value).view(np.uint64))


@st.composite
def indexes(draw):
    """A same-prefix index, with or without values, possibly empty."""
    prefix_len = draw(st.sampled_from([0, 8, 16, 24, 30, 32]))
    members = draw(st.lists(addresses, max_size=12))
    nets = np.unique(mask_array(np.asarray(members, dtype=np.uint32), prefix_len))
    values = None
    if draw(st.booleans()):
        values = np.asarray(
            draw(st.lists(st.floats(width=64), min_size=nets.size,
                          max_size=nets.size)),
            dtype=np.float64,
        )
    return IntervalIndex.from_blocks(nets, prefix_len, values=values)


def _edge_probes(index: IntervalIndex) -> list:
    """0, 2**32 - 1 and every start - 1, start, end, end + 1 in range."""
    probes = {0, 2**32 - 1}
    for start, end in zip(index.starts.tolist(), index.ends.tolist()):
        probes.update((start - 1, start, end, end + 1))
    return sorted(p for p in probes if 0 <= p <= 2**32 - 1)


class TestScalarMatchesBatch:
    """``contains``/``value_of`` answer exactly as ``lookup``/``values_at``."""

    @given(indexes(), st.lists(addresses, max_size=10), st.floats(width=64))
    @example(IntervalIndex.empty(), [1, 2**31], 0.0)
    @example(
        IntervalIndex.from_blocks(
            np.asarray([], dtype=np.uint32), 24, values=np.asarray([])
        ),
        [7],
        -0.0,
    )
    @settings(max_examples=150, deadline=None)
    def test_single_lookup_equals_batch(self, index, extra, default):
        for probe in _edge_probes(index) + extra:
            batch = np.asarray([probe], dtype=np.uint32)
            verdict = index.contains(probe)
            assert type(verdict) is bool
            assert verdict == bool(index.lookup(batch)[0])
            if index.values is None:
                continue
            value = index.value_of(probe, default=default)
            assert type(value) is float
            assert _bits(value) == _bits(index.values_at(batch, default=default)[0])

    @pytest.mark.parametrize(
        "form",
        [
            lambda a: a,
            np.uint32,
            lambda a: str(ipaddress.IPv4Address(a)),
            ipaddress.IPv4Address,
        ],
        ids=["int", "np.uint32", "dotted", "IPv4Address"],
    )
    def test_address_forms(self, form):
        net = as_int("10.1.2.0")
        index = IntervalIndex.from_blocks(
            np.asarray([net], dtype=np.uint32), 24, values=np.asarray([0.25])
        )
        assert index.contains(form(net + 7)) is True
        assert index.contains(form(net + 256)) is False
        assert index.value_of(form(net + 7)) == 0.25
        assert index.value_of(form(net - 1), default=-1) == -1.0

    @pytest.mark.parametrize("bad", [True, -1, 2**32, "not.an.ip"])
    @pytest.mark.parametrize("valued", [True, False])
    def test_bad_addresses_raise_as_as_int(self, bad, valued):
        """Validation comes first, even on an index without values."""
        with pytest.raises((TypeError, ValueError)) as expected:
            as_int(bad)
        index = IntervalIndex.from_blocks(
            np.asarray([0], dtype=np.uint32),
            24,
            values=np.asarray([0.5]) if valued else None,
        )
        for lookup in (index.contains, index.value_of):
            with pytest.raises(type(expected.value)) as raised:
                lookup(bad)
            assert str(raised.value) == str(expected.value)
