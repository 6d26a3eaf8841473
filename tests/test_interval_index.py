"""Edge-case tests for the score table's address-to-block lookups.

A :class:`BlockScores` block is the address interval from its network
address to the last address of its ``/prefix_len`` block.  The geometry
the lookups must survive: reserved/unobserved ranges miss, /32 blocks
are one-address intervals, addresses outside every block resolve (not
crash) at the extremes of the address space, and an empty table scores
nothing.  The single-address lookups (``score_of``, ``in_blocklist``)
must agree bit for bit with the batch ones (``scores_of``,
``blocklist``) and validate their input the same way.
"""

import ipaddress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.uncleanliness import BlockScores
from repro.ipspace.addr import MAX_ADDRESS, as_int, block_size
from repro.ipspace.cidr import mask_array

addresses = st.integers(min_value=0, max_value=MAX_ADDRESS)


def _table(prefix_len, blocks, scores=None, counts=None):
    """A table over ``blocks``, scored 0.0 unless ``scores`` are given."""
    blocks = np.asarray(blocks, dtype=np.uint32)
    if scores is None:
        scores = np.zeros(blocks.size)
    class_counts = {} if counts is None else {"bots": np.asarray(counts)}
    return BlockScores(
        prefix_len=prefix_len,
        blocks=blocks,
        class_counts=class_counts,
        scores=np.asarray(scores, dtype=np.float64),
    )


def _member(table, address) -> bool:
    """Whether ``address`` lies in a scored block; scores are in [0, 1]."""
    return table.in_blocklist(address, 0.0)


def _covered_addresses(table) -> int:
    return len(table) * block_size(table.prefix_len)


class TestConstruction:
    def test_rejects_overlap(self):
        # Same-prefix blocks overlap only when one block's network lies
        # inside the other block: 10.0.1.0 is inside 10.0.0.0/16.
        with pytest.raises(ValueError, match="not /16 network addresses"):
            _table(16, [as_int("10.0.0.0"), as_int("10.0.1.0")])

    def test_rejects_unsorted_starts(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            _table(24, [as_int("10.0.1.0"), as_int("10.0.0.0")])

    def test_rejects_value_shape_mismatch(self):
        with pytest.raises(ValueError, match="aligned 1-D arrays"):
            _table(24, [0], scores=[0.1, 0.2])

    def test_rejects_unmasked_networks(self):
        # 10.0.0.5 at /24 would span 10.0.0.5-10.0.1.4, straddling two
        # blocks, and score addresses in the wrong one.
        with pytest.raises(ValueError, match="not /24 network addresses"):
            _table(24, [as_int("10.0.0.5")], scores=[0.9])

    def test_rejects_unmasked_network_at_top_of_space(self):
        # Its interval would wrap past 2**32 - 1.
        with pytest.raises(ValueError, match="not /24 network addresses"):
            _table(24, [0xFFFFFF05])

    def test_arrays_frozen(self):
        table = _table(24, [256], scores=[0.5])
        with pytest.raises(ValueError):
            table.blocks[0] = 0
        with pytest.raises(ValueError):
            table.scores[0] = 0.0


class TestEmptyBlocklist:
    """An empty table is zero intervals: nothing is scored or blocked."""

    def test_everything_misses(self):
        table = _table(24, [])
        assert len(table) == 0
        assert _covered_addresses(table) == 0
        assert not _member(table, 0)
        assert not _member(table, "255.255.255.255")
        assert table.blocklist(0.0) == []
        assert not table.scores_of(
            np.asarray([0, 1, 2**32 - 1], dtype=np.uint32)
        ).any()

    def test_values_at_empty_valued_index(self):
        table = _table(24, [], counts=[])
        out = table.scores_of(np.asarray([17], dtype=np.uint32))
        assert out.tolist() == [0.0]
        assert table.score_of(17) == 0.0
        assert table.dimensions_of(17) == {"bots": 0}


class TestSlash32Blocks:
    """/32 blocks degenerate to single-address intervals."""

    def test_exact_address_only(self):
        net = as_int("10.0.0.5")
        table = _table(32, [net], scores=[0.75])
        assert _covered_addresses(table) == 1
        assert _member(table, net)
        assert not _member(table, net - 1)
        assert not _member(table, net + 1)
        assert table.score_of(net) == 0.75
        assert table.score_of(net + 1) == 0.0

    def test_adjacent_slash32s_stay_distinct(self):
        nets = np.asarray([100, 101, 102], dtype=np.uint32)
        table = _table(32, nets, scores=[0.1, 0.2, 0.3])
        assert table.scores_of(nets).tolist() == [0.1, 0.2, 0.3]
        assert [table.score_of(int(n)) for n in nets] == [0.1, 0.2, 0.3]


class TestOutsideObservedNetwork:
    """Addresses outside every scored block, including space extremes."""

    def test_reserved_and_unobserved_ranges_miss(self):
        # The table scores 10.1.2.0/24 only; probe reserved/unobserved space.
        table = _table(24, [as_int("10.1.2.0")], scores=[0.9])
        probes = ["0.0.0.0", "9.255.255.255", "10.1.3.0",
                  "127.0.0.1", "224.0.0.1", "255.255.255.255"]
        for probe in probes:
            assert not _member(table, probe), probe
            assert table.score_of(probe) == 0.0
        assert _member(table, "10.1.2.0")
        assert _member(table, "10.1.2.255")
        assert table.score_of("10.1.2.77") == 0.9

    def test_below_first_interval_is_a_miss(self):
        # Insertion slot 0: an address below every block must not match it.
        table = _table(24, [1 << 24], scores=[0.5])
        assert not _member(table, 0)
        scores = table.scores_of(np.asarray([0, (1 << 24) - 1], dtype=np.uint32))
        assert not scores.any()

    def test_whole_space_block(self):
        table = _table(0, [0], scores=[0.5])
        assert _member(table, 0)
        assert _member(table, 2**32 - 1)
        assert table.score_of(2**32 - 1) == 0.5
        assert _covered_addresses(table) == 2**32


class TestAgainstMaskReference:
    @given(
        st.lists(addresses, max_size=30),
        st.lists(addresses, max_size=30),
        st.sampled_from([8, 16, 24, 30, 32]),
    )
    @settings(max_examples=80, deadline=None)
    def test_lookup_matches_mask_membership(self, members, probes, prefix_len):
        """Membership == 'probe's masked network is a scored block'."""
        nets = np.unique(
            mask_array(np.asarray(members, dtype=np.uint32), prefix_len)
        )
        table = _table(prefix_len, nets)
        probe_array = np.asarray(probes, dtype=np.uint32)
        expected = np.isin(mask_array(probe_array, prefix_len), nets)
        assert [_member(table, p) for p in probes] == expected.tolist()

    @given(st.lists(addresses, min_size=1, max_size=20), st.data())
    @settings(max_examples=60, deadline=None)
    def test_values_roundtrip(self, members, data):
        nets = np.unique(mask_array(np.asarray(members, dtype=np.uint32), 24))
        values = np.linspace(0.0, 1.0, nets.size)
        table = _table(24, nets, scores=values)
        pick = data.draw(st.integers(0, nets.size - 1))
        inside = int(nets[pick]) + data.draw(st.integers(0, 255))
        assert table.score_of(inside) == values[pick]
        assert table.scores_of([inside]).tolist() == [values[pick]]


def _bits(value) -> int:
    return int(np.float64(value).view(np.uint64))


@st.composite
def tables(draw):
    """A table at one prefix, with or without class counts, possibly empty."""
    prefix_len = draw(st.sampled_from([0, 8, 16, 24, 30, 32]))
    members = draw(st.lists(addresses, max_size=12))
    nets = np.unique(mask_array(np.asarray(members, dtype=np.uint32), prefix_len))
    scores = draw(
        st.lists(st.floats(0.0, 1.0), min_size=nets.size, max_size=nets.size)
    )
    counts = None
    if draw(st.booleans()):
        counts = np.arange(nets.size, dtype=np.int64)
    return _table(prefix_len, nets, scores=scores, counts=counts)


def _edge_probes(table) -> list:
    """0, 2**32 - 1 and every start - 1, start, end, end + 1 in range."""
    probes = {0, 2**32 - 1}
    span = block_size(table.prefix_len) - 1
    for start in table.blocks.tolist():
        probes.update((start - 1, start, start + span, start + span + 1))
    return sorted(p for p in probes if 0 <= p <= 2**32 - 1)


class TestScalarMatchesBatch:
    """``score_of``/``in_blocklist`` answer exactly as
    ``scores_of``/``blocklist``."""

    @given(tables(), st.lists(addresses, max_size=10), st.floats(width=64))
    @example(_table(24, []), [1, 2**31], 0.0)
    @example(_table(24, [], counts=[]), [7], -0.0)
    @settings(max_examples=150, deadline=None)
    def test_single_lookup_equals_batch(self, table, extra, threshold):
        blocked = {block.network for block in table.blocklist(threshold)}
        for probe in _edge_probes(table) + extra:
            batch = np.asarray([probe], dtype=np.uint32)
            verdict = table.in_blocklist(probe, threshold)
            assert type(verdict) is bool
            assert verdict == (int(mask_array(batch, table.prefix_len)[0]) in blocked)
            value = table.score_of(probe)
            assert type(value) is float
            assert _bits(value) == _bits(table.scores_of(batch)[0])

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
        table = _table(24, [net], scores=[0.25])
        assert _member(table, form(net + 7)) is True
        assert _member(table, form(net + 256)) is False
        assert table.score_of(form(net + 7)) == 0.25
        assert table.score_of(form(net - 1)) == 0.0

    @pytest.mark.parametrize("bad", [True, -1, 2**32, "not.an.ip"])
    @pytest.mark.parametrize("with_counts", [True, False])
    def test_bad_addresses_raise_as_as_int(self, bad, with_counts):
        """Validation comes first, even on a table without class counts."""
        with pytest.raises((TypeError, ValueError)) as expected:
            as_int(bad)
        table = _table(24, [0], scores=[0.5], counts=[3] if with_counts else None)
        for lookup in (
            table.score_of,
            table.dimensions_of,
            lambda address: _member(table, address),
        ):
            with pytest.raises(type(expected.value)) as raised:
                lookup(bad)
            assert str(raised.value) == str(expected.value)
