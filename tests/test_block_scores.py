"""Lookups and validation of the per-block score table.

:class:`BlockScores` answers every address question with one of two
searches: ``scores_of`` for an address array, and one bisect for a
single address, which ``score_of``, ``in_blocklist`` and
``dimensions_of`` share.  A hypothesis property holds all of them to a
mask-and-dict oracle over block sets from /0 to /32, probed at both
ends of every block and of the address space, in every address form
the API accepts.  Bad input raises exactly as ``as_int`` / ``as_array``
do, on an empty table too.
"""

import ipaddress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.uncleanliness import BlockScores
from repro.ipspace.addr import MAX_ADDRESS, as_array, as_int, block_size, prefix_mask

FORMS = {
    "int": int,
    "np.uint32": np.uint32,
    "dotted": lambda a: str(ipaddress.IPv4Address(a)),
    "IPv4Address": ipaddress.IPv4Address,
}


def _table(prefix_len, blocks, scores, counts=None):
    blocks = np.asarray(blocks, dtype=np.uint32)
    if counts is None:
        counts = np.arange(blocks.size, dtype=np.int64)
    return BlockScores(
        prefix_len=prefix_len,
        blocks=blocks,
        class_counts={"bots": np.asarray(counts, dtype=np.int64)},
        scores=np.asarray(scores, dtype=np.float64),
    )


EMPTY = _table(24, [], [])
#: 10.1.2.0/24 scoring 0.0 beside 10.1.3.0/24 scoring 0.9.
ZERO_AND_HIGH = _table(24, [0x0A010200, 0x0A010300], [0.0, 0.9])


@st.composite
def tables(draw):
    """A table at one of the edge prefixes; scores of 0.0 and 1.0 are common."""
    prefix_len = draw(st.sampled_from([0, 8, 16, 24, 30, 32]))
    members = draw(st.lists(st.integers(0, MAX_ADDRESS), max_size=12))
    mask = np.uint32(prefix_mask(prefix_len))
    blocks = np.unique(np.asarray(members, dtype=np.uint32) & mask)
    score = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    scores = draw(st.lists(score, min_size=blocks.size, max_size=blocks.size))
    counts = draw(
        st.lists(st.integers(0, 99), min_size=blocks.size, max_size=blocks.size)
    )
    return _table(prefix_len, blocks, scores, counts)


def _edge_probes(table):
    """0, 2**32 - 1, and every block's start and end, each ±1."""
    probes = {0, MAX_ADDRESS}
    span = block_size(table.prefix_len) - 1
    for start in table.blocks.tolist():
        for edge in (start, start + span):
            probes.update((edge - 1, edge, edge + 1))
    return sorted(p for p in probes if 0 <= p <= MAX_ADDRESS)


def _bits(value):
    return int(np.float64(value).view(np.uint64))


class TestAgainstOracle:
    @given(tables(), st.floats(0.0, 1.0), st.sampled_from(sorted(FORMS)))
    @example(EMPTY, 0.0, "int")
    @example(ZERO_AND_HIGH, 0.0, "dotted")
    @example(ZERO_AND_HIGH, 1.0, "IPv4Address")
    @example(_table(0, [0], [0.0]), 0.0, "np.uint32")
    @settings(max_examples=150, deadline=None)
    def test_lookups_equal_mask_and_dict(self, table, threshold, form):
        scores = dict(zip(table.blocks.tolist(), table.scores.tolist()))
        counts = dict(zip(table.blocks.tolist(), table.class_counts["bots"].tolist()))
        mask = prefix_mask(table.prefix_len)
        probes = _edge_probes(table)
        addresses = [FORMS[form](p) for p in probes]
        batch = table.scores_of(np.asarray(probes, dtype=np.uint32))
        assert batch.dtype == np.float64
        assert [_bits(v) for v in table.scores_of(addresses)] == [
            _bits(v) for v in batch
        ]
        for probe, address, batched in zip(probes, addresses, batch.tolist()):
            net = probe & mask
            expected = scores.get(net, 0.0)
            value = table.score_of(address)
            assert type(value) is float
            assert _bits(value) == _bits(batched) == _bits(expected)
            verdict = table.in_blocklist(address, threshold)
            assert type(verdict) is bool
            assert verdict == (net in scores and scores[net] >= threshold)
            assert table.dimensions_of(address) == {"bots": counts.get(net, 0)}

    @given(tables(), st.integers(-1, 14))
    @settings(max_examples=60, deadline=None)
    def test_ranked_blocks_score_desc_then_block_asc(self, table, count):
        scores = dict(zip(table.blocks.tolist(), table.scores.tolist()))
        expected = sorted(scores, key=lambda net: (-scores[net], net))
        assert table.ranked_blocks().tolist() == expected
        assert table.ranked_blocks(count).tolist() == expected[: max(count, 0)]


class TestBadInput:
    @pytest.mark.parametrize("bad", [True, -1, 2**32, "not.an.ip", 1.5, None])
    @pytest.mark.parametrize("table", [EMPTY, ZERO_AND_HIGH], ids=["empty", "two"])
    def test_single_lookups_raise_as_as_int(self, bad, table):
        with pytest.raises((TypeError, ValueError)) as expected:
            as_int(bad)
        for lookup in (
            table.score_of,
            table.dimensions_of,
            lambda address: table.in_blocklist(address, 0.0),
        ):
            with pytest.raises(type(expected.value)) as raised:
                lookup(bad)
            assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize(
        "bad",
        [
            np.asarray([2**32 + 5], dtype=np.int64),
            np.asarray([-1], dtype=np.int64),
            [True],
            [2**32],
            ["not.an.ip"],
            7,
        ],
        ids=["int64-above", "int64-negative", "bool", "int-above", "dotted", "scalar"],
    )
    @pytest.mark.parametrize("table", [EMPTY, ZERO_AND_HIGH], ids=["empty", "two"])
    def test_scores_of_raises_as_as_array(self, bad, table):
        with pytest.raises((TypeError, ValueError)) as expected:
            as_array(bad)
        with pytest.raises(type(expected.value)) as raised:
            table.scores_of(bad)
        assert str(raised.value) == str(expected.value)

    def test_out_of_range_int64_does_not_wrap(self):
        # 2**32 + 5 cast to uint32 is 0.0.0.5, inside 0.0.0.0/24.
        table = _table(24, [0], [0.9])
        with pytest.raises(ValueError, match="outside IPv4 range"):
            table.scores_of(np.asarray([2**32 + 5], dtype=np.int64))


class TestTop:
    @pytest.mark.parametrize("count", [-1, 0, -730])
    def test_non_positive_count_lists_nothing(self, count):
        assert ZERO_AND_HIGH.top(count) == []

    def test_count_past_the_end_lists_every_block(self):
        assert ZERO_AND_HIGH.top(5) == [
            {"block": "10.1.3.0/24", "score": 0.9, "bots": 1},
            {"block": "10.1.2.0/24", "score": 0.0, "bots": 0},
        ]


class TestConstruction:
    """Beyond the unsorted and misaligned tables that
    ``tests/test_predict_protocol.py::TestBlockRanking`` rejects and the
    overlapping and host-bit blocks that
    ``tests/test_interval_index.py::TestConstruction`` rejects."""

    def test_rejects_duplicate_blocks(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            _table(24, [256, 256], [0.5, 0.5])

    def test_rejects_2d_arrays_and_misaligned_counts(self):
        with pytest.raises(ValueError, match="aligned 1-D"):
            _table(24, [[256]], [[0.5]], counts=[[1]])
        with pytest.raises(ValueError, match="'bots' counts"):
            _table(24, [256], [0.5], counts=[1, 2])

    def test_rejects_prefix_out_of_range(self):
        with pytest.raises(ValueError, match="prefix length out of range"):
            _table(33, [], [])

    def test_arrays_are_read_only_uint32_and_float64(self):
        table = BlockScores(
            prefix_len=24,
            blocks=np.asarray([256, 512], dtype=np.int64),
            class_counts={},
            scores=[1, 0],
        )
        assert table.blocks.dtype == np.uint32
        assert table.scores.dtype == np.float64
        with pytest.raises(ValueError):
            table.blocks[0] = 0
        with pytest.raises(ValueError):
            table.scores[0] = 0.5

    def test_lookup_views_are_built_on_the_first_single_lookup(self):
        table = _table(24, [256], [0.5])
        table.scores_of(np.asarray([256], dtype=np.uint32))
        assert "_views" not in vars(table)
        assert table.score_of(300) == 0.5
        assert "_views" in vars(table)
