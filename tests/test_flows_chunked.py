"""Tests for the out-of-core chunked flow-log layer."""

import numpy as np
import pytest

from repro.detect.scan import ScanDetector, ScanDetectorConfig
from repro.detect.spam import SpamDetector, SpamDetectorConfig
from repro.detect.trw import TRWDetector
from repro.engine.store import MISS, ArtifactMissing, ArtifactStore
from repro.flows.chunked import ChunkedFlowLog, FlowChunkCodec, _split_points
from repro.flows.log import COLUMN_DTYPES, FlowLog


def make_flows(n=20_000, seed=3, days=3.0):
    rng = np.random.default_rng(seed)
    start = np.sort(rng.uniform(0.0, days * 86_400.0, n))
    if n > 300:
        start[200:300] = start[200]  # equal-time tie run
    return FlowLog(
        src_addr=rng.integers(0, 200, n, dtype=np.uint32),
        dst_addr=rng.integers(0, 500, n, dtype=np.uint32),
        src_port=rng.integers(1024, 65535, n).astype(np.uint16),
        dst_port=np.where(
            rng.random(n) < 0.3, 25, rng.integers(1, 1024, n)
        ).astype(np.uint16),
        protocol=np.where(rng.random(n) < 0.8, 6, 17).astype(np.uint8),
        packets=rng.integers(1, 10, n).astype(np.uint32),
        octets=rng.integers(40, 1500, n).astype(np.uint64),
        tcp_flags=np.where(rng.random(n) < 0.5, 16, 2).astype(np.uint8),
        start_time=start,
        end_time=start + 1.0,
    )


def assert_logs_equal(a: FlowLog, b: FlowLog):
    assert len(a) == len(b)
    for name in COLUMN_DTYPES:
        assert np.array_equal(a.column(name), b.column(name)), name


class TestSplitPoints:
    def test_empty(self):
        assert _split_points(np.asarray([], dtype=float), 10, True) == []

    def test_size_bound(self):
        times = np.zeros(25)
        points = _split_points(times, 10, day_bounded=False)
        assert points == [10, 20, 25]

    def test_day_cuts(self):
        times = np.asarray([0.0, 10.0, 86_400.0, 86_500.0, 2 * 86_400.0])
        assert _split_points(times, 100, day_bounded=True) == [2, 4, 5]

    def test_day_cuts_and_size_bound_compose(self):
        times = np.concatenate([np.zeros(7), np.full(2, 86_400.0)])
        assert _split_points(times, 3, day_bounded=True) == [3, 6, 7, 9]

    def test_positional_cover(self):
        times = np.sort(np.random.default_rng(0).uniform(0, 5e5, 997))
        points = _split_points(times, 100, day_bounded=True)
        assert points[-1] == 997
        assert all(b > a for a, b in zip(points, points[1:]))


class TestCodec:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        flows = make_flows(500)
        store.put("x/flowchunk-00000", flows, FlowChunkCodec())
        back = store.get("x/flowchunk-00000", FlowChunkCodec())
        assert back is not MISS
        assert_logs_equal(back, flows)


class TestStoreBackend:
    def test_roundtrip_and_lengths(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        flows = make_flows()
        chunked = ChunkedFlowLog.spill(flows, "w/0", store=store, max_flows=3000)
        assert len(chunked) == len(flows)
        assert chunked.chunk_count >= len(flows) // 3000
        assert chunked.nbytes > 0
        assert_logs_equal(chunked.materialize(), flows)

    def test_streaming_reads_bypass_lru(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        chunked = ChunkedFlowLog.spill(
            make_flows(), "w/0", store=store, max_flows=2000
        )
        for _ in chunked.iter_chunks():
            pass
        assert store.info()["memory_entries"] == 0

    def test_windowed_selection(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        flows = make_flows()
        chunked = ChunkedFlowLog.spill(flows, "w/0", store=store, max_flows=2500)
        lo, hi = 0.5 * 86_400.0, 1.75 * 86_400.0
        assert_logs_equal(
            chunked.materialize(lo, hi), flows.in_time_range(lo, hi)
        )
        # open-ended windows
        assert_logs_equal(
            chunked.materialize(start=lo),
            flows.in_time_range(lo, float("inf")),
        )
        assert_logs_equal(
            chunked.materialize(end=hi),
            flows.in_time_range(float("-inf"), hi),
        )

    def test_windowed_iteration_skips_chunks(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        flows = make_flows(days=4.0)
        chunked = ChunkedFlowLog.spill(flows, "w/0", store=store, max_flows=2000)
        narrow = list(chunked.iter_chunks(0.0, 3600.0))
        assert 0 < len(narrow) < chunked.chunk_count

    def test_info_counters(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        chunked = ChunkedFlowLog.spill(
            make_flows(5000), "w/0", store=store, max_flows=1000
        )
        info = store.info()
        assert info["flow_chunks"] == chunked.chunk_count
        assert info["flow_chunk_bytes"] > 0
        assert chunked.info()["backend"] == "store"
        chunked.drop()
        assert store.info()["flow_chunks"] == 0

    def test_missing_chunk_raises(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        chunked = ChunkedFlowLog.spill(
            make_flows(2000), "w/0", store=store, max_flows=500
        )
        store.clear()
        with pytest.raises(ArtifactMissing):
            list(chunked.iter_chunks())

    def test_memory_only_store_keeps_chunks_resident(self):
        store = ArtifactStore(disk_dir=None)
        flows = make_flows(3000)
        chunked = ChunkedFlowLog.spill(flows, "w/0", store=store, max_flows=700)
        assert chunked.info()["resident_chunks"] == chunked.chunk_count
        assert_logs_equal(chunked.materialize(), flows)

    def test_spill_chunks_streaming_writer(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        flows = make_flows(3000)
        day = (flows.start_time // 86_400.0).astype(np.int64)
        parts = [flows.select(day == d) for d in np.unique(day)]
        chunked = ChunkedFlowLog.spill_chunks(iter(parts), "w/0", store=store)
        assert chunked.chunk_count == len(parts)
        assert_logs_equal(chunked.materialize(), flows)


class TestMmapBackend:
    def test_roundtrip(self, tmp_path):
        flows = make_flows()
        ChunkedFlowLog.spill_to_dir(flows, tmp_path / "mm", max_flows=3000)
        reopened = ChunkedFlowLog.open_dir(tmp_path / "mm")
        assert_logs_equal(reopened.materialize(), flows)
        assert reopened.info()["backend"] == "mmap"

    def test_chunks_are_memory_mapped(self, tmp_path):
        flows = make_flows(2000)
        chunked = ChunkedFlowLog.spill_to_dir(flows, tmp_path / "mm", max_flows=600)
        chunk = chunked.chunk(0)
        assert isinstance(chunk.src_addr, np.memmap) or isinstance(
            chunk.src_addr.base, np.memmap
        )

    def test_windowed(self, tmp_path):
        flows = make_flows()
        chunked = ChunkedFlowLog.spill_to_dir(flows, tmp_path / "mm", max_flows=2500)
        lo, hi = 86_400.0, 2 * 86_400.0
        assert_logs_equal(
            chunked.materialize(lo, hi), flows.in_time_range(lo, hi)
        )


class TestDetectorEquivalence:
    """The streaming partial-aggregate folds are bit-identical to the
    in-memory detectors for any chunking of the window."""

    @pytest.fixture(scope="class")
    def flows(self):
        return make_flows(40_000, seed=17)

    @pytest.fixture(scope="class")
    def detectors(self):
        return (
            ScanDetector(ScanDetectorConfig(min_targets=5, min_failed_fraction=0.3)),
            TRWDetector(),
            SpamDetector(
                SpamDetectorConfig(
                    min_messages=5, min_daily_rate=1.0, max_size_cv=5.0
                )
            ),
        )

    def test_chunked_log_matches(self, tmp_path, flows, detectors):
        store = ArtifactStore(disk_dir=tmp_path)
        for max_flows, day_bounded in [(977, True), (7000, False), (60_000, True)]:
            chunked = ChunkedFlowLog.spill(
                flows,
                f"eq/{max_flows}-{day_bounded}",
                store=store,
                max_flows=max_flows,
                day_bounded=day_bounded,
            )
            for det in detectors:
                whole = det.detect(flows)
                assert whole.size  # the fixtures actually flag something
                assert np.array_equal(det.detect_chunked(chunked), whole)
            chunked.drop()

    def test_mmap_backend_matches(self, tmp_path, flows, detectors):
        chunked = ChunkedFlowLog.spill_to_dir(
            flows, tmp_path / "mm", max_flows=9000
        )
        for det in detectors:
            assert np.array_equal(det.detect_chunked(chunked), det.detect(flows))
