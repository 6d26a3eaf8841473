"""Service lifecycle, api facade and CLI tests for the streaming layer.

Covers the durability contract (day-then-head checkpoints, resume from
the newest committed day, corrupt/missing checkpoints degrade to a cold
start), the ``repro.api`` query facade with its bounded service cache,
and the ``uncleanliness ingest`` / ``serve`` CLI verbs end to end.
"""

import io
import re

import numpy as np
import pytest

from repro import api
from repro.cli import main
from repro.core import folds
from repro.core.report import DataClass, Report, ReportType
from repro.core.uncleanliness import BlockScores
from repro.detect.scan import ScanDetector
from repro.detect.spam import SpamAggregates
from repro.engine.store import ArrayCodec, ArtifactStore
from repro.ipspace.addr import MAX_ADDRESS, as_int
from repro.ipspace.cidr import mask_array
from repro.obs import metrics as obs_metrics
from repro.sim.timeline import PAPER_WINDOWS
from repro.stream import StreamConfig, UncleanlinessService, day_batches
from repro.stream.checkpoint import StreamStateCodec, day_key, head_key


def _counter(name: str) -> int:
    return obs_metrics.registry().counter(name).snapshot()["value"]


class _ParentFormatCodec(StreamStateCodec):
    """Writes checkpoints in the earlier format: per-source
    ``spam:active_days`` instead of the ``(source, day)`` table."""

    def to_payload(self, value):
        arrays, meta = super().to_payload(value)
        day_sources = arrays.pop("spam:day_sources")
        del arrays["spam:day_values"]
        sources = arrays["spam:sources"]
        arrays["spam:active_days"] = np.bincount(
            np.searchsorted(sources, day_sources), minlength=sources.size
        )
        return arrays, meta


class _V4FormatCodec(StreamStateCodec):
    """Writes checkpoints in the 4.0 format, which also stored R_unclean
    and the per-class and per-prefix block counters — here with wrong
    contents, so a reader that trusted them would resume with zero
    scores, an empty R_unclean and zero densities."""

    def to_payload(self, value):
        arrays, meta = super().to_payload(value)
        blocks = value.scores().blocks
        arrays["unclean"] = np.asarray([], dtype=np.uint32)
        for cls in folds.CLASS_ORDER:
            arrays[f"class:{cls}:blocks"] = blocks
            arrays[f"class:{cls}:counts"] = np.zeros(blocks.size, dtype=np.int64)
        for n in self.config.prefixes:
            arrays[f"prefix:{n}:blocks"] = np.asarray([], dtype=np.uint32)
            arrays[f"prefix:{n}:counts"] = np.asarray([], dtype=np.int64)
        return arrays, meta


_SPAM_KEYS = (
    "spam:sources",
    "spam:messages",
    "spam:size_sums",
    "spam:size_sq_sums",
    "spam:day_sources",
    "spam:day_values",
)


def _feeds(traffic):
    """Bot and phish feeds drawn from the capture's own sources, so they
    overlap the detected scan and spam reports."""
    sources = np.unique(traffic.flows.src_addr)
    return {
        tag: Report(
            tag=tag,
            addresses=sources[offset::step],
            report_type=ReportType.PROVIDED,
            data_class=data_class,
            period=traffic.window.dates(),
        )
        for tag, offset, step, data_class in (
            ("bot", 0, 7, DataClass.BOTS),
            ("phish", 3, 11, DataClass.PHISHING),
        )
    }


def _assert_same_fold(resumed, live):
    """Resumed and live services agree on every derived view, bit for bit."""
    assert np.array_equal(resumed.scores().blocks, live.scores().blocks)
    assert np.array_equal(resumed.scores().scores, live.scores().scores)
    for cls, column in live.scores().class_counts.items():
        assert np.array_equal(resumed.scores().class_counts[cls], column)
    assert np.array_equal(resumed.blocklist(), live.blocklist())
    assert resumed.state.report("unclean") == live.state.report("unclean")
    assert resumed.state.block_counts() == live.state.block_counts()


@pytest.fixture
def stream_config():
    return StreamConfig(window=PAPER_WINDOWS.OCTOBER)


@pytest.fixture
def disk_store(tmp_path):
    return ArtifactStore(max_memory_items=8, disk_dir=tmp_path / "cache")


class TestCheckpointResume:
    def _fold(self, service, traffic, days, provided=None):
        for batch in day_batches(
            traffic, provided, from_day=service.cursor + 1
        ):
            if days is not None and batch.day >= service.config.window.start_day + days:
                break
            service.ingest(batch)

    def test_resume_restores_committed_state(
        self, stream_config, disk_store, tiny_traffic
    ):
        service = UncleanlinessService(
            stream_config, source="t", store=disk_store
        )
        self._fold(service, tiny_traffic, days=3)
        assert service.cursor == PAPER_WINDOWS.OCTOBER.start_day + 2

        resumed = UncleanlinessService.resume(
            stream_config, source="t", store=disk_store
        )
        assert resumed.cursor == service.cursor
        assert np.array_equal(
            resumed.scores().scores, service.scores().scores
        )

        # Folding the rest from the checkpoint equals folding straight
        # through — the durability layer is invisible to the math.
        self._fold(resumed, tiny_traffic, days=None)
        straight = UncleanlinessService(
            stream_config, source="t2", store=disk_store
        )
        self._fold(straight, tiny_traffic, days=None)
        assert np.array_equal(
            resumed.scores().scores, straight.scores().scores
        )
        assert np.array_equal(resumed.blocklist(), straight.blocklist())

    def test_cold_start_when_no_checkpoint(self, stream_config, disk_store):
        service = UncleanlinessService.resume(
            stream_config, source="nothing-here", store=disk_store
        )
        assert service.cursor == PAPER_WINDOWS.OCTOBER.start_day - 1
        assert service.state.days_ingested == 0

    def test_missing_day_checkpoint_degrades_cold(
        self, stream_config, disk_store, tmp_path, tiny_traffic
    ):
        service = UncleanlinessService(
            stream_config, source="t", store=disk_store
        )
        self._fold(service, tiny_traffic, days=2)
        # Delete the day checkpoints but leave the head pointer; a fresh
        # store (empty memory tier) must fall back to a cold start.
        for path in (tmp_path / "cache").iterdir():
            if ".stream.day-" in path.name:
                path.unlink()
        fresh = ArtifactStore(max_memory_items=8, disk_dir=tmp_path / "cache")
        before = _counter("stream.resume.missing_checkpoint")
        resumed = UncleanlinessService.resume(
            stream_config, source="t", store=fresh
        )
        assert resumed.state.days_ingested == 0
        assert _counter("stream.resume.missing_checkpoint") == before + 1

    def test_corrupt_checkpoint_quarantined_and_cold(
        self, stream_config, disk_store, tmp_path, tiny_traffic
    ):
        service = UncleanlinessService(
            stream_config, source="t", store=disk_store
        )
        self._fold(service, tiny_traffic, days=1)
        day = PAPER_WINDOWS.OCTOBER.start_day
        base = ArtifactStore._base_name(day_key(service.fingerprint, day))
        payloads = [
            path for path in (tmp_path / "cache").iterdir()
            if path.name.startswith(base) and not path.name.endswith(".json")
        ]
        assert payloads, "expected an on-disk day checkpoint payload"
        payloads[0].write_bytes(b"garbage")

        fresh = ArtifactStore(max_memory_items=8, disk_dir=tmp_path / "cache")
        resumed = UncleanlinessService.resume(
            stream_config, source="t", store=fresh
        )
        assert resumed.state.days_ingested == 0
        assert fresh.quarantined >= 1
        assert fresh.info()["quarantine_files"] >= 1

    def test_parent_format_checkpoint_resumes_cold(
        self, stream_config, disk_store, tmp_path, tiny_traffic
    ):
        """A checkpoint without the spam day table is version skew: a
        plain miss, never quarantined; the service replays the window."""
        service = UncleanlinessService(
            stream_config, source="t", store=disk_store
        )
        self._fold(service, tiny_traffic, days=2)
        disk_store.put(
            day_key(service.fingerprint, service.cursor),
            service.state.snapshot(),
            _ParentFormatCodec(stream_config),
        )

        fresh = ArtifactStore(max_memory_items=8, disk_dir=tmp_path / "cache")
        resumed = UncleanlinessService.resume(
            stream_config, source="t", store=fresh
        )
        assert resumed.state.days_ingested == 0
        assert fresh.version_skew == 1
        assert fresh.quarantined == 0
        assert fresh.info()["quarantine_files"] == 0

        self._fold(resumed, tiny_traffic, days=None)
        self._fold(service, tiny_traffic, days=None)
        assert resumed.cursor == service.cursor == PAPER_WINDOWS.OCTOBER.end_day
        assert np.array_equal(resumed.scores().scores, service.scores().scores)
        assert np.array_equal(resumed.blocklist(), service.blocklist())

    def test_day_checkpoint_holds_only_exact_state(
        self, stream_config, disk_store, tmp_path, tiny_traffic
    ):
        """A day checkpoint stores the report sets and the spam
        aggregate; everything derived is rebuilt on load."""
        service = UncleanlinessService(
            stream_config, source="t", store=disk_store
        )
        self._fold(service, tiny_traffic, days=2, provided=_feeds(tiny_traffic))
        base = ArtifactStore._base_name(
            day_key(service.fingerprint, service.cursor)
        )
        with np.load(tmp_path / "cache" / f"{base}.npz") as payload:
            keys = set(payload.files)
        assert keys == {
            f"addresses:{tag}" for tag in ("bot", "phish", "scan", "spam")
        } | set(_SPAM_KEYS)

    def test_v4_format_checkpoint_resumes_without_trusting_counters(
        self, stream_config, disk_store, tmp_path, tiny_traffic
    ):
        """A 4.0 checkpoint's extra ``unclean``, ``class:*`` and
        ``prefix:*`` arrays are ignored: the service resumes at the
        checkpoint's day and rebuilds every derived view from the
        report sets."""
        service = UncleanlinessService(
            stream_config, source="t", store=disk_store
        )
        self._fold(service, tiny_traffic, days=3, provided=_feeds(tiny_traffic))
        disk_store.put(
            day_key(service.fingerprint, service.cursor),
            service.state.snapshot(),
            _V4FormatCodec(stream_config),
        )

        fresh = ArtifactStore(max_memory_items=8, disk_dir=tmp_path / "cache")
        restored = _counter("stream.resume.restored")
        resumed = UncleanlinessService.resume(
            stream_config, source="t", store=fresh
        )
        assert _counter("stream.resume.restored") == restored + 1
        assert resumed.cursor == service.cursor
        assert resumed.state.days_ingested == service.state.days_ingested == 3
        assert fresh.version_skew == 0
        assert fresh.quarantined == 0
        assert fresh.info()["quarantine_files"] == 0
        _assert_same_fold(resumed, service)

        self._fold(resumed, tiny_traffic, days=None)
        self._fold(service, tiny_traffic, days=None)
        assert resumed.cursor == service.cursor == PAPER_WINDOWS.OCTOBER.end_day
        _assert_same_fold(resumed, service)

    def test_resume_honours_head_pointer(
        self, stream_config, disk_store, tiny_traffic
    ):
        """The head names the committed day; later uncommitted
        checkpoints are ignored (crash between day and head writes)."""
        service = UncleanlinessService(
            stream_config, source="t", store=disk_store
        )
        self._fold(service, tiny_traffic, days=2)
        first_day = PAPER_WINDOWS.OCTOBER.start_day
        disk_store.put(
            head_key(service.fingerprint),
            np.asarray([first_day], dtype=np.int64),
            ArrayCodec(),
        )
        resumed = UncleanlinessService.resume(
            stream_config, source="t", store=disk_store
        )
        assert resumed.cursor == first_day
        assert resumed.state.days_ingested == 1

    def test_checkpointing_disabled_writes_nothing(
        self, stream_config, disk_store, tiny_traffic
    ):
        service = UncleanlinessService(
            stream_config, source="t", store=disk_store, checkpointing=False
        )
        self._fold(service, tiny_traffic, days=2)
        assert disk_store.puts == 0
        assert disk_store.info()["stream_checkpoints"] == 0

    def test_store_info_counts_stream_checkpoints(
        self, stream_config, disk_store, tiny_traffic
    ):
        service = UncleanlinessService(
            stream_config, source="t", store=disk_store
        )
        self._fold(service, tiny_traffic, days=3)
        assert disk_store.info()["stream_checkpoints"] == 3


class TestApiFacade:
    def test_stream_service_reaches_head(self, small_scenario):
        service = api.stream_service(small_scenario)
        assert service.cursor == PAPER_WINDOWS.OCTOBER.end_day
        assert len(service.scores()) > 0
        assert service.blocklist().size > 0

    def test_service_shared_per_fingerprint(self, small_scenario):
        first = api.stream_service(small_scenario)
        second = api.stream_service(small_scenario)
        assert first is second

    def test_score_matches_top_blocks(self, small_scenario):
        rows = api.top_blocks(5, small_scenario)
        assert len(rows) == 5
        for row in rows:
            address = row["block"].split("/")[0]
            assert api.score(address, small_scenario) == pytest.approx(
                row["score"], abs=5e-5
            )

    def test_top_blocks_of_a_non_positive_count_are_empty(self, small_scenario):
        service = api.stream_service(small_scenario)
        assert len(service.scores()) > 1
        assert service.top_blocks(-1) == []
        assert service.top_blocks(0) == []

    def test_is_blocked_follows_threshold(self, small_scenario):
        service = api.stream_service(small_scenario)
        scores = service.scores()
        listed = scores.blocks[scores.scores >= 0.5]
        unlisted = scores.blocks[scores.scores < 0.5]
        assert listed.size and unlisted.size
        assert api.is_blocked(int(listed[0]), small_scenario)
        assert not api.is_blocked(int(unlisted[0]), small_scenario)
        # Unreported space scores 0.0 and is never blocked.
        assert api.score("203.0.113.9", small_scenario) == 0.0
        assert not api.is_blocked("203.0.113.9", small_scenario)

    def test_scenario_and_flags_conflict(self, small_scenario):
        with pytest.raises(ValueError, match="not both"):
            api.stream_service(small_scenario, small=True)

    def test_facade_always_checkpoints(self, small_scenario):
        # Services are shared per stream fingerprint, so a per-call
        # setting would silently stick to whichever caller came first.
        with pytest.raises(TypeError):
            api.stream_service(small_scenario, checkpointing=False)


class TestBlocklistMembership:
    """``is_blocked`` is membership in ``blocklist()`` after every day,
    at the threshold edges too: a scored block at exactly the threshold
    is blocked, unscored space never is."""

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_is_blocked_is_blocklist_membership(self, small_scenario, threshold):
        # Phishing weighs nothing, so phish-only blocks score exactly 0.0.
        weights = tuple(
            (cls, 0.0 if cls == DataClass.PHISHING else weight)
            for cls, weight in folds.DEFAULT_CLASS_WEIGHTS
        )
        service = UncleanlinessService(
            StreamConfig(
                window=PAPER_WINDOWS.OCTOBER, threshold=threshold, weights=weights
            ),
            checkpointing=False,
        )
        feeds = {tag: small_scenario.report(tag) for tag in ("bot", "phish")}
        unscored = as_int("203.0.113.9")
        for batch in day_batches(small_scenario.october_traffic, feeds):
            service.ingest(batch)
            listed = service.blocklist()
            probes = {0, MAX_ADDRESS, unscored}
            for net in service.scores().blocks.tolist():
                probes.update((net, net + 255, min(net + 256, MAX_ADDRESS)))
            for probe in sorted(probes):
                blocked = service.is_blocked(probe)
                assert blocked == (mask_array([probe], 24)[0] in listed), probe
                assert not blocked or service.score(probe) >= threshold
        table = service.scores()
        assert not service.is_blocked(unscored)
        if threshold == 0.0:
            zero = table.blocks[table.scores == 0.0]
            assert zero.size and service.is_blocked(int(zero[0]))
        else:
            assert not any(
                service.is_blocked(int(net))
                for net in table.blocks[table.scores < 1.0]
            )


class TestSingleLookups:
    """``score``/``is_blocked``: one recorded lookup each, no array path."""

    def _probes(self, service):
        scores = service.scores()
        listed = scores.blocks[scores.scores >= service.config.threshold]
        return [int(scores.blocks[0]) + 1, int(listed[0]), "203.0.113.9"]

    def test_each_lookup_is_recorded_once(self, small_scenario):
        service = api.stream_service(small_scenario)
        latency = obs_metrics.registry().histogram("stream.lookup.seconds")
        for lookup in (service.score, service.is_blocked):
            for probe in self._probes(service):
                before = (service.queries, _counter("stream.lookup.count"),
                          latency.count)
                lookup(probe)
                after = (service.queries, _counter("stream.lookup.count"),
                         latency.count)
                assert [b - a for a, b in zip(before, after)] == [1, 1, 1]

    def test_single_lookups_bypass_the_array_path(
        self, small_scenario, monkeypatch
    ):
        service = api.stream_service(small_scenario)
        probes = self._probes(service)
        expected = [(service.score(p), service.is_blocked(p)) for p in probes]

        def batch_only(*args, **kwargs):
            raise AssertionError("a single lookup took the array path")

        monkeypatch.setattr(BlockScores, "scores_of", batch_only)
        assert [(service.score(p), service.is_blocked(p)) for p in probes] == expected
        assert expected[1][1] is True and expected[2] == (0.0, False)

    def test_checkpoint_snapshots_hold_no_lookup_views(self, small_scenario):
        # The store's memory tier keeps every snapshot it is handed; one
        # sharing the live table would keep that table's views alive.
        service = api.stream_service(small_scenario)
        service.score("203.0.113.9")
        snapshot = service.state.snapshot().scores()
        assert snapshot is not service.scores()
        assert "_views" in vars(service.scores())
        assert "_views" not in vars(snapshot)


class TestDayFold:
    def test_each_day_runs_the_detectors_once_over_its_own_flows(
        self, small_scenario, stream_config, monkeypatch
    ):
        """A day's ingest costs one scan and one spam pass over that
        day's flows, never a rebuild over the window so far."""
        seen = {"scan": [], "spam": []}
        detect = ScanDetector.detect
        from_flows = SpamAggregates.from_flows.__func__

        def spy_detect(self, flows):
            seen["scan"].append(len(flows))
            return detect(self, flows)

        def spy_from_flows(cls, flows):
            seen["spam"].append(len(flows))
            return from_flows(cls, flows)

        monkeypatch.setattr(ScanDetector, "detect", spy_detect)
        monkeypatch.setattr(
            SpamAggregates, "from_flows", classmethod(spy_from_flows)
        )
        service = UncleanlinessService(stream_config, checkpointing=False)
        sizes = []
        for batch in day_batches(small_scenario.october_traffic):
            service.ingest(batch)
            sizes.append(len(batch.flows))
        assert len(sizes) == stream_config.window.num_days
        assert seen == {"scan": sizes, "spam": sizes}


class TestLRUCache:
    def test_evicts_least_recently_used(self):
        cache = api._LRUCache(capacity=2, metric="test.cache.evictions")
        before = _counter("test.cache.evictions")
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'; 'b' is now the victim
        cache.put("c", 3)
        assert len(cache) == 2
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert _counter("test.cache.evictions") == before + 1

    def test_put_existing_key_does_not_evict(self):
        cache = api._LRUCache(capacity=2, metric="test.cache.evictions")
        before = _counter("test.cache.evictions")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert cache.get("a") == 10
        assert "b" in cache
        assert _counter("test.cache.evictions") == before

    def test_capacity_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            api._LRUCache(capacity=0, metric="test.cache.evictions")

    def test_clear_scenario_cache_clears_both_tiers(self, small_scenario):
        api.stream_service(small_scenario)
        assert len(api._SERVICES) > 0
        api.clear_scenario_cache()
        assert len(api._SERVICES) == 0
        assert len(api._SCENARIOS) == 0


@pytest.fixture
def fresh_stream_env(tmp_path):
    """A private cache dir + cleared facade caches, restored afterwards.

    The ingest tests need to observe a cold stream; the session-shared
    default store may already hold the small scenario's checkpoints.
    """
    import os

    from repro.core.stages import reset_scenario_engine
    from repro.engine.store import reset_default_store

    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path / "cli-cache")
    api.clear_scenario_cache()
    reset_default_store()
    reset_scenario_engine()
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous
    api.clear_scenario_cache()
    reset_default_store()
    reset_scenario_engine()


class TestCLI:
    def test_ingest_resume_serve_roundtrip(self, monkeypatch, capsys,
                                           fresh_stream_env):
        assert main(["ingest", "--small", "--days", "2"]) == 0
        out = capsys.readouterr().out
        assert f"day {PAPER_WINDOWS.OCTOBER.start_day}:" in out
        assert "ingested 2 day(s)" in out
        assert "behind head" in out

        # Second run resumes at the checkpoint and reaches the head.
        assert main(["ingest", "--small"]) == 0
        out = capsys.readouterr().out
        assert f"day {PAPER_WINDOWS.OCTOBER.start_day}:" not in out
        assert "(at head)" in out

        # Third run is a no-op.
        assert main(["ingest", "--small"]) == 0
        assert "nothing to ingest" in capsys.readouterr().out

        # The cache knows about the committed day checkpoints.
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        match = re.search(r"stream ckpts:\s+(\d+) day checkpoint", out)
        assert match, out
        assert int(match.group(1)) >= PAPER_WINDOWS.OCTOBER.num_days
        assert re.search(r"quarantine:\s+\d+ file", out)

        # Serve answers from the warm index over stdin.
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("info\nscore 10.0.0.1\nblocked 10.0.0.1\nquit\n")
        )
        assert main(["serve", "--small"]) == 0
        out = capsys.readouterr().out
        assert "serving window" in out
        assert "cursor: 286" in out
        assert re.search(r"10\.0\.0\.1 \d\.\d{4}", out)
        assert re.search(r"10\.0\.0\.1 (blocked|allowed)", out)
        assert "served 2 lookup(s)" in out

    def test_serve_top_and_unknown_command(self, monkeypatch, capsys,
                                           small_scenario):
        monkeypatch.setattr("sys.stdin", io.StringIO("top 3\nbogus\nquit\n"))
        assert main(["serve", "--small"]) == 2
        captured = capsys.readouterr()
        assert len(re.findall(r"score=0\.\d+", captured.out)) == 3
        assert "unknown command: bogus" in captured.err

    def test_serve_rejects_malformed_address(self, monkeypatch, capsys,
                                             small_scenario):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("score not.an.ip\nquit\n")
        )
        assert main(["serve", "--small"]) == 2
        assert "?" in capsys.readouterr().err
