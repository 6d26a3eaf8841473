"""Tests for the staged artifact engine: fingerprints, store, stages."""

import dataclasses
import json
from dataclasses import make_dataclass, replace

import numpy as np
import pytest

from repro.api import clear_scenario_cache, run_scenario
from repro.cli import main
from repro.core.report import Report
from repro.core.scenario import PaperScenario, ScenarioConfig
from repro.core.stages import (
    SCENARIO_STAGES,
    reset_scenario_engine,
    scenario_engine,
)
from repro.engine import (
    MISS,
    ArtifactStore,
    ReportMappingCodec,
    StageEngine,
    fingerprint,
    reset_default_store,
    resolve_cache_dir,
)


@pytest.fixture
def isolated_store(tmp_path, monkeypatch):
    """A fresh default store over a private disk dir, restored afterwards."""
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    reset_default_store()
    reset_scenario_engine()
    clear_scenario_cache()
    yield cache_dir
    reset_default_store()
    reset_scenario_engine()
    clear_scenario_cache()


class TestFingerprint:
    def test_field_order_does_not_matter(self):
        ab = make_dataclass("Cfg", [("a", int, 1), ("b", float, 2.5)])
        ba = make_dataclass("Cfg", [("b", float, 2.5), ("a", int, 1)])
        assert fingerprint(ab()) == fingerprint(ba())

    def test_defaults_spelled_out_or_implicit(self):
        implicit = ScenarioConfig()
        explicit = ScenarioConfig(seed=20_061_001, control_size=250_000)
        assert implicit.fingerprint() == explicit.fingerprint()

    def test_any_field_change_changes_fingerprint(self):
        base = ScenarioConfig.small()
        reference = base.fingerprint()
        for change in (
            {"seed": base.seed + 1},
            {"control_size": base.control_size + 1},
            {"bot_test_size": base.bot_test_size - 1},
            {"bot_report_channels": (0, 1)},
            {"phish_test_size": 10},
        ):
            assert replace(base, **change).fingerprint() != reference

    def test_nested_config_change_changes_fingerprint(self):
        base = ScenarioConfig.small()
        changed = replace(
            base, internet=replace(base.internet, num_slash16=base.internet.num_slash16 + 1)
        )
        assert changed.fingerprint() != base.fingerprint()

    def test_same_seed_different_configs_differ(self):
        base = ScenarioConfig.small(seed=91)
        other = replace(base, control_size=5_000)
        assert base.seed == other.seed
        assert base.fingerprint() != other.fingerprint()

    def test_stable_across_calls(self):
        assert ScenarioConfig().fingerprint() == ScenarioConfig().fingerprint()

    def test_rejects_non_plain_data(self):
        with pytest.raises(TypeError):
            fingerprint(lambda: 1)

    def test_numpy_and_container_values(self):
        holder = make_dataclass("Holder", [("x", object), ("y", object)])
        a = holder(x=np.float64(1.5), y=(1, 2))
        b = holder(x=1.5, y=(1, 2))
        assert fingerprint(a) == fingerprint(b)


class TestArtifactStore:
    def test_memory_roundtrip(self):
        store = ArtifactStore(disk_dir=None)
        assert store.get("k") is MISS
        store.put("k", 42)
        assert store.get("k") == 42
        assert store.memory_hits == 1 and store.misses == 1

    def test_lru_eviction(self):
        store = ArtifactStore(max_memory_items=2, disk_dir=None)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1  # refresh a; b is now the oldest
        store.put("c", 3)
        assert store.get("b") is MISS
        assert store.get("a") == 1 and store.get("c") == 3
        assert store.evictions == 1

    def _reports(self):
        import datetime

        return {
            "bot": Report.from_addresses(
                "bot",
                ["5.6.7.8", "5.6.7.9"],
                report_type="provided",
                data_class="bots",
                period=(datetime.date(2006, 10, 1), datetime.date(2006, 10, 14)),
            ),
            "control": Report.from_addresses("control", ["9.9.9.9"]),
        }

    def test_disk_roundtrip_preserves_reports(self, tmp_path):
        codec = ReportMappingCodec()
        writer = ArtifactStore(disk_dir=tmp_path)
        writer.put("fp/reports", self._reports(), codec)
        # A different store (fresh memory) must load from disk.
        reader = ArtifactStore(disk_dir=tmp_path)
        loaded = reader.get("fp/reports", codec)
        assert loaded is not MISS
        assert reader.disk_hits == 1
        assert loaded == self._reports()
        assert loaded["bot"].addresses.dtype == np.uint32

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        codec = ReportMappingCodec()
        writer = ArtifactStore(disk_dir=tmp_path)
        writer.put("fp/reports", self._reports(), codec)
        for sidecar in tmp_path.glob("*.json"):
            sidecar.write_text("{not json")
        reader = ArtifactStore(disk_dir=tmp_path)
        assert reader.get("fp/reports", codec) is MISS

    def test_version_skew_is_a_miss(self, tmp_path):
        codec = ReportMappingCodec()
        writer = ArtifactStore(disk_dir=tmp_path)
        writer.put("fp/reports", self._reports(), codec)
        for sidecar in tmp_path.glob("*.json"):
            envelope = json.loads(sidecar.read_text())
            envelope["format"] = -1
            sidecar.write_text(json.dumps(envelope))
        reader = ArtifactStore(disk_dir=tmp_path)
        assert reader.get("fp/reports", codec) is MISS

    def test_clear_and_info(self, tmp_path):
        codec = ReportMappingCodec()
        store = ArtifactStore(disk_dir=tmp_path)
        store.put("fp/reports", self._reports(), codec)
        info = store.info()
        assert info["disk_files"] == 2 and info["memory_entries"] == 1
        assert info["disk_bytes"] > 0
        removed = store.clear()
        assert removed == 2
        assert store.info()["disk_files"] == 0
        assert store.get("fp/reports", codec) is MISS

    def test_no_disk_without_codec(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        store.put("fp/internet", object())
        assert store.info()["disk_files"] == 0

    def test_cache_dir_resolution(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert resolve_cache_dir() == tmp_path
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert resolve_cache_dir() is None
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert resolve_cache_dir().name == "repro"


class TestStageEngine:
    def test_unknown_stage(self):
        engine = StageEngine(SCENARIO_STAGES, ArtifactStore(disk_dir=None))
        with pytest.raises(KeyError):
            engine.resolve(ScenarioConfig.small(), "nonsense")

    def test_duplicate_stage_rejected(self):
        stage = SCENARIO_STAGES[0]
        with pytest.raises(ValueError):
            StageEngine([stage, stage], ArtifactStore(disk_dir=None))

    def test_each_stage_builds_once(self, isolated_store):
        config = ScenarioConfig.small(seed=61)
        scenario = PaperScenario(config)
        _ = scenario.partition
        _ = scenario.reports
        _ = scenario.october_traffic
        counts = scenario.engine.build_counts
        for name in ("internet", "botnet", "phishing", "traffic", "reports",
                     "partition"):
            assert counts[name] == 1, name

    def test_same_seed_different_configs_do_not_thrash(self, isolated_store):
        """Regression: the old seed-keyed cache evicted on alternation."""
        config_a = ScenarioConfig.small(seed=91)
        config_b = replace(config_a, control_size=5_000)
        scenario_a = run_scenario(config_a).scenario
        scenario_b = run_scenario(config_b).scenario
        assert len(scenario_a.control) == 20_000
        assert len(scenario_b.control) == 5_000
        engine = scenario_engine()
        assert engine.build_counts["reports"] == 2
        for _ in range(3):  # alternating calls must not rebuild anything
            assert run_scenario(config_a).scenario is scenario_a
            assert run_scenario(config_b).scenario is scenario_b
            assert len(run_scenario(config_a).control) == 20_000
            assert len(run_scenario(config_b).control) == 5_000
        assert engine.build_counts["reports"] == 2
        assert engine.build_counts["internet"] == 2


class TestWarmRuns:
    def test_warm_table2_cli_runs_no_simulation(self, isolated_store, capsys):
        """Acceptance: a warm Table 2 CLI run touches no simulation stage."""
        assert main(["table2", "--small"]) == 0
        cold = capsys.readouterr().out
        cold_counts = dict(scenario_engine().build_counts)
        assert cold_counts["internet"] == 1 and cold_counts["partition"] == 1

        # Simulate a fresh process: empty memory store, same disk dir.
        reset_default_store()
        reset_scenario_engine()
        clear_scenario_cache()
        assert main(["table2", "--small"]) == 0
        warm = capsys.readouterr().out
        engine = scenario_engine()
        for name in ("internet", "botnet", "phishing", "traffic", "reports",
                     "partition"):
            assert engine.build_counts[name] == 0, name
        assert engine.store.disk_hits >= 2  # reports + partition
        assert warm == cold

    def test_warm_reports_identical_across_stores(self, isolated_store):
        config = ScenarioConfig.small(seed=17)
        cold = PaperScenario(config)
        cold_reports = cold.reports
        reset_default_store()
        reset_scenario_engine()
        warm = PaperScenario(config)
        assert warm.engine is not cold.engine
        assert warm.reports == cold_reports
        assert warm.engine.build_counts["reports"] == 0
