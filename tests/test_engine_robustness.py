"""Fault-tolerance tests: hardened store, chaos schedules, crash safety.

The acceptance property throughout: under injected IO faults, payload
corruption and killed processes, every run either produces results
bit-identical to a fault-free baseline or raises a clean typed error —
never silently wrong numbers, and never a store that fails to reopen.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.density import density_test
from repro.core.report import Report
from repro.core.sampling import monte_carlo
from repro.engine import faults
from repro.engine.faults import FaultPlan, FaultRule
from repro.engine.store import (
    MISS,
    ArrayCodec,
    ArtifactStore,
    CorruptArtifact,
    ReportMappingCodec,
    default_store,
    reset_default_store,
    resolve_cache_dir,
    verify_entry,
)
from repro.ipspace.kernels import block_counts_2d

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def clean_plan():
    faults.reset()
    yield
    faults.reset()


def _reports():
    return {
        "bot": Report.from_addresses(
            "bot", ["5.6.7.8", "5.6.7.9"], report_type="provided",
            data_class="bots",
        ),
        "control": Report.from_addresses("control", ["9.9.9.9"]),
    }


def _block_counts(trials):
    """A Monte-Carlo statistic whose values vary from trial to trial."""
    return block_counts_2d(trials, (16, 24, 32))


def _store(path, **kwargs) -> ArtifactStore:
    kwargs.setdefault("io_backoff", 0.0)
    return ArtifactStore(disk_dir=path, **kwargs)


class TestChecksums:
    def test_sidecar_carries_payload_checksum(self, tmp_path):
        _store(tmp_path).put("fp/reports", _reports(), ReportMappingCodec())
        (sidecar,) = tmp_path.glob("*.json")
        envelope = json.loads(sidecar.read_text())
        assert len(envelope["checksum"]) == 64
        verify_entry(tmp_path / sidecar.name[: -len(".json")])

    def test_bit_flip_detected_and_quarantined(self, tmp_path):
        writer = _store(tmp_path)
        writer.put("fp/reports", _reports(), ReportMappingCodec())
        (payload,) = tmp_path.glob("*.npz")
        blob = bytearray(payload.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        payload.write_bytes(bytes(blob))

        reader = _store(tmp_path)
        assert reader.get("fp/reports", ReportMappingCodec()) is MISS
        assert reader.quarantined == 1
        assert not list(tmp_path.glob("*.npz"))  # moved out of the hot path
        assert len(list((tmp_path / "quarantine").iterdir())) == 2

    def test_unparseable_sidecar_quarantined(self, tmp_path):
        writer = _store(tmp_path)
        writer.put("fp/reports", _reports(), ReportMappingCodec())
        for sidecar in tmp_path.glob("*.json"):
            sidecar.write_text("{not json")
        reader = _store(tmp_path)
        assert reader.get("fp/reports", ReportMappingCodec()) is MISS
        assert reader.quarantined == 1

    def test_injected_corruption_never_returns_wrong_data(self, tmp_path):
        plan = FaultPlan([FaultRule("store.corrupt", "corrupt", every=1)])
        with faults.injected(plan):
            writer = _store(tmp_path)
            writer.put("fp/reports", _reports(), ReportMappingCodec())
        reader = _store(tmp_path)
        assert reader.get("fp/reports", ReportMappingCodec()) is MISS


class TestOrphanSweep:
    def test_payload_without_sidecar_swept_on_init(self, tmp_path):
        writer = _store(tmp_path)
        writer.put("fp/reports", _reports(), ReportMappingCodec())
        (sidecar,) = tmp_path.glob("*.json")
        sidecar.unlink()
        reopened = _store(tmp_path)
        assert reopened.orphans_swept == 1
        assert not list(tmp_path.glob("*.npz"))

    def test_sidecar_without_payload_swept_on_init(self, tmp_path):
        writer = _store(tmp_path)
        writer.put("fp/reports", _reports(), ReportMappingCodec())
        (payload,) = tmp_path.glob("*.npz")
        payload.unlink()
        reopened = _store(tmp_path)
        assert reopened.orphans_swept == 1
        assert reopened.get("fp/reports", ReportMappingCodec()) is MISS

    def test_stale_tmp_files_removed(self, tmp_path):
        tmp_path.mkdir(exist_ok=True)
        (tmp_path / "fp.reports.npz.tmp").write_bytes(b"torn write")
        reopened = _store(tmp_path)
        assert reopened.tmp_removed == 1
        assert not list(tmp_path.glob("*.tmp"))

    def test_intact_pairs_left_alone(self, tmp_path):
        writer = _store(tmp_path)
        writer.put("fp/reports", _reports(), ReportMappingCodec())
        reopened = _store(tmp_path)
        assert reopened.orphans_swept == 0
        assert reopened.get("fp/reports", ReportMappingCodec()) == _reports()


class TestRetriesAndDegradation:
    def test_transient_read_fault_healed_by_retry(self, tmp_path):
        writer = _store(tmp_path)
        writer.put("fp/reports", _reports(), ReportMappingCodec())
        plan = FaultPlan([FaultRule("store.read", "oserror", every=1, times=1)])
        with faults.injected(plan):
            reader = _store(tmp_path)
            loaded = reader.get("fp/reports", ReportMappingCodec())
        assert loaded == _reports()
        assert reader.retries >= 1
        assert not reader.degraded

    def test_transient_write_fault_healed_by_retry(self, tmp_path):
        plan = FaultPlan([FaultRule("store.write", "enospc", every=3)])
        with faults.injected(plan):
            writer = _store(tmp_path)
            writer.put("fp/reports", _reports(), ReportMappingCodec())
        assert not writer.degraded
        assert _store(tmp_path).get("fp/reports", ReportMappingCodec()) == _reports()

    def test_persistent_write_failure_degrades_once(self, tmp_path, caplog):
        plan = FaultPlan([FaultRule("store.write", "enospc", every=1)])
        with caplog.at_level("WARNING", logger="repro.engine.store"):
            with faults.injected(plan):
                store = _store(tmp_path)
                store.put("a/x", _reports(), ReportMappingCodec())
                store.put("b/y", _reports(), ReportMappingCodec())
        assert store.degraded
        assert store.write_errors == 1  # second put skipped the disk
        warnings = [r for r in caplog.records if "degraded" in r.message]
        assert len(warnings) == 1  # warned exactly once
        # Memory layer still serves both entries.
        assert store.get("a/x") == _reports()
        assert store.get("b/y") == _reports()

    def test_degraded_store_survives_monte_carlo(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_default_store()
        try:
            plan = FaultPlan([FaultRule("store.write", "enospc", every=1)])
            control = Report.from_addresses(
                "control", [f"60.0.{j}.{k}" for j in range(8) for k in range(1, 60)]
            )
            baseline = monte_carlo(
                control, 20, 12, np.random.default_rng(3), _block_counts
            )
            with faults.injected(plan):
                survived = monte_carlo(
                    control, 20, 12, np.random.default_rng(3), _block_counts
                )
            assert np.array_equal(baseline, survived)
        finally:
            reset_default_store()


class TestCacheDirFallback:
    def test_uncreatable_dir_falls_back_to_memory_only(self, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        assert resolve_cache_dir(ensure=True) is None
        # Without ensure, resolution stays a pure path computation.
        assert resolve_cache_dir() == blocker / "cache"

    def test_default_store_degrades_not_crashes(self, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        reset_default_store()
        try:
            store = default_store()
            assert store.disk_dir is None
            store.put("fp/reports", _reports(), ReportMappingCodec())
            assert store.get("fp/reports") == _reports()
        finally:
            reset_default_store()


class TestDoctor:
    def _seed_entries(self, tmp_path, corrupt_one=True):
        store = _store(tmp_path)
        store.put("fp/reports", _reports(), ReportMappingCodec())
        store.put("fp/chunk", np.arange(8.0), ArrayCodec())
        if corrupt_one:
            payload = tmp_path / "fp.chunk.npz"
            blob = bytearray(payload.read_bytes())
            blob[-1] ^= 0xFF
            payload.write_bytes(bytes(blob))
        return store

    def test_doctor_verifies_and_quarantines(self, tmp_path):
        store = self._seed_entries(tmp_path)
        report = store.doctor()
        assert report["entries_verified"] == 1
        assert report["entries_corrupt"] == 1
        assert report["quarantine_files"] == 2
        # A second pass is clean.
        again = store.doctor()
        assert again["entries_corrupt"] == 0
        assert again["entries_verified"] == 1

    def test_doctor_purges_quarantine(self, tmp_path):
        store = self._seed_entries(tmp_path)
        report = store.doctor(purge_quarantine=True)
        assert report["quarantine_purged"] == 2
        assert store.doctor()["quarantine_files"] == 0

    def test_cli_cache_doctor(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_default_store()
        try:
            self._seed_entries(tmp_path, corrupt_one=False)
            assert main(["cache", "doctor"]) == 0
            out = capsys.readouterr().out
            assert "verified" in out and "degraded" in out
        finally:
            reset_default_store()

    def test_cli_cache_doctor_flags_corruption(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_default_store()
        try:
            self._seed_entries(tmp_path, corrupt_one=True)
            assert main(["cache", "doctor"]) == 1
            assert "1 corrupt" in capsys.readouterr().out
            assert main(["cache", "doctor", "--purge-quarantine"]) == 0
        finally:
            reset_default_store()


class TestCrashConsistency:
    def test_sigkill_mid_put_reopens_clean(self, tmp_path):
        """SIGKILL between payload and sidecar rename: orphan, not damage.

        The child arms a fault that sleeps inside the put's commit
        window (payload renamed into place, sidecar not yet written);
        the parent waits for the payload to appear, SIGKILLs it, and
        asserts the store reopens, sweeps, and keeps working.
        """
        cache = tmp_path / "cache"
        cache.mkdir()
        script = textwrap.dedent(
            """
            import sys
            from pathlib import Path
            import numpy as np
            from repro.engine.store import ArrayCodec, ArtifactStore

            store = ArtifactStore(disk_dir=Path(sys.argv[1]))
            store.put("fp/chunk", np.arange(1000.0), ArrayCodec())
            """
        )
        env = dict(
            os.environ,
            PYTHONPATH=SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""),
            REPRO_FAULTS="store.commit:slow:every=1,delay=60",
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(cache)], env=env
        )
        try:
            deadline = time.monotonic() + 60
            payload = cache / "fp.chunk.npz"
            while not payload.exists():
                assert child.poll() is None, "child exited before the kill"
                assert time.monotonic() < deadline, "payload never appeared"
                time.sleep(0.02)
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait()

        assert payload.exists()
        assert not (cache / "fp.chunk.npz.json").exists()

        reopened = ArtifactStore(disk_dir=cache)  # must not raise
        assert reopened.orphans_swept == 1
        assert reopened.get("fp/chunk", ArrayCodec()) is MISS
        reopened.put("fp/chunk", np.arange(3.0), ArrayCodec())
        fresh = ArtifactStore(disk_dir=cache)
        assert np.array_equal(
            fresh.get("fp/chunk", ArrayCodec()), np.arange(3.0)
        )


# -- the chaos property ----------------------------------------------------

_CONTROL = Report.from_addresses(
    "control", [f"60.{i}.{j}.{k}" for i in range(2) for j in range(6) for k in range(1, 40)]
)
_BASELINE = monte_carlo(
    _CONTROL, 12, 6, np.random.default_rng(77), _block_counts
)

_SITE_KIND = {
    "store.read": "oserror",
    "store.write": "enospc",
    "store.corrupt": "corrupt",
}

_rule_strategy = st.builds(
    lambda site, every, times, after: FaultRule(
        site=site, kind=_SITE_KIND[site], every=every, times=times, after=after
    ),
    site=st.sampled_from(sorted(_SITE_KIND)),
    every=st.integers(min_value=1, max_value=4),
    times=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    after=st.integers(min_value=0, max_value=2),
)


class TestChaosProperty:
    @given(
        rules=st.lists(_rule_strategy, min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_schedule_yields_identical_results_or_typed_error(
        self, rules, seed
    ):
        """No FaultPlan can make the engine return wrong numbers."""
        plan = FaultPlan(rules, seed=seed)
        workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
        try:
            with faults.injected(plan):
                writer = _store(workdir)
                writer.put("fp/reports", _reports(), ReportMappingCodec())
                reader = _store(workdir)
                loaded = reader.get("fp/reports", ReportMappingCodec())
                values = monte_carlo(
                    _CONTROL, 12, 6, np.random.default_rng(77), _block_counts
                )
            # The cache may miss, but it may never lie.
            assert loaded is MISS or loaded == _reports()
            assert np.array_equal(values, _BASELINE)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def test_warm_density_test_identical_under_io_faults(self):
        """The §4 test from a warm, fault-ridden cache: same bits."""
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        unclean = Report.from_addresses(
            "bot", [f"60.0.{j}.{k}" for j in range(3) for k in range(1, 20)]
        )
        baseline = density_test(
            unclean, _CONTROL, rng_a, prefixes=(16, 24, 32), subsets=15
        )
        with faults.injected(FaultPlan.from_spec("io-flaky")):
            shaken = density_test(
                unclean, _CONTROL, rng_b, prefixes=(16, 24, 32), subsets=15
            )
        assert baseline.rows() == shaken.rows()
        assert baseline.hypothesis_holds() == shaken.hypothesis_holds()
