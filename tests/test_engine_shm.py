"""Tests for the shared-memory Monte-Carlo handoff."""

import os

import numpy as np
import pytest

from repro.core import cidr as rcidr
from repro.core.report import DataClass, Report, ReportType
from repro.core.sampling import (
    SHM_ENV,
    _prepare_shipment,
    _resolve_shipment,
    _SharedReport,
    _SharedStatistic,
    monte_carlo,
)
from repro.core.trials import BlockCountStatistic, IntersectionStatistic
from repro.engine import shm

pytestmark = pytest.mark.skipif(
    not shm.available(), reason="no multiprocessing.shared_memory"
)


@pytest.fixture(autouse=True)
def _clean_attachments():
    yield
    shm.detach_all()


@pytest.fixture
def shm_on(monkeypatch):
    monkeypatch.setenv(SHM_ENV, "1")


def make_report(seed=1, n=5000, tag="control"):
    rng = np.random.default_rng(seed)
    addrs = np.unique(rng.integers(0, 1 << 32, n, dtype=np.uint32))
    return Report(
        tag=tag,
        addresses=addrs,
        report_type=ReportType.OBSERVED,
        data_class=DataClass.NONE,
    )


class TestSharedPack:
    def test_roundtrip_multiple_dtypes(self):
        arrays = {
            "a": np.arange(100, dtype=np.uint32),
            "b": np.linspace(0, 1, 17),
            "c": np.asarray([], dtype=np.int64),
            "d": np.ones((3, 5), dtype=np.uint8),
        }
        pack = shm.SharedPack.create(arrays)
        try:
            views = shm.attach(pack.handle)
            for key, array in arrays.items():
                assert np.array_equal(views[key], array), key
                assert views[key].dtype == array.dtype
                assert not views[key].flags.writeable
        finally:
            shm.detach_all()
            pack.unlink()

    def test_handle_is_small_and_picklable(self):
        import pickle

        big = {"matrix": np.zeros((500, 500), dtype=np.uint32)}
        pack = shm.SharedPack.create(big)
        try:
            payload = pickle.dumps(pack.handle)
            assert len(payload) < 1000  # vs ~1MB for the array itself
        finally:
            pack.unlink()

    def test_attach_is_cached_per_process(self):
        pack = shm.SharedPack.create({"x": np.arange(10)})
        try:
            first = shm.attach(pack.handle)
            second = shm.attach(pack.handle)
            assert first["x"] is second["x"]
        finally:
            shm.detach_all()
            pack.unlink()

    def test_alignment(self):
        # Mixed-width arrays must each start on an aligned offset.
        pack = shm.SharedPack.create(
            {"a": np.ones(3, dtype=np.uint8), "b": np.ones(4, dtype=np.float64)}
        )
        try:
            offsets = {key: off for key, _, _, off in pack.handle.entries}
            assert offsets["b"] % 64 == 0
            views = shm.attach(pack.handle)
            assert np.array_equal(views["b"], np.ones(4))
        finally:
            shm.detach_all()
            pack.unlink()


class TestShipment:
    def test_control_ships_by_handle(self, shm_on):
        control = make_report()
        stat = BlockCountStatistic(prefixes=(8, 16))
        shipped_control, shipped_stat, pack = _prepare_shipment(control, stat)
        assert pack is not None
        try:
            assert isinstance(shipped_control, _SharedReport)
            # No shared arrays on this statistic: ships as-is.
            assert shipped_stat is stat
            resolved, _ = _resolve_shipment(shipped_control, shipped_stat)
            assert np.array_equal(resolved.addresses, control.addresses)
            assert resolved.tag == control.tag
            assert resolved.report_type == control.report_type
        finally:
            shm.detach_all()
            pack.unlink()

    def test_statistic_arrays_ship_by_handle(self, shm_on):
        control = make_report()
        present = make_report(seed=2, tag="present")
        prefixes = (8, 16, 24)
        stat = IntersectionStatistic(
            prefixes=prefixes,
            present_blocks=tuple(rcidr.cidr_set(present, n) for n in prefixes),
        )
        shipped_control, shipped_stat, pack = _prepare_shipment(control, stat)
        assert pack is not None
        try:
            assert isinstance(shipped_stat, _SharedStatistic)
            # The stripped statistic pickles without the block arrays.
            import pickle

            assert len(pickle.dumps(shipped_stat)) < 2000
            _, resolved = _resolve_shipment(shipped_control, shipped_stat)
            for mine, theirs in zip(resolved.present_blocks, stat.present_blocks):
                assert np.array_equal(mine, theirs)
        finally:
            shm.detach_all()
            pack.unlink()

    def test_env_gate_disables(self, monkeypatch):
        monkeypatch.setenv(SHM_ENV, "0")
        control = make_report()
        stat = BlockCountStatistic(prefixes=(8,))
        shipped_control, shipped_stat, pack = _prepare_shipment(control, stat)
        assert pack is None
        assert shipped_control is control
        assert shipped_stat is stat


class TestMonteCarloBitIdentity:
    """The handoff transport must never change the result bits."""

    def _run(self, statistic, workers, monkeypatch, shm_env):
        monkeypatch.setenv(SHM_ENV, shm_env)
        rng = np.random.default_rng(4242)
        return monte_carlo(
            make_report(n=20_000), 800, 12, rng, statistic,
            workers=workers, checkpoint=False,
        )

    def test_blockcount_shm_vs_pickle_vs_serial(self, monkeypatch):
        stat = BlockCountStatistic(prefixes=(8, 16, 24))
        serial = self._run(stat, 1, monkeypatch, "1")
        assert np.array_equal(serial, self._run(stat, 2, monkeypatch, "1"))
        assert np.array_equal(serial, self._run(stat, 2, monkeypatch, "0"))
        assert np.array_equal(serial, self._run(stat, 3, monkeypatch, "1"))

    def test_intersection_shm_vs_pickle_vs_serial(self, monkeypatch):
        present = make_report(seed=7, tag="present")
        prefixes = (8, 16, 24)
        stat = IntersectionStatistic(
            prefixes=prefixes,
            present_blocks=tuple(rcidr.cidr_set(present, n) for n in prefixes),
        )
        serial = self._run(stat, 1, monkeypatch, "1")
        assert np.array_equal(serial, self._run(stat, 2, monkeypatch, "1"))
        assert np.array_equal(serial, self._run(stat, 2, monkeypatch, "0"))

    def test_no_leaked_segments(self, monkeypatch):
        stat = BlockCountStatistic(prefixes=(8,))
        self._run(stat, 2, monkeypatch, "1")
        leaked = [
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("psm_")
        ] if os.path.isdir("/dev/shm") else []
        assert leaked == []

    def test_worker_crash_recovery_under_shm(self, monkeypatch):
        stat = BlockCountStatistic(prefixes=(8, 16))
        clean = self._run(stat, 2, monkeypatch, "1")
        monkeypatch.setenv("REPRO_FAULTS", "worker.crash:every=1,times=2")
        crashed = self._run(stat, 2, monkeypatch, "1")
        assert np.array_equal(clean, crashed)
