"""Unit tests for repro.core.sampling."""

import multiprocessing
import time
from functools import partial

import numpy as np
import pytest

from repro.core.report import Report
from repro.core.sampling import (
    MonteCarloFailure,
    _mc_checkpoint_prefix,
    _mc_spans,
    empirical_subsets,
    monte_carlo,
    naive_sample,
    resolve_workers,
    trial_seed,
)
from repro.core.trials import _block_count_vector, _intersection_vector
from repro.engine import faults
from repro.core import cidr as rcidr
from repro.ipspace.addr import first_octet
from repro.ipspace.iana import allocated_octets
from repro.ipspace.reserved import reserved_mask


class TestNaiveSample:
    def test_exact_unique_size(self, rng):
        assert len(naive_sample(500, rng)) == 500

    def test_only_allocated_octets(self, rng):
        sample = naive_sample(2000, rng)
        allocated = allocated_octets()
        for address in sample.addresses[:200]:
            assert first_octet(int(address)) in allocated

    def test_no_reserved_addresses(self, rng):
        sample = naive_sample(2000, rng)
        assert not reserved_mask(sample.addresses).any()

    def test_spread_over_octets(self, rng):
        # Uniform-over-/8s: a big sample touches most allocated /8s.
        sample = naive_sample(5000, rng)
        octets = {first_octet(int(a)) for a in sample.addresses}
        assert len(octets) > 0.8 * len(allocated_octets())

    def test_invalid_size(self, rng):
        with pytest.raises(ValueError):
            naive_sample(0, rng)

    def test_deterministic(self):
        s1 = naive_sample(100, np.random.default_rng(3))
        s2 = naive_sample(100, np.random.default_rng(3))
        assert np.array_equal(s1.addresses, s2.addresses)


class TestEmpiricalSubsets:
    @pytest.fixture
    def control(self):
        return Report.from_addresses(
            "control", [f"60.{i}.{j}.{k}" for i in range(4) for j in range(10) for k in range(1, 26)]
        )

    def test_count_and_size(self, control, rng):
        subsets = list(empirical_subsets(control, 50, 7, rng))
        assert len(subsets) == 7
        assert all(len(s) == 50 for s in subsets)

    def test_subsets_of_control(self, control, rng):
        for subset in empirical_subsets(control, 30, 3, rng):
            assert all(a in control for a in subset)

    def test_subsets_differ(self, control, rng):
        a, b = list(empirical_subsets(control, 100, 2, rng))
        assert not np.array_equal(a.addresses, b.addresses)

    def test_invalid_count(self, control, rng):
        with pytest.raises(ValueError):
            list(empirical_subsets(control, 10, 0, rng))

    def test_tags_are_indexed(self, control, rng):
        tags = [s.tag for s in empirical_subsets(control, 5, 3, rng)]
        assert tags == ["control[0]", "control[1]", "control[2]"]


class TestMonteCarlo:
    def test_statistic_applied_per_subset(self, rng):
        control = Report.from_addresses(
            "control", [f"60.0.0.{k}" for k in range(1, 200)]
        )
        values = monte_carlo(control, 10, 25, rng, statistic=len)
        assert values.shape == (25,)
        assert (values == 10).all()

    def test_deterministic_in_rng_state(self):
        control = Report.from_addresses(
            "control", [f"60.{i}.0.{k}" for i in range(4) for k in range(1, 200)]
        )
        a = monte_carlo(control, 30, 10, np.random.default_rng(5), len)
        b = monte_carlo(control, 30, 10, np.random.default_rng(5), len)
        assert np.array_equal(a, b)

    def test_invalid_count(self, rng):
        control = Report.from_addresses("control", ["60.0.0.1", "60.0.0.2"])
        with pytest.raises(ValueError):
            monte_carlo(control, 1, 0, rng, statistic=len)


@pytest.fixture(scope="module")
def wide_control():
    """A control report spread across many /16s (Monte-Carlo fodder)."""
    rng = np.random.default_rng(0xFEED)
    addresses = (
        (rng.choice(np.arange(60, 120, dtype=np.uint32), size=4000) << np.uint32(24))
        | rng.integers(0, 1 << 24, size=4000, dtype=np.uint32)
    )
    return Report.from_addresses("control", np.unique(addresses))


class TestMonteCarloParallel:
    """workers>1 must be bit-identical to serial (spawned seed streams)."""

    def test_parallel_matches_serial_scalar(self, wide_control):
        serial = monte_carlo(
            wide_control, 50, 24, np.random.default_rng(7), len, workers=1
        )
        parallel = monte_carlo(
            wide_control, 50, 24, np.random.default_rng(7), len, workers=4
        )
        assert np.array_equal(serial, parallel)

    def test_parallel_matches_serial_density_statistic(self, wide_control):
        """The Figure 2/3 block-count statistic across processes."""
        statistic = partial(
            _block_count_vector, prefixes=(16, 20, 24, 28, 32)
        )
        serial = monte_carlo(
            wide_control, 80, 20, np.random.default_rng(11), statistic, workers=1
        )
        parallel = monte_carlo(
            wide_control, 80, 20, np.random.default_rng(11), statistic, workers=4
        )
        assert serial.shape == (20, 5)
        assert np.array_equal(serial, parallel)

    def test_parallel_matches_serial_prediction_statistic(self, wide_control):
        """The §5/Table 2 intersection statistic across processes."""
        present = Report.from_addresses(
            "present", wide_control.addresses[::3]
        )
        prefixes = (16, 20, 24)
        statistic = partial(
            _intersection_vector,
            present_blocks=tuple(rcidr.cidr_set(present, n) for n in prefixes),
            prefixes=prefixes,
        )
        serial = monte_carlo(
            wide_control, 60, 20, np.random.default_rng(13), statistic, workers=1
        )
        parallel = monte_carlo(
            wide_control, 60, 20, np.random.default_rng(13), statistic, workers=3
        )
        assert np.array_equal(serial, parallel)

    def test_chunk_size_does_not_change_results(self, wide_control):
        serial = monte_carlo(
            wide_control, 40, 17, np.random.default_rng(3), len, workers=1
        )
        parallel = monte_carlo(
            wide_control, 40, 17, np.random.default_rng(3), len,
            workers=2, chunk_size=5,
        )
        assert np.array_equal(serial, parallel)


class TestWorkerResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers() == 3
        assert resolve_workers(2) == 2  # explicit argument wins

    def test_invalid_explicit_argument_raises(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers(-2)

    @pytest.mark.parametrize("env", ["lots", "2.5", "0", "-3", " -1 "])
    def test_malformed_env_clamps_to_serial(self, monkeypatch, env, caplog):
        """A bad $REPRO_WORKERS warns and runs serial, never raises."""
        monkeypatch.setenv("REPRO_WORKERS", env)
        with caplog.at_level("WARNING", logger="repro.engine.sampling"):
            assert resolve_workers() == 1
        assert caplog.records, "expected a warning for a malformed value"


class TestSpawnedSeedSequences:
    def test_trial_seed_matches_spawn(self):
        root = np.random.SeedSequence(123)
        children = root.spawn(5)
        for index, child in enumerate(children):
            rebuilt = trial_seed(root.entropy, root.spawn_key, index)
            a = np.random.default_rng(child).integers(0, 1 << 30, size=8)
            b = np.random.default_rng(rebuilt).integers(0, 1 << 30, size=8)
            assert np.array_equal(a, b)

    def test_naive_sample_reproducible_under_spawned_seeds(self):
        children = np.random.SeedSequence(5).spawn(2)
        first = naive_sample(300, np.random.default_rng(children[0]))
        again = naive_sample(300, np.random.default_rng(children[0]))
        sibling = naive_sample(300, np.random.default_rng(children[1]))
        assert np.array_equal(first.addresses, again.addresses)
        assert not np.array_equal(first.addresses, sibling.addresses)

    def test_empirical_subsets_reproducible_under_spawned_seeds(self, wide_control):
        children = np.random.SeedSequence(6).spawn(2)
        first = [
            s.addresses
            for s in empirical_subsets(
                wide_control, 40, 3, np.random.default_rng(children[0])
            )
        ]
        again = [
            s.addresses
            for s in empirical_subsets(
                wide_control, 40, 3, np.random.default_rng(children[0])
            )
        ]
        sibling = [
            s.addresses
            for s in empirical_subsets(
                wide_control, 40, 3, np.random.default_rng(children[1])
            )
        ]
        for a, b in zip(first, again):
            assert np.array_equal(a, b)
        assert not np.array_equal(first[0], sibling[0])


def _sleepy_len(report):
    """Hangs only inside pool workers, so serial fallback stays fast."""
    if multiprocessing.parent_process() is not None:
        time.sleep(3.0)
    return len(report)


@pytest.fixture
def fault_env(monkeypatch):
    """Arm a REPRO_FAULTS spec for this test; always disarmed after."""

    def arm(spec):
        monkeypatch.setenv("REPRO_FAULTS", spec)
        faults.reset()

    yield arm
    faults.reset()


@pytest.fixture
def isolated_default_store(tmp_path, monkeypatch):
    from repro.engine.store import reset_default_store

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_default_store()
    yield
    reset_default_store()


class TestSupervisedMonteCarlo:
    """The fault-tolerant parallel path: retries, fallback, checkpoints."""

    def _baseline(self, wide_control, seed=7, size=30, count=18):
        return monte_carlo(
            wide_control, size, count, np.random.default_rng(seed), len, workers=1
        )

    def test_worker_crash_falls_back_to_serial_bit_identical(
        self, wide_control, fault_env, isolated_default_store
    ):
        """A hard-killed worker breaks the pool; results are unchanged."""
        baseline = self._baseline(wide_control)
        arm = fault_env
        arm("worker.crash:every=1")
        survived = monte_carlo(
            wide_control, 30, 18, np.random.default_rng(7), len, workers=2
        )
        assert np.array_equal(baseline, survived)

    def test_failed_chunks_retried_on_fresh_workers(
        self, wide_control, fault_env, isolated_default_store
    ):
        """Intermittent in-worker exceptions heal through chunk retries."""
        baseline = self._baseline(wide_control)
        fault_env("worker.fail:every=2,times=1")
        survived = monte_carlo(
            wide_control, 30, 18, np.random.default_rng(7), len, workers=2
        )
        assert np.array_equal(baseline, survived)

    def test_timed_out_chunks_complete_serially(
        self, wide_control, isolated_default_store
    ):
        """Workers hang, chunks time out, the serial fallback finishes."""
        baseline = self._baseline(wide_control, seed=9, size=20, count=8)
        survived = monte_carlo(
            wide_control, 20, 8, np.random.default_rng(9), _sleepy_len,
            workers=2, chunk_timeout=0.3, max_chunk_retries=0,
        )
        assert np.array_equal(baseline, survived)

    def test_unrecoverable_failure_raises_typed_error(
        self, wide_control, fault_env, isolated_default_store
    ):
        """A fault that also hits the serial fallback surfaces typed."""
        fault_env("worker.fail:every=1")
        with pytest.raises(MonteCarloFailure):
            monte_carlo(
                wide_control, 30, 18, np.random.default_rng(7), len,
                workers=2, max_chunk_retries=0,
            )

    def test_completed_chunks_resume_from_checkpoints(
        self, wide_control, isolated_default_store
    ):
        """Chunk artifacts planted under the run's key are not recomputed."""
        from repro.engine.store import ArrayCodec, MISS, default_store

        draw = np.random.default_rng(21)
        root = np.random.SeedSequence(int.from_bytes(draw.bytes(16), "little"))
        prefix = _mc_checkpoint_prefix(root.entropy, root.spawn_key, 10, 12, len)
        spans = _mc_spans(12, workers=2, chunk_size=4)
        assert spans == [(0, 4), (4, 8), (8, 12)]

        store = default_store()
        planted = np.full(4, 999.0)
        store.put(f"{prefix}/chunk-0-4", planted, ArrayCodec())

        out = monte_carlo(
            wide_control, 10, 12, np.random.default_rng(21), len,
            workers=2, chunk_size=4,
        )
        assert np.array_equal(out[:4], planted)  # resumed, not recomputed
        assert (out[4:] == 10).all()
        # Checkpoints are dropped once the evaluation completes.
        assert store.get(f"{prefix}/chunk-0-4", ArrayCodec()) is MISS

    def test_no_checkpoint_files_left_after_success(
        self, wide_control, isolated_default_store, tmp_path
    ):
        monte_carlo(
            wide_control, 20, 12, np.random.default_rng(3), len, workers=2
        )
        cache = tmp_path / "cache"
        leftovers = [
            p for p in cache.iterdir() if p.name.startswith("mc-")
        ] if cache.is_dir() else []
        assert leftovers == []

    def test_checkpoint_disabled_still_supervises(
        self, wide_control, fault_env, isolated_default_store
    ):
        baseline = self._baseline(wide_control)
        fault_env("worker.crash:every=1")
        survived = monte_carlo(
            wide_control, 30, 18, np.random.default_rng(7), len,
            workers=2, checkpoint=False,
        )
        assert np.array_equal(baseline, survived)

    def test_statistic_tags_distinguish_partials(self):
        from repro.core.sampling import _statistic_tag

        a = partial(_block_count_vector, prefixes=(16, 24))
        b = partial(_block_count_vector, prefixes=(16, 28))
        assert _statistic_tag(a) != _statistic_tag(b)
        assert _statistic_tag(a) == _statistic_tag(
            partial(_block_count_vector, prefixes=(16, 24))
        )

    def test_statistic_tags_distinguish_sanitize_collisions(self):
        """Names that sanitize identically must not share checkpoint keys."""
        from repro.core.sampling import _statistic_tag

        def first(report):
            return 0

        def second(report):
            return 0

        # Both sanitize to "f.x." — only the raw-name hash tells them apart.
        first.__qualname__ = "f(x)"
        second.__qualname__ = "f.x."
        assert _statistic_tag(first) != _statistic_tag(second)
        assert _statistic_tag(first).startswith("f.x.-")

    def test_statistic_tags_use_label_when_present(self):
        from repro.core.sampling import _statistic_tag
        from repro.core.trials import BlockCountStatistic

        tag = _statistic_tag(BlockCountStatistic((16, 24)))
        assert tag.startswith("block-counts.16.24.")
        # Deterministic across instances with equal parameters.
        assert tag == _statistic_tag(BlockCountStatistic((16, 24)))
        assert tag != _statistic_tag(BlockCountStatistic((16, 28)))
