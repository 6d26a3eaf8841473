"""Unit and property tests for the trial-matrix ensemble layer.

The contract under test is *bit-identity*: a :class:`TrialEnsemble` row
must equal the per-trial ``control.sample`` draw under the same spawned
seed, batched statistics must reproduce the per-trial reference values
exactly, and ``monte_carlo`` over a batched statistic must not depend on
the worker count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.report import Report
from repro.core.sampling import monte_carlo
from repro.core.trials import (
    BlockCountStatistic,
    CoveredCountStatistic,
    IntersectionStatistic,
    TrialEnsemble,
    TrialStatistic,
    _block_count_vector,
    _intersection_vector,
    is_batched,
    trial_seed,
)
from repro.core import cidr as rcidr

PREFIXES = (16, 20, 24, 28, 32)


@pytest.fixture(scope="module")
def control():
    rng = np.random.default_rng(0xC0FFEE)
    return Report.from_addresses(
        "control",
        np.unique(rng.integers(0, 2**32, size=5000, dtype=np.uint32)),
    )


def reference_subsets(control, size, count, entropy, spawn_key, start=0):
    """Per-trial draws the ensemble must reproduce row for row."""
    subsets = []
    for index in range(start, start + count):
        rng = np.random.default_rng(trial_seed(entropy, spawn_key, index))
        subsets.append(control.sample(size, rng))
    return subsets


class TestTrialEnsembleDraw:
    def test_rows_match_per_trial_sample(self, control):
        root = np.random.SeedSequence(99)
        ensemble = TrialEnsemble.draw(
            control, 50, 8, root.entropy, root.spawn_key
        )
        for index, subset in enumerate(
            reference_subsets(control, 50, 8, root.entropy, root.spawn_key)
        ):
            assert np.array_equal(ensemble.matrix[index], subset.addresses)

    def test_start_offset_selects_later_trials(self, control):
        root = np.random.SeedSequence(99)
        full = TrialEnsemble.draw(control, 30, 10, root.entropy, root.spawn_key)
        tail = TrialEnsemble.draw(
            control, 30, 4, root.entropy, root.spawn_key, start=6
        )
        assert np.array_equal(tail.matrix, full.matrix[6:])

    def test_trial_view_is_a_report(self, control):
        root = np.random.SeedSequence(7)
        ensemble = TrialEnsemble.draw(control, 20, 3, root.entropy, root.spawn_key)
        report = ensemble.trial(1)
        assert report.tag == "control[1]"
        assert np.array_equal(report.addresses, ensemble.matrix[1])

    def test_rejects_oversized_draw(self, control):
        root = np.random.SeedSequence(1)
        with pytest.raises(ValueError):
            TrialEnsemble.draw(
                control, len(control) + 1, 1, root.entropy, root.spawn_key
            )

    def test_matrix_is_read_only(self, control):
        root = np.random.SeedSequence(1)
        ensemble = TrialEnsemble.draw(control, 10, 2, root.entropy, root.spawn_key)
        with pytest.raises(ValueError):
            ensemble.matrix[0, 0] = 0


class TestProtocol:
    def test_statistics_satisfy_protocol(self):
        assert isinstance(BlockCountStatistic(PREFIXES), TrialStatistic)
        assert is_batched(BlockCountStatistic(PREFIXES))

    def test_plain_callables_are_not_batched(self):
        assert not is_batched(len)
        assert not is_batched(lambda subset: 0)


class TestBatchedEqualsReference:
    """statistic.batch(ensemble) == [statistic.per_trial(t) for t in trials]."""

    def _ensemble(self, control, size=40, count=12, seed=5):
        root = np.random.SeedSequence(seed)
        return TrialEnsemble.draw(
            control, size, count, root.entropy, root.spawn_key
        )

    def test_block_counts(self, control):
        ensemble = self._ensemble(control)
        statistic = BlockCountStatistic(PREFIXES)
        batched = statistic.batch(ensemble)
        for index in range(len(ensemble)):
            assert list(batched[index]) == statistic.per_trial(
                ensemble.trial(index)
            )

    def test_intersections(self, control):
        ensemble = self._ensemble(control)
        present = Report.from_addresses("present", control.addresses[::5])
        statistic = IntersectionStatistic(
            prefixes=PREFIXES,
            present_blocks=tuple(
                rcidr.cidr_set(present, n) for n in PREFIXES
            ),
        )
        batched = statistic.batch(ensemble)
        for index in range(len(ensemble)):
            assert list(batched[index]) == statistic.per_trial(
                ensemble.trial(index)
            )

    def test_covered_counts(self, control):
        ensemble = self._ensemble(control)
        target = Report.from_addresses("target", control.addresses[::7])
        statistic = CoveredCountStatistic.for_report(target, PREFIXES)
        batched = statistic.batch(ensemble)
        for index in range(len(ensemble)):
            assert list(batched[index]) == statistic.per_trial(
                ensemble.trial(index)
            )

    @given(
        st.lists(
            st.integers(min_value=0, max_value=0xFFFFFFFF),
            min_size=1,
            max_size=120,
            unique=True,
        ),
        st.integers(min_value=0, max_value=2**30),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_counts_for_random_controls(self, addrs, seed):
        # Exercises tiny controls, /32 saturation (size == |control|) and
        # clustered duplicates-of-blocks cases hypothesis finds.
        control = Report.from_addresses("c", np.asarray(addrs, dtype=np.uint32))
        size = max(1, len(control) // 2)
        root = np.random.SeedSequence(seed)
        ensemble = TrialEnsemble.draw(
            control, size, 4, root.entropy, root.spawn_key
        )
        statistic = BlockCountStatistic((16, 24, 32))
        batched = statistic.batch(ensemble)
        for index in range(len(ensemble)):
            assert list(batched[index]) == statistic.per_trial(
                ensemble.trial(index)
            )

    def test_empty_trial_count(self, control):
        root = np.random.SeedSequence(3)
        ensemble = TrialEnsemble.draw(control, 10, 0, root.entropy, root.spawn_key)
        out = BlockCountStatistic(PREFIXES).batch(ensemble)
        assert out.shape == (0, len(PREFIXES))


class TestMonteCarloBatched:
    def test_batched_statistic_matches_per_trial_callable(self, control):
        batched = monte_carlo(
            control, 40, 15, np.random.default_rng(17),
            statistic=BlockCountStatistic(PREFIXES),
        )
        reference = monte_carlo(
            control, 40, 15, np.random.default_rng(17),
            statistic=lambda subset: _block_count_vector(subset, PREFIXES),
        )
        assert np.array_equal(batched, reference)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_invariance(self, control, workers):
        serial = monte_carlo(
            control, 40, 15, np.random.default_rng(17),
            statistic=BlockCountStatistic(PREFIXES), workers=1,
        )
        parallel = monte_carlo(
            control, 40, 15, np.random.default_rng(17),
            statistic=BlockCountStatistic(PREFIXES), workers=workers,
        )
        assert np.array_equal(serial, parallel)

    def test_chunk_size_invariance(self, control):
        one = monte_carlo(
            control, 25, 13, np.random.default_rng(29),
            statistic=BlockCountStatistic(PREFIXES), workers=2, chunk_size=4,
        )
        other = monte_carlo(
            control, 25, 13, np.random.default_rng(29),
            statistic=BlockCountStatistic(PREFIXES), workers=2, chunk_size=7,
        )
        assert np.array_equal(one, other)

    def test_prediction_statistic_end_to_end(self, control):
        present = Report.from_addresses("present", control.addresses[::4])
        prefixes = (16, 24, 32)
        statistic = IntersectionStatistic(
            prefixes=prefixes,
            present_blocks=tuple(rcidr.cidr_set(present, n) for n in prefixes),
        )
        batched = monte_carlo(
            control, 30, 10, np.random.default_rng(31), statistic=statistic
        )
        reference = monte_carlo(
            control, 30, 10, np.random.default_rng(31),
            statistic=lambda s: _intersection_vector(
                s, statistic.present_blocks, prefixes
            ),
        )
        assert np.array_equal(batched, reference)
