"""Unit and property tests for the Monte-Carlo trial matrix.

The contract under test is *bit-identity* with the per-trial oracles in
:mod:`tests.oracles`: a :func:`draw_trials` row must equal the per-trial
``control.sample`` draw under the same spawned seed, each kernel applied
to the matrix must reproduce the per-trial statistic row for row, and
``monte_carlo`` — through every production null — must match
:func:`~tests.oracles.run_trials` under equal rng states.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cidr as rcidr
from repro.core.blocking import BLOCKING_PREFIXES, monte_carlo_covered_counts
from repro.core.density import control_density_distribution
from repro.core.prediction import control_intersection_distribution
from repro.core.report import Report
from repro.core.sampling import draw_trials, monte_carlo, trial_seed
from repro.core.tracking import UncleanlinessTracker
from repro.ipspace.kernels import (
    block_counts_2d,
    intersection_counts_2d,
    member_counts_2d,
)
from tests.oracles import (
    block_count_vector,
    covered_count_vector,
    intersection_vector,
    list_coverage,
    run_trials,
)

PREFIXES = (16, 20, 24, 28, 32)


@pytest.fixture(scope="module")
def control():
    rng = np.random.default_rng(0xC0FFEE)
    return Report.from_addresses(
        "control",
        np.unique(rng.integers(0, 2**32, size=5000, dtype=np.uint32)),
    )


def reference_subsets(control, size, count, entropy, spawn_key):
    """Per-trial draws the matrix must reproduce row for row."""
    subsets = []
    for index in range(count):
        rng = np.random.default_rng(trial_seed(entropy, spawn_key, index))
        subsets.append(control.sample(size, rng))
    return subsets


def draw(control, size, count, seed):
    root = np.random.SeedSequence(seed)
    return draw_trials(control, size, count, root.entropy, root.spawn_key)


def row_reports(matrix):
    """Each trial row as the ``Report`` a per-trial oracle takes."""
    return [Report.from_addresses(f"trial[{i}]", row) for i, row in enumerate(matrix)]


def block_sets(report, prefixes):
    return tuple(rcidr.cidr_set(report, n) for n in prefixes)


class TestTrialEnsembleDraw:
    """``draw_trials``: the whole trial ensemble as one sorted matrix."""

    def test_rows_match_per_trial_sample(self, control):
        root = np.random.SeedSequence(99)
        matrix = draw_trials(control, 50, 8, root.entropy, root.spawn_key)
        assert matrix.shape == (8, 50)
        assert matrix.dtype == np.uint32
        for index, subset in enumerate(
            reference_subsets(control, 50, 8, root.entropy, root.spawn_key)
        ):
            assert np.array_equal(matrix[index], subset.addresses)

    def test_rows_do_not_depend_on_count(self, control):
        assert np.array_equal(
            draw(control, 30, 4, seed=99), draw(control, 30, 10, seed=99)[:4]
        )

    def test_rejects_oversized_draw(self, control):
        root = np.random.SeedSequence(1)
        with pytest.raises(ValueError):
            draw_trials(control, len(control) + 1, 1, root.entropy, root.spawn_key)

    def test_matrix_is_read_only(self, control):
        matrix = draw(control, 10, 2, seed=1)
        with pytest.raises(ValueError):
            matrix[0, 0] = 0


class TestProtocol:
    """``monte_carlo``'s statistic contract: one call on the whole trial
    matrix, one row back per trial."""

    def test_statistics_satisfy_protocol(self, control):
        present = block_sets(
            Report.from_addresses("present", control.addresses[::5]), PREFIXES
        )
        networks = (rcidr.cidr_set(control, 24)[::3],)
        for statistic, width in (
            (lambda trials: block_counts_2d(trials, PREFIXES), len(PREFIXES)),
            (
                lambda trials: intersection_counts_2d(trials, present, PREFIXES),
                len(PREFIXES),
            ),
            (lambda trials: member_counts_2d(trials, networks, (24,)), 1),
        ):
            values = monte_carlo(
                control, 20, 6, np.random.default_rng(3), statistic
            )
            assert values.shape == (6, width)
            assert values.dtype == float

    def test_plain_callables_are_not_batched(self, control):
        # A 3.x per-trial statistic (Report -> value) must fail loudly,
        # not return a value computed from the whole matrix.
        for statistic in (len, lambda subset: 0, lambda trials: trials[:1]):
            with pytest.raises(ValueError, match="one row per trial"):
                monte_carlo(control, 20, 6, np.random.default_rng(3), statistic)


class TestBatchedEqualsReference:
    """kernel(matrix) == [per-trial oracle(row) for row in matrix]."""

    def test_block_counts(self, control):
        matrix = draw(control, 40, 12, seed=5)
        batched = block_counts_2d(matrix, PREFIXES)
        for index, subset in enumerate(row_reports(matrix)):
            assert list(batched[index]) == block_count_vector(subset, PREFIXES)

    def test_intersections(self, control):
        matrix = draw(control, 40, 12, seed=5)
        present = block_sets(
            Report.from_addresses("present", control.addresses[::5]), PREFIXES
        )
        batched = intersection_counts_2d(matrix, present, PREFIXES)
        for index, subset in enumerate(row_reports(matrix)):
            assert list(batched[index]) == intersection_vector(
                subset, present, PREFIXES
            )

    def test_covered_counts(self, control):
        target = Report.from_addresses("target", control.addresses[::7])
        batched = monte_carlo_covered_counts(
            target, control, 40, 12, np.random.default_rng(5), PREFIXES
        )
        reference = run_trials(
            control, 40, 12, np.random.default_rng(5),
            lambda subset: covered_count_vector(subset, target, PREFIXES),
        )
        assert np.array_equal(batched, reference)

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
        matrix = draw(control, size, 4, seed)
        batched = block_counts_2d(matrix, (16, 24, 32))
        for index, subset in enumerate(row_reports(matrix)):
            assert list(batched[index]) == block_count_vector(subset, (16, 24, 32))

    def test_empty_trial_count(self, control):
        matrix = draw(control, 10, 0, seed=3)
        assert matrix.shape == (0, 10)
        assert block_counts_2d(matrix, PREFIXES).shape == (0, len(PREFIXES))


class TestMonteCarloBatched:
    def test_batched_statistic_matches_per_trial_callable(self, control):
        batched = monte_carlo(
            control, 40, 15, np.random.default_rng(17),
            statistic=lambda trials: block_counts_2d(trials, PREFIXES),
        )
        reference = run_trials(
            control, 40, 15, np.random.default_rng(17),
            lambda subset: block_count_vector(subset, PREFIXES),
        )
        assert np.array_equal(batched, reference)

    def test_prediction_statistic_end_to_end(self, control):
        present = Report.from_addresses("present", control.addresses[::4])
        prefixes = (16, 24, 32)
        present_blocks = block_sets(present, prefixes)
        batched = monte_carlo(
            control, 30, 10, np.random.default_rng(31),
            statistic=lambda trials: intersection_counts_2d(
                trials, present_blocks, prefixes
            ),
        )
        reference = run_trials(
            control, 30, 10, np.random.default_rng(31),
            lambda subset: intersection_vector(subset, present_blocks, prefixes),
        )
        assert np.array_equal(batched, reference)


# -- the production nulls against the per-trial oracle -----------------------

#: A control packed into 62.4.0.0/16, so blocks repeat at every prefix,
#: and a tracker listing sixteen /24s of it.
_CLUSTERED = Report.from_addresses(
    "control",
    np.unique(
        0x3E040000 + np.random.default_rng(0x7AC).integers(0, 1 << 16, size=4000)
    ).astype(np.uint32),
)
_PRESENT_BLOCKS = block_sets(
    Report.from_addresses("present", _CLUSTERED.addresses[::5]), PREFIXES
)
_TARGET = Report.from_addresses("hostile", _CLUSTERED.addresses[::9])
_TRACKER = UncleanlinessTracker()
_TRACKER.update(
    0,
    {
        "bots": Report.from_addresses(
            "bots", [f"62.4.{b}.{i}" for b in range(0, 64, 4) for i in range(1, 5)]
        )
    },
)
SIZE, SUBSETS = 30, 40


def _columns(distribution):
    return np.column_stack([distribution[n] for n in PREFIXES])


#: name -> (the null through its public signature, its per-trial oracle)
NULLS = {
    "density": (
        lambda rng: _columns(
            control_density_distribution(_CLUSTERED, SIZE, PREFIXES, SUBSETS, rng)
        ),
        lambda subset: block_count_vector(subset, PREFIXES),
    ),
    "prediction": (
        lambda rng: _columns(
            control_intersection_distribution(
                _PRESENT_BLOCKS, _CLUSTERED, SIZE, SUBSETS, rng, PREFIXES
            )
        ),
        lambda subset: intersection_vector(subset, _PRESENT_BLOCKS, PREFIXES),
    ),
    "covered-counts": (
        lambda rng: monte_carlo_covered_counts(
            _TARGET, _CLUSTERED, SIZE, SUBSETS, rng, BLOCKING_PREFIXES
        ),
        lambda subset: covered_count_vector(subset, _TARGET, BLOCKING_PREFIXES),
    ),
    "list-coverage": (
        lambda rng: _TRACKER.control_coverage_matrix(
            1, SIZE, _CLUSTERED, rng, subsets=SUBSETS
        ),
        lambda subset: list_coverage(
            subset, _TRACKER.blocklist.active_networks(1), 24
        ),
    ),
}


class TestNullsMatchOracle:
    """Every production Monte-Carlo null, called through its public
    signature, equals the per-trial oracle under equal rng states."""

    @pytest.mark.parametrize("name", sorted(NULLS))
    def test_null_matches_run_trials(self, name):
        null, per_trial = NULLS[name]
        values = null(np.random.default_rng(8))
        reference = run_trials(
            _CLUSTERED, SIZE, SUBSETS, np.random.default_rng(8), per_trial
        )
        assert values.shape == reference.shape
        assert np.array_equal(values, reference)
        assert values.any(), "an all-zero null compares nothing"


# -- speed over the per-trial oracle -----------------------------------------


class TestKernelSpeed:
    """``monte_carlo`` with a kernel runs at least 3x the trials per
    second of :func:`~tests.oracles.run_trials`, for the density and the
    prediction statistic: 100 kernel trials against 25 oracle trials of
    500-address subsets of a 60k-address control, all 17 prefixes."""

    FLOOR = 3.0
    PREFIXES = tuple(rcidr.PREFIX_RANGE)

    @pytest.fixture(scope="class")
    def statistics(self):
        """name -> (control, kernel, per-trial oracle)."""
        rng = np.random.default_rng(0x7219)
        control = Report.from_addresses(
            "control",
            np.unique(rng.integers(0, 2**32, size=60_000, dtype=np.uint32)),
        )
        present = Report.from_addresses("present", control.addresses[::7])
        present_blocks = block_sets(present, self.PREFIXES)
        return control, {
            "density": (
                lambda trials: block_counts_2d(trials, self.PREFIXES),
                lambda subset: block_count_vector(subset, self.PREFIXES),
            ),
            "prediction": (
                lambda trials: intersection_counts_2d(
                    trials, present_blocks, self.PREFIXES
                ),
                lambda subset: intersection_vector(
                    subset, present_blocks, self.PREFIXES
                ),
            ),
        }

    @staticmethod
    def trials_per_second(run, control, trials, statistic):
        start = time.perf_counter()
        run(control, 500, trials, np.random.default_rng(42), statistic)
        return trials / (time.perf_counter() - start)

    @pytest.mark.parametrize("name", ["density", "prediction"])
    def test_kernel_outpaces_per_trial_oracle(self, statistics, name):
        control, by_name = statistics
        kernel, per_trial = by_name[name]
        oracle_rate = self.trials_per_second(run_trials, control, 25, per_trial)
        kernel_rate = self.trials_per_second(monte_carlo, control, 100, kernel)
        assert kernel_rate >= self.FLOOR * oracle_rate
