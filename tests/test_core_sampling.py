"""Unit tests for repro.core.sampling."""

import numpy as np
import pytest

from repro import api
from repro.core import cidr as rcidr
from repro.core import sampling
from repro.core.blocking import monte_carlo_covered_counts
from repro.core.density import control_density_distribution
from repro.core.prediction import control_intersection_distribution
from repro.core.report import Report
from repro.core.sampling import (
    NULL_MEMO_SIZE,
    clear_null_memo,
    empirical_subsets,
    monte_carlo,
    naive_sample,
    trial_seed,
)
from repro.ipspace.addr import first_octet
from repro.ipspace.iana import allocated_octets
from repro.ipspace.kernels import block_counts_2d
from repro.ipspace.reserved import reserved_mask
from repro.obs import metrics as obs_metrics


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


def host_counts(trials):
    """Addresses per trial: each row's /32 block count."""
    return block_counts_2d(trials, (32,))[:, 0]


class TestMonteCarlo:
    def test_statistic_applied_per_subset(self, rng):
        control = Report.from_addresses(
            "control", [f"60.0.0.{k}" for k in range(1, 200)]
        )
        values = monte_carlo(control, 10, 25, rng, statistic=host_counts)
        assert values.shape == (25,)
        assert (values == 10).all()

    def test_deterministic_in_rng_state(self):
        control = Report.from_addresses(
            "control", [f"60.{i}.0.{k}" for i in range(4) for k in range(1, 200)]
        )

        def statistic(trials):
            return block_counts_2d(trials, (16, 24))

        a = monte_carlo(control, 30, 10, np.random.default_rng(5), statistic)
        b = monte_carlo(control, 30, 10, np.random.default_rng(5), statistic)
        assert np.array_equal(a, b)

    def test_invalid_count(self, rng):
        control = Report.from_addresses("control", ["60.0.0.1", "60.0.0.2"])
        with pytest.raises(ValueError):
            monte_carlo(control, 1, 0, rng, statistic=host_counts)


@pytest.fixture(scope="module")
def wide_control():
    """A control report spread across many /16s (Monte-Carlo fodder)."""
    rng = np.random.default_rng(0xFEED)
    addresses = (
        (rng.choice(np.arange(60, 120, dtype=np.uint32), size=4000) << np.uint32(24))
        | rng.integers(0, 1 << 24, size=4000, dtype=np.uint32)
    )
    return Report.from_addresses("control", np.unique(addresses))


def _store_traffic(store):
    """Every lookup (hit or miss) and every write the store has served."""
    return store.memory_hits + store.disk_hits + store.misses, store.puts


class TestMonteCarloIgnoresStore:
    """A Monte-Carlo result depends on its inputs, never on the store."""

    @pytest.mark.parametrize(
        "null",
        [
            lambda target, control, rng: monte_carlo(
                control, 500, 8, rng, lambda trials: block_counts_2d(trials, (16, 24))
            ),
            lambda target, control, rng: monte_carlo_covered_counts(
                target, control, 500, 8, rng, (16, 24)
            ),
        ],
        ids=["block-counts", "covered-counts"],
    )
    def test_second_control_unaffected_by_first(
        self, wide_control, tmp_path, monkeypatch, null
    ):
        from repro.engine.store import default_store, reset_default_store

        # Two equal-tag controls of equal size: only their content differs.
        control_a = Report.from_addresses("control", wide_control.addresses[::2])
        control_b = Report.from_addresses("control", wide_control.addresses[1::2])
        target = Report.from_addresses("target", wide_control.addresses[::5])

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared"))
        reset_default_store()
        try:
            store = default_store()
            before = _store_traffic(store)
            values_a = null(target, control_a, np.random.default_rng(7))
            values_b = null(target, control_b, np.random.default_rng(7))
            assert _store_traffic(store) == before

            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fresh"))
            reset_default_store()
            fresh_b = null(target, control_b, np.random.default_rng(7))
        finally:
            reset_default_store()
        assert np.array_equal(values_b, fresh_b)
        assert not np.array_equal(values_a, values_b)


def null_hits():
    return obs_metrics.registry().counter("mc.null_hits").value


def density_null(control, seed=11, size=200, count=12, prefixes=(16, 24)):
    columns = control_density_distribution(
        control, size, prefixes, count, np.random.default_rng(seed)
    )
    return np.column_stack([columns[n] for n in prefixes])


def intersection_null(
    control, seed=11, size=200, count=12, prefixes=(16, 24), present_step=5
):
    present = Report.from_addresses(
        "present", control.addresses[::present_step]
    )
    columns = control_intersection_distribution(
        tuple(rcidr.cidr_set(present, n) for n in prefixes),
        control, size, count, np.random.default_rng(seed), prefixes,
    )
    return np.column_stack([columns[n] for n in prefixes])


class TestNullMemo:
    """``monte_carlo`` memoises a named statistic's null on its
    content, never on tags, and never changes what a draw returns."""

    def test_hit_equals_a_fresh_draw(self, wide_control, trial_draws):
        drawn = density_null(wide_control)
        hits = null_hits()
        reused = density_null(wide_control)
        assert len(trial_draws) == 1
        assert null_hits() == hits + 1
        assert np.array_equal(reused, drawn)
        clear_null_memo()
        assert np.array_equal(density_null(wide_control), drawn)
        assert len(trial_draws) == 2

    def test_hit_leaves_the_generator_as_a_miss_does(
        self, wide_control, trial_draws
    ):
        rngs = [np.random.default_rng(11) for _ in range(2)]
        for rng in rngs:
            control_density_distribution(wide_control, 200, (16, 24), 12, rng)
        assert len(trial_draws) == 1
        # The hit took the same 16-byte root draw as the miss.
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        nulls = [
            control_density_distribution(wide_control, 150, (16, 24), 12, rng)
            for rng in rngs
        ]
        assert len(trial_draws) == 2
        assert np.array_equal(nulls[0][24], nulls[1][24])

    @pytest.mark.parametrize(
        "null,change",
        [
            (density_null, {"size": 201}),
            (density_null, {"count": 13}),
            (density_null, {"prefixes": (16, 25)}),
            (density_null, {"seed": 12}),
            (intersection_null, {"size": 201}),
            (intersection_null, {"count": 13}),
            (intersection_null, {"prefixes": (16, 25)}),
            (intersection_null, {"present_step": 6}),
            (intersection_null, {"seed": 12}),
        ],
        ids=[
            "density-size", "density-count", "density-prefixes",
            "density-seed",
            "intersection-size", "intersection-count", "intersection-prefixes",
            "intersection-present", "intersection-seed",
        ],
    )
    def test_key_separates(self, wide_control, trial_draws, null, change):
        null(wide_control)
        null(wide_control, **change)
        assert len(trial_draws) == 2
        null(wide_control)
        null(wide_control, **change)
        assert len(trial_draws) == 2

    def test_key_separates_controls_of_one_tag(
        self, wide_control, trial_draws
    ):
        # Equal tag, size and present blocks: only the addresses differ.
        addresses = wide_control.addresses
        present = Report.from_addresses("present", addresses[::5])
        blocks = tuple(rcidr.cidr_set(present, n) for n in (16, 24))
        nulls = []
        for start in (0, 1):
            control = Report.from_addresses("control", addresses[start::2])
            nulls.append(density_null(control))
            control_intersection_distribution(
                blocks, control, 200, 12, np.random.default_rng(11), (16, 24)
            )
        assert len(trial_draws) == 4
        assert not np.array_equal(nulls[0], nulls[1])

    def test_density_and_intersection_keys_differ(
        self, wide_control, trial_draws
    ):
        density_null(wide_control)
        intersection_null(wide_control)
        assert len(trial_draws) == 2

    def test_unnamed_statistics_are_not_memoised(
        self, wide_control, trial_draws
    ):
        for _ in range(2):
            monte_carlo(
                wide_control, 50, 4, np.random.default_rng(3), host_counts
            )
        assert len(trial_draws) == 2

    def test_results_are_read_only(self, wide_control, trial_draws):
        memoised = density_null(wide_control)
        columns = control_density_distribution(
            wide_control, 200, (16, 24), 12, np.random.default_rng(11)
        )
        unnamed = monte_carlo(
            wide_control, 50, 4, np.random.default_rng(3), host_counts
        )
        for values in (columns[24], unnamed):
            with pytest.raises(ValueError):
                values[0] = -1.0
        assert np.array_equal(density_null(wide_control), memoised)

    def test_memo_is_bounded(self, wide_control, trial_draws):
        seeds = range(NULL_MEMO_SIZE + 3)
        for seed in seeds:
            density_null(wide_control, seed=seed, size=20, count=2)
        assert len(sampling._NULLS) == NULL_MEMO_SIZE
        density_null(wide_control, seed=seeds[-1], size=20, count=2)
        assert len(trial_draws) == len(seeds)
        # The oldest entry went first.
        density_null(wide_control, seed=seeds[0], size=20, count=2)
        assert len(trial_draws) == len(seeds) + 1

    def test_clear_scenario_cache_empties_the_memo(
        self, wide_control, trial_draws
    ):
        density_null(wide_control)
        api.clear_scenario_cache()
        density_null(wide_control)
        assert len(trial_draws) == 2


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
