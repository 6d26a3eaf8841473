"""Unit tests for the spatial uncleanliness test (repro.core.density)."""

import numpy as np
import pytest

from repro.core.density import (
    DensityResult,
    control_density_distribution,
    density_curve,
    density_test,
    naive_density_distribution,
)
from repro.core.report import Report
from repro.core.sampling import clear_null_memo


def clustered_report(tag="clustered", blocks=4, per_block=50):
    """Addresses packed into a few /24s (an 'unclean' shape)."""
    addrs = [f"66.10.{b}.{k}" for b in range(blocks) for k in range(1, per_block + 1)]
    return Report.from_addresses(tag, addrs)


def scattered_control(tag="control", count=2000, rng=None):
    """Addresses spread over many /24s (a 'control' shape)."""
    rng = rng or np.random.default_rng(0)
    octets = rng.integers(60, 200, size=count)
    addrs = (
        (octets.astype(np.uint32) << 24)
        | (rng.integers(0, 2**24, size=count, dtype=np.uint32))
    )
    return Report.from_addresses(tag, addrs)


class TestDensityCurve:
    def test_counts(self):
        r = clustered_report(blocks=3, per_block=10)
        curve = density_curve(r, prefixes=(16, 24, 32))
        assert curve == {16: 1, 24: 3, 32: 30}


class TestDistributions:
    def test_control_distribution_shape(self, rng):
        control = scattered_control()
        dist = control_density_distribution(control, 100, (16, 24), 15, rng)
        assert set(dist) == {16, 24}
        assert all(v.shape == (15,) for v in dist.values())

    def test_naive_distribution_shape(self, rng):
        dist = naive_density_distribution(100, (16, 24), 5, rng)
        assert all(v.shape == (5,) for v in dist.values())

    def test_control_counts_bounded_by_size(self, rng):
        control = scattered_control()
        dist = control_density_distribution(control, 100, (24,), 10, rng)
        assert (dist[24] <= 100).all()
        assert (dist[24] >= 1).all()


class TestDensityTest:
    def test_clustered_beats_scattered(self, rng):
        result = density_test(
            clustered_report(),
            scattered_control(),
            rng,
            prefixes=range(16, 33),
            subsets=50,
        )
        assert result.hypothesis_holds()

    def test_scattered_report_fails(self, rng):
        # A random subset of control is NOT denser than control.
        control = scattered_control(count=4000)
        not_unclean = control.sample(200, rng, tag="random")
        result = density_test(
            not_unclean, control, rng, prefixes=(20, 24), subsets=50
        )
        # With ~200 scattered addresses the observed counts sit inside the
        # control distribution, not below all of it.
        assert not all(
            result.observed[n] < result.control[n].q05 for n in (20, 24)
        )

    def test_density_ratio(self, rng):
        result = density_test(
            clustered_report(), scattered_control(), rng, prefixes=(24,), subsets=20
        )
        assert result.density_ratio(24) > 5  # 4 blocks vs ~200

    def test_rows_structure(self, rng):
        result = density_test(
            clustered_report(), scattered_control(), rng, prefixes=(24,), subsets=10
        )
        (row,) = result.rows()
        assert row["prefix"] == 24
        assert row["denser"] is True
        assert "naive_median" not in row

    def test_naive_included_when_requested(self, rng):
        result = density_test(
            clustered_report(),
            scattered_control(),
            rng,
            prefixes=(24,),
            subsets=10,
            include_naive=True,
            naive_subsets=5,
        )
        assert result.naive is not None
        assert result.rows()[0]["naive_median"] > 0

    def test_empty_report_rejected(self, rng):
        with pytest.raises(ValueError):
            density_test(
                Report.from_addresses("empty", []), scattered_control(), rng
            )

    def test_control_smaller_than_report_rejected(self, rng):
        big = clustered_report(blocks=8, per_block=100)
        small_control = scattered_control(count=10)
        with pytest.raises(ValueError):
            density_test(big, small_control, rng)

    def test_deterministic_given_seed(self):
        result1 = density_test(
            clustered_report(), scattered_control(), np.random.default_rng(1),
            prefixes=(20, 24), subsets=10,
        )
        # Forget the memoised null, so the second call draws it again.
        clear_null_memo()
        result2 = density_test(
            clustered_report(), scattered_control(), np.random.default_rng(1),
            prefixes=(20, 24), subsets=10,
        )
        assert result1.control[24].median == result2.control[24].median

    def test_repeat_test_reuses_the_null(self, trial_draws):
        results = [
            density_test(
                clustered_report(), scattered_control(),
                np.random.default_rng(1), prefixes=(20, 24), subsets=10,
            )
            for _ in range(2)
        ]
        assert len(trial_draws) == 1
        assert results[0] == results[1]
