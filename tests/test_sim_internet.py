"""Unit tests for repro.sim.internet."""

import numpy as np
import pytest

from repro.ipspace.iana import allocated_octets
from repro.ipspace.reserved import reserved_mask
from repro.sim.internet import InternetConfig, SyntheticInternet


class TestConfig:
    def test_defaults_valid(self):
        InternetConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_slash16", 0),
            ("mean_occupancy", 0.0),
            ("mean_occupancy", 1.5),
            ("hosting_fraction", -0.1),
            ("mean_hosts", 0.5),
            ("observed_octet", 300),
        ],
    )
    def test_invalid_rejected(self, field, value):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(InternetConfig(), **{field: value}).validate()


class TestStructure:
    def test_networks_are_slash24_aligned(self, tiny_internet):
        assert (tiny_internet.net24 & 0xFF == 0).all()

    def test_networks_sorted_unique(self, tiny_internet):
        nets = tiny_internet.net24
        assert (np.diff(nets.astype(np.int64)) > 0).all()

    def test_networks_in_allocated_space(self, tiny_internet):
        allocated = allocated_octets()
        octets = set((tiny_internet.net24 >> 24).tolist())
        assert octets <= allocated

    def test_observed_octet_excluded(self, tiny_internet):
        observed = tiny_internet.config.observed_octet
        assert observed not in set((tiny_internet.net24 >> 24).tolist())

    def test_no_reserved_networks(self, tiny_internet):
        assert not reserved_mask(tiny_internet.net24).any()

    def test_uncleanliness_in_unit_interval(self, tiny_internet):
        assert (tiny_internet.uncleanliness >= 0).all()
        assert (tiny_internet.uncleanliness <= 1).all()

    def test_uncleanliness_mostly_clean(self, tiny_internet):
        # Heavy-tailed: the median network is much cleaner than the worst.
        u = tiny_internet.uncleanliness
        assert np.median(u) < 0.25
        assert u.max() > 0.5

    def test_populations_in_host_range(self, tiny_internet):
        assert (tiny_internet.population >= 1).all()
        assert (tiny_internet.population <= 254).all()

    def test_uncleanliness_clusters_within_slash16(self):
        # Variance of per-/16 mean uncleanliness should exceed what
        # shuffling the /24s would produce — i.e. dirt is not i.i.d.
        internet = SyntheticInternet(
            InternetConfig(num_slash16=120), np.random.default_rng(5)
        )
        idx = internet._net16_index
        u = internet.uncleanliness
        group_means = np.asarray(
            [u[idx == g].mean() for g in np.unique(idx) if (idx == g).sum() >= 4]
        )
        rng = np.random.default_rng(6)
        shuffled = u.copy()
        rng.shuffle(shuffled)
        shuffled_means = np.asarray(
            [shuffled[idx == g].mean() for g in np.unique(idx) if (idx == g).sum() >= 4]
        )
        assert group_means.var() > 2 * shuffled_means.var()

    def test_hosting_blocks_cleaner(self):
        internet = SyntheticInternet(
            InternetConfig(num_slash16=400, hosting_fraction=0.15),
            np.random.default_rng(7),
        )
        if internet.hosting.any() and (~internet.hosting).any():
            assert (
                internet.uncleanliness[internet.hosting].mean()
                < internet.uncleanliness[~internet.hosting].mean()
            )

    def test_deterministic_given_seed(self):
        config = InternetConfig(num_slash16=30)
        a = SyntheticInternet(config, np.random.default_rng(42))
        b = SyntheticInternet(config, np.random.default_rng(42))
        assert np.array_equal(a.net24, b.net24)
        assert np.array_equal(a.uncleanliness, b.uncleanliness)


class TestLookups:
    def test_network_of_hit(self, tiny_internet):
        address = int(tiny_internet.net24[3]) + 7
        assert tiny_internet.network_of(address) == 3

    def test_network_of_miss(self, tiny_internet):
        # The observed network is never in the external population.
        inside = tiny_internet.observed_network.first_address + 1
        assert tiny_internet.network_of(inside) is None

    def test_is_observed(self, tiny_internet):
        inside = tiny_internet.observed_network.first_address + 99
        assert tiny_internet.is_observed(inside)
        assert not tiny_internet.is_observed(int(tiny_internet.net24[0]) + 1)

    def test_host_addresses(self, tiny_internet):
        hosts = tiny_internet.host_addresses(0)
        assert hosts.size == int(tiny_internet.population[0])
        assert (hosts & 0xFFFFFF00 == tiny_internet.net24[0]).all()
        assert (hosts & 0xFF >= 1).all()
        assert np.unique(hosts).size == hosts.size

    def test_host_offsets_spread_and_injective(self):
        from repro.sim.internet import SyntheticInternet

        offsets = SyntheticInternet.host_offsets(np.arange(254))
        assert np.unique(offsets).size == 254
        assert offsets.min() == 1 and offsets.max() == 254
        # A small population is NOT packed into one /28.
        few = SyntheticInternet.host_offsets(np.arange(16))
        assert np.unique(few // 16).size > 8


def union1d_sample_unique_hosts(internet, count, rng, max_rounds=12):
    """``sample_unique_hosts`` as written with ``np.union1d``."""
    seen = np.asarray([], dtype=np.uint32)
    for _ in range(max_rounds):
        need = count - seen.size
        if need <= 0:
            break
        seen = np.union1d(seen, internet.sample_hosts(max(need * 2, 64), rng))
    assert seen.size >= count
    return rng.choice(seen, size=count, replace=False)


class TestSampling:
    def test_sample_hosts_live(self, tiny_internet, rng):
        sample = tiny_internet.sample_hosts(500, rng)
        for address in sample[:50]:
            idx = tiny_internet.network_of(int(address))
            assert idx is not None
            assert int(address) in tiny_internet.host_addresses(idx)

    def test_sample_unique_hosts(self, tiny_internet, rng):
        count = min(300, tiny_internet.total_population // 2)
        sample = tiny_internet.sample_unique_hosts(count, rng)
        assert sample.size == count
        assert np.unique(sample).size == count

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("share", [0.3, 0.8])
    def test_sample_unique_hosts_equals_union1d_loop(
        self, tiny_internet, seed, share, monkeypatch
    ):
        count = int(tiny_internet.total_population * share)
        expected = union1d_sample_unique_hosts(
            tiny_internet, count, np.random.default_rng(seed)
        )
        rounds = []
        sample_hosts = tiny_internet.sample_hosts

        def counted(*args, **kwargs):
            rounds.append(args)
            return sample_hosts(*args, **kwargs)

        monkeypatch.setattr(tiny_internet, "sample_hosts", counted)
        got = tiny_internet.sample_unique_hosts(count, np.random.default_rng(seed))
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        # Drawing 80% of the hosts takes more than one round, 30% one.
        assert (len(rounds) > 1) == (share > 0.5)

    @pytest.mark.parametrize("share", [0.85, 0.9, 1.0])
    def test_sample_unique_hosts_past_the_rounds(
        self, tiny_internet, share, monkeypatch
    ):
        # Twelve rounds of 2 * need draws leave hosts missing at these
        # shares; the rest come from the hosts not yet seen.
        count = int(tiny_internet.total_population * share)
        missing = []
        sample_unseen = tiny_internet._sample_unseen

        def counted(need, *args):
            missing.append(need)
            return sample_unseen(need, *args)

        monkeypatch.setattr(tiny_internet, "_sample_unseen", counted)
        sample = tiny_internet.sample_unique_hosts
        got = sample(count, np.random.default_rng(4))
        assert missing and missing[0] > 0
        assert got.size == count
        assert np.unique(got).size == count
        nets = (got & np.uint32(0xFFFFFF00)).astype(np.uint32)
        index = np.searchsorted(tiny_internet.net24, nets)
        assert np.array_equal(tiny_internet.net24[index], nets)
        slots = (got & np.uint32(0xFF)) - 1
        # Slot k sits at offset 1 + 167k mod 254: invert the stride.
        slot = (slots.astype(np.int64) * pow(167, -1, 254)) % 254
        assert (slot < tiny_internet.population[index]).all()
        assert np.array_equal(got, sample(count, np.random.default_rng(4)))

    def test_sample_unique_hosts_every_weighted_host(self, tiny_internet):
        # Skewed weights with half the /24s at zero: every host the
        # weights reach, and none they do not.
        weights = tiny_internet.compromise_weights(affinity=2.0)
        weights[::2] = 0.0
        reach = int(tiny_internet.population[weights > 0].sum())
        got = tiny_internet.sample_unique_hosts(
            reach, np.random.default_rng(5), weights
        )
        assert np.unique(got).size == reach
        index = np.searchsorted(
            tiny_internet.net24, got & np.uint32(0xFFFFFF00)
        )
        assert (weights[index] > 0).all()

    def test_sample_unique_too_many(self, tiny_internet, rng):
        with pytest.raises(ValueError):
            tiny_internet.sample_unique_hosts(
                tiny_internet.total_population + 1, rng
            )

    def test_sample_unique_beyond_weight_reach_fails_before_drawing(
        self, tiny_internet
    ):
        weights = tiny_internet.population.astype(np.float64)
        weights[::2] = 0.0
        reach = int(tiny_internet.population[weights > 0].sum())
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="reach"):
            tiny_internet.sample_unique_hosts(reach + 1, rng, weights)
        assert rng.bit_generator.state == state

    def test_sample_invalid_count(self, tiny_internet, rng):
        with pytest.raises(ValueError):
            tiny_internet.sample_hosts(0, rng)

    def test_compromise_weights_favour_unclean(self, tiny_internet, rng):
        weights = tiny_internet.compromise_weights(affinity=2.0)
        sample = tiny_internet.sample_hosts(2000, rng, weights)
        sampled_u = []
        for address in sample:
            idx = tiny_internet.network_of(int(address))
            sampled_u.append(tiny_internet.uncleanliness[idx])
        assert np.mean(sampled_u) > 2 * tiny_internet.uncleanliness.mean()

    def test_hosting_weights_favour_hosting(self):
        internet = SyntheticInternet(
            InternetConfig(num_slash16=400, hosting_fraction=0.1),
            np.random.default_rng(8),
        )
        weights = internet.hosting_weights()
        hosting_share = weights[internet.hosting].sum() / weights.sum()
        raw_share = internet.hosting.mean()
        assert hosting_share > 3 * raw_share

    def test_zero_weights_rejected(self, tiny_internet, rng):
        with pytest.raises(ValueError):
            tiny_internet.sample_hosts(
                10, rng, np.zeros(tiny_internet.num_networks)
            )
