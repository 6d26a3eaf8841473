"""Tests for the scenario-pack library and its end-to-end threading.

Covers the registry contract, the bit-identity of the identity pack,
every built-in pack running through the evaluate/compare/fleet APIs, the
per-AS vantage shards, and the headline behavioural claim: at least one
pack reorders the predictor leaderboard relative to the paper's world.
"""

import numpy as np
import pytest

from repro import api
from repro.core.scenario import ScenarioConfig
from repro.scenarios import (
    BUILTIN_PACK_NAMES,
    ScenarioPack,
    get_pack,
    list_packs,
    pack_names,
    register_pack,
)
from repro.scenarios import packs as packs_module


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTIN_PACK_NAMES) == {
            "paper-default",
            "attack-wave",
            "dhcp-churn",
            "prefix-reassignment",
            "slow-scanner-flood",
            "sinkhole-takedown",
        }
        assert pack_names() == sorted(BUILTIN_PACK_NAMES)
        assert [p.name for p in list_packs()] == pack_names()

    def test_unknown_pack_lists_names(self):
        with pytest.raises(KeyError, match="attack-wave"):
            get_pack("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_pack(ScenarioPack(
                name="paper-default", description="dup", transform=lambda c: c
            ))

    def test_register_and_use_custom_pack(self):
        name = "test-custom-pack"
        try:
            register_pack(ScenarioPack(
                name=name,
                description="shifted seed",
                transform=lambda c: c,
            ))
            assert get_pack(name).build(small=True) == ScenarioConfig.small()
        finally:
            packs_module._PACKS.pop(name, None)


class TestBuild:
    @pytest.mark.parametrize("name", BUILTIN_PACK_NAMES)
    def test_every_pack_builds_and_validates(self, name):
        config = get_pack(name).build(small=True)
        config.validate()
        if name == "paper-default":
            assert config.fingerprint() == ScenarioConfig.small().fingerprint()
        else:
            assert config.fingerprint() != ScenarioConfig.small().fingerprint()

    def test_seed_override(self):
        config = get_pack("dhcp-churn").build(small=True, seed=99)
        assert config.seed == 99

    def test_base_and_small_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            get_pack("dhcp-churn").build(ScenarioConfig(), small=True)

    def test_build_over_explicit_base(self):
        base = ScenarioConfig.small(seed=4)
        config = get_pack("slow-scanner-flood").build(base)
        assert config.seed == 4
        assert config.traffic.slow_scanner_fraction == 0.85

    def test_invalid_pack_fails_at_build(self):
        bad = ScenarioPack(
            name="bad", description="broken",
            transform=lambda c: ScenarioConfig(control_size=-1),
        )
        with pytest.raises(ValueError, match="control_size"):
            bad.build(small=True)


class TestEndToEnd:
    @pytest.mark.parametrize("name", BUILTIN_PACK_NAMES)
    def test_pack_runs_through_evaluate(self, name):
        run = api.run_pack(name, small=True)
        result = api.evaluate(run, metric="prediction", subsets=10)
        assert result.past_tag == "bot-test"
        assert set(result.observed) == set(result.prefixes)

    def test_run_pack_warm_rerun_skips_simulation(self):
        from repro.core.stages import scenario_engine

        api.run_pack("dhcp-churn", small=True).scenario.reports
        engine = scenario_engine()
        before = dict(engine.build_counts)
        api.run_pack("dhcp-churn", small=True).scenario.reports
        assert engine.build_counts == before

    def test_identity_pack_resolves_warm_with_zero_builds(self):
        from repro.core.scenario import PaperScenario
        from repro.core.stages import scenario_engine

        PaperScenario(ScenarioConfig.small()).reports
        engine = scenario_engine()
        before = dict(engine.build_counts)
        PaperScenario(get_pack("paper-default").build(small=True)).reports
        assert engine.build_counts == before

    def test_evaluate_pack_keyword(self):
        # pack= over the default base matches run_pack explicitly.
        direct = api.evaluate(
            api.run_pack("sinkhole-takedown", small=True),
            metric="prediction", subsets=10,
        )
        keyed = api.evaluate(
            ScenarioConfig.small(), metric="prediction", subsets=10,
            pack="sinkhole-takedown",
        )
        assert direct.observed == keyed.observed

    def test_compare_pack_keyword(self):
        result = api.compare(
            ScenarioConfig.small(), ["uncleanliness"], subsets=10,
            pack="slow-scanner-flood",
        )
        assert result.names() == ["uncleanliness"]

    def test_fleet_over_pack_world(self):
        result = api.run_fleet(count=2, small=True, pack="dhcp-churn")
        assert len(result.clearinghouse.available) == 2
        manifest = result.manifest()
        assert all(
            entry["status"] == "ok" for entry in manifest["shards"].values()
        )

    def test_run_fleet_rejects_pack_with_explicit_fleet(self):
        from repro.fleet import heterogeneous_fleet

        fleet = heterogeneous_fleet(2)
        with pytest.raises(ValueError, match="fleet=None"):
            api.run_fleet(fleet, pack="dhcp-churn")


class TestVantageShards:
    def test_vantage_requires_as_world(self):
        from repro.fleet import heterogeneous_fleet

        with pytest.raises(ValueError, match="AS-structured"):
            heterogeneous_fleet(2, vantage="as")

    def test_vantage_fleet_fingerprint_differs(self):
        from repro.fleet import heterogeneous_fleet

        plain = heterogeneous_fleet(2, pack="attack-wave")
        pinned = heterogeneous_fleet(2, pack="attack-wave", vantage="as")
        assert plain.fingerprint() != pinned.fingerprint()
        assert [s.vantage_as for s in pinned.shards] == [0, 1]

    def test_observed_feeds_restricted_provided_global(self):
        from repro.fleet import heterogeneous_fleet
        from repro.fleet.supervisor import scenario_reports

        fleet = heterogeneous_fleet(3, pack="attack-wave", vantage="as")
        shard = fleet.shards[2]
        limited = scenario_reports(shard, fleet.feed_tags)
        full = scenario_reports(
            type(shard)(name=shard.name, config=shard.config),
            fleet.feed_tags,
        )
        scenario = api.run_scenario(shard.config).scenario
        internet = scenario.internet
        vantage16 = internet.slash16[
            internet.topology.as_of_net16 == shard.vantage_as
        ]
        for tag in ("scan", "spam", "control"):
            addresses = limited[tag].addresses
            assert np.isin(
                addresses & np.uint32(0xFFFF0000), vantage16
            ).all()
            assert len(limited[tag]) <= len(full[tag])
        for tag in ("bot", "phish", "bot-test"):
            assert np.array_equal(
                limited[tag].addresses, full[tag].addresses
            )

    def test_vantage_fleet_end_to_end(self):
        result = api.run_fleet(
            count=2, small=True, pack="attack-wave", vantage="as"
        )
        assert len(result.clearinghouse.available) == 2


class TestPackChangesConclusions:
    def test_attack_wave_reorders_predictor_ranking(self):
        """An AS-structured wave world demotes the recommender.

        In the paper's flat world the leaderboard is recommender >
        uncleanliness > graphcluster; under ``attack-wave`` arrivals
        come in deep four-week bursts, so the recommender's
        exponentially-decayed co-occurrence evidence is stale by test
        time and it drops to the bottom.  The exact AUCs are
        scale-dependent; the *order* changing is the point — a pack is
        a world in which the paper's conclusions can flip.
        """
        baseline = api.compare(
            api.run_pack("paper-default", small=True), subsets=40
        )
        wave = api.compare(
            api.run_pack("attack-wave", small=True), subsets=40
        )
        baseline_order = [name for name, _ in baseline.auc_ranking()]
        wave_order = [name for name, _ in wave.auc_ranking()]
        assert baseline_order != wave_order
        assert baseline_order[0] == "recommender"
        assert wave_order[-1] == "recommender"
