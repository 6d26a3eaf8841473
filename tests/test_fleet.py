"""Tests for the sharded fleet supervisor and the clearinghouse."""

import datetime

import numpy as np
import pytest

from repro.core import folds
from repro.core.report import Report
from repro.core.uncleanliness import UncleanlinessScorer
from repro.engine import faults
from repro.engine.store import ArtifactStore
from repro.fleet import (
    Clearinghouse,
    FleetConfig,
    FleetFailure,
    FleetSupervisor,
    NetworkShard,
    QuorumError,
    ShardFeed,
    delivery_checksum,
    heterogeneous_fleet,
    synthetic_reports,
)
from repro.fleet.shard import FLEET_FEED_TAGS


@pytest.fixture(autouse=True)
def quiet_faults():
    """Run each test under an empty plan so the chaos CI legs' env
    profiles cannot perturb determinism-sensitive assertions; tests
    that want the env profile call ``faults.reset()`` themselves."""
    faults.reset()
    with faults.injected(faults.FaultPlan([])):
        yield
    faults.reset()


def small_fleet(count=3, **policy):
    return heterogeneous_fleet(count, seed=7, small=True, **policy)


def run_synthetic(config, **kwargs):
    kwargs.setdefault("runner", synthetic_reports)
    kwargs.setdefault("checkpoint", False)
    return FleetSupervisor(config, **kwargs).run()


def reference_scores(feeds, prefix_len=24):
    """Pool feeds directly through the scorer (the fleet-free path)."""
    class_reports = {}
    for tag, cls in folds.CLASS_OF_TAG.items():
        merged = np.unique(
            np.concatenate([f.reports[tag].addresses for f in feeds])
        )
        template = feeds[0].reports[tag]
        class_reports[cls] = type(template)(
            tag=tag,
            addresses=merged,
            report_type=template.report_type,
            data_class=template.data_class,
            period=template.period,
        )
    weights = dict(folds.DEFAULT_CLASS_WEIGHTS)
    scorer = UncleanlinessScorer(prefix_len=prefix_len, weights=weights)
    return scorer.score(class_reports)


# -- configuration ---------------------------------------------------------


class TestFleetConfig:
    def test_heterogeneous_fleet_shapes(self):
        config = small_fleet(4)
        assert [s.name for s in config.shards] == [
            "net-a", "net-b", "net-c", "net-d",
        ]
        # One shared world, many vantage points.
        assert len({s.config.seed for s in config.shards}) == 1
        assert len({s.config.fingerprint() for s in config.shards}) == 4
        for shard in config.shards:
            shard.config.validate()

    def test_duplicate_names_rejected(self):
        shard = small_fleet(1).shards[0]
        config = FleetConfig(shards=(shard, shard))
        with pytest.raises(ValueError, match="duplicate"):
            config.validate()

    def test_bad_shard_name_rejected(self):
        with pytest.raises(ValueError, match="bad shard name"):
            NetworkShard(name="has/slash", config=small_fleet(1).shards[0].config)

    def test_quorum_bounds(self):
        config = small_fleet(2, quorum=3)
        with pytest.raises(ValueError, match="quorum"):
            config.validate()

    def test_negative_staleness_rejected(self):
        # -1 would mark even the freshest feed stale and fail only at
        # pooling time, blaming availability.
        config = small_fleet(2, max_staleness_days=-1)
        with pytest.raises(ValueError, match="max_staleness_days"):
            config.validate()
        with pytest.raises(ValueError, match="max_staleness_days"):
            Clearinghouse([], max_staleness_days=-1)

    def test_prefix_len_bounds(self):
        # /40 would run every shard, then fail in the scorer.
        config = small_fleet(2, prefix_len=40)
        with pytest.raises(ValueError, match="prefix length out of range"):
            config.validate()
        with pytest.raises(ValueError, match="prefix length out of range"):
            Clearinghouse([], prefix_len=40)

    def test_fingerprint_ignores_execution_policy(self):
        base = small_fleet(2)
        tweaked = small_fleet(2, workers=4, max_retries=5, deadline=9.0)
        assert base.fingerprint() == tweaked.fingerprint()
        other = heterogeneous_fleet(2, seed=8, small=True)
        assert base.fingerprint() != other.fingerprint()


# -- supervisor: happy path and determinism --------------------------------


class TestSupervisor:
    def test_serial_run_delivers_all_shards(self):
        result = run_synthetic(small_fleet(3))
        assert result.ok == ("net-a", "net-b", "net-c")
        assert result.quarantined == ()
        assert not result.degraded
        for outcome in result.outcomes:
            assert outcome.attempts == 1
            assert not outcome.from_checkpoint
            assert outcome.checksum

    def test_pooled_scores_match_direct_scorer(self):
        result = run_synthetic(small_fleet(3))
        pooled = result.clearinghouse.pooled_scores()
        expected = reference_scores(result.clearinghouse.feeds)
        np.testing.assert_array_equal(pooled.blocks, expected.blocks)
        np.testing.assert_array_equal(pooled.scores, expected.scores)

    def test_scheduling_order_never_changes_results(self):
        config = small_fleet(3)
        reversed_config = FleetConfig(shards=tuple(reversed(config.shards)))
        pooled = run_synthetic(config).clearinghouse.pooled_scores()
        swapped = run_synthetic(reversed_config).clearinghouse.pooled_scores()
        np.testing.assert_array_equal(pooled.blocks, swapped.blocks)
        np.testing.assert_array_equal(pooled.scores, swapped.scores)

    def test_single_feed_pool_matches_local_view(self):
        result = run_synthetic(small_fleet(2))
        ch = result.clearinghouse
        solo = Clearinghouse([ch.feed("net-a")])
        np.testing.assert_array_equal(
            solo.pooled_scores().scores, ch.local_scores("net-a").scores
        )

    def test_checkpoint_resume_skips_completed_shards(self, tmp_path):
        config = small_fleet(2)
        store = ArtifactStore(disk_dir=tmp_path / "cache")
        first = FleetSupervisor(
            config, runner=synthetic_reports, store=store
        ).run()
        resumed = FleetSupervisor(
            config, runner=synthetic_reports, store=store
        ).run()
        for outcome in resumed.outcomes:
            assert outcome.from_checkpoint
            assert outcome.attempts == 0
        np.testing.assert_array_equal(
            first.clearinghouse.pooled_scores().scores,
            resumed.clearinghouse.pooled_scores().scores,
        )

    def test_checkpoint_namespace_separates_runners(self, tmp_path):
        config = small_fleet(1)
        store = ArtifactStore(disk_dir=tmp_path / "cache")
        synthetic = FleetSupervisor(config, runner=synthetic_reports, store=store)
        scenario = FleetSupervisor(config, store=store)
        assert synthetic.fingerprint != scenario.fingerprint
        assert synthetic.checkpoint_key("net-a") != scenario.checkpoint_key("net-a")

    def test_delivery_checksum_detects_tampering(self):
        reports = synthetic_reports(small_fleet(1).shards[0], FLEET_FEED_TAGS)
        digest = delivery_checksum(reports)
        tampered = dict(reports)
        bad = reports["bot"].addresses.copy()
        bad[0] ^= np.uint32(1)
        tampered["bot"] = type(reports["bot"])(
            tag="bot", addresses=bad, period=reports["bot"].period
        )
        assert delivery_checksum(tampered) != digest


# -- failure isolation -----------------------------------------------------


def _failing_runner(shard, feed_tags):
    """A runner whose 'net-b' member network is permanently down."""
    if shard.name == "net-b":
        raise RuntimeError("member network offline")
    return synthetic_reports(shard, feed_tags)


#: Networks currently suffering an outage for :func:`_flaky_runner`.
#: Module state (not a closure) so the runner keeps one checkpoint
#: namespace across the outage and the recovery.
_OUTAGE = set()


def _flaky_runner(shard, feed_tags):
    if shard.name in _OUTAGE:
        raise RuntimeError("member network offline")
    return synthetic_reports(shard, feed_tags)


class TestFailureIsolation:
    def test_failing_shard_is_quarantined_not_fatal(self):
        config = small_fleet(3, backoff=0.0)
        result = run_synthetic(config, runner=_failing_runner)
        assert result.quarantined == ("net-b",)
        assert result.ok == ("net-a", "net-c")
        outcome = result.outcome("net-b")
        assert outcome.attempts == config.max_retries + 1
        assert "offline" in outcome.error
        # The dead member's retries are its own: every healthy shard
        # delivered on its first attempt.
        assert [result.outcome(name).attempts for name in result.ok] == [1, 1]

    def test_degraded_manifest_names_the_shard(self):
        result = run_synthetic(small_fleet(3, backoff=0.0), runner=_failing_runner)
        manifest = result.manifest()
        assert manifest["clearinghouse"]["quarantined"] == ["net-b"]
        assert manifest["clearinghouse"]["degraded"] is True
        assert manifest["shards"]["net-b"]["status"] == "quarantined"

    def test_degraded_pool_converges_on_recovery(self, tmp_path):
        config = small_fleet(3, backoff=0.0)
        store = ArtifactStore(disk_dir=tmp_path / "cache")
        faultfree = run_synthetic(config)

        # net-b is down: pooled scores cover the two live feeds only.
        _OUTAGE.add("net-b")
        try:
            degraded = FleetSupervisor(
                config, runner=_flaky_runner, store=store
            ).run()
        finally:
            _OUTAGE.clear()
        assert degraded.quarantined == ("net-b",)
        partial = degraded.clearinghouse.pooled_scores(allow_partial=True)
        expected = reference_scores(
            [f for f in faultfree.clearinghouse.feeds if f.name != "net-b"]
        )
        np.testing.assert_array_equal(partial.scores, expected.scores)

        # net-b recovers: the re-run resumes net-a/net-c from their
        # checkpoints, retries net-b, and converges to fault-free.
        recovered = FleetSupervisor(
            config, runner=_flaky_runner, store=store
        ).run()
        assert recovered.quarantined == ()
        assert recovered.outcome("net-a").from_checkpoint
        assert not recovered.outcome("net-b").from_checkpoint
        np.testing.assert_array_equal(
            recovered.clearinghouse.pooled_scores().scores,
            faultfree.clearinghouse.pooled_scores().scores,
        )

    def test_all_shards_failing_raises_typed_error(self):
        config = small_fleet(2, max_retries=0, backoff=0.0)

        def everything_burns(shard, feed_tags):
            raise RuntimeError("no survivors")

        with pytest.raises(FleetFailure, match="2 shard"):
            FleetSupervisor(
                config, runner=everything_burns, checkpoint=False
            ).run()

    def test_quorum_policy_raises_typed_error(self):
        config = small_fleet(3, quorum=3, backoff=0.0)
        result = run_synthetic(config, runner=_failing_runner)
        with pytest.raises(QuorumError, match="quorum"):
            result.clearinghouse.pooled_scores()
        # Explicit opt-in to the degraded view still works.
        partial = result.clearinghouse.pooled_scores(allow_partial=True)
        assert len(partial.scores)


# -- staleness policy ------------------------------------------------------


class TestStaleness:
    def _feeds(self):
        config = small_fleet(3)
        result = run_synthetic(config)
        return list(result.clearinghouse.feeds)

    def test_stale_feed_excluded_and_named(self):
        feeds = self._feeds()
        lagging = feeds[1]
        feeds[1] = ShardFeed(
            name=lagging.name, reports=lagging.reports,
            as_of=lagging.as_of - 10,
        )
        ch = Clearinghouse(feeds, max_staleness_days=3)
        assert ch.stale == (lagging.name,)
        assert ch.degraded
        assert lagging.name not in [f.name for f in ch.available]
        pooled = ch.pooled_scores()
        expected = reference_scores([feeds[0], feeds[2]])
        np.testing.assert_array_equal(pooled.scores, expected.scores)

    def test_fresh_enough_feed_included(self):
        feeds = self._feeds()
        lagging = feeds[1]
        feeds[1] = ShardFeed(
            name=lagging.name, reports=lagging.reports,
            as_of=lagging.as_of - 2,
        )
        ch = Clearinghouse(feeds, max_staleness_days=3)
        assert ch.stale == ()
        assert not ch.degraded

    def test_availability_rows_cover_every_member(self):
        result = run_synthetic(small_fleet(3, backoff=0.0), runner=_failing_runner)
        rows = result.clearinghouse.availability()
        status = {row["network"]: row["status"] for row in rows}
        assert status == {
            "net-a": "fresh", "net-b": "quarantined", "net-c": "fresh",
        }


class TestPooledReport:
    @staticmethod
    def _feed(name, addresses, period):
        return ShardFeed(
            name=name,
            reports={"bot": Report("bot", np.asarray(addresses), period=period)},
        )

    def test_period_independent_of_feed_order(self):
        day = datetime.date
        a = self._feed("net-a", [1, 2], (day(2006, 10, 1), day(2006, 10, 14)))
        b = self._feed("net-b", [2, 3], (day(2006, 10, 3), day(2006, 10, 16)))
        forward = Clearinghouse([a, b]).pooled_report("bot")
        backward = Clearinghouse([b, a]).pooled_report("bot")
        assert forward == backward
        assert forward.period == (day(2006, 10, 1), day(2006, 10, 16))
        assert forward.addresses.tolist() == [1, 2, 3]

    def test_period_from_carriers_that_have_one(self):
        window = (datetime.date(2006, 10, 1), datetime.date(2006, 10, 14))
        dated = self._feed("net-a", [1], window)
        undated = self._feed("net-b", [2], None)
        assert Clearinghouse([undated, dated]).pooled_report("bot").period == window
        assert Clearinghouse([undated]).pooled_report("bot").period is None


# -- pool mode -------------------------------------------------------------


class TestPoolMode:
    def test_pool_run_matches_serial(self):
        config = small_fleet(3)
        serial = run_synthetic(config).clearinghouse.pooled_scores()
        pooled = run_synthetic(
            small_fleet(3, workers=2)
        ).clearinghouse.pooled_scores()
        np.testing.assert_array_equal(serial.scores, pooled.scores)

    def test_deadline_timeouts_quarantine_not_hang(self):
        # Every attempt sleeps past the deadline; the supervisor must
        # abandon the pool each round and finish with a typed failure
        # (all shards quarantined), never block on the hung workers.
        config = small_fleet(
            2, workers=2, deadline=0.25, max_retries=1, backoff=0.0
        )
        plan = faults.FaultPlan.from_spec("shard.slow:every=1,delay=30")
        with faults.injected(plan):
            with pytest.raises(FleetFailure):
                FleetSupervisor(
                    config, runner=synthetic_reports, checkpoint=False
                ).run()


# -- under the environment's fault profile ---------------------------------


class TestUnderEnvProfile:
    def test_fleet_green_or_typed_under_env_faults(self):
        """Whatever REPRO_FAULTS profile the CI leg activates, a fleet
        run either matches the fault-free pooled scores, degrades to a
        self-consistent subset, or fails with the typed error."""
        config = small_fleet(3, backoff=0.0)
        faultfree = run_synthetic(config)
        reference = {
            feed.name: feed for feed in faultfree.clearinghouse.feeds
        }

        faults.reset()  # let the environment profile (if any) apply
        try:
            result = run_synthetic(config)
        except FleetFailure:
            return  # typed, never silent
        finally:
            faults.reset()

        available = [feed.name for feed in result.clearinghouse.available]
        assert available, "a completed run pools at least one feed"
        for feed in result.clearinghouse.available:
            np.testing.assert_array_equal(
                feed.reports["bot"].addresses,
                reference[feed.name].reports["bot"].addresses,
            )
        pooled = result.clearinghouse.pooled_scores(allow_partial=True)
        expected = reference_scores([reference[name] for name in available])
        np.testing.assert_array_equal(pooled.scores, expected.scores)
        if not result.quarantined:
            np.testing.assert_array_equal(
                pooled.scores,
                faultfree.clearinghouse.pooled_scores().scores,
            )


# -- real scenario integration --------------------------------------------


class TestScenarioFleet:
    def test_real_small_fleet_end_to_end(self, artifact_cache):
        from repro import api

        config = heterogeneous_fleet(2, seed=7, small=True)
        result = api.run_fleet(config)
        assert result.quarantined == ()
        ch = result.clearinghouse
        for tag in FLEET_FEED_TAGS:
            pooled = ch.pooled_report(tag)
            assert len(pooled) >= max(
                len(feed.reports[tag]) for feed in ch.feeds
            )
        # Cross-network prediction: net-b's old botnet vs net-a's space.
        prediction = api.fleet_prediction_test(
            result, "net-a", subsets=25, prefixes=(20, 24)
        )
        assert set(prediction.prefixes) == {20, 24}
        again = api.fleet_prediction_test(
            result, "net-a", subsets=25, prefixes=(20, 24)
        )
        assert prediction.observed == again.observed
        assert prediction.exceedance == again.exceedance
        # Pooled density test runs and is deterministic.
        density = api.fleet_density_test(result, subsets=25, prefixes=(24,))
        repeat = api.fleet_density_test(result, subsets=25, prefixes=(24,))
        assert density.observed == repeat.observed
