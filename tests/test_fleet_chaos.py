"""Chaos tests: the fleet under injected shard faults.

The contract under test is the supervisor's determinism guarantee:
whatever fault schedule fires — crashes, slowness, corruption — a fleet
run either produces pooled scores bit-identical to the fault-free run
(possibly over a degraded feed subset), or fails with a typed
:class:`FleetError`.  Never a silently different answer.
"""

import os
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import faults
from repro.fleet import (
    FleetConfig,
    FleetError,
    FleetFailure,
    FleetSupervisor,
    heterogeneous_fleet,
    synthetic_reports,
)
from repro.obs import metrics as obs_metrics


@pytest.fixture(autouse=True)
def quiet_faults():
    """Isolate every test from the CI leg's REPRO_FAULTS profile; tests
    inject their own plans explicitly."""
    faults.reset()
    with faults.injected(faults.FaultPlan([])):
        yield
    faults.reset()


def small_fleet(count=3, **policy):
    policy.setdefault("backoff", 0.0)
    return heterogeneous_fleet(count, seed=7, small=True, **policy)


def run_synthetic(config):
    return FleetSupervisor(
        config, runner=synthetic_reports, checkpoint=False
    ).run()


@pytest.fixture(scope="module")
def faultfree_scores():
    faults.reset()
    with faults.injected(faults.FaultPlan([])):
        result = run_synthetic(small_fleet(3))
    return result.clearinghouse.pooled_scores()


# -- corruption ------------------------------------------------------------


class TestCorruption:
    def test_corrupt_delivery_detected_and_retried(self, faultfree_scores):
        obs_metrics.reset()
        plan = faults.FaultPlan.from_spec("shard.corrupt:every=1,times=1")
        with faults.injected(plan):
            result = run_synthetic(small_fleet(3))
        assert result.quarantined == ()
        # The first shard needed a second attempt; the checksum caught it.
        assert result.outcome("net-a").attempts == 2
        corrupt = obs_metrics.registry().get("fleet.shard.corrupt")
        assert corrupt is not None and corrupt.value >= 1
        np.testing.assert_array_equal(
            result.clearinghouse.pooled_scores().scores,
            faultfree_scores.scores,
        )

    def test_corruption_every_round_is_typed_failure(self):
        # The schedule outlasts the retry budget on every shard: the
        # supervisor must refuse to pool tampered data.
        plan = faults.FaultPlan.from_spec("shard.corrupt:every=1")
        with faults.injected(plan):
            with pytest.raises(FleetFailure, match="shard"):
                run_synthetic(small_fleet(2, max_retries=1))

    def test_profile_schedule_recovers_bit_identical(self, faultfree_scores):
        # The CI profile fires every third poll — inside the default
        # 3-round budget, so the fleet always recovers.
        plan = faults.FaultPlan.from_spec("shard-corrupt")
        with faults.injected(plan):
            result = run_synthetic(small_fleet(3))
        assert result.quarantined == ()
        assert any(outcome.retried for outcome in result.outcomes)
        np.testing.assert_array_equal(
            result.clearinghouse.pooled_scores().scores,
            faultfree_scores.scores,
        )


# -- slowness --------------------------------------------------------------


def _hang_net_a_runner(shard, feed_tags):
    """Sleep well past the test's deadline on ``net-a`` only.

    Kept short: interpreter exit waits for the abandoned worker.
    """
    if shard.name == "net-a":
        time.sleep(3.0)
    return synthetic_reports(shard, feed_tags)


class TestSlowness:
    def test_slow_without_deadline_is_only_slow(self, faultfree_scores):
        plan = faults.FaultPlan.from_spec("shard.slow:every=2,delay=0.01")
        with faults.injected(plan):
            result = run_synthetic(small_fleet(3))
        assert result.quarantined == ()
        np.testing.assert_array_equal(
            result.clearinghouse.pooled_scores().scores,
            faultfree_scores.scores,
        )

    def test_one_hung_shard_quarantines_only_itself(self):
        # The shards after the hung one have finished by the time its
        # deadline passes; their deliveries must still be collected.
        config = small_fleet(3, workers=3, deadline=0.5, max_retries=0)
        result = FleetSupervisor(
            config, runner=_hang_net_a_runner, checkpoint=False
        ).run()
        assert result.ok == ("net-b", "net-c")
        assert result.quarantined == ("net-a",)
        assert "deadline" in result.outcome("net-a").error
        assert all(outcome.attempts == 1 for outcome in result.outcomes)

    def test_slow_past_deadline_is_typed_failure(self):
        # Fork-mode workers inherit the active plan, so every retry is
        # equally slow; the supervisor must abandon each hung pool at
        # the deadline and end with the typed failure, not a hang.
        config = small_fleet(2, workers=2, deadline=0.25, max_retries=1)
        plan = faults.FaultPlan.from_spec("shard.slow:every=1,delay=30")
        with faults.injected(plan):
            with pytest.raises(FleetFailure):
                run_synthetic(config)
        timeouts = obs_metrics.registry().get("fleet.shard.timeouts")
        assert timeouts is not None and timeouts.value >= 1


# -- worker crashes --------------------------------------------------------


def _crash_once_runner(shard, feed_tags):
    """Hard-exit the worker on first attempt per shard, succeed after.

    The sentinel lives on disk (path via REPRO_TEST_CRASH_DIR) because
    the crash kills the process — no in-memory flag survives it.
    """
    sentinel_dir = os.environ["REPRO_TEST_CRASH_DIR"]
    sentinel = os.path.join(sentinel_dir, f"crashed-{shard.name}")
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("1")
        os._exit(3)
    return synthetic_reports(shard, feed_tags)


class TestWorkerCrash:
    def test_pool_survives_worker_crash(
        self, tmp_path, monkeypatch, faultfree_scores
    ):
        monkeypatch.setenv("REPRO_TEST_CRASH_DIR", str(tmp_path))
        obs_metrics.reset()
        # A crash breaks the pool for every shard still queued, so a
        # shard's first (crashing) attempt can slip to a later round.
        # In the worst case one first attempt crashes per round: three
        # shards then need four rounds, so max_retries is the shard count.
        config = small_fleet(3, workers=2, max_retries=3)
        result = FleetSupervisor(
            config, runner=_crash_once_runner, checkpoint=False
        ).run()
        assert result.quarantined == ()
        assert all(outcome.attempts >= 2 for outcome in result.outcomes)
        crashes = obs_metrics.registry().get("fleet.shard.crashes")
        assert crashes is not None and crashes.value >= 1
        np.testing.assert_array_equal(
            result.clearinghouse.pooled_scores().scores,
            faultfree_scores.scores,
        )

    def test_injected_shard_crash_profile_in_pool(self, faultfree_scores):
        # The CI profile: every third shard.crash poll hard-exits the
        # worker.  Retry rounds outpace the schedule, so the fleet
        # completes bit-identical.
        config = small_fleet(3, workers=2)
        plan = faults.FaultPlan.from_spec("shard-crash")
        with faults.injected(plan):
            result = run_synthetic(config)
        np.testing.assert_array_equal(
            result.clearinghouse.pooled_scores().scores,
            faultfree_scores.scores,
        )


# -- property: any schedule, identical or typed ----------------------------


def _rule(site, every, times, after):
    return faults.FaultRule(
        site=site,
        kind=faults._DEFAULT_KIND[site],
        every=every,
        times=times,
        after=after,
        delay=0.001,
    )


RULE = st.builds(
    _rule,
    site=st.sampled_from(["shard.fail", "shard.slow", "shard.corrupt"]),
    every=st.integers(min_value=1, max_value=4),
    times=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    after=st.integers(min_value=0, max_value=3),
)


class TestFaultScheduleProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rules=st.lists(RULE, min_size=1, max_size=3))
    def test_any_schedule_yields_identical_or_typed(
        self, rules, faultfree_scores
    ):
        config = small_fleet(3)
        plan = faults.FaultPlan(rules)
        try:
            with faults.injected(plan):
                result = run_synthetic(config)
        except FleetError:
            return  # typed failure is an allowed outcome
        # Whatever was delivered must be exactly the fault-free data:
        # full fleets score bit-identically, degraded fleets pool a
        # strict subset whose feeds are still bit-identical.
        reference = run_synthetic(config)
        for feed in result.clearinghouse.available:
            expected = reference.clearinghouse.feed(feed.name)
            for tag, report in feed.reports.items():
                np.testing.assert_array_equal(
                    report.addresses, expected.reports[tag].addresses
                )
        if not result.quarantined:
            np.testing.assert_array_equal(
                result.clearinghouse.pooled_scores().scores,
                reference.clearinghouse.pooled_scores().scores,
            )
