"""Tests for the deterministic fault-injection registry."""

import errno
import time

import pytest

from repro.engine import faults
from repro.engine.faults import (
    PROFILES,
    FaultPlan,
    FaultRule,
    FaultSpecError,
    InjectedFault,
)


@pytest.fixture(autouse=True)
def clean_plan():
    """Never leak an active plan between tests."""
    faults.reset()
    yield
    faults.reset()


class TestSpecParsing:
    def test_simple_rule(self):
        plan = FaultPlan.from_spec("store.write:enospc:every=3")
        (rule,) = plan.rules
        assert rule.site == "store.write"
        assert rule.kind == "enospc"
        assert rule.every == 3

    def test_default_kind_per_site(self):
        plan = FaultPlan.from_spec("shard.crash:every=5,times=2")
        (rule,) = plan.rules
        assert rule.kind == "crash"
        assert rule.every == 5 and rule.times == 2

    def test_multiple_rules(self):
        plan = FaultPlan.from_spec(
            "store.read:oserror:every=2;shard.fail:after=1"
        )
        assert len(plan.rules) == 2
        assert plan.rules[1].kind == "fail" and plan.rules[1].after == 1

    def test_profiles_expand(self):
        for name in PROFILES:
            plan = FaultPlan.from_spec(name)
            assert plan.rules, name

    def test_delay_parameter(self):
        plan = FaultPlan.from_spec("stage.slow:slow:delay=0.25")
        assert plan.rules[0].delay == 0.25

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "nonsense.site:oserror",
            "store.read:weird-kind",
            "store.read:oserror:every=zero",
            "store.read:oserror:bogus=1",
            "store.read:oserror:every=0",
        ],
    )
    def test_bad_specs_raise_typed_error(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.from_spec(spec)

    def test_bad_rule_raises(self):
        with pytest.raises(FaultSpecError):
            FaultRule(site="store.read", kind="oserror", every=0)
        with pytest.raises(FaultSpecError):
            FaultRule(site="bogus", kind="oserror")


class TestScheduling:
    def _fires(self, plan, site, calls):
        return [plan.poll(site) is not None for _ in range(calls)]

    def test_every_n_fires_on_multiples(self):
        plan = FaultPlan([FaultRule("store.read", "oserror", every=3)])
        assert self._fires(plan, "store.read", 9) == [
            False, False, True, False, False, True, False, False, True,
        ]

    def test_times_bounds_total_fires(self):
        plan = FaultPlan([FaultRule("store.read", "oserror", every=2, times=2)])
        fired = self._fires(plan, "store.read", 10)
        assert sum(fired) == 2
        assert fired[1] and fired[3]

    def test_after_skips_leading_calls(self):
        plan = FaultPlan([FaultRule("store.read", "oserror", every=1, after=3)])
        assert self._fires(plan, "store.read", 5) == [
            False, False, False, True, True,
        ]

    def test_sites_count_independently(self):
        plan = FaultPlan(
            [
                FaultRule("store.read", "oserror", every=2),
                FaultRule("store.write", "enospc", every=2),
            ]
        )
        assert plan.poll("store.read") is None
        assert plan.poll("store.write") is None
        assert plan.poll("store.read") is not None
        assert plan.poll("store.write") is not None

    def test_identical_plans_fire_identically(self):
        spec = "store.read:oserror:every=3,times=2;store.write:enospc:every=2"
        a, b = FaultPlan.from_spec(spec), FaultPlan.from_spec(spec)
        sequence = ["store.read", "store.write"] * 8
        fires_a = [a.poll(site) is not None for site in sequence]
        fires_b = [b.poll(site) is not None for site in sequence]
        assert fires_a == fires_b
        # read fires at calls 3, 6 (times=2); write at calls 2, 4, 6, 8.
        assert a.total_fired == b.total_fired == 6

    def test_seed_shifts_phase_deterministically(self):
        fired = {}
        for seed in (0, 1, 2):
            plan = FaultPlan([FaultRule("store.read", "oserror", every=3)], seed=seed)
            fired[seed] = tuple(
                plan.poll("store.read") is not None for _ in range(9)
            )
        assert len(set(fired.values())) == 3  # three distinct phases
        assert all(any(f) for f in fired.values())
        # Same seed, fresh plan: identical schedule.
        again = FaultPlan([FaultRule("store.read", "oserror", every=3)], seed=2)
        assert tuple(again.poll("store.read") is not None for _ in range(9)) == fired[2]

    def test_reset_restarts_schedule(self):
        plan = FaultPlan([FaultRule("store.read", "oserror", every=2, times=1)])
        fires = self._fires(plan, "store.read", 4)
        plan.reset()
        assert self._fires(plan, "store.read", 4) == fires


class TestActivation:
    def test_no_plan_is_a_noop(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        assert faults.check("store.read") is None

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "shard.fail:every=1")
        faults.reset()
        with pytest.raises(InjectedFault):
            faults.check("shard.fail")

    def test_context_manager_overrides_and_restores(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        plan = FaultPlan([FaultRule("shard.fail", "fail", every=1)])
        with faults.injected(plan):
            assert faults.active_plan() is plan
            with pytest.raises(InjectedFault):
                faults.check("shard.fail")
        assert faults.active_plan() is None
        assert faults.check("shard.fail") is None


class TestCheckBehaviour:
    def test_oserror_and_enospc_carry_errno(self):
        with faults.injected(
            FaultPlan(
                [
                    FaultRule("store.read", "oserror", every=1),
                    FaultRule("store.write", "enospc", every=1),
                ]
            )
        ):
            with pytest.raises(OSError) as io_err:
                faults.check("store.read")
            assert io_err.value.errno == errno.EIO
            with pytest.raises(OSError) as full_err:
                faults.check("store.write")
            assert full_err.value.errno == errno.ENOSPC

    def test_slow_sleeps_for_delay(self):
        plan = FaultPlan([FaultRule("stage.slow", "slow", every=1, delay=0.05)])
        with faults.injected(plan):
            started = time.perf_counter()
            rule = faults.check("stage.slow")
            assert rule is not None
            assert time.perf_counter() - started >= 0.04

    def test_crash_never_kills_the_main_process(self):
        plan = FaultPlan([FaultRule("shard.crash", "crash", every=1)])
        with faults.injected(plan):
            assert faults.check("shard.crash") is None  # still alive
        assert plan.total_fired == 1  # the slot was consumed anyway

    def test_corrupt_rule_is_returned_to_the_caller(self):
        plan = FaultPlan([FaultRule("store.corrupt", "corrupt", every=1)])
        with faults.injected(plan):
            rule = faults.check("store.corrupt")
        assert rule is not None and rule.kind == "corrupt"
