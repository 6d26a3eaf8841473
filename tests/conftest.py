"""Shared fixtures.

The small scenario takes ~1s to build, so it is session-scoped; tests
must treat it as read-only.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import sampling
from repro.core.scenario import ScenarioConfig
from repro.core.stages import reset_scenario_engine
from repro.engine.store import reset_default_store
from repro.flows.generator import TrafficGenerator
from repro.sim.botnet import BotnetConfig, BotnetSimulation
from repro.sim.internet import InternetConfig, SyntheticInternet
from repro.sim.phishing import PhishingConfig, PhishingSimulation
from repro.sim.timeline import PAPER_WINDOWS


@pytest.fixture(scope="session", autouse=True)
def artifact_cache(tmp_path_factory):
    """Isolate the on-disk artifact cache for the whole test session.

    Keeps tests hermetic (no reads from a developer's warm
    ``~/.cache/repro``) and keeps test artifacts out of it.  An
    explicitly *empty* ``REPRO_CACHE_DIR`` is honoured as-is so the CI
    memory-only leg genuinely runs the suite without a disk cache.
    """
    previous_runs = os.environ.get("REPRO_RUNS_DIR")
    os.environ["REPRO_RUNS_DIR"] = str(tmp_path_factory.mktemp("repro-runs"))

    previous = os.environ.get("REPRO_CACHE_DIR")
    if previous == "":
        reset_default_store()
        reset_scenario_engine()
        yield None
    else:
        path = tmp_path_factory.mktemp("repro-cache")
        os.environ["REPRO_CACHE_DIR"] = str(path)
        reset_default_store()
        reset_scenario_engine()
        yield path
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous

    if previous_runs is None:
        os.environ.pop("REPRO_RUNS_DIR", None)
    else:
        os.environ["REPRO_RUNS_DIR"] = previous_runs
    reset_default_store()
    reset_scenario_engine()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def trial_draws(monkeypatch):
    """The ``(size, count)`` of every Monte-Carlo trial matrix drawn
    during the test, from an empty null memo on."""
    calls = []
    draw_trials = sampling.draw_trials

    def counted(control, size, count, entropy, spawn_key):
        calls.append((size, count))
        return draw_trials(control, size, count, entropy, spawn_key)

    monkeypatch.setattr(sampling, "draw_trials", counted)
    sampling.clear_null_memo()
    yield calls
    sampling.clear_null_memo()


@pytest.fixture(scope="session")
def small_scenario(artifact_cache):
    """The fast end-to-end scenario; treat as read-only."""
    from repro.api import run_scenario

    return run_scenario(ScenarioConfig.small()).scenario


@pytest.fixture(scope="session")
def tiny_internet():
    """A very small synthetic Internet for unit tests."""
    config = InternetConfig(num_slash16=25, mean_hosts=20.0)
    return SyntheticInternet(config, np.random.default_rng(99))


@pytest.fixture(scope="session")
def tiny_botnet(tiny_internet):
    config = BotnetConfig(daily_compromises=12.0, horizon_days=334)
    return BotnetSimulation(tiny_internet, config, np.random.default_rng(100))


@pytest.fixture(scope="session")
def tiny_phishing(tiny_internet):
    config = PhishingConfig(daily_sites=3.0)
    return PhishingSimulation(tiny_internet, config, np.random.default_rng(101))


@pytest.fixture(scope="session")
def tiny_traffic(tiny_internet, tiny_botnet):
    """One October border capture at unit-test scale."""
    from repro.flows.generator import TrafficConfig

    generator = TrafficGenerator(
        tiny_internet,
        tiny_botnet,
        TrafficConfig(benign_clients_per_day=40, suspicious_hosts=120),
    )
    return generator.generate(PAPER_WINDOWS.OCTOBER, np.random.default_rng(102))
