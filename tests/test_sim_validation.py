"""Tests for the statistical validation of the simulators."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.sim.botnet import BotnetConfig, BotnetSimulation
from repro.sim.validation import (
    check_channels_uniform,
    check_durations_exponential,
    check_placement_tracks_uncleanliness,
    check_start_days_uniform,
    validate_botnet,
)


@pytest.fixture(scope="module")
def big_botnet(tiny_internet):
    """A botnet with enough events for the tests to have power."""
    return BotnetSimulation(
        tiny_internet,
        BotnetConfig(daily_compromises=60.0),
        np.random.default_rng(41),
    )


class TestChecks:
    def test_start_days_uniform(self, big_botnet):
        result = check_start_days_uniform(big_botnet)
        assert result.passed, result.as_dict()

    def test_durations_exponential(self, big_botnet):
        result = check_durations_exponential(big_botnet)
        assert result.passed, result.as_dict()

    def test_channels_uniform(self, big_botnet):
        result = check_channels_uniform(big_botnet)
        assert result.passed, result.as_dict()

    def test_placement_tracks_uncleanliness(self, big_botnet):
        result = check_placement_tracks_uncleanliness(big_botnet)
        assert result.passed, result.as_dict()
        assert result.statistic > 0.3

    def test_validate_botnet_runs_all(self, big_botnet):
        results = validate_botnet(big_botnet)
        assert len(results) == 4
        assert all(r.passed for r in results), [r.as_dict() for r in results]

    def test_as_dict_shape(self, big_botnet):
        result = check_channels_uniform(big_botnet)
        assert set(result.as_dict()) == {
            "check", "statistic", "p_value", "passed", "detail",
        }


class TestChecksHavePower:
    """The checks must actually fail on broken generators."""

    def test_biased_channels_detected(self, big_botnet, tiny_internet):
        broken = object.__new__(BotnetSimulation)
        broken.__dict__.update(big_botnet.__dict__)
        channel = big_botnet.channel.copy()
        channel[: channel.size // 2] = 0  # half the bots pile into channel 0
        broken.channel = channel
        assert not check_channels_uniform(broken).passed

    def test_nonuniform_starts_detected(self, big_botnet):
        broken = object.__new__(BotnetSimulation)
        broken.__dict__.update(big_botnet.__dict__)
        start = big_botnet.start_day.copy()
        start[:] = np.minimum(start, 100)  # everything early
        broken.start_day = start
        assert not check_start_days_uniform(broken).passed

    def test_shuffled_placement_detected(self, big_botnet, tiny_internet):
        broken = object.__new__(BotnetSimulation)
        broken.__dict__.update(big_botnet.__dict__)
        rng = np.random.default_rng(5)
        # Placement uniform over networks, ignoring uncleanliness.
        broken.network_index = rng.integers(
            0, tiny_internet.num_networks, size=big_botnet.num_events
        )
        assert not check_placement_tracks_uncleanliness(broken).passed

    def test_wrong_duration_shape_detected(self, big_botnet):
        broken = object.__new__(BotnetSimulation)
        broken.__dict__.update(big_botnet.__dict__)
        rng = np.random.default_rng(6)
        # Uniform durations instead of exponential.
        span = rng.integers(2, 60, size=big_botnet.num_events)
        broken.end_day = np.minimum(
            big_botnet.start_day + span,
            big_botnet.config.horizon_days - 1,
        )
        assert not check_durations_exponential(broken).passed


def test_import_leaves_scipy_unloaded_until_a_check_runs():
    # scipy.stats costs ~1 s to import; the package import must not pay
    # it, and the checks must still find it when they run.
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        import repro.api
        assert "scipy" not in sys.modules, "import repro.api loaded scipy"
        from repro.sim.botnet import BotnetConfig, BotnetSimulation
        from repro.sim.internet import InternetConfig, SyntheticInternet
        from repro.sim.validation import validate_botnet
        internet = SyntheticInternet(
            InternetConfig(num_slash16=25, mean_hosts=20.0),
            np.random.default_rng(99),
        )
        botnet = BotnetSimulation(
            internet, BotnetConfig(daily_compromises=60.0),
            np.random.default_rng(41),
        )
        assert len(validate_botnet(botnet)) == 4
        assert "scipy.stats" in sys.modules
        """
    )
    proc = _run_with_src(script)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_numpy_random_with_the_program():
    # NumPy loads numpy.random on first use; the package import loads
    # it, so that first use does not fall inside a timed Monte Carlo.
    script = textwrap.dedent(
        """
        import sys
        import repro.api
        assert "numpy.random" in sys.modules, "numpy.random not loaded"
        assert "scipy" not in sys.modules, "import repro.api loaded scipy"
        """
    )
    proc = _run_with_src(script)
    assert proc.returncode == 0, proc.stderr


def _run_with_src(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this tree."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
