"""The public facade: acceptance imports, equivalence, removed names."""

from __future__ import annotations

import dataclasses
import importlib

import numpy as np
import pytest

import repro
from repro import api
from repro.api import (
    BlockingResult,
    DensityResult,
    PredictionResult,
    ScenarioRun,
    evaluate,
    run_scenario,
)
from repro.core.blocking import blocking_test_blocks
from repro.core.density import density_test
from repro.core.prediction import prediction_test
from repro.core.scenario import PaperScenario, ScenarioConfig


def test_acceptance_import_line():
    """The facade's documented import line must work."""
    from repro.api import run_scenario, evaluate, compare  # noqa: F401


def test_top_level_reexports_facade_only():
    assert repro.run_scenario is run_scenario
    assert repro.evaluate is evaluate
    assert repro.__version__ == "5.0.0"
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_run_scenario_returns_frozen_shared_handle(small_scenario):
    run = run_scenario(small=True)
    assert isinstance(run, ScenarioRun)
    assert run.fingerprint == run.config.fingerprint()
    assert run_scenario(small=True) == run  # same fingerprint, equal handle
    assert run_scenario(small=True).scenario is run.scenario  # shared build
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.config = ScenarioConfig()


def test_run_scenario_rejects_config_plus_small():
    with pytest.raises(ValueError, match="not both"):
        run_scenario(ScenarioConfig.small(), small=True)


def test_run_scenario_seed_override():
    run = run_scenario(small=True, seed=123)
    assert run.config.seed == 123
    assert run.config.fingerprint() != run_scenario(small=True).fingerprint


def test_scenario_run_delegates_to_scenario(small_scenario):
    run = run_scenario(small=True)
    assert run.report("bot") is run.scenario.report("bot")
    tags = {row["tag"] for row in run.table1_rows()}
    assert {"bot", "control", "scan"} <= tags
    assert run.partition is run.scenario.partition
    with pytest.raises(AttributeError):
        run.no_such_attribute


def test_density_test_facade_matches_core(small_scenario):
    """Facade-with-tags == core-with-reports under the same rng stream."""
    from repro.core.density import density_test as core_density

    run = run_scenario(small=True)
    facade = evaluate(run, metric="density", train="bot", subsets=50)
    expected = core_density(
        small_scenario.report("bot"),
        small_scenario.report("control"),
        np.random.default_rng(small_scenario.config.seed ^ 0xC1D),
        subsets=50,
    )
    assert isinstance(facade, DensityResult)
    assert facade.report_tag == expected.report_tag
    assert facade.prefixes == expected.prefixes
    assert facade.observed == expected.observed
    assert facade.control == expected.control
    assert facade.hypothesis_holds() == expected.hypothesis_holds()


def test_density_test_accepts_every_scenario_form(small_scenario):
    run = run_scenario(small=True)

    def density(scenario):
        return evaluate(
            scenario, metric="density", train="bot", subsets=20, seed=5
        )

    by_run = density(run)
    by_config = density(ScenarioConfig.small())
    by_scenario = density(run.scenario)
    assert by_run.observed == by_config.observed == by_scenario.observed
    assert by_run.control == by_config.control == by_scenario.control
    with pytest.raises(TypeError, match="expected a ScenarioRun"):
        density(42)


def test_rng_and_seed_are_mutually_exclusive(small_scenario):
    from repro.api import fleet_density_test
    from repro.fleet import (
        FleetSupervisor,
        heterogeneous_fleet,
        synthetic_reports,
    )

    run = run_scenario(small=True)
    with pytest.raises(ValueError, match="rng or seed"):
        evaluate(
            run, metric="density", train="bot",
            rng=np.random.default_rng(0), seed=1,
        )
    fleet = FleetSupervisor(
        heterogeneous_fleet(2, seed=7, small=True),
        runner=synthetic_reports,
        checkpoint=False,
    ).run()
    with pytest.raises(ValueError, match="rng or seed"):
        fleet_density_test(fleet, rng=np.random.default_rng(0), seed=1)


@pytest.fixture(scope="module")
def synthetic_fleet():
    from repro.fleet import (
        FleetSupervisor,
        heterogeneous_fleet,
        synthetic_reports,
    )

    return FleetSupervisor(
        heterogeneous_fleet(2, seed=7, small=True),
        runner=synthetic_reports,
        checkpoint=False,
    ).run()


#: Every paper-test entry point, as call(scenario, fleet, rng) with
#: ``prefixes=()``.
EMPTY_PREFIX_CALLS = {
    "density_test": lambda sc, fleet, rng: density_test(
        sc.bot, sc.control, rng, prefixes=()
    ),
    "prediction_test": lambda sc, fleet, rng: prediction_test(
        sc.bot_test, sc.bot, sc.control, rng, prefixes=()
    ),
    "blocking_test_blocks": lambda sc, fleet, rng: blocking_test_blocks(
        sc.partition, [], ()
    ),
    "compare": lambda sc, fleet, rng: api.compare(
        sc, ["uncleanliness"], rng=rng, prefixes=()
    ),
    "fleet_density_test": lambda sc, fleet, rng: api.fleet_density_test(
        fleet, rng=rng, prefixes=()
    ),
    "fleet_prediction_test": lambda sc, fleet, rng: api.fleet_prediction_test(
        fleet, "net-a", rng=rng, prefixes=()
    ),
    **{
        f"evaluate-{metric}": lambda sc, fleet, rng, metric=metric: evaluate(
            sc, metric=metric, rng=rng, prefixes=()
        )
        for metric in ("density", "prediction", "blocking", "all")
    },
}


@pytest.mark.parametrize("name", sorted(EMPTY_PREFIX_CALLS))
def test_empty_prefix_set_is_rejected_before_any_draw(
    small_scenario, synthetic_fleet, name
):
    """A paper test at no prefix length would hold vacuously; every
    entry point raises instead, and draws no Monte-Carlo subset first."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="prefix length"):
        EMPTY_PREFIX_CALLS[name](small_scenario, synthetic_fleet, rng)
    assert rng.bit_generator.state == state


def test_prediction_test_facade(small_scenario):
    run = run_scenario(small=True)
    result = evaluate(
        run, metric="prediction", train="bot-test", present="bot", subsets=50
    )
    assert isinstance(result, PredictionResult)
    assert result.past_tag == "bot-test"
    assert result.present_tag == "bot"
    assert set(result.observed) == set(result.prefixes)
    assert all(0.0 <= result.exceedance[n] <= 1.0 for n in result.prefixes)


def test_evaluate_blocking_facade(small_scenario):
    run = run_scenario(small=True)
    result = evaluate(run, metric="blocking")
    assert isinstance(result, BlockingResult)
    assert [row.prefix for row in result.rows] == list(range(24, 33))


# -- names removed in 2.0 ---------------------------------------------------

#: Deep names the top-level package served lazily before 2.0.
FORMER_TOP_LEVEL_NAMES = (
    "ReportType",
    "DataClass",
    "CIDRBlock",
    "PREFIX_RANGE",
    "BETTER_PREDICTOR_LEVEL",
    "BLOCKING_PREFIXES",
    "CandidatePartition",
    "partition_candidates",
    "blocking_test",
    "UncleanlinessScorer",
    "BlockScores",
    "block_jaccard",
    "PaperScenario",
)


def test_legacy_top_level_names_removed():
    for name in FORMER_TOP_LEVEL_NAMES:
        with pytest.raises(AttributeError):
            getattr(repro, name)
        assert name not in dir(repro)


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.api", "density_test"),
        ("repro.api", "prediction_test"),
        ("repro.api", "evaluate_blocking"),
        ("repro.core.cidr", "block_count"),
        ("repro.core", "block_count"),
        ("repro.experiments", "default_scenario"),
        ("repro.experiments.common", "default_scenario"),
        ("repro.experiments.common", "clear_scenario_cache"),
        ("repro.core", "TrialEnsemble"),
        ("repro.core", "BlockCountStatistic"),
        ("repro.core", "ListCoverageStatistic"),
        ("repro.core.sampling", "TrialEnsemble"),
        ("repro.core.tracking", "ListCoverageStatistic"),
        ("repro.ipspace", "sorted_rows"),
        ("repro.ipspace.kernels", "merge_sorted_rows"),
        ("repro.stream.state", "BlockCounter"),
        ("repro.ipspace.kernels", "remove_sorted"),
    ],
)
def test_removed_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_test_oracles_are_not_shipped():
    from repro.detect.scan import ScanDetector
    from repro.detect.trw import TRWDetector

    assert not hasattr(ScanDetector, "detect_reference")
    assert not hasattr(TRWDetector, "walk_reference")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.trials")


def test_paper_scenario_has_one_constructor():
    assert not hasattr(PaperScenario, "_create")
    scenario = PaperScenario(ScenarioConfig.small())
    assert scenario.config == ScenarioConfig.small()


def test_unknown_top_level_name_raises():
    with pytest.raises(AttributeError):
        repro.definitely_not_a_name
