"""Reproduction of Collins et al., "Using uncleanliness to predict future
botnet addresses" (IMC 2007).

Quick start — the :mod:`repro.api` facade is the public surface::

    from repro.api import run_scenario, evaluate, compare

    run = run_scenario(small=True)
    spatial = evaluate(run, metric="density", train="bot", subsets=100)
    print(spatial.hypothesis_holds())                 # §4 spatial test
    temporal = evaluate(run, metric="prediction", subsets=100)
    print(temporal.predictive_range())                # §5 temporal test
    duel = compare(run, subsets=100)                  # rival predictors
    print(duel.auc_ranking())

Subpackages
-----------
``repro.api``
    The supported entry point: ``run_scenario``, ``evaluate``,
    ``compare``, ``list_predictors``/``make_predictor``, returning
    frozen typed result dataclasses.
``repro.predict``
    The ``Predictor`` protocol and the rival models it hosts: the §7
    uncleanliness adapter, an implicit-recommendation time-series
    model, and a greedy spatial graph-clustering model.
``repro.core``
    The paper's contribution: reports, CIDR analysis, the spatial and
    temporal uncleanliness tests, the §6 blocking experiment, the §7
    multidimensional metric, and the end-to-end scenario builder.
``repro.obs``
    Observability: span tracing, typed metrics, run manifests
    (``runs/<fingerprint>-<n>/manifest.json``).
``repro.ipspace``
    IPv4 address arithmetic, CIDR blocks, IANA 2006 allocations,
    reserved-space filtering.
``repro.sim``
    The synthetic Internet, botnet and phishing ecosystems.
``repro.flows``
    NetFlow V5 records, columnar flow logs, border traffic generation.
``repro.detect``
    Scan (fan-out and TRW), spam, bot-log and phishing-list detectors.
``repro.experiments``
    One module per paper table/figure, regenerating its rows/series.

The top-level package exports only the facade (``__all__``); deeper
names such as ``PaperScenario`` or ``ReportType`` live in their own
modules (:mod:`repro.core`, :mod:`repro.ipspace`).
"""

from repro.api import (
    BlockingResult,
    ComparisonResult,
    DensityResult,
    FleetResult,
    ModelEvaluation,
    PredictionResult,
    ScenarioConfig,
    ScenarioRun,
    compare,
    evaluate,
    list_predictors,
    make_predictor,
    run_fleet,
    run_scenario,
)
from repro.core.report import Report

__version__ = "6.0.0"

__all__ = [
    "__version__",
    "run_scenario",
    "evaluate",
    "compare",
    "list_predictors",
    "make_predictor",
    "run_fleet",
    "FleetResult",
    "ScenarioRun",
    "ScenarioConfig",
    "Report",
    "DensityResult",
    "PredictionResult",
    "BlockingResult",
    "ModelEvaluation",
    "ComparisonResult",
]
