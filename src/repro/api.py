"""The public facade, redesigned around the ``Predictor`` protocol.

Everything a library user needs is here::

    from repro.api import run_scenario, evaluate, compare

    run = run_scenario(small=True)
    spatial = evaluate(run, metric="density", train="bot")   # §4: Figs. 2-3
    temporal = evaluate(run, metric="prediction")            # §5: Figs. 4-5
    table3 = evaluate(run, metric="blocking")                # §6: Table 3
    duel = compare(run, ["uncleanliness", "recommender"])    # head-to-head

:func:`run_scenario` returns a :class:`ScenarioRun` — a frozen handle
pairing a :class:`~repro.core.scenario.ScenarioConfig` with its
fingerprint and the (shared, lazily built) scenario behind it.

:func:`evaluate` is the single evaluation entry: pick a model from the
registry (:func:`list_predictors` / :func:`make_predictor`, or any
object satisfying :class:`repro.predict.Predictor`), a training feed
(``train``) and a ``metric`` — ``"density"``, ``"prediction"``,
``"blocking"`` or ``"all"`` — and get back the frozen typed result
(:class:`DensityResult`, :class:`PredictionResult`,
:class:`BlockingResult` or :class:`repro.predict.ModelEvaluation`).
:func:`compare` runs rival predictors head-to-head over one shared
Monte-Carlo null.

Determinism: when no ``rng``/``seed`` is given, each test seeds its
generator with :func:`repro.core.sampling.monte_carlo_rng` — the same
helper the CLI and the experiment modules use — so facade results are
reproducible from the scenario seed alone and identical to an
`uncleanliness` run with the same flags.

Scenarios are cached per config fingerprint (two configs sharing a seed
but differing in any field get independent entries), so repeated facade
calls never rebuild artifacts; the heavy stage values additionally live
in the engine's content-addressed store.  Evaluations are cached the
same way, with the **predictor fingerprint a mandatory part of every
cache key** — two models over one scenario can never collide.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Generic, Iterator, List, Optional, Sequence, TypeVar, Union

import numpy as np

from repro.core.blocking import (
    BLOCKING_PREFIXES,
    BlockingResult,
    blocking_test_blocks as _blocking_test_blocks,
)
from repro.core.cidr import PREFIX_RANGE
from repro.core.density import DensityResult
from repro.core.density import density_test as _density_test
from repro.core.prediction import PredictionResult
from repro.core.prediction import prediction_test as _prediction_test
from repro.core.report import Report
from repro.core.sampling import monte_carlo_rng
from repro.core.scenario import PaperScenario, ScenarioConfig
from repro.engine.fingerprint import fingerprint as _fingerprint
from repro.engine.store import MISS, default_store
from repro.fleet import (
    FleetConfig,
    FleetResult,
    FleetSupervisor,
    NetworkShard,
    heterogeneous_fleet,
)
from repro.ipspace.addr import AddressLike
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.predict import (
    ComparisonResult,
    ModelEvaluation,
    Predictor,
    compare_predictors,
    evaluate_predictor,
)
from repro.predict import list_predictors as _registry_list
from repro.predict import make_predictor as _registry_make
from repro.predict.evaluate import EvaluationCodec
from repro.predict.protocol import BasePredictor, _report_digest
from repro.predict.registry import DEFAULT_PREDICTORS
from repro.scenarios import ScenarioPack, get_pack
from repro.scenarios import list_packs as _registry_list_packs
from repro.scenarios import pack_names
from repro.sim.timeline import PAPER_WINDOWS
from repro.stream import DayBatch, StreamConfig, UncleanlinessService, day_batches
from repro.stream.checkpoint import stream_fingerprint

__all__ = [
    "ScenarioRun",
    "run_scenario",
    "run_pack",
    "list_packs",
    "pack_names",
    "ScenarioPack",
    "evaluate",
    "compare",
    "list_predictors",
    "make_predictor",
    "run_fleet",
    "fleet_density_test",
    "fleet_prediction_test",
    "stream_service",
    "pending_batches",
    "score",
    "is_blocked",
    "top_blocks",
    "clear_scenario_cache",
    "DensityResult",
    "PredictionResult",
    "BlockingResult",
    "ModelEvaluation",
    "ComparisonResult",
    "ScenarioConfig",
    "StreamConfig",
    "UncleanlinessService",
    "FleetConfig",
    "FleetResult",
    "NetworkShard",
]

_V = TypeVar("_V")


class _LRUCache(Generic[_V]):
    """A small bounded LRU keyed by fingerprint strings.

    Scenario handles hold simulations alive through the engine's memory
    tier, so the facade's per-fingerprint cache must not grow without
    bound in long-lived processes (a sweep over many seeds, say);
    evictions are counted to the named metric so cache thrash is
    visible in the run manifest.
    """

    def __init__(self, capacity: int, metric: str) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.metric = metric
        self._entries: "OrderedDict[str, _V]" = OrderedDict()

    def get(self, key: str) -> Optional[_V]:
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: str, value: _V) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            obs_metrics.inc(self.metric)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


#: Scenarios per config fingerprint, bounded; stage artifacts live in
#: the engine store regardless, so an evicted scenario rebuilds from
#: cache, not from simulation.
_SCENARIOS: _LRUCache[PaperScenario] = _LRUCache(
    8, "api.scenario_cache.evictions"
)

#: Streaming services per stream fingerprint (bounded like scenarios;
#: an evicted service resumes from its day checkpoints).
_SERVICES: _LRUCache[UncleanlinessService] = _LRUCache(
    4, "api.stream_cache.evictions"
)


def _scenario_for(config: Optional[ScenarioConfig] = None) -> PaperScenario:
    """The shared scenario for a config, keyed by its full fingerprint."""
    config = config or ScenarioConfig()
    key = config.fingerprint()
    scenario = _SCENARIOS.get(key)
    if scenario is None:
        scenario = PaperScenario(config)
        _SCENARIOS.put(key, scenario)
    return scenario


def clear_scenario_cache() -> None:
    """Drop the shared scenario and stream-service handles (tests).

    Stage artifacts in the engine store are untouched; reset or clear
    the store itself (:func:`repro.engine.reset_default_store`) to force
    real rebuilds.
    """
    _SCENARIOS.clear()
    _SERVICES.clear()
    _EVALUATIONS.clear()


@dataclass(frozen=True)
class ScenarioRun:
    """A frozen handle on one configured scenario.

    Equality and hashing go by ``fingerprint`` (two runs of the same
    config are the same run); every :class:`PaperScenario` attribute —
    ``bot``, ``control``, ``partition``, ``report(tag)``,
    ``table1_rows()`` — is available by delegation.
    """

    config: ScenarioConfig
    fingerprint: str
    _scenario: PaperScenario = field(repr=False, compare=False)

    def report(self, tag: str) -> Report:
        """Look up a report by its Table 1/2 tag."""
        return self._scenario.report(tag)

    def table1_rows(self) -> List[dict]:
        """The report inventory in the shape of the paper's Table 1."""
        return self._scenario.table1_rows()

    @property
    def scenario(self) -> PaperScenario:
        """The underlying :class:`PaperScenario` (what the experiment
        modules take)."""
        return self._scenario

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(object.__getattribute__(self, "_scenario"), name)


def run_scenario(
    config: Optional[ScenarioConfig] = None,
    *,
    small: bool = False,
    seed: Optional[int] = None,
) -> ScenarioRun:
    """Configure (but do not yet build) the paper's datasets.

    ``small=True`` selects the ~100x reduced test configuration; ``seed``
    overrides the config's seed.  Nothing is simulated until a report is
    first touched, and scenarios are shared per config fingerprint, so
    calling this repeatedly is free.
    """
    if config is None:
        config = ScenarioConfig.small() if small else ScenarioConfig()
    elif small:
        raise ValueError("pass either a config or small=True, not both")
    if seed is not None:
        config = replace(config, seed=seed)
    with obs_trace.span("api.run_scenario", small=small):
        scenario = _scenario_for(config)
    return ScenarioRun(
        config=scenario.config,
        fingerprint=scenario.config.fingerprint(),
        _scenario=scenario,
    )


ScenarioLike = Union[ScenarioRun, PaperScenario, ScenarioConfig, None]


def _resolve_scenario(
    scenario: ScenarioLike, pack: Optional[str] = None
) -> PaperScenario:
    if pack is not None:
        if isinstance(scenario, (ScenarioRun, PaperScenario)):
            base = scenario.config
        elif isinstance(scenario, ScenarioConfig) or scenario is None:
            base = scenario
        else:
            raise TypeError(
                f"expected a ScenarioRun, PaperScenario, ScenarioConfig or "
                f"None, got {type(scenario).__name__}"
            )
        return _scenario_for(get_pack(pack).build(base))
    if isinstance(scenario, ScenarioRun):
        return scenario._scenario
    if isinstance(scenario, PaperScenario):
        return scenario
    if isinstance(scenario, ScenarioConfig) or scenario is None:
        return _scenario_for(scenario)
    raise TypeError(
        f"expected a ScenarioRun, PaperScenario, ScenarioConfig or None, "
        f"got {type(scenario).__name__}"
    )


def list_packs() -> List[ScenarioPack]:
    """The registered scenario packs (see :mod:`repro.scenarios`)."""
    return _registry_list_packs()


def run_pack(
    name: str,
    *,
    base: Optional[ScenarioConfig] = None,
    small: bool = False,
    seed: Optional[int] = None,
) -> ScenarioRun:
    """Configure a scenario pack's world (see :mod:`repro.scenarios`).

    A pack is a pure config transform, so the returned run flows through
    the same fingerprint-keyed caches as any hand-built config —
    ``run_pack("paper-default")`` is byte-for-byte ``run_scenario()``.
    """
    with obs_trace.span("api.run_pack", pack=name):
        config = get_pack(name).build(base, small=small, seed=seed)
        return run_scenario(config)


def _as_report(scenario: PaperScenario, report: Union[str, Report]) -> Report:
    if isinstance(report, Report):
        return report
    return scenario.report(report)


def _mc_rng(
    data_seed: int,
    rng: Optional[np.random.Generator],
    seed: Optional[int],
) -> np.random.Generator:
    """The Monte-Carlo generator: ``rng``, else one seeded with ``seed``,
    else :func:`monte_carlo_rng` of the world's ``data_seed`` (a fleet
    passes its first shard's, so fleet results reproduce from config)."""
    if rng is not None:
        if seed is not None:
            raise ValueError("pass either rng or seed, not both")
        return rng
    if seed is not None:
        return np.random.default_rng(seed)
    return monte_carlo_rng(data_seed)


# -- the predictor-generic evaluation entry ---------------------------------

#: Cached evaluation results per evaluation fingerprint, bounded.  The
#: key always embeds the predictor fingerprint, so rival models over one
#: scenario occupy distinct entries by construction.
_EVALUATIONS: _LRUCache[object] = _LRUCache(
    32, "api.evaluation_cache.evictions"
)

#: The metric vocabulary of :func:`evaluate`.
_METRICS = ("density", "prediction", "blocking", "all")

TrainLike = Union[str, Report, Sequence[Union[str, Report]]]


def list_predictors() -> List[str]:
    """Registered predictor names (see :mod:`repro.predict.registry`)."""
    return _registry_list()


def make_predictor(name: str, **params) -> BasePredictor:
    """Construct a registered predictor by name with hyperparameters."""
    return _registry_make(name, **params)


def _training_reports(sc: PaperScenario, train: TrainLike) -> dict:
    """Resolve ``train`` (tag, report, or a sequence of either) to the
    tag-keyed mapping predictors fit on."""
    if isinstance(train, (str, Report)):
        train = (train,)
    reports = {}
    for item in train:
        report = _as_report(sc, item)
        if report.tag in reports:
            raise ValueError(f"duplicate training tag {report.tag!r}")
        reports[report.tag] = report
    if not reports:
        raise ValueError("at least one training report is required")
    return reports


def _resolve_predictor(
    predictor: Union[str, Predictor], params: Optional[dict]
) -> BasePredictor:
    if isinstance(predictor, str):
        return _registry_make(predictor, **(params or {}))
    if params:
        raise ValueError(
            "params only apply when the predictor is given by name"
        )
    return predictor


def _evaluation_key(
    sc: PaperScenario,
    predictor: BasePredictor,
    metric: str,
    training: dict,
    present: Optional[Report],
    control: Optional[Report],
    knobs: dict,
) -> str:
    """Fingerprint of one evaluation — scenario and **predictor**
    fingerprints plus every result-shaping knob.

    Threading the predictor fingerprint through the key is what keeps
    two models over the same scenario from ever colliding in the
    fingerprint-keyed caches (in-memory LRU and artifact store alike).
    Report identities hash by content digest, not tag alone, so a
    caller-supplied custom report never aliases a scenario tag.
    """
    identity = {
        "kind": "api.evaluate",
        "scenario": sc.config.fingerprint(),
        "predictor": predictor.fingerprint(),
        "metric": metric,
        "train": sorted(
            [tag, _report_digest(report)] for tag, report in training.items()
        ),
        "present": None if present is None else [
            present.tag, _report_digest(present)
        ],
        "control": None if control is None else [
            control.tag, _report_digest(control)
        ],
        "knobs": knobs,
    }
    return _fingerprint(identity)


def evaluate(
    scenario: ScenarioLike = None,
    predictor: Union[str, Predictor] = "uncleanliness",
    *,
    metric: str = "prediction",
    train: TrainLike = "bot-test",
    present: Union[str, Report] = "bot",
    control: Union[str, Report] = "control",
    params: Optional[dict] = None,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    prefixes: Optional[Sequence[int]] = None,
    subsets: int = 1000,
    include_naive: bool = False,
    naive_subsets: int = 20,
    pack: Optional[str] = None,
):
    """The single evaluation entry: any predictor, any paper metric.

    ``pack`` names a scenario pack to apply before evaluation: the
    pack's transform runs over the given scenario's config (or the
    default when none is given) and the evaluation targets the variant
    world.

    ``predictor`` is a registry name (with optional constructor
    ``params``) or any fitted-or-not :class:`repro.predict.Predictor`;
    it is (re)fitted on the ``train`` reports.  ``metric`` selects the
    result:

    ``"density"``
        §4 spatial test of the training report(s) —
        :class:`DensityResult` (predictor-independent; the model's
        training feed is what is tested).
    ``"prediction"``
        §5 temporal test of the model's predicted blocks against
        ``present`` — :class:`PredictionResult`.
    ``"blocking"``
        §6 Table-3 virtual block of the model's predicted blocks over
        the scenario partition — :class:`BlockingResult`.
    ``"all"``
        Prediction + blocking + hostile-vs-innocent ROC in one
        :class:`repro.predict.ModelEvaluation`.

    Results are cached (in-memory, and in the artifact store for
    ``metric="all"``) under a key embedding the scenario *and
    predictor* fingerprints whenever no live ``rng`` is passed — with
    an explicit generator the caller controls the stream and the result
    is not a pure function of the key.
    """
    if metric not in _METRICS:
        raise ValueError(
            f"unknown metric {metric!r}; expected one of {_METRICS}"
        )
    sc = _resolve_scenario(scenario, pack)
    training = _training_reports(sc, train)
    model = _resolve_predictor(predictor, params)
    model.fit(training, window=PAPER_WINDOWS.OCTOBER)

    if metric == "density":
        reports = list(training.values())
        unclean = reports[0]
        for extra in reports[1:]:
            unclean = unclean.union(
                extra, tag="+".join(sorted(training))
            )
        with obs_trace.span("api.evaluate", metric=metric,
                            predictor=model.name):
            return _density_test(
                unclean,
                _as_report(sc, control),
                _mc_rng(sc.config.seed, rng, seed),
                prefixes=tuple(PREFIX_RANGE if prefixes is None else prefixes),
                subsets=subsets,
                include_naive=include_naive,
                naive_subsets=naive_subsets,
            )

    present_report = _as_report(sc, present) if metric != "blocking" else None
    control_report = _as_report(sc, control) if metric != "blocking" else None
    knobs = {
        "prefixes": None if prefixes is None else tuple(prefixes),
        "subsets": subsets,
        "seed": seed,
    }
    cacheable = rng is None
    key = None
    if cacheable:
        key = _evaluation_key(
            sc, model, metric, training, present_report, control_report, knobs
        )
        cached = _EVALUATIONS.get(key)
        if cached is not None:
            obs_metrics.inc("api.evaluation_cache.hits")
            return cached
        if metric == "all":
            stored = default_store().get(f"eval-{key}", EvaluationCodec())
            if stored is not MISS:
                _EVALUATIONS.put(key, stored)
                obs_metrics.inc("api.evaluation_cache.disk_hits")
                return stored

    with obs_trace.span("api.evaluate", metric=metric, predictor=model.name):
        if metric == "blocking":
            blocking_prefixes = tuple(
                prefixes if prefixes is not None else BLOCKING_PREFIXES
            )
            result = _blocking_test_blocks(
                sc.partition,
                [model.score_blocks(n).blocks for n in blocking_prefixes],
                blocking_prefixes,
            )
        else:
            evaluation = evaluate_predictor(
                model,
                present_report,
                control_report,
                _mc_rng(sc.config.seed, rng, seed),
                partition=sc.partition if metric == "all" else None,
                prefixes=tuple(PREFIX_RANGE if prefixes is None else prefixes),
                subsets=subsets,
            )
            result = evaluation if metric == "all" else evaluation.prediction

    if cacheable:
        _EVALUATIONS.put(key, result)
        if metric == "all":
            default_store().put(f"eval-{key}", result, EvaluationCodec())
    return result


def compare(
    scenario: ScenarioLike = None,
    predictors: Optional[Sequence[Union[str, Predictor]]] = None,
    *,
    train: TrainLike = "bot-test",
    present: Union[str, Report] = "bot",
    control: Union[str, Report] = "control",
    params: Optional[dict] = None,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    prefixes: Optional[Sequence[int]] = None,
    subsets: int = 1000,
    pack: Optional[str] = None,
) -> ComparisonResult:
    """Head-to-head evaluation of rival predictors over one scenario.

    ``pack`` applies a scenario pack to the (given or default) config
    first — the natural way to ask "which model wins under churn?".

    ``predictors`` lists registry names and/or predictor instances
    (default: every built-in model); ``params`` maps predictor names to
    constructor keyword dicts.  All models fit on the same ``train``
    feeds and share one §5 Monte-Carlo null per training cardinality,
    then each runs the Table-3 block and the hostile-vs-innocent ROC.
    Cached like :func:`evaluate`, keyed by every model's fingerprint.
    """
    sc = _resolve_scenario(scenario, pack)
    training = _training_reports(sc, train)
    chosen = list(predictors) if predictors is not None else list(
        DEFAULT_PREDICTORS
    )
    if not chosen:
        raise ValueError("at least one predictor is required")
    params = params or {}
    unknown = set(params) - {p for p in chosen if isinstance(p, str)}
    if unknown:
        raise ValueError(
            f"params given for predictors not in the comparison: "
            f"{sorted(unknown)}"
        )
    models = [
        _resolve_predictor(p, params.get(p) if isinstance(p, str) else None)
        for p in chosen
    ]
    for model in models:
        model.fit(training, window=PAPER_WINDOWS.OCTOBER)

    present_report = _as_report(sc, present)
    control_report = _as_report(sc, control)
    knobs = {
        "prefixes": None if prefixes is None else tuple(prefixes),
        "subsets": subsets,
        "seed": seed,
        "models": [model.fingerprint() for model in models],
    }
    cacheable = rng is None
    key = None
    if cacheable:
        key = _fingerprint(
            {
                "kind": "api.compare",
                "scenario": sc.config.fingerprint(),
                "present": [present_report.tag, _report_digest(present_report)],
                "control": [control_report.tag, _report_digest(control_report)],
                "knobs": knobs,
            }
        )
        cached = _EVALUATIONS.get(key)
        if cached is not None:
            obs_metrics.inc("api.evaluation_cache.hits")
            return cached

    with obs_trace.span(
        "api.compare", predictors=",".join(m.name for m in models)
    ):
        result = compare_predictors(
            models,
            present_report,
            control_report,
            _mc_rng(sc.config.seed, rng, seed),
            partition=sc.partition,
            prefixes=tuple(PREFIX_RANGE if prefixes is None else prefixes),
            subsets=subsets,
        )
    if cacheable:
        _EVALUATIONS.put(key, result)
    return result


# -- fleet / clearinghouse ---------------------------------------------------

FleetLike = Union[FleetResult, FleetConfig, Sequence[NetworkShard], None]

#: Policy keywords ``run_fleet`` forwards into :class:`FleetConfig`.
_FLEET_POLICY_KEYS = (
    "feed_tags",
    "deadline",
    "max_retries",
    "backoff",
    "quorum",
    "max_staleness_days",
    "workers",
    "prefix_len",
)


def _resolve_fleet(fleet: FleetLike, count: int, seed: Optional[int],
                   small: bool, pack: Optional[str], vantage: str,
                   policy: dict) -> FleetConfig:
    if fleet is None:
        base_seed = seed if seed is not None else ScenarioConfig().seed
        return heterogeneous_fleet(
            count, seed=base_seed, small=small, pack=pack, vantage=vantage,
            **policy,
        )
    if pack is not None or vantage != "global":
        raise ValueError(
            "pack/vantage only apply when run_fleet builds the default "
            "heterogeneous fleet (fleet=None); shape explicit shards with "
            "heterogeneous_fleet(pack=..., vantage=...) instead"
        )
    if isinstance(fleet, FleetConfig):
        return replace(fleet, **policy) if policy else fleet
    if isinstance(fleet, FleetResult):
        return replace(fleet.config, **policy) if policy else fleet.config
    return FleetConfig(shards=tuple(fleet), **policy)


def run_fleet(
    fleet: FleetLike = None,
    *,
    count: int = 3,
    seed: Optional[int] = None,
    small: bool = False,
    pack: Optional[str] = None,
    vantage: str = "global",
    runner=None,
    checkpoint: bool = True,
    **policy,
) -> FleetResult:
    """Run a multi-network fleet and pool it through the clearinghouse.

    ``fleet`` may be a :class:`FleetConfig`, a sequence of
    :class:`NetworkShard`, a previous :class:`FleetResult` (re-run the
    same membership), or ``None`` — the default
    :func:`~repro.fleet.heterogeneous_fleet` of ``count`` dissimilar
    networks.  Policy keywords (``deadline``, ``max_retries``,
    ``backoff``, ``quorum``, ``max_staleness_days``, ``workers``, ...)
    pass through to :class:`FleetConfig`.

    ``pack`` runs the default fleet over a scenario-pack world, and
    ``vantage="as"`` pins each member to one autonomous system of that
    world (see :func:`~repro.fleet.heterogeneous_fleet`); both apply
    only when ``fleet`` is ``None``.

    Completed shards checkpoint through the artifact store, so a re-run
    after a crash resumes instantly; shards that exhaust their retries
    are quarantined and the result's clearinghouse degrades gracefully
    (see :meth:`FleetResult.manifest`).
    """
    unknown = set(policy) - set(_FLEET_POLICY_KEYS)
    if unknown:
        raise TypeError(f"unknown fleet policy keywords: {sorted(unknown)}")
    config = _resolve_fleet(fleet, count, seed, small, pack, vantage, policy)
    with obs_trace.span("api.run_fleet", shards=len(config.shards)):
        supervisor = FleetSupervisor(
            config, runner=runner, checkpoint=checkpoint
        )
        return supervisor.run()


def _resolve_fleet_result(fleet: FleetLike, **kwargs) -> FleetResult:
    if isinstance(fleet, FleetResult):
        return fleet
    return run_fleet(fleet, **kwargs)


def fleet_density_test(
    fleet: FleetLike = None,
    report: str = "bot",
    *,
    control: str = "control",
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    prefixes: Sequence[int] = tuple(PREFIX_RANGE),
    subsets: int = 1000,
) -> DensityResult:
    """The §4.2 spatial test on the *pooled* clearinghouse view.

    Pools ``report`` and ``control`` across every available feed and
    runs the density test on the union — the clearinghouse's answer to
    "is pooled unclean space denser than pooled address space?".
    """
    result = _resolve_fleet_result(fleet)
    ch = result.clearinghouse
    pooled = ch.pooled_report(report)
    with obs_trace.span("api.fleet_density_test", report=pooled.tag):
        return _density_test(
            pooled,
            ch.pooled_report(control),
            _mc_rng(result.config.shards[0].config.seed, rng, seed),
            prefixes=prefixes,
            subsets=subsets,
        )


def fleet_prediction_test(
    fleet: FleetLike,
    target: str,
    past: str = "bot-test",
    present: str = "bot",
    *,
    control: str = "control",
    cross: bool = True,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    prefixes: Sequence[int] = tuple(PREFIX_RANGE),
    subsets: int = 1000,
) -> PredictionResult:
    """The §5.2 temporal test *across* networks.

    With ``cross=True`` (the paper's multi-vantage-point claim) the
    past report is pooled from every available feed **except**
    ``target``, and tested against ``target``'s own present report and
    control population: other networks' old uncleanliness predicting
    this network's current botnet space.  ``cross=False`` uses the
    target's local past report (the single-network baseline).
    """
    result = _resolve_fleet_result(fleet)
    ch = result.clearinghouse
    feed = ch.feed(target)
    past_report = (
        ch.pooled_report(past, exclude=(target,)) if cross
        else feed.reports[past]
    )
    with obs_trace.span(
        "api.fleet_prediction_test", target=target, cross=cross
    ):
        return _prediction_test(
            past_report,
            feed.reports[present],
            feed.reports[control],
            _mc_rng(result.config.shards[0].config.seed, rng, seed),
            prefixes=prefixes,
            subsets=subsets,
        )


# -- streaming service -------------------------------------------------------

#: Report feeds a scenario delivers to the stream (everything in Table 1
#: except the detector-computed ``scan``/``spam`` and derived ``unclean``).
STREAM_FEED_TAGS = (
    "bot", "phish", "phish-present", "bot-test", "phish-test", "control",
)


def _stream_config_for(
    config: ScenarioConfig, prefix_len: int, threshold: float
) -> StreamConfig:
    """The stream calibrated to a scenario (replay-equivalent settings)."""
    return StreamConfig(
        window=PAPER_WINDOWS.OCTOBER,
        prefix_len=prefix_len,
        threshold=threshold,
        scan_detector=config.scan_detector,
        spam_detector=config.spam_detector,
    )


def pending_batches(
    service: UncleanlinessService, scenario: ScenarioLike = None
) -> Iterator[DayBatch]:
    """The scenario's day-batches ``service`` has not ingested, oldest first.

    Nothing is pending once the service's cursor is at the head of its
    window, and the scenario is then never built.  A cold service gets
    the scenario's feeds with its first batch; one resumed from a
    checkpoint already holds the merged feeds, so only the remaining
    days' flows are replayed.
    """
    if service.cursor >= service.config.window.end_day:
        return
    sc = _resolve_scenario(scenario)
    provided = None
    if service.state.days_ingested == 0:
        provided = {tag: sc.report(tag) for tag in STREAM_FEED_TAGS}
    yield from day_batches(
        sc.october_traffic, provided, from_day=service.cursor + 1
    )


def stream_service(
    scenario: ScenarioLike = None,
    *,
    small: bool = False,
    seed: Optional[int] = None,
    prefix_len: int = 24,
    threshold: float = 0.5,
    warm: bool = True,
    checkpointing: bool = True,
) -> UncleanlinessService:
    """The streaming uncleanliness service for a scenario's traffic.

    Resumes from the newest day checkpoint when one exists, then (with
    ``warm=True``) folds in any days not yet ingested, so the returned
    service always answers for the scenario's full window.  Services
    are shared per stream fingerprint, so repeated calls — and the
    :func:`score` / :func:`is_blocked` / :func:`top_blocks` one-liners —
    reuse the warm index.
    """
    if scenario is None and (small or seed is not None):
        scenario = run_scenario(small=small, seed=seed)
    elif small or seed is not None:
        raise ValueError("pass either a scenario or small=/seed=, not both")
    sc = _resolve_scenario(scenario)
    config = _stream_config_for(sc.config, prefix_len, threshold)
    source = sc.config.fingerprint()
    with obs_trace.span("api.stream_service", source=source):
        service = _SERVICES.get(stream_fingerprint(config, source))
        if service is None:
            service = UncleanlinessService.resume(
                config, source=source, checkpointing=checkpointing
            )
            _SERVICES.put(service.fingerprint, service)
        if warm:
            for batch in pending_batches(service, sc):
                service.ingest(batch)
    return service


def score(
    address: AddressLike,
    scenario: ScenarioLike = None,
    *,
    small: bool = False,
    seed: Optional[int] = None,
    prefix_len: int = 24,
) -> float:
    """Uncleanliness score of the block containing ``address`` — the §7
    metric served from the streaming index (0.0 for unreported space)."""
    return stream_service(
        scenario, small=small, seed=seed, prefix_len=prefix_len
    ).score(address)


def is_blocked(
    address: AddressLike,
    scenario: ScenarioLike = None,
    *,
    small: bool = False,
    seed: Optional[int] = None,
    prefix_len: int = 24,
    threshold: float = 0.5,
) -> bool:
    """Whether ``address`` is inside the current recommended blocklist."""
    return stream_service(
        scenario, small=small, seed=seed,
        prefix_len=prefix_len, threshold=threshold,
    ).is_blocked(address)


def top_blocks(
    count: int = 10,
    scenario: ScenarioLike = None,
    *,
    small: bool = False,
    seed: Optional[int] = None,
    prefix_len: int = 24,
) -> List[dict]:
    """The ``count`` most unclean blocks with per-class evidence."""
    return stream_service(
        scenario, small=small, seed=seed, prefix_len=prefix_len
    ).top_blocks(count)
