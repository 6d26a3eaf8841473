"""The traced run: per-layer spans recorded from outside the program.

Nothing under ``src/`` is edited to produce the per-layer table.  While
:func:`installed` is active, every layer's public entry point is
replaced by a thin wrapper that records one span per call and restores
the original callable on exit:

* class methods (``ScanDetector.detect``, ``StageEngine.resolve``,
  ``ArtifactStore.get``, ...) are swapped on their class, so every
  instance and every caller sees the wrapper;
* module functions (``monte_carlo``, ``partition_candidates``, the
  batched prefix kernels, the fleet's shard runner) are swapped in every
  loaded ``repro`` module that bound them, under any name, because
  ``from x import f as _f`` copies the reference into the importer.

A layer's *busy* time is the wall time of its outermost calls (a layer
re-entered through itself counts once); its *self* time subtracts the
time of wrapped calls made inside it.  The self times of all layers sum
to the traced wall time minus ``unattributed_s``, the time no wrapper
claims.

End-to-end numbers never come from a traced run: the wrappers cost a
few microseconds per call, which the run reports as
``trace_overhead_frac``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "COUNTERS",
    "Hook",
    "HOOKS",
    "LayerStats",
    "LayerTrace",
    "PER_LAYER",
    "REQUIRED_LAYERS",
    "counter_totals",
    "import_sites",
    "installed",
    "layer_metrics",
]


@dataclass
class LayerStats:
    """What one layer did during a traced run."""

    calls: int = 0
    #: Wall time of the layer's outermost calls.
    busy_s: float = 0.0
    #: Wall time minus the wrapped calls made inside it.
    self_s: float = 0.0
    #: Layer-specific work (flows, trials, store hits), outermost calls.
    units: float = 0.0


class LayerTrace:
    """An in-memory span recorder keyed by layer name."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStats] = {}
        self._stack: List[list] = []  # [layer, started, child seconds]
        self._depth: Dict[str, int] = {}

    # The clock is read as early in enter() and as late in exit() as the
    # bookkeeping allows, so the recorder's own cost lands in the layer
    # and not in ``unattributed_s``.

    def enter(self, layer: str, started: float) -> list:
        frame = [layer, started, 0.0]
        self._depth[layer] = self._depth.get(layer, 0) + 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, units: float = 0.0) -> None:
        self._stack.pop()
        layer, started, child = frame
        self._depth[layer] -= 1
        stats = self.stats.get(layer)
        if stats is None:
            stats = self.stats[layer] = LayerStats()
        outermost = not self._depth[layer]
        elapsed = time.perf_counter() - started
        stats.calls += 1
        stats.self_s += elapsed - child
        if outermost:
            stats.busy_s += elapsed
            stats.units += units
        if self._stack:
            self._stack[-1][2] += elapsed

    def get(self, layer: str) -> LayerStats:
        return self.stats.get(layer, LayerStats())

    def self_total(self) -> float:
        return sum(stats.self_s for stats in self.stats.values())


Units = Callable[[tuple, dict, object], float]


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point: ``module:Qualified.name`` -> layer."""

    target: str
    layer: Union[str, Callable[[tuple], str]]
    units: Optional[Units] = None


def _flows_arg(args, kwargs, result) -> float:
    return len(args[1] if len(args) > 1 else kwargs["flows"])


def _trial_count(args, kwargs, result) -> float:
    return args[2] if len(args) > 2 else kwargs["count"]


def _store_hit(args, kwargs, result) -> float:
    from repro.engine.store import MISS

    return float(result is not MISS)


def _predictor_layer(suffix: str) -> Callable[[tuple], str]:
    return lambda args: f"predict.{args[0].name}.{suffix}"


HOOKS: Tuple[Hook, ...] = (
    # world build
    Hook("repro.sim.internet:SyntheticInternet.__init__", "sim.internet"),
    Hook(
        "repro.sim.internet:SyntheticInternet.sample_unique_hosts",
        "sim.control_sample",
    ),
    Hook("repro.sim.botnet:BotnetSimulation.__init__", "sim.botnet"),
    Hook("repro.sim.phishing:PhishingSimulation.__init__", "sim.phishing"),
    Hook(
        "repro.flows.generator:TrafficGenerator.generate",
        "flows.generate",
        lambda args, kwargs, result: len(result.flows),
    ),
    Hook("repro.detect.scan:ScanDetector.detect", "detect.scan", _flows_arg),
    Hook("repro.detect.spam:SpamDetector.detect", "detect.spam", _flows_arg),
    # The stream folds spam through the aggregates, not the detector.
    Hook(
        "repro.detect.spam:SpamAggregates.from_flows", "detect.spam", _flows_arg
    ),
    Hook("repro.detect.botlog:BotLogMonitor.observe", "detect.feeds"),
    Hook("repro.detect.phishlist:PhishListAggregator.observe", "detect.feeds"),
    Hook("repro.engine.stage:StageEngine.resolve", "engine.stage"),
    Hook("repro.core.blocking:partition_candidates", "core.partition"),
    # the evaluators' own statistics, around the Monte Carlo they call
    Hook("repro.core.density:density_test", "core.evaluate"),
    Hook("repro.core.prediction:prediction_test", "core.evaluate"),
    Hook("repro.core.blocking:blocking_test_blocks", "core.evaluate"),
    Hook("repro.predict.evaluate:evaluate_predictor", "core.evaluate"),
    Hook("repro.predict.evaluate:compare_predictors", "core.evaluate"),
    # Monte Carlo and the batched prefix kernels
    Hook("repro.core.sampling:monte_carlo", "core.trials", _trial_count),
    Hook("repro.ipspace.kernels:block_counts_2d", "ipspace.kernels"),
    Hook("repro.ipspace.kernels:intersection_counts_2d", "ipspace.kernels"),
    Hook("repro.ipspace.kernels:member_counts_2d", "ipspace.kernels"),
    # artifact store
    Hook("repro.engine.store:ArtifactStore.get", "engine.store.get", _store_hit),
    Hook("repro.engine.store:ArtifactStore.put", "engine.store.put"),
    # predictors, named by the instance's registry name
    Hook("repro.predict.protocol:BasePredictor.fit", _predictor_layer("fit")),
    Hook(
        "repro.predict.protocol:BasePredictor.score_blocks",
        _predictor_layer("score"),
    ),
    # streaming service
    Hook("repro.core.folds:slice_day", "stream.batches"),
    Hook("repro.stream.state:IncrementalState.ingest", "stream.ingest"),
    Hook("repro.stream.service:UncleanlinessService.ingest", "stream.checkpoint"),
    Hook("repro.stream.service:UncleanlinessService.score", "stream.lookup"),
    Hook("repro.stream.service:UncleanlinessService.is_blocked", "stream.lookup"),
    Hook(
        "repro.stream.service:UncleanlinessService.scores_at",
        "stream.scores_at",
        lambda args, kwargs, result: len(result),
    ),
    Hook("repro.stream.service:UncleanlinessService.top_blocks", "stream.top_blocks"),
    # fleet
    Hook("repro.fleet.supervisor:FleetSupervisor.run", "fleet.supervisor"),
    Hook("repro.fleet.supervisor:scenario_reports", "fleet.shard"),
    Hook("repro.fleet.clearinghouse:Clearinghouse.__init__", "fleet.clearinghouse"),
    Hook("repro.fleet.clearinghouse:Clearinghouse.pooled_report", "fleet.clearinghouse"),
    Hook("repro.fleet.clearinghouse:Clearinghouse.pooled_scores", "fleet.clearinghouse"),
)


def _wrap(fn: Callable, trace: LayerTrace, hook: Hook) -> Callable:
    layer, units = hook.layer, hook.units
    layer_of = layer if callable(layer) else (lambda args: layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        frame = trace.enter(layer_of(args), started)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            trace.exit(frame)
            raise
        trace.exit(frame, units(args, kwargs, result) if units else 0.0)
        return result

    return wrapper


def _repro_modules() -> List[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def import_sites(function: Callable) -> List[Tuple[object, str]]:
    """Every loaded ``repro`` module attribute bound to ``function``,
    under any name (``from x import f as _f`` included)."""
    return [
        (module, alias)
        for module in _repro_modules()
        for alias, value in list(vars(module).items())
        if value is function
    ]


@contextlib.contextmanager
def installed(
    trace: LayerTrace, hooks: Tuple[Hook, ...] = HOOKS
) -> Iterator[LayerTrace]:
    """Wrap every hook's entry point for the duration of the block.

    On exit every replaced attribute gets its original object back —
    including references to a wrapper that a module imported *during*
    the block copied into its own namespace.
    """
    undo: List[Tuple[object, str, object]] = []
    # Module-function wrappers by id, kept alive (so ids stay unique)
    # until every copy of them has been swapped back.
    wrappers: Dict[int, Tuple[Callable, Callable]] = {}
    try:
        for hook in hooks:
            module_name, _, path = hook.target.partition(":")
            owner = importlib.import_module(module_name)
            *parents, name = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            if isinstance(owner, type):
                original = owner.__dict__[name]
                if isinstance(original, (classmethod, staticmethod)):
                    replacement = type(original)(
                        _wrap(original.__func__, trace, hook)
                    )
                else:
                    replacement = _wrap(original, trace, hook)
                setattr(owner, name, replacement)
                undo.append((owner, name, original))
                continue
            original = getattr(owner, name)
            wrapper = _wrap(original, trace, hook)
            wrappers[id(wrapper)] = (wrapper, original)
            for module, alias in import_sites(original):
                setattr(module, alias, wrapper)
                undo.append((module, alias, original))
        yield trace
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])


def counter_totals(prefixes: Tuple[str, ...]) -> Dict[str, int]:
    """Sum of the program's own counters under each name prefix."""
    from repro.obs import metrics

    registry = metrics.registry()
    totals = {prefix: 0 for prefix in prefixes}
    for name in registry.names():
        metric = registry.get(name)
        if metric.kind != "counter":
            continue
        for prefix in prefixes:
            if name.startswith(prefix):
                totals[prefix] += metric.value
    return totals


#: Program counters the per-layer table reads (deltas over the run).
COUNTERS = ("stage.builds.", "store.bytes.", "store.retries", "mc.chunk_retries",
            "fleet.shard.quarantined")

MODELS = ("uncleanliness", "recommender", "graphcluster")

#: Every per-layer metric, in report order, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.internet.busy_s", "s"),
    ("sim.control_sample.busy_s", "s"),
    ("sim.botnet.busy_s", "s"),
    ("sim.phishing.busy_s", "s"),
    ("flows.generate.busy_s", "s"),
    ("flows.generate.flows_per_s", "1/s"),
    ("detect.scan.busy_s", "s"),
    ("detect.scan.flows_per_s", "1/s"),
    ("detect.spam.busy_s", "s"),
    ("detect.spam.flows_per_s", "1/s"),
    ("detect.feeds.busy_s", "s"),
    ("engine.stage.self_s", "s"),
    ("engine.stage.builds", "count"),
    ("core.partition.busy_s", "s"),
    ("core.evaluate.self_s", "s"),
    ("core.trials.busy_s", "s"),
    ("core.trials.trials", "count"),
    ("core.trials.trials_per_s", "1/s"),
    ("core.trials.retries", "count"),
    ("ipspace.kernels.busy_s", "s"),
    ("engine.store.get_s", "s"),
    ("engine.store.put_s", "s"),
    ("engine.store.gets", "count"),
    ("engine.store.hit_ratio", "ratio"),
    ("engine.store.bytes_written", "bytes"),
    ("engine.store.retries", "count"),
    *(
        (f"predict.{model}.{kind}_s", "s")
        for model in MODELS
        for kind in ("fit", "score")
    ),
    ("stream.batches.busy_s", "s"),
    ("stream.ingest.busy_s", "s"),
    ("stream.checkpoint.put_s", "s"),
    ("stream.ingest_day_p50_ms", "ms"),
    ("stream.lookup.count", "count"),
    ("stream.lookup.p50_us", "us"),
    ("stream.lookup.p99_us", "us"),
    ("stream.lookups_per_s", "1/s"),
    ("stream.scores_at.addrs_per_s", "1/s"),
    ("stream.top_blocks.busy_s", "s"),
    ("fleet.shard.busy_s", "s"),
    ("fleet.clearinghouse.busy_s", "s"),
    ("fleet.supervisor.self_s", "s"),
    ("fleet.quarantined", "count"),
    ("unattributed_s", "s"),
    ("trace_overhead_frac", "ratio"),
)

_WORLD = (
    "sim.internet", "sim.control_sample", "sim.botnet", "sim.phishing",
    "flows.generate", "detect.scan", "detect.spam", "detect.feeds",
    "engine.stage",
)
_PREDICT = tuple(
    f"predict.{model}.{kind}" for model in MODELS for kind in ("fit", "score")
)

#: Layers whose wrapper must fire at least once on each workload.
REQUIRED_LAYERS: Dict[str, Tuple[str, ...]] = {
    "reproduce-cold": _WORLD + (
        "core.partition", "core.evaluate", "core.trials", "ipspace.kernels",
        "engine.store.get", "engine.store.put",
    ) + _PREDICT,
    "reproduce-warm": (
        "engine.stage", "core.evaluate", "core.trials", "ipspace.kernels",
        "engine.store.get",
    ) + _PREDICT,
    "stream-serve": _WORLD + (
        "stream.batches", "stream.ingest", "stream.checkpoint", "stream.lookup",
        "stream.scores_at", "stream.top_blocks",
        "engine.store.get", "engine.store.put",
    ),
    "fleet-pooled": _WORLD + (
        "core.evaluate", "core.trials", "ipspace.kernels", "engine.store.get",
        "engine.store.put", "fleet.supervisor", "fleet.shard",
        "fleet.clearinghouse",
    ),
}


def _rate(units: float, seconds: float) -> float:
    return units / seconds if seconds > 0 else 0.0


def layer_metrics(trace: LayerTrace, counters: Dict[str, int]) -> Dict[str, float]:
    """The per-layer values a traced run measured (trace-derived part).

    ``counters`` holds the deltas of :data:`COUNTERS` over the run.
    Latency percentiles, ``unattributed_s`` and the overhead are filled
    in by the caller, which owns the workload's own measurements.
    """
    get = trace.get
    store_get = get("engine.store.get")
    values = {
        "sim.internet.busy_s": get("sim.internet").busy_s,
        "sim.control_sample.busy_s": get("sim.control_sample").busy_s,
        "sim.botnet.busy_s": get("sim.botnet").busy_s,
        "sim.phishing.busy_s": get("sim.phishing").busy_s,
        "detect.feeds.busy_s": get("detect.feeds").busy_s,
        "engine.stage.self_s": get("engine.stage").self_s,
        "engine.stage.builds": counters["stage.builds."],
        "core.partition.busy_s": get("core.partition").busy_s,
        "core.evaluate.self_s": get("core.evaluate").self_s,
        "core.trials.busy_s": get("core.trials").busy_s,
        "core.trials.trials": get("core.trials").units,
        "core.trials.trials_per_s": _rate(
            get("core.trials").units, get("core.trials").busy_s
        ),
        "core.trials.retries": counters["mc.chunk_retries"],
        "ipspace.kernels.busy_s": get("ipspace.kernels").busy_s,
        "engine.store.get_s": store_get.busy_s,
        "engine.store.put_s": get("engine.store.put").busy_s,
        "engine.store.gets": store_get.calls,
        "engine.store.hit_ratio": _rate(store_get.units, store_get.calls),
        "engine.store.bytes_written": counters["store.bytes."],
        "engine.store.retries": counters["store.retries"],
        "stream.batches.busy_s": get("stream.batches").busy_s,
        "stream.ingest.busy_s": get("stream.ingest").busy_s,
        "stream.checkpoint.put_s": (
            get("stream.checkpoint").busy_s - get("stream.ingest").busy_s
        ),
        "stream.lookup.count": get("stream.lookup").calls,
        "stream.scores_at.addrs_per_s": _rate(
            get("stream.scores_at").units, get("stream.scores_at").busy_s
        ),
        "stream.top_blocks.busy_s": get("stream.top_blocks").busy_s,
        "fleet.shard.busy_s": get("fleet.shard").busy_s,
        "fleet.clearinghouse.busy_s": get("fleet.clearinghouse").busy_s,
        "fleet.supervisor.self_s": get("fleet.supervisor").self_s,
        "fleet.quarantined": counters["fleet.shard.quarantined"],
    }
    for layer in ("flows.generate", "detect.scan", "detect.spam"):
        stats = get(layer)
        values[f"{layer}.busy_s"] = stats.busy_s
        values[f"{layer}.flows_per_s"] = _rate(stats.units, stats.busy_s)
    for model in MODELS:
        values[f"predict.{model}.fit_s"] = get(f"predict.{model}.fit").busy_s
        values[f"predict.{model}.score_s"] = get(f"predict.{model}.score").busy_s
    return values
