"""The benchmark's four workloads, one per fresh child process.

``run.py`` spawns this module once per measured repetition::

    python -m benchmarks.e2e.workloads --workload reproduce-cold \\
        --seed 20061001 --scale full --trace 0 --spawned <monotonic> \\
        --out result.json

The child imports the program, builds what the workload needs before the
timed region (``prepare``), runs the timed region (``run``), then checks
its outputs untimed (``verify``) and writes one JSON result: set-up and
timed-region seconds, peak RSS, operations attempted and failed, the
named output checks, the output digest, and — with ``--trace 1`` — the
per-layer table of :mod:`benchmarks.e2e.layers`.

Every workload runs the paper-default ``ScenarioConfig`` (or its
``small()`` test variant) with the seed taken from ``--seed``, through
the program's public API only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback
from typing import Dict, List

import numpy as np

__all__ = ["SCALES", "WORKLOADS", "main"]

#: Per-scale workload sizes.  ``full`` is the benchmark; ``small`` runs
#: every code path in seconds for the tests.
SCALES = {
    "full": {"small": False, "subsets": 1000, "lookups_per_day": 20_000},
    "small": {"small": True, "subsets": 100, "lookups_per_day": 500},
}

#: The experiments a reproduction runs, and whether each takes a
#: Monte-Carlo rng and subset count.
EXPERIMENTS = (
    ("table1", False),
    ("table2", False),
    ("table3", False),
    ("figure2", True),
    ("figure3", True),
    ("figure4", True),
    ("figure5", True),
)

#: Seed-sequence word that separates the lookup probes from the world.
PROBE_STREAM = 0x5E7E


class Digest:
    """sha256 over a workload's outputs.

    Score floats enter rounded to 12 decimals, so a last-bit difference
    in a platform's ``exp`` cannot flag a correct run; everything else
    (address sets, counts, formatted tables) enters exactly.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def text(self, value: str) -> None:
        self._hash.update(value.encode("utf-8") + b"\x00")

    def ints(self, values) -> None:
        self._hash.update(np.ascontiguousarray(values).tobytes() + b"\x00")

    def floats(self, values) -> None:
        rounded = np.round(np.asarray(values, dtype=np.float64), 12)
        self._hash.update(rounded.tobytes() + b"\x00")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class Context:
    """One child's bookkeeping: marks, operations, checks, extras."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.scale = args.scale
        self.params = SCALES[args.scale]
        self.spawned = args.spawned
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, bool] = {}
        self.extra: Dict[str, float] = {}
        self.marks: Dict[str, float] = {}
        #: ``[name, seconds]`` per timed phase, in run order.
        self.phases: List[list] = []
        self.digest = ""

    def op(self, count: int = 1, failed: int = 0) -> None:
        self.attempted += count
        self.failed += failed

    @contextlib.contextmanager
    def phase(self, name: str, ops: int = 1):
        """Time one step of the timed region; it counts ``ops``
        operations once it completes."""
        began = time.perf_counter()
        yield
        self.phases.append([name, time.perf_counter() - began])
        self.op(ops)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)
        self.op(failed=0 if ok else 1)

    def mark(self, name: str) -> None:
        self.marks[name] = time.monotonic()

    def config(self):
        from repro.core.scenario import ScenarioConfig

        if self.params["small"]:
            return ScenarioConfig.small(seed=self.seed)
        return ScenarioConfig(seed=self.seed)


def _import_program() -> None:
    """Import everything the workloads call, before any timing starts
    (imports are set-up, and a traced run must not see them)."""
    import repro.api  # noqa: F401
    import repro.core.folds  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.fleet  # noqa: F401
    import repro.stream  # noqa: F401


class Reproduce:
    """Every table and figure, the rival-predictor comparison and the
    §7 /24 score table, as a first (cold) or repeat (warm) user runs it."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def prepare(self) -> None:
        self.config = self.ctx.config()

    def run(self) -> None:
        from repro import api, experiments
        from repro.core import folds
        from repro.sim.timeline import PAPER_WINDOWS

        ctx = self.ctx
        subsets = ctx.params["subsets"]
        run = api.run_scenario(self.config)
        scenario = run.scenario
        self.outputs = []
        for name, takes_rng in EXPERIMENTS:
            module = getattr(experiments, name)
            with ctx.phase(name):
                if takes_rng:
                    # The CLI's convention: a fresh generator per experiment.
                    rng = np.random.default_rng(self.config.seed ^ 0xC1D)
                    result = module.run(scenario, rng, subsets=subsets)
                else:
                    result = module.run(scenario)
                self.outputs.append(module.format_result(result))
        with ctx.phase("compare"):
            self.comparison = api.compare(run, subsets=subsets)
        with ctx.phase("score_blocks"):
            model = api.make_predictor("uncleanliness").fit(
                {tag: run.report(tag) for tag in folds.UNCLEAN_TAGS},
                window=PAPER_WINDOWS.OCTOBER,
            )
            self.ranking = model.score_blocks(24)

    def verify(self) -> None:
        from repro.core.stages import scenario_engine
        from repro.experiments.common import render_table

        digest = Digest()
        for text in self.outputs:
            digest.text(text)
        digest.text(render_table(self.comparison.summary_table()))
        for name, auc in self.comparison.auc_ranking():
            digest.text(name)
            digest.floats([-1.0 if auc is None else auc])
        digest.ints(self.ranking.blocks)
        digest.floats(self.ranking.scores)
        self.ctx.digest = digest.hexdigest()
        if self.ctx.workload == "reproduce-warm":
            builds = sum(scenario_engine().build_counts.values())
            self.ctx.check("warm_zero_world_builds", builds == 0)


def _probes(blocks: np.ndarray, rng: np.random.Generator, count: int,
            prefix_len: int) -> np.ndarray:
    """Lookup addresses: half inside scored blocks, half anywhere."""
    probes = rng.integers(0, 2**32, size=count, dtype=np.uint32)
    half = count // 2
    if blocks.size:
        inside = blocks[rng.integers(0, blocks.size, size=half)]
        offsets = rng.integers(0, 2 ** (32 - prefix_len), size=half,
                               dtype=np.uint32)
        probes[:half] = inside + offsets
    return rng.permutation(probes)


def _lookup_loop(service, probes: np.ndarray):
    """One caller, closed loop: each lookup starts when the last ends.
    Even probes ask ``score``, odd ones ``is_blocked``."""
    latencies = np.empty(probes.size, dtype=np.float64)
    values = np.empty(probes.size, dtype=np.float64)
    score, is_blocked = service.score, service.is_blocked
    clock = time.perf_counter
    for index, address in enumerate(probes.tolist()):
        began = clock()
        if index & 1:
            value = is_blocked(address)
        else:
            value = score(address)
        latencies[index] = clock() - began
        values[index] = value
    return latencies, values


class StreamServe:
    """Fold the October day-batches into the streaming service, with a
    closed loop of single-address lookups after each day."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def prepare(self) -> None:
        from repro import api
        from repro.stream import day_batches

        run = api.run_scenario(self.ctx.config())
        self.scenario = run.scenario
        provided = {tag: run.report(tag) for tag in api.STREAM_FEED_TAGS}
        self.batches = list(day_batches(self.scenario.october_traffic, provided))
        self.service = api.stream_service(run, warm=False)
        self.rng = np.random.default_rng([self.ctx.seed, PROBE_STREAM])

    def run(self) -> None:
        ctx = self.ctx
        service = self.service
        prefix_len = service.config.prefix_len
        count = ctx.params["lookups_per_day"]
        self.latencies: List[np.ndarray] = []
        self.values: List[np.ndarray] = []
        self.probes: List[np.ndarray] = []
        for batch in self.batches:
            with ctx.phase(f"ingest-{batch.day}"):
                service.ingest(batch)
            probes = _probes(service.scores().blocks, self.rng, count, prefix_len)
            with ctx.phase(f"lookups-{batch.day}", ops=probes.size):
                latencies, values = _lookup_loop(service, probes)
            self.probes.append(probes)
            self.latencies.append(latencies)
            self.values.append(values)
        with ctx.phase("top_blocks"):
            self.top = service.top_blocks(10)
        with ctx.phase("scores_at"):
            self.scores_at = service.scores_at(np.concatenate(self.probes))

    def verify(self) -> None:
        from repro.core import folds
        from repro.ipspace.cidr import mask_array

        ctx = self.ctx
        service = self.service
        config = service.config
        batch = folds.batch_scores(
            self.scenario.reports,
            prefix_len=config.prefix_len,
            weights=dict(config.weights),
        )
        scores = service.scores()
        ctx.check(
            "stream_scores_equal_batch",
            np.array_equal(scores.blocks, batch.blocks)
            and all(
                np.array_equal(scores.class_counts[cls], batch.class_counts[cls])
                for cls in batch.class_counts
            )
            and np.array_equal(scores.scores, batch.scores),
        )
        ctx.check(
            "stream_blocklist_equal_batch",
            np.array_equal(
                service.blocklist(),
                folds.blocklist_networks(batch, config.threshold),
            ),
        )
        # The last day's lookups answer from the final index.
        probes, values = self.probes[-1], self.values[-1]
        ctx.check(
            "lookup_scores_match_scores_at",
            np.array_equal(values[0::2], service.scores_at(probes[0::2])),
        )
        blocked = np.isin(
            mask_array(probes[1::2], config.prefix_len), service.blocklist()
        )
        ctx.check("lookup_blocked_match_blocklist",
                  np.array_equal(values[1::2], blocked.astype(np.float64)))

        digest = Digest()
        digest.ints(scores.blocks)
        digest.floats(scores.scores)
        digest.ints(service.blocklist())
        digest.text(repr(self.top))
        for values in self.values:
            digest.floats(values)
        digest.floats(self.scores_at)
        ctx.digest = digest.hexdigest()

        latencies = np.concatenate(self.latencies)
        p50, p99 = np.percentile(latencies, [50, 99])
        ingest = [s for name, s in ctx.phases if name.startswith("ingest-")]
        loops = [s for name, s in ctx.phases if name.startswith("lookups-")]
        ctx.extra.update({
            "ingest_day_p50_ms": float(np.median(ingest)) * 1e3,
            "lookup_p50_us": float(p50) * 1e6,
            "lookup_p99_us": float(p99) * 1e6,
            "lookups_per_s": latencies.size / sum(loops),
        })


class FleetPooled:
    """Three member networks through the supervisor, then the pooled
    §4 density test, the cross-network §5 test and pooled §7 scores."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def prepare(self) -> None:
        pass

    def run(self) -> None:
        from repro import api

        ctx = self.ctx
        subsets = ctx.params["subsets"]
        with ctx.phase("run_fleet", ops=0):
            self.result = api.run_fleet(
                count=3, seed=ctx.seed, small=ctx.params["small"], workers=1
            )
        for outcome in self.result.outcomes:
            ctx.op(failed=0 if outcome.ok else 1)
        with ctx.phase("density"):
            self.density = api.fleet_density_test(self.result, subsets=subsets)
        with ctx.phase("prediction"):
            self.prediction = api.fleet_prediction_test(
                self.result, target="net-a", cross=True, subsets=subsets
            )
        with ctx.phase("pooled_scores"):
            self.pooled = self.result.clearinghouse.pooled_scores()

    def verify(self) -> None:
        from repro.experiments.common import render_table

        clearinghouse = self.result.clearinghouse
        digest = Digest()
        for tag in self.result.config.feed_tags:
            digest.text(tag)
            digest.ints(clearinghouse.pooled_report(tag).addresses)
        digest.text(render_table(self.density.rows()))
        digest.text(render_table(self.prediction.rows()))
        digest.ints(self.pooled.blocks)
        digest.floats(self.pooled.scores)
        self.ctx.digest = digest.hexdigest()


WORKLOADS = {
    "reproduce-cold": Reproduce,
    "reproduce-warm": Reproduce,
    "stream-serve": StreamServe,
    "fleet-pooled": FleetPooled,
}


def _traced_layers(ctx: Context, trace, before: Dict[str, int],
                   after: Dict[str, int]) -> Dict[str, float]:
    from benchmarks.e2e import layers

    counters = {name: after[name] - before[name] for name in after}
    values = layers.layer_metrics(trace, counters)
    traced_wall = ctx.marks["stop"] - ctx.marks["begin"]
    values["unattributed_s"] = traced_wall - trace.self_total()
    for layer in layers.REQUIRED_LAYERS[ctx.workload]:
        ctx.check(f"layer_fired:{layer}", trace.get(layer).calls > 0)
    ctx.check("unattributed_within_10pct",
              values["unattributed_s"] <= 0.10 * traced_wall)
    return values


def run_child(args: argparse.Namespace) -> dict:
    """Run one workload repetition; never raises."""
    ctx = Context(args)
    error = None
    layer_values = None
    peak_rss_mb = 0.0
    try:
        _import_program()
        workload = WORKLOADS[ctx.workload](ctx)
        if args.trace:
            from benchmarks.e2e import layers

            trace = layers.LayerTrace()
            scope = layers.installed(trace)
        else:
            trace = None
            scope = contextlib.nullcontext()
        with scope:
            if trace is not None:
                before = layers.counter_totals(layers.COUNTERS)
            ctx.mark("begin")
            workload.prepare()
            ctx.mark("start")
            workload.run()
            ctx.mark("stop")
            if trace is not None:
                after = layers.counter_totals(layers.COUNTERS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace is not None:
            layer_values = _traced_layers(ctx, trace, before, after)
        workload.verify()
    except Exception:  # noqa: BLE001 - the child must always report
        error = traceback.format_exc()
        ctx.op(failed=1)
    marks = ctx.marks
    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "scale": ctx.scale,
        "trace": bool(args.trace),
        "setup_s": marks["start"] - ctx.spawned if "start" in marks else None,
        "wall_s": marks["stop"] - marks["start"] if "stop" in marks else None,
        "peak_rss_mb": peak_rss_mb,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "checks": ctx.checks,
        "digest": ctx.digest,
        "phases": ctx.phases,
        "extra": ctx.extra,
        "layers": layer_values,
        "error": error,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run_child(args)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
