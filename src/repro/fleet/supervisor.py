"""Fault-isolated execution of a multi-network fleet.

:class:`FleetSupervisor` generalises the supervised Monte-Carlo
scheduler (:mod:`repro.core.sampling`) from trial chunks to whole
member networks.  Each shard job builds one network's report set and
returns a :class:`ShardDelivery` — the reports plus a SHA-256 checksum
of their address content computed *inside* the job, so any corruption
between the worker and the supervisor is detectable.  The supervisor
provides hard failure isolation at the shard boundary:

* **deadlines** — in pool mode each attempt is bounded by
  ``FleetConfig.deadline``; a hung worker is abandoned
  (``shutdown(wait=False)``), never joined;
* **bounded retry with backoff** — failed shards are re-run on fresh
  pools for up to ``max_retries`` extra rounds with exponential
  backoff between rounds;
* **quarantine** — a shard that exhausts its retries (or keeps
  returning checksum-mismatched report sets) is quarantined: the fleet
  run still completes and the clearinghouse degrades gracefully, with
  the quarantined shard named in ``obs`` metrics and the run manifest;
* **checkpoint/resume** — verified deliveries are checkpointed per
  shard through the v3 artifact store
  (``fleet-<fp>/shard-<name>.reports``), so a re-run resumes finished
  shards instantly and a recovered shard converges the pooled view
  back to the fault-free values.

Because each shard's report set is a pure function of its
``ScenarioConfig``, results are bit-identical regardless of scheduling
order, worker count, or which shards crashed and were retried — the
only observable difference is *availability*, which the clearinghouse
surfaces explicitly.

Chaos hooks: shard jobs poll the ``shard.crash`` / ``shard.fail`` /
``shard.slow`` / ``shard.corrupt`` fault sites (see
:mod:`repro.engine.faults`), so ``REPRO_FAULTS=shard-crash`` etc.
exercise every failure path deterministically.
"""

from __future__ import annotations

import hashlib
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.report import DataClass, Report, ReportType
from repro.engine import faults
from repro.engine.store import (
    MISS,
    ArtifactStore,
    ReportMappingCodec,
    default_store,
)
from repro.fleet.clearinghouse import Clearinghouse, FleetError, ShardFeed
from repro.fleet.shard import FleetConfig, NetworkShard
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import warn_event

log = logging.getLogger("repro.fleet.supervisor")

__all__ = [
    "FleetFailure",
    "ShardDelivery",
    "ShardOutcome",
    "FleetResult",
    "FleetSupervisor",
    "delivery_checksum",
    "scenario_reports",
    "synthetic_reports",
]

#: A shard runner: ``(shard, feed_tags) -> {tag: Report}``.  Must be a
#: module-level callable so pool mode can pickle it into workers.
ShardRunner = Callable[[NetworkShard, Tuple[str, ...]], Mapping[str, Report]]


class FleetFailure(FleetError):
    """Every shard failed; there is nothing to pool."""


# -- delivery integrity ----------------------------------------------------


def delivery_checksum(reports: Mapping[str, Report]) -> str:
    """SHA-256 over the report set's tags and address content.

    Computed inside the shard job and recomputed by the supervisor on
    receipt; a mismatch quarantines the delivery exactly like a crash.
    """
    digest = hashlib.sha256()
    for tag in sorted(reports):
        report = reports[tag]
        digest.update(tag.encode())
        digest.update(b"\x00")
        digest.update(np.ascontiguousarray(report.addresses).tobytes())
        digest.update(b"\x01")
    return digest.hexdigest()


def reports_as_of(reports: Mapping[str, Report]) -> int:
    """The feed's currency: latest covered day as a proleptic ordinal."""
    latest = 0
    for report in reports.values():
        if report.period is not None:
            latest = max(latest, report.period[1].toordinal())
    return latest


# -- shard runners ---------------------------------------------------------


def scenario_reports(
    shard: NetworkShard, feed_tags: Tuple[str, ...]
) -> Dict[str, Report]:
    """The production runner: simulate the shard's network end to end.

    A shard pinned to a vantage AS sees only that operator's announced
    space in its *observed* feeds — the detectors at its border cannot
    witness traffic that never crosses it — while provided feeds arrive
    from third parties and stay global.
    """
    from repro.core.scenario import PaperScenario

    scenario = PaperScenario(shard.config)
    reports = {tag: scenario.report(tag) for tag in feed_tags}
    if shard.vantage_as is not None:
        internet = scenario.internet
        vantage16 = internet.slash16[
            internet.topology.as_of_net16 == shard.vantage_as
        ]
        reports = {
            tag: _restrict_to_vantage(report, vantage16)
            for tag, report in reports.items()
        }
    return reports


def _restrict_to_vantage(report: Report, vantage16: np.ndarray) -> Report:
    """Drop an observed report's addresses outside the vantage /16s."""
    if report.report_type is not ReportType.OBSERVED:
        return report
    keep = np.isin(report.addresses & np.uint32(0xFFFF0000), vantage16)
    if bool(keep.all()):
        return report
    return Report(
        tag=report.tag,
        addresses=report.addresses[keep],
        report_type=report.report_type,
        data_class=report.data_class,
        period=report.period,
    )


def synthetic_reports(
    shard: NetworkShard, feed_tags: Tuple[str, ...]
) -> Dict[str, Report]:
    """A cheap deterministic runner for chaos tests and benchmarks.

    Pure function of the shard's seed — the same determinism contract
    as :func:`scenario_reports` at a millionth of the cost.
    """
    from repro.core import folds
    from repro.sim.timeline import PAPER_WINDOWS

    rng = np.random.default_rng(shard.config.seed)
    period = PAPER_WINDOWS.OCTOBER.dates()
    out: Dict[str, Report] = {}
    for tag in feed_tags:
        size = 4096 if tag == "control" else 256
        addresses = np.unique(
            rng.integers(1 << 24, 1 << 31, size=size, dtype=np.uint32)
        )
        out[tag] = Report(
            tag=tag,
            addresses=addresses,
            report_type=ReportType.PROVIDED,
            data_class=folds.CLASS_OF_TAG.get(tag, DataClass.NONE),
            period=period,
        )
    return out


def _tampered(delivery: "ShardDelivery") -> "ShardDelivery":
    """Flip one address bit in the first non-empty report (keeping the
    original checksum), simulating corruption in transit."""
    for tag in sorted(delivery.reports):
        report = delivery.reports[tag]
        if len(report) == 0:
            continue
        addresses = report.addresses.copy()
        addresses[-1] ^= np.uint32(1)
        reports = dict(delivery.reports)
        reports[tag] = Report(
            tag=report.tag,
            addresses=addresses,
            report_type=report.report_type,
            data_class=report.data_class,
            period=report.period,
        )
        return ShardDelivery(
            name=delivery.name,
            reports=reports,
            checksum=delivery.checksum,
            as_of=delivery.as_of,
        )
    return delivery


@dataclass(frozen=True)
class ShardDelivery:
    """What a shard job hands back: reports + integrity checksum."""

    name: str
    reports: Dict[str, Report] = field(repr=False)
    checksum: str
    as_of: int


def _shard_job(
    shard: NetworkShard,
    feed_tags: Tuple[str, ...],
    runner: ShardRunner,
) -> ShardDelivery:
    """Run one shard attempt (possibly inside a pool worker).

    Fault sites fire in a fixed order: ``shard.crash`` (hard exit, pool
    workers only), ``shard.fail`` (typed raise), ``shard.slow`` (sleep,
    for deadline pressure), then ``shard.corrupt`` *after* the checksum
    is taken — so corruption is always detectable on receipt.
    """
    with obs_trace.span("fleet.shard.job", shard=shard.name):
        faults.check("shard.crash")
        faults.check("shard.fail")
        faults.check("shard.slow")
        reports = dict(runner(shard, tuple(feed_tags)))
        delivery = ShardDelivery(
            name=shard.name,
            reports=reports,
            checksum=delivery_checksum(reports),
            as_of=reports_as_of(reports),
        )
        if faults.check("shard.corrupt") is not None:
            delivery = _tampered(delivery)
        return delivery


# -- outcomes --------------------------------------------------------------


@dataclass(frozen=True)
class ShardOutcome:
    """How one shard fared across the run's rounds."""

    name: str
    status: str  # "ok" | "quarantined"
    attempts: int
    from_checkpoint: bool
    error: Optional[str] = None
    checksum: Optional[str] = None
    as_of: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def retried(self) -> bool:
        return self.attempts > 1

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "attempts": self.attempts,
            "from_checkpoint": self.from_checkpoint,
            "error": self.error,
            "checksum": self.checksum,
            "as_of": self.as_of,
        }


@dataclass(frozen=True)
class FleetResult:
    """A completed fleet run: outcomes plus the pooled clearinghouse."""

    config: FleetConfig
    fingerprint: str
    outcomes: Tuple[ShardOutcome, ...]
    clearinghouse: Clearinghouse

    @property
    def ok(self) -> Tuple[str, ...]:
        return tuple(o.name for o in self.outcomes if o.ok)

    @property
    def quarantined(self) -> Tuple[str, ...]:
        return tuple(o.name for o in self.outcomes if not o.ok)

    @property
    def degraded(self) -> bool:
        return self.clearinghouse.degraded

    def outcome(self, name: str) -> ShardOutcome:
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(f"no shard named {name!r}")

    def manifest(self) -> dict:
        """The fleet block for the run manifest: per-shard fate plus
        the clearinghouse availability/policy summary."""
        return {
            "fingerprint": self.fingerprint,
            "shards": {o.name: o.as_dict() for o in self.outcomes},
            "clearinghouse": self.clearinghouse.manifest(),
        }


# -- the supervisor --------------------------------------------------------


class FleetSupervisor:
    """Run a fleet of shards to completion with hard failure isolation."""

    def __init__(
        self,
        config: FleetConfig,
        *,
        runner: Optional[ShardRunner] = None,
        store: Optional[ArtifactStore] = None,
        checkpoint: bool = True,
    ) -> None:
        config.validate()
        self.config = config
        self.runner: ShardRunner = runner if runner is not None else scenario_reports
        self.checkpoint = checkpoint
        self._store = store
        runner_token = f"{self.runner.__module__}.{self.runner.__qualname__}"
        # The checkpoint namespace covers everything that determines a
        # delivery's content: membership, feeds, and the runner itself.
        self.fingerprint = hashlib.sha256(
            f"{config.fingerprint()}|{runner_token}".encode()
        ).hexdigest()

    def checkpoint_key(self, name: str) -> str:
        return f"fleet-{self.fingerprint[:16]}/shard-{name}.reports"

    def _resolve_store(self) -> Optional[ArtifactStore]:
        if not self.checkpoint:
            return None
        return self._store if self._store is not None else default_store()

    # -- execution ---------------------------------------------------------

    def run(self) -> FleetResult:
        config = self.config
        store = self._resolve_store()
        codec = ReportMappingCodec()
        deliveries: Dict[str, ShardDelivery] = {}
        meta: Dict[str, dict] = {
            shard.name: {"attempts": 0, "from_checkpoint": False, "error": None}
            for shard in config.shards
        }
        with obs_trace.span(
            "fleet.run", shards=len(config.shards), fingerprint=self.fingerprint[:12]
        ):
            obs_metrics.inc("fleet.runs")
            if store is not None:
                for shard in config.shards:
                    cached = store.get(self.checkpoint_key(shard.name), codec)
                    if cached is MISS:
                        continue
                    reports = dict(cached)
                    deliveries[shard.name] = ShardDelivery(
                        name=shard.name,
                        reports=reports,
                        checksum=delivery_checksum(reports),
                        as_of=reports_as_of(reports),
                    )
                    meta[shard.name]["from_checkpoint"] = True
                if deliveries:
                    obs_metrics.inc("fleet.shards_resumed", len(deliveries))
                    log.info(
                        "fleet resumed %d shard(s) from checkpoints: %s",
                        len(deliveries),
                        sorted(deliveries),
                    )

            pending = [s for s in config.shards if s.name not in deliveries]
            round_index = 0
            while pending and round_index <= config.max_retries:
                if round_index:
                    obs_metrics.inc("fleet.shard.retries", len(pending))
                    delay = config.backoff * (2 ** (round_index - 1))
                    if delay:
                        time.sleep(delay)
                    log.warning(
                        "fleet retry round %d for shards %s",
                        round_index,
                        [s.name for s in pending],
                    )
                for delivery in self._run_round(pending, meta):
                    deliveries[delivery.name] = delivery
                    if store is not None:
                        store.put(
                            self.checkpoint_key(delivery.name),
                            delivery.reports,
                            codec,
                        )
                pending = [s for s in config.shards if s.name not in deliveries]
                round_index += 1

            outcomes = self._outcomes(config.shards, deliveries, meta)
            if not deliveries:
                errors = {name: m["error"] for name, m in meta.items()}
                raise FleetFailure(
                    f"all {len(config.shards)} shard(s) failed after "
                    f"{config.max_retries + 1} round(s): {errors}"
                )
            feeds = [
                ShardFeed(
                    name=deliveries[s.name].name,
                    reports=deliveries[s.name].reports,
                    as_of=deliveries[s.name].as_of,
                )
                for s in config.shards
                if s.name in deliveries
            ]
            quarantined = tuple(
                s.name for s in config.shards if s.name not in deliveries
            )
            clearinghouse = Clearinghouse(
                feeds,
                quarantined=quarantined,
                quorum=config.quorum,
                max_staleness_days=config.max_staleness_days,
                prefix_len=config.prefix_len,
            )
            obs_metrics.set_gauge("fleet.shards_available", len(feeds))
            obs_metrics.set_gauge("fleet.shards_quarantined", len(quarantined))
            return FleetResult(
                config=config,
                fingerprint=self.fingerprint,
                outcomes=outcomes,
                clearinghouse=clearinghouse,
            )

    def _outcomes(
        self,
        shards: Sequence[NetworkShard],
        deliveries: Dict[str, ShardDelivery],
        meta: Dict[str, dict],
    ) -> Tuple[ShardOutcome, ...]:
        outcomes = []
        for shard in shards:
            m = meta[shard.name]
            delivery = deliveries.get(shard.name)
            if delivery is not None:
                outcomes.append(
                    ShardOutcome(
                        name=shard.name,
                        status="ok",
                        attempts=m["attempts"],
                        from_checkpoint=m["from_checkpoint"],
                        error=m["error"],
                        checksum=delivery.checksum,
                        as_of=delivery.as_of,
                    )
                )
            else:
                obs_metrics.inc("fleet.shard.quarantined")
                warn_event(
                    "fleet.shard.quarantined",
                    f"shard {shard.name} quarantined after "
                    f"{m['attempts']} attempt(s): {m['error']}",
                    logger=log,
                )
                outcomes.append(
                    ShardOutcome(
                        name=shard.name,
                        status="quarantined",
                        attempts=m["attempts"],
                        from_checkpoint=False,
                        error=m["error"],
                    )
                )
        return tuple(outcomes)

    def _run_round(
        self, pending: Sequence[NetworkShard], meta: Dict[str, dict]
    ) -> List[ShardDelivery]:
        workers = self.config.workers or 1
        if workers == 1:
            return self._run_serial(pending, meta)
        return self._run_pool(pending, meta, min(workers, len(pending)))

    def _run_serial(
        self, pending: Sequence[NetworkShard], meta: Dict[str, dict]
    ) -> List[ShardDelivery]:
        # In-process mode: deterministic shard order, no deadline (there
        # is no one left to enforce it), injected crashes are consumed
        # harmlessly by the fault layer.
        completed = []
        for shard in pending:
            meta[shard.name]["attempts"] += 1
            began = time.perf_counter()
            try:
                delivery = _shard_job(shard, self.config.feed_tags, self.runner)
            except Exception as err:  # noqa: BLE001 - isolation boundary
                self._record_failure(meta, shard.name, err)
                continue
            obs_metrics.observe("fleet.shard.seconds", time.perf_counter() - began)
            if self._verify(delivery, meta):
                completed.append(delivery)
        return completed

    def _run_pool(
        self,
        pending: Sequence[NetworkShard],
        meta: Dict[str, dict],
        workers: int,
    ) -> List[ShardDelivery]:
        config = self.config
        completed: List[ShardDelivery] = []
        pool = ProcessPoolExecutor(max_workers=workers)
        wait_for_pool = True
        try:
            futures = [
                (pool.submit(_shard_job, shard, config.feed_tags, self.runner), shard)
                for shard in pending
            ]
            for future, shard in futures:
                meta[shard.name]["attempts"] += 1
                began = time.perf_counter()
                try:
                    delivery = future.result(timeout=config.deadline)
                except BrokenProcessPool:
                    meta[shard.name]["error"] = "worker process died mid-shard"
                    obs_metrics.inc("fleet.shard.crashes")
                    log.warning("fleet shard %s: worker crashed", shard.name)
                    continue
                except FuturesTimeoutError:
                    meta[shard.name]["error"] = (
                        f"deadline of {config.deadline}s exceeded"
                    )
                    obs_metrics.inc("fleet.shard.timeouts")
                    log.warning(
                        "fleet shard %s missed its %.3gs deadline; "
                        "abandoning this round's pool",
                        shard.name,
                        config.deadline,
                    )
                    # A hung worker must never block the fleet: leave the
                    # pool behind and let later rounds use a fresh one.
                    wait_for_pool = False
                    break
                except Exception as err:  # noqa: BLE001 - isolation boundary
                    self._record_failure(meta, shard.name, err)
                    continue
                obs_metrics.observe(
                    "fleet.shard.seconds", time.perf_counter() - began
                )
                if self._verify(delivery, meta):
                    completed.append(delivery)
        finally:
            pool.shutdown(wait=wait_for_pool, cancel_futures=True)
        return completed

    def _record_failure(
        self, meta: Dict[str, dict], name: str, err: Exception
    ) -> None:
        meta[name]["error"] = f"{type(err).__name__}: {err}"
        obs_metrics.inc("fleet.shard.failures")
        log.warning("fleet shard %s failed: %s", name, meta[name]["error"])

    def _verify(self, delivery: ShardDelivery, meta: Dict[str, dict]) -> bool:
        missing = [
            tag for tag in self.config.feed_tags if tag not in delivery.reports
        ]
        if missing:
            meta[delivery.name]["error"] = f"delivery missing feeds {missing}"
            obs_metrics.inc("fleet.shard.corrupt")
            return False
        if delivery_checksum(delivery.reports) != delivery.checksum:
            meta[delivery.name]["error"] = (
                "checksum mismatch in delivered report set"
            )
            obs_metrics.inc("fleet.shard.corrupt")
            warn_event(
                "fleet.shard.corrupt",
                f"shard {delivery.name} returned a checksum-mismatched "
                "report set; treating as failed",
                logger=log,
            )
            return False
        return True
