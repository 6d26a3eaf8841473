"""Control-population samplers for the uncleanliness tests.

The paper compares unclean reports against two control models (§4.2):

* the **naive** estimate, which "selects addresses evenly from across all
  /8's which are listed as populated by IANA", and
* the **empirical** estimate, which draws random subsets of the control
  report (addresses actually observed in payload-bearing TCP traffic),
  reflecting Kohler et al.'s observation that real addresses are highly
  non-uniform in IPv4 space.

Figure 2 shows the naive estimate badly over-disperses, so the paper (and
this library) uses the empirical estimate everywhere else.

:func:`monte_carlo` — the 1000-random-subset evaluation behind the
spatial (§4) and temporal (§5) tests — runs either serially or across a
chunked :class:`~concurrent.futures.ProcessPoolExecutor`.  Each trial
draws its subset from its own child of one ``np.random.SeedSequence``
(``root.spawn(count)``), so the result array is **bit-identical for any
worker count**; ``workers=1`` (the default, overridable through
``$REPRO_WORKERS`` or the CLI ``--workers`` flag) simply runs the same
per-trial streams in-process.

Statistics come in two shapes.  A plain callable (``Report -> value``)
is the retained per-trial reference path: one ``Report`` per trial, one
call per trial.  A :class:`~repro.core.trials.TrialStatistic` — an
object with ``batch``/``per_trial``/``label`` — takes the trial-matrix
path: each chunk of trials is drawn as one
:class:`~repro.core.trials.TrialEnsemble` and evaluated in a few numpy
passes (:mod:`repro.ipspace.kernels`).  Because ensemble rows are the
sorted per-trial draws from the same spawned streams, both paths return
bit-identical arrays; the batched one is ~20-30x faster at paper scale.

The parallel path is **supervised**: a chunk that raises or times out
is retried on a fresh pool, a dead worker (``BrokenProcessPool``) drops
the run to serial execution of only the missing trial ranges, and
completed chunks checkpoint through the artifact store so an
interrupted evaluation resumes instead of restarting.  Because every
trial owns a spawned seed-sequence child, every recovery path yields
the same bits; when recovery is impossible the run fails with a typed
:class:`MonteCarloFailure`, never partial numbers.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None  # type: ignore[assignment]

from repro.core.report import DataClass, Report, ReportType
from repro.core.trials import TrialEnsemble, is_batched, trial_seed
from repro.ipspace.iana import allocated_octets
from repro.ipspace.reserved import reserved_mask
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import warn_event

__all__ = [
    "naive_sample",
    "empirical_subsets",
    "monte_carlo",
    "monte_carlo_rng",
    "MonteCarloFailure",
    "resolve_workers",
    "trial_seed",
    "TrialEnsemble",
]

log = logging.getLogger("repro.engine.sampling")

#: Environment override for the default Monte-Carlo worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Set to ``0``/``false``/``off`` to disable the shared-memory worker
#: handoff and always pickle the evaluation into each chunk.
SHM_ENV = "REPRO_SHM"


def _shm_enabled() -> bool:
    return os.environ.get(SHM_ENV, "").strip().lower() not in {"0", "false", "off"}


def _peak_rss_kb() -> int:
    """This process's lifetime peak resident set, in KB (0 if unknown)."""
    if _resource is None:  # pragma: no cover - non-POSIX
        return 0
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


# -- shared-memory shipment ------------------------------------------------


@dataclass(frozen=True)
class _SharedReport:
    """A control :class:`Report` whose address column travels by handle.

    Pickles as a few hundred bytes; :meth:`resolve` attaches the shared
    segment in the worker and rebuilds the report once per process.
    """

    handle: "object"  # repro.engine.shm.SharedHandle
    key: str
    tag: str
    report_type: object
    data_class: object
    period: object

    @classmethod
    def pack(cls, report: Report, handle, key: str) -> "_SharedReport":
        return cls(
            handle=handle,
            key=key,
            tag=report.tag,
            report_type=report.report_type,
            data_class=report.data_class,
            period=report.period,
        )

    def resolve(self) -> Report:
        cached = _RESOLVED.get((self.handle.name, self.key))
        if cached is not None:
            return cached
        from repro.engine import shm

        addresses = shm.attach(self.handle)[self.key]
        report = Report(
            tag=self.tag,
            addresses=addresses,
            report_type=self.report_type,
            data_class=self.data_class,
            period=self.period,
        )
        _RESOLVED[(self.handle.name, self.key)] = report
        return report


@dataclass(frozen=True)
class _SharedStatistic:
    """A statistic whose hot arrays travel by handle.

    ``stripped`` is the statistic with its shared arrays removed (the
    ``without_shared_arrays`` protocol), so the pickled payload carries
    only scalars; the worker re-attaches the arrays with
    ``with_shared_arrays`` once per process.
    """

    handle: "object"
    prefix: str
    stripped: Callable

    @classmethod
    def pack(cls, statistic: Callable, handle, prefix: str) -> "_SharedStatistic":
        return cls(
            handle=handle,
            prefix=prefix,
            stripped=statistic.without_shared_arrays(),
        )

    def resolve(self) -> Callable:
        cached = _RESOLVED.get((self.handle.name, self.prefix))
        if cached is not None:
            return cached
        from repro.engine import shm

        views = shm.attach(self.handle)
        arrays = {
            key[len(self.prefix):]: view
            for key, view in views.items()
            if key.startswith(self.prefix)
        }
        statistic = self.stripped.with_shared_arrays(arrays)
        _RESOLVED[(self.handle.name, self.prefix)] = statistic
        return statistic


#: Per-worker-process resolution cache: (segment, key) -> rebuilt object.
_RESOLVED: Dict[Tuple[str, str], object] = {}


def _shares_arrays(statistic: Callable) -> bool:
    """Whether ``statistic`` implements the shared-array protocol
    (``shared_arrays`` / ``without_shared_arrays`` / ``with_shared_arrays``)."""
    return all(
        callable(getattr(statistic, name, None))
        for name in ("shared_arrays", "without_shared_arrays", "with_shared_arrays")
    )


def _resolve_shipment(control, statistic) -> Tuple[Report, Callable]:
    """Undo the shared-memory wrapping inside a worker (no-op otherwise)."""
    if isinstance(control, _SharedReport):
        control = control.resolve()
    if isinstance(statistic, _SharedStatistic):
        statistic = statistic.resolve()
    return control, statistic


def _prepare_shipment(control: Report, statistic: Callable):
    """Pack the evaluation's hot arrays into one shared segment.

    Returns ``(control, statistic, pack)`` — the first two possibly
    wrapped for cheap pickling, ``pack`` owned by the caller (unlink
    after the evaluation).  Any failure falls back to plain pickling
    with a warning: the transport must never change the results.
    """
    from repro.engine import shm

    if not (shm.available() and _shm_enabled()):
        return control, statistic, None
    arrays: Dict[str, np.ndarray] = {"control.addresses": control.addresses}
    stat_arrays: Dict[str, np.ndarray] = {}
    if _shares_arrays(statistic):
        stat_arrays = dict(statistic.shared_arrays())
        arrays.update({f"stat.{key}": value for key, value in stat_arrays.items()})
    try:
        pack = shm.SharedPack.create(arrays)
    except Exception as err:  # pragma: no cover - platform specific
        warn_event(
            "mc.shm.failed",
            f"shared-memory handoff unavailable ({err!r}); pickling instead",
            logger=log,
        )
        return control, statistic, None
    shipped_control = _SharedReport.pack(control, pack.handle, "control.addresses")
    shipped_statistic = statistic
    if stat_arrays:
        shipped_statistic = _SharedStatistic.pack(statistic, pack.handle, "stat.")
    obs_metrics.inc("mc.shm.bytes_shared", pack.handle.nbytes)
    return shipped_control, shipped_statistic, pack


class MonteCarloFailure(RuntimeError):
    """A Monte-Carlo evaluation that could not be completed.

    Raised only after every recovery path (chunk retries on fresh
    workers, then serial execution of the missing ranges) has been
    exhausted; the underlying error is chained as ``__cause__``.
    """


def monte_carlo_rng(data_seed: int) -> np.random.Generator:
    """The Monte-Carlo generator a run uses when the caller passes none.

    Derived from, but distinct from, the scenario's data seed, so the
    CLI, the :mod:`repro.api` facade and the experiment modules print
    the same numbers for the same scenario.
    """
    return np.random.default_rng(data_seed ^ 0xC1D)


def naive_sample(size: int, rng: np.random.Generator, tag: str = "naive") -> Report:
    """Draw ``size`` addresses uniformly from IANA-populated /8s.

    Each draw picks an allocated first octet uniformly at random, then the
    remaining 24 bits uniformly.  Reserved sub-ranges inside allocated /8s
    are rejected and redrawn, matching the paper's report sanitisation,
    and the sample is drawn until it holds exactly ``size`` *distinct*
    addresses (reports are sets, so equal-cardinality comparisons need
    equal unique counts).
    """
    if size <= 0:
        raise ValueError(f"sample size must be positive: {size}")
    octets = np.asarray(sorted(allocated_octets()), dtype=np.uint32)
    seen = np.asarray([], dtype=np.uint32)
    while seen.size < size:
        need = size - seen.size
        chosen_octets = rng.choice(octets, size=need + 16)
        hosts = rng.integers(0, 1 << 24, size=need + 16, dtype=np.uint32)
        batch = (chosen_octets << np.uint32(24)) | hosts
        seen = np.union1d(seen, batch[~reserved_mask(batch)])
    if seen.size > size:
        seen = rng.choice(seen, size=size, replace=False)
    return Report(
        tag=tag,
        addresses=seen,
        report_type=ReportType.OBSERVED,
        data_class=DataClass.NONE,
    )


def empirical_subsets(
    control: Report,
    size: int,
    count: int,
    rng: np.random.Generator,
) -> Iterator[Report]:
    """Yield ``count`` random equal-cardinality subsets of ``control``.

    This is the paper's empirical estimator: "we create 1000 randomly
    generated subsets of R_control" (§4.2).
    """
    if count <= 0:
        raise ValueError(f"subset count must be positive: {count}")
    for index in range(count):
        yield control.sample(size, rng, tag=f"{control.tag}[{index}]")


# -- parallel Monte Carlo --------------------------------------------------


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: explicit arg, else ``$REPRO_WORKERS``, else 1.

    A malformed environment value (non-integer, zero, negative) is
    clamped to serial with a warning rather than raising a
    ``ValueError`` deep inside a run — the environment is configuration,
    not code.  An explicit ``workers`` argument below 1 is still a
    programming error and raises.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        try:
            value = int(env)
        except ValueError:
            warn_event(
                "workers.malformed",
                f"ignoring malformed ${WORKERS_ENV}={env!r} (not an "
                f"integer); running serial",
                logger=log,
            )
            return 1
        if value < 1:
            warn_event(
                "workers.clamped",
                f"clamping ${WORKERS_ENV}={value} to 1 worker (must be >= 1)",
                logger=log,
            )
            return 1
        return value
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    return workers


def _run_trials(
    control: Report,
    size: int,
    start: int,
    stop: int,
    entropy: int,
    spawn_key: Tuple[int, ...],
    statistic: Callable[[Report], object],
) -> List[object]:
    """Per-trial reference: evaluate trials ``start..stop`` one ``Report``
    at a time (one spawned stream per trial)."""
    values = []
    for index in range(start, stop):
        rng = np.random.default_rng(trial_seed(entropy, spawn_key, index))
        subset = control.sample(size, rng, tag=f"{control.tag}[{index}]")
        values.append(statistic(subset))
    return values


def _run_chunk(
    control: Report,
    size: int,
    start: int,
    stop: int,
    entropy: int,
    spawn_key: Tuple[int, ...],
    statistic: Callable,
) -> np.ndarray:
    """One chunk of trials as a float array, batched when possible.

    A :class:`~repro.core.trials.TrialStatistic` evaluates the whole
    chunk as one :class:`TrialEnsemble`; a plain callable falls back to
    the per-trial reference loop.  Fault-injection sites fire here so
    both paths are supervised identically.
    """
    from repro.engine import faults

    faults.check("worker.crash")
    faults.check("worker.fail")
    faults.check("worker.slow")
    control, statistic = _resolve_shipment(control, statistic)
    if is_batched(statistic):
        ensemble = TrialEnsemble.draw(
            control, size, stop - start, entropy, spawn_key, start=start
        )
        return np.asarray(statistic.batch(ensemble), dtype=float)
    return np.asarray(
        _run_trials(control, size, start, stop, entropy, spawn_key, statistic),
        dtype=float,
    )


def _run_chunk_traced(
    control: Report,
    size: int,
    start: int,
    stop: int,
    entropy: int,
    spawn_key: Tuple[int, ...],
    statistic: Callable,
    traced: bool = False,
) -> Tuple[np.ndarray, Optional[dict], int]:
    """:func:`_run_chunk` plus an optional serialised worker span.

    Worker processes cannot share the supervisor's tracer, so when
    ``traced`` each chunk times itself in a private tracer and ships the
    finished span back as a dict for the supervisor to
    :func:`repro.obs.trace.attach` into the live tree.  The worker's
    peak RSS (KB) rides along either way, feeding the supervisor's
    ``mc.worker.peak_rss_kb`` gauge.
    """
    control, statistic = _resolve_shipment(control, statistic)
    if not traced:
        values = _run_chunk(
            control, size, start, stop, entropy, spawn_key, statistic
        )
        return values, None, _peak_rss_kb()
    worker_tracer = obs_trace.Tracer(enabled=True)
    with worker_tracer.span(
        "mc.chunk",
        start=start,
        stop=stop,
        pid=os.getpid(),
        batched=is_batched(statistic),
    ):
        values = _run_chunk(
            control, size, start, stop, entropy, spawn_key, statistic
        )
    return values, worker_tracer.roots[-1].to_dict(), _peak_rss_kb()


def _sanitized_name(name: str) -> str:
    """``name`` with a short raw-name hash appended (checkpoint key part).

    Sanitising alone is lossy — ``f(x)`` and ``f.x.`` both sanitise to
    ``f.x.`` — so the digest of the *raw* name keeps differently named
    statistics on different checkpoint keys.
    """
    sanitized = "".join(
        ch if ch.isalnum() or ch in "._-" else "." for ch in name
    )
    digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:8]
    return f"{sanitized}-{digest}"


def _statistic_tag(statistic: Callable) -> str:
    """A deterministic label for ``statistic`` (checkpoint key part).

    Batched statistics provide their own parameter-bearing ``label()``;
    partials hash their bound arguments; either way two parametrisations
    of the same function never share a key, and the raw-name hash in
    :func:`_sanitized_name` keeps sanitisation collisions apart.
    """
    label = getattr(statistic, "label", None)
    if callable(label):
        return _sanitized_name(str(label()))
    if isinstance(statistic, functools.partial):
        inner = _statistic_tag(statistic.func)
        bound = repr(statistic.args) + repr(sorted(statistic.keywords.items()))
        digest = hashlib.sha256(bound.encode("utf-8")).hexdigest()[:12]
        return f"{inner}-{digest}"
    name = getattr(statistic, "__qualname__", None) or type(statistic).__name__
    return _sanitized_name(name)


def _mc_spans(count: int, workers: int, chunk_size: Optional[int]) -> List[Tuple[int, int]]:
    """The contiguous ``(lo, hi)`` trial ranges one evaluation fans out."""
    if chunk_size is None:
        chunk_size = max(1, math.ceil(count / (workers * 4)))
    return [(lo, min(lo + chunk_size, count)) for lo in range(0, count, chunk_size)]


def _mc_checkpoint_prefix(
    entropy: int,
    spawn_key: Tuple[int, ...],
    size: int,
    count: int,
    statistic: Callable,
) -> str:
    """Store-key prefix identifying one evaluation's chunk checkpoints.

    The root entropy is a fresh 128-bit draw from the caller's rng, so
    the same rng state — and only the same rng state — resumes the same
    checkpoints; the statistic tag keeps two different statistics fed
    from one rng state apart.
    """
    key = ".".join(str(part) for part in spawn_key) or "root"
    return f"mc-{entropy:032x}-{key}/{_statistic_tag(statistic)}-{size}x{count}"


def monte_carlo(
    control: Report,
    size: int,
    count: int,
    rng: np.random.Generator,
    statistic: Callable[[Report], object],
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    checkpoint: bool = True,
    max_chunk_retries: int = 2,
    chunk_timeout: Optional[float] = None,
) -> np.ndarray:
    """Evaluate ``statistic`` over ``count`` random control subsets.

    ``statistic`` may return a scalar (result shape ``(count,)``) or a
    fixed-length sequence (result shape ``(count, k)``); callers
    summarise the array with :func:`repro.core.stats.summarize` or
    compare an observed value via
    :func:`repro.core.stats.exceedance_fraction`.

    ``workers > 1`` distributes contiguous trial chunks over a process
    pool; because every trial owns a spawned seed-sequence child, the
    result is bit-identical to the serial evaluation.  ``statistic``
    must be picklable (a module-level function or ``functools.partial``
    of one) when running in parallel.

    The parallel path is supervised: failed or timed-out chunks are
    retried ``max_chunk_retries`` times on fresh pools, a broken pool
    (a worker died) falls back to serial execution of only the missing
    ranges, and — with ``checkpoint=True`` — completed chunks persist
    through the default artifact store, so rerunning an interrupted
    evaluation with the same rng state resumes where it stopped.  When
    no recovery path completes, :class:`MonteCarloFailure` is raised.
    """
    if count <= 0:
        raise ValueError(f"subset count must be positive: {count}")
    workers = resolve_workers(workers)
    # One draw from the caller's rng anchors the whole evaluation: the
    # root sequence (and thus every trial) is deterministic in the rng
    # state, independent of worker count or chunking.
    root = np.random.SeedSequence(int.from_bytes(rng.bytes(16), "little"))
    entropy, spawn_key = root.entropy, root.spawn_key

    batched = is_batched(statistic)
    obs_metrics.inc("mc.trials", count)
    obs_metrics.inc("mc.streams", count)  # one spawned rng stream per trial
    if batched:
        obs_metrics.inc("mc.batched_trials", count)
    with obs_trace.span(
        "monte_carlo",
        trials=count,
        workers=workers,
        batched=batched,
        entropy=f"{entropy:032x}",
    ):
        if workers == 1 or count == 1:
            with obs_trace.span(
                "mc.chunk", start=0, stop=count, batched=batched
            ):
                return _run_chunk(
                    control, size, 0, count, entropy, spawn_key, statistic
                )
        return _supervised_monte_carlo(
            control, size, count, entropy, spawn_key, statistic,
            workers=workers, chunk_size=chunk_size, checkpoint=checkpoint,
            max_chunk_retries=max_chunk_retries, chunk_timeout=chunk_timeout,
        )


def _supervised_monte_carlo(
    control: Report,
    size: int,
    count: int,
    entropy: int,
    spawn_key: Tuple[int, ...],
    statistic: Callable[[Report], object],
    workers: int,
    chunk_size: Optional[int],
    checkpoint: bool,
    max_chunk_retries: int,
    chunk_timeout: Optional[float],
) -> np.ndarray:
    from repro.engine.store import MISS, ArrayCodec, default_store

    spans = _mc_spans(count, workers, chunk_size)
    results: Dict[Tuple[int, int], np.ndarray] = {}

    store = default_store() if checkpoint else None
    codec = ArrayCodec()
    prefix = _mc_checkpoint_prefix(entropy, spawn_key, size, count, statistic)

    def _chunk_key(span: Tuple[int, int]) -> str:
        return f"{prefix}/chunk-{span[0]}-{span[1]}"

    if store is not None:
        for span in spans:
            cached = store.get(_chunk_key(span), codec)
            if cached is not MISS:
                results[span] = np.asarray(cached, dtype=float)
        if results:
            obs_metrics.inc("mc.chunks_resumed", len(results))
            log.info(
                "monte_carlo resumed chunks=%d/%d prefix=%s",
                len(results), len(spans), prefix,
            )

    # Ship the hot arrays (control addresses, statistic block sets) to
    # workers through one shared-memory segment; each chunk submission
    # then pickles a handle instead of megabytes of columns.  Falls back
    # to plain pickling transparently when shm is unavailable.
    ship_control, ship_statistic, pack = _prepare_shipment(control, statistic)
    hot_bytes = int(control.addresses.nbytes)
    if _shares_arrays(statistic):
        hot_bytes += int(
            sum(np.asarray(a).nbytes for a in statistic.shared_arrays().values())
        )

    pending = [span for span in spans if span not in results]
    attempts = 0
    pool_broken = False
    worker_peak_rss = 0
    traced = obs_trace.enabled()
    try:
        while pending and not pool_broken and attempts <= max_chunk_retries:
            if attempts:
                obs_metrics.inc("mc.chunk_retries", len(pending))
                log.warning(
                    "monte_carlo retrying chunks=%d on a fresh pool attempt=%d",
                    len(pending), attempts,
                )
            pool = ProcessPoolExecutor(max_workers=workers)
            wait_for_pool = True
            if pack is not None:
                obs_metrics.inc("mc.shm.bytes_avoided", hot_bytes * len(pending))
            else:
                obs_metrics.inc("mc.pickle.bytes_shipped", hot_bytes * len(pending))
            try:
                futures = {
                    pool.submit(
                        _run_chunk_traced,
                        ship_control, size, lo, hi, entropy, spawn_key,
                        ship_statistic, traced,
                    ): (lo, hi)
                    for lo, hi in pending
                }
                for future, span in futures.items():
                    try:
                        values, span_dict, rss_kb = future.result(
                            timeout=chunk_timeout
                        )
                    except BrokenProcessPool:
                        pool_broken = True
                        break
                    except FuturesTimeoutError:
                        log.warning(
                            "monte_carlo chunk %s timed out after %.1fs",
                            span, chunk_timeout,
                        )
                        # A hung worker would block the pool's exit; abandon
                        # the whole pool and let the retry loop replace it.
                        wait_for_pool = False
                        break
                    except Exception as err:
                        log.warning(
                            "monte_carlo chunk %s failed err=%r", span, err
                        )
                    else:
                        if span_dict is not None:
                            obs_trace.attach(span_dict)
                            obs_metrics.observe(
                                "mc.chunk_seconds", float(span_dict["wall"])
                            )
                        if rss_kb > worker_peak_rss:
                            worker_peak_rss = rss_kb
                            obs_metrics.set_gauge(
                                "mc.worker.peak_rss_kb", worker_peak_rss
                            )
                        arr = np.asarray(values, dtype=float)
                        results[span] = arr
                        if store is not None:
                            store.put(_chunk_key(span), arr, codec)
            except BrokenProcessPool:
                pool_broken = True
            finally:
                pool.shutdown(wait=wait_for_pool, cancel_futures=True)
            pending = [span for span in spans if span not in results]
            attempts += 1
    finally:
        if pack is not None:
            pack.unlink()

    if pending:
        obs_metrics.inc("mc.serial_fallback", len(pending))
        log.warning(
            "monte_carlo falling back to serial for %d missing chunk(s)%s",
            len(pending), " (process pool broke)" if pool_broken else "",
        )
        for lo, hi in pending:
            try:
                values = _run_chunk(
                    control, size, lo, hi, entropy, spawn_key, statistic
                )
            except Exception as err:
                raise MonteCarloFailure(
                    f"trials {lo}..{hi} failed in parallel workers and in "
                    f"the serial fallback"
                ) from err
            results[(lo, hi)] = values

    out = np.concatenate([results[span] for span in spans], axis=0)
    if store is not None:
        for span in spans:
            store.drop(_chunk_key(span))
    obs_metrics.set_gauge("mc.supervisor.peak_rss_kb", _peak_rss_kb())
    return out
