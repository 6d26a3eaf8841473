"""Zero-dependency observability: tracing, metrics, run manifests.

Three stdlib-only modules threaded through every layer of the
reproduction:

``repro.obs.trace``
    Nested :class:`~repro.obs.trace.Span` timing with a process-global
    tracer; disabled by default with a one-attribute-check no-op fast
    path, serialisable into the run manifest.
``repro.obs.metrics``
    Typed counters/gauges/histograms (fixed log-spaced buckets, so
    merges are deterministic), JSON and Prometheus-text export, and the
    structured :func:`~repro.obs.metrics.warn_event` channel.
``repro.obs.manifest``
    ``runs/<fingerprint>-<n>/manifest.json`` records tying every CLI
    run's output to its config fingerprint, seed, versions, metrics and
    span tree.

Nothing in this package imports from the rest of :mod:`repro` at import
time, so any layer — the engine, the store, the detectors — can import
it without cycles.
"""

import time as _time
from contextlib import contextmanager

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None


def _peak_rss_kb() -> int:
    """Process-lifetime peak resident set in KB (0 when unknown)."""
    if _resource is None:  # pragma: no cover - non-POSIX
        return 0
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)

from repro.obs import manifest, metrics, render, trace
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    find_run,
    list_runs,
    load_manifest,
    new_run_dir,
    resolve_runs_dir,
    write_manifest,
)
from repro.obs.metrics import (
    HISTOGRAM_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    warn_event,
)
from repro.obs.trace import Span, Tracer, coverage, span, tracer

__all__ = [
    "trace",
    "metrics",
    "manifest",
    "render",
    "Span",
    "Tracer",
    "span",
    "tracer",
    "coverage",
    "Counter",
    "Gauge",
    "Histogram",
    "HISTOGRAM_BOUNDS",
    "MetricsRegistry",
    "warn_event",
    "MANIFEST_SCHEMA_VERSION",
    "resolve_runs_dir",
    "new_run_dir",
    "write_manifest",
    "load_manifest",
    "list_runs",
    "find_run",
    "instrument",
]


@contextmanager
def instrument(name: str, events=None, **attrs):
    """Span + duration histogram + optional throughput, in one line.

    Wraps a block in ``span(name)``, records the elapsed time into the
    ``<name>.seconds`` histogram, and — when ``events`` (a unit count:
    flows, queries, addresses) is given — bumps the ``<name>.events``
    counter and the ``<name>.events_per_sec`` gauge.  Metrics are always
    recorded; the span is free when tracing is disabled.
    """
    started = _time.perf_counter()
    with trace.span(name, **attrs):
        yield
    elapsed = _time.perf_counter() - started
    metrics.observe(f"{name}.seconds", elapsed)
    rss_kb = _peak_rss_kb()
    if rss_kb:
        # The process-lifetime high-water mark as of this stage's end —
        # a cheap per-stage memory trace (strictly non-decreasing).
        metrics.set_gauge(f"{name}.peak_rss_kb", rss_kb)
    if events is not None:
        events = int(events)
        metrics.inc(f"{name}.events", events)
        if elapsed > 0:
            metrics.set_gauge(f"{name}.events_per_sec", events / elapsed)
