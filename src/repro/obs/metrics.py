"""Typed metrics: counters, gauges and deterministic-bucket histograms.

A process-global :class:`MetricsRegistry` collects the run's vital
signs — cache hit ratio, fault retries, flows/sec, events/sec,
per-stage bytes, RNG stream counts — and exports them as JSON (for the
run manifest) or a flat Prometheus-style text format (uploaded from
CI).

Histograms use **fixed log-spaced buckets** (quarter-decades from 1e-7
to 1e4) so histograms recorded in different processes or chunks merge
deterministically: merging is integer addition of bucket counts, and
the bucket layout never depends on the data.  Only the ``sum`` field is
floating-point; its last-ulp value can depend on merge order, which is
why determinism tests compare bucket counts exactly and sums
approximately.

The module also carries the **structured warning channel**
:func:`warn_event`: instead of a bare ``warnings.warn`` or an
unparseable prose log line, a warning increments the
``events.warn.<event>`` counter (assertable by tests and the chaos CI
legs) and emits one ``key=value``-structured log record through the
caller's logger.

Dependency-free (stdlib only); never imports from the rest of
:mod:`repro`.
"""

from __future__ import annotations

import json
import logging
import math
import re
import threading
from bisect import bisect_left
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HISTOGRAM_BOUNDS",
    "MetricsRegistry",
    "registry",
    "set_registry",
    "reset",
    "inc",
    "observe",
    "set_gauge",
    "warn_event",
]

#: Quarter-decade log-spaced bucket upper bounds: 1e-7 .. 1e4 seconds
#: (or bytes, or whatever unit the histogram carries).  Fixed at import
#: time so every process lays buckets out identically and merges are
#: deterministic.
HISTOGRAM_BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** (k / 4.0) for k in range(-28, 17)
)

_EVENTS_LOG = logging.getLogger("repro.obs.events")


class Counter:
    """A monotonically increasing integer."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A last-write-wins float (rates, sizes, levels)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket histogram; merging is deterministic integer math.

    ``counts[i]`` counts observations ``<= bounds[i]``; the final
    slot is the +Inf bucket.  ``sum``/``count``/``min``/``max`` ride
    along for summary statistics.
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "sum", "count", "min", "max")

    def __init__(self, bounds: Sequence[float] = HISTOGRAM_BOUNDS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if any(b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def _bucket(self, value: float) -> int:
        """The first bucket whose bound is ``>= value``; NaN goes to +Inf."""
        if value != value:
            # bisect_left alone would file NaN under the first bound.
            return len(self.bounds)
        return bisect_left(self.bounds, value)

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[self._bucket(value)] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` in; bucket layouts must match exactly."""
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum
        self.count += other.count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            # Sparse form: only occupied buckets, keyed by upper bound.
            "buckets": {
                ("+Inf" if i == len(self.bounds) else repr(self.bounds[i])): c
                for i, c in enumerate(self.counts)
                if c
            },
        }


class MetricsRegistry:
    """Name-keyed, get-or-create registry of typed metrics.

    Thread-safe creation; individual updates are GIL-atomic enough for
    the single-writer usage here (worker processes never share one).
    """

    def __init__(self) -> None:
        self._metrics: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls, *args):
        """Slow path of the getters: create under the lock, check kind."""
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = cls(*args)
                    self._metrics[name] = metric
        if metric.kind != cls.kind:
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    # Counters and histograms return an existing metric of their kind
    # from one dict lookup: hot paths record them per call (a stream
    # lookup records both), and recording must cost less than the work
    # it times.

    def counter(self, name: str) -> Counter:
        metric = self._metrics.get(name)
        if type(metric) is Counter:
            return metric
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, bounds: Sequence[float] = HISTOGRAM_BOUNDS
    ) -> Histogram:
        metric = self._metrics.get(name)
        if type(metric) is Histogram:
            return metric
        return self._get_or_create(name, Histogram, bounds)

    def get(self, name: str):
        """The metric registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    # -- export -----------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """``{name: metric snapshot}``, sorted by name (JSON-ready)."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Flat Prometheus-style text exposition of every metric."""
        lines: List[str] = []
        for name in self.names():
            metric = self._metrics[name]
            flat = _prom_name(f"{prefix}.{name}")
            if metric.kind in ("counter", "gauge"):
                lines.append(f"# TYPE {flat} {metric.kind}")
                lines.append(f"{flat} {_prom_value(metric.value)}")
            else:
                lines.append(f"# TYPE {flat} histogram")
                cumulative = 0
                for i, count in enumerate(metric.counts):
                    cumulative += count
                    le = (
                        "+Inf"
                        if i == len(metric.bounds)
                        else _prom_value(metric.bounds[i])
                    )
                    if count or le == "+Inf":
                        lines.append(
                            f'{flat}_bucket{{le="{le}"}} {cumulative}'
                        )
                lines.append(f"{flat}_sum {_prom_value(metric.sum)}")
                lines.append(f"{flat}_count {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(name: str) -> str:
    flat = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return flat


def _prom_value(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def set_registry(new: MetricsRegistry) -> MetricsRegistry:
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = new
    return previous


def reset() -> None:
    """Drop every metric in the global registry (run/test boundaries)."""
    _REGISTRY.clear()


# -- terse module-level recording (what instrumented code calls) -----------


def inc(name: str, amount: int = 1) -> None:
    _REGISTRY.counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    _REGISTRY.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    _REGISTRY.gauge(name).set(value)


def warn_event(
    event: str,
    message: str,
    *,
    logger: Optional[logging.Logger] = None,
    **fields: Any,
) -> None:
    """Structured warning: counted in metrics, logged as ``key=value``.

    ``event`` is a dotted slug (``store.degraded``); the counter
    ``events.warn.<event>`` makes the warning assertable by tests and
    the chaos CI legs.  ``logger`` defaults to ``repro.obs.events`` but
    call sites pass their module logger so existing log-capture
    expectations keep working.
    """
    inc(f"events.warn.{event}")
    suffix = " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
    (logger or _EVENTS_LOG).warning(
        "%s%s", message, f" [{event} {suffix}]" if suffix else f" [{event}]"
    )
