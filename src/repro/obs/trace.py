"""Tracing: nested spans with wall/CPU time and a process-global tracer.

A :class:`Span` is one named interval of work; spans nest, so a full run
produces a tree — ``cli.table2`` over ``experiment.table2`` over
``stage.traffic`` over ``flows.population.benign`` — that the run
manifest serialises and ``uncleanliness trace`` renders.

Tracing is **off by default** and the disabled path is engineered to be
a no-op: :func:`span` checks one attribute and returns a shared,
stateless handle, so instrumented hot paths (artifact-store gets, stage
resolves) cost a single function call when nobody is looking.  Enable it
with :func:`enable` / ``$REPRO_TRACE=1``; the CLI enables it for every
verb so run manifests always carry a span tree.

This module is dependency-free (stdlib only) and must never import from
the rest of :mod:`repro` — every layer imports *it*.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "tracer",
    "set_tracer",
    "span",
    "enable",
    "disable",
    "enabled",
    "coverage",
    "TRACE_ENV",
]

#: Environment switch: any value other than empty/``0`` enables tracing.
TRACE_ENV = "REPRO_TRACE"


class Span:
    """One named, timed interval with attributes and child spans.

    ``wall`` and ``cpu`` are durations in seconds (``time.perf_counter``
    and ``time.process_time`` deltas); ``self_wall`` subtracts the
    children, which is what the hotspot table ranks by.
    """

    __slots__ = ("name", "attrs", "children", "wall", "cpu", "_t0", "_c0")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        self.wall = 0.0
        self.cpu = 0.0
        self._t0 = 0.0
        self._c0 = 0.0

    def set(self, **attrs: Any) -> None:
        """Attach attributes after the span opened (e.g. an outcome)."""
        self.attrs.update(attrs)

    @property
    def child_wall(self) -> float:
        return sum(child.wall for child in self.children)

    @property
    def self_wall(self) -> float:
        return max(self.wall - self.child_wall, 0.0)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "wall": self.wall,
            "cpu": self.cpu,
            "attrs": self.attrs,
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, wall={self.wall:.4f}s, "
            f"children={len(self.children)})"
        )


class _NoopSpan:
    """Shared stateless handle returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NOOP = _NoopSpan()


class Tracer:
    """Collects a span tree for one process.

    Not thread-safe by design: the engine, experiments and CLI are
    single-threaded.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        #: Finished top-level spans, oldest first.
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, **attrs: Any):
        if not self.enabled:
            yield _NOOP
            return
        sp = Span(name, attrs)
        self._stack.append(sp)
        sp._c0 = time.process_time()
        sp._t0 = time.perf_counter()
        try:
            yield sp
        finally:
            sp.wall = time.perf_counter() - sp._t0
            sp.cpu = time.process_time() - sp._c0
            self._stack.pop()
            if self._stack:
                self._stack[-1].children.append(sp)
            else:
                self.roots.append(sp)

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def clear(self) -> None:
        self.roots.clear()
        self._stack.clear()


def _env_enabled() -> bool:
    value = os.environ.get(TRACE_ENV, "").strip()
    return value not in ("", "0", "false", "no")


_TRACER = Tracer(enabled=_env_enabled())


def tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def set_tracer(new: Tracer) -> Tracer:
    """Swap the global tracer; returns the previous one (for tests)."""
    global _TRACER
    previous = _TRACER
    _TRACER = new
    return previous


def span(name: str, **attrs: Any):
    """Open a span on the global tracer — the one instrumentation entry.

    The disabled fast path performs one attribute check and returns a
    shared no-op handle; nothing is allocated.
    """
    t = _TRACER
    if not t.enabled:
        return _NOOP
    return t.span(name, **attrs)


def enable() -> None:
    _TRACER.enabled = True


def disable() -> None:
    _TRACER.enabled = False


def enabled() -> bool:
    return _TRACER.enabled


def coverage(span_dict: dict) -> float:
    """Fraction of a span's wall time covered by its direct children.

    The manifest records this for the run's root span; a healthy
    instrumented run keeps it above 0.9 (all the time went *somewhere*
    we named).  A zero-duration root counts as fully covered.
    """
    wall = float(span_dict.get("wall", 0.0))
    if wall <= 0.0:
        return 1.0
    child = sum(float(c.get("wall", 0.0)) for c in span_dict.get("children", ()))
    return min(child / wall, 1.0)
