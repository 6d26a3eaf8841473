"""Stages: named, dependency-declaring builders of cached artifacts.

A :class:`Stage` couples a name, the names of the stages it consumes, a
builder function and (optionally) a :class:`~repro.engine.store.Codec`
for disk persistence.  A :class:`StageEngine` resolves stage values for
a configuration, consulting the artifact store first and counting every
real build — the counters are how tests prove a warm run performed no
simulation.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.engine import faults
from repro.engine.fingerprint import fingerprint
from repro.engine.store import MISS, ArtifactStore, Codec
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["Stage", "StageContext", "StageEngine"]

log = logging.getLogger("repro.engine.stage")


@dataclass(frozen=True)
class Stage:
    """One named step of the pipeline.

    ``builder`` receives a :class:`StageContext` and returns the stage
    value.  Stages without a ``codec`` cache in memory only (their
    values hold live simulation objects); stages with one also persist
    to disk.
    """

    name: str
    builder: Callable[["StageContext"], Any]
    deps: Tuple[str, ...] = ()
    codec: Optional[Codec] = None


class StageContext:
    """What a builder sees: the configuration and its upstream stages."""

    def __init__(self, engine: "StageEngine", config: Any) -> None:
        self.engine = engine
        self.config = config

    def dep(self, name: str) -> Any:
        """Resolve an upstream stage for the same configuration."""
        return self.engine.resolve(self.config, name)


class StageEngine:
    """Resolves stage values through a fingerprint-keyed artifact store."""

    def __init__(self, stages: Sequence[Stage], store: ArtifactStore) -> None:
        self._stages: Dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self._stages:
                raise ValueError(f"duplicate stage name: {stage.name!r}")
            self._stages[stage.name] = stage
        for stage in stages:
            for dep in stage.deps:
                if dep not in self._stages:
                    raise ValueError(
                        f"stage {stage.name!r} depends on unknown stage {dep!r}"
                    )
        self.store = store
        #: ``{stage name: number of real (non-cached) builds}``.
        self.build_counts: Counter = Counter()
        self._fingerprints: Dict[Any, str] = {}

    @property
    def stages(self) -> Tuple[str, ...]:
        return tuple(self._stages)

    def config_fingerprint(self, config: Any) -> str:
        """Fingerprint of ``config`` (memoised by config equality)."""
        try:
            cached = self._fingerprints.get(config)
        except TypeError:  # unhashable config: just recompute
            return fingerprint(config)
        if cached is None:
            cached = fingerprint(config)
            if len(self._fingerprints) > 256:
                self._fingerprints.clear()
            self._fingerprints[config] = cached
        return cached

    def key(self, config: Any, stage_name: str) -> str:
        return f"{self.config_fingerprint(config)}/{stage_name}"

    def resolve(self, config: Any, stage_name: str) -> Any:
        """The stage's value for ``config``, building it only on a miss."""
        try:
            stage = self._stages[stage_name]
        except KeyError:
            raise KeyError(
                f"unknown stage {stage_name!r}; have {sorted(self._stages)}"
            ) from None
        key = self.key(config, stage_name)
        value = self.store.get(key, stage.codec)
        if value is not MISS:
            return value
        faults.check("stage.slow")
        started = time.perf_counter()
        with obs_trace.span(f"stage.{stage_name}", key=key):
            value = stage.builder(StageContext(self, config))
        elapsed = time.perf_counter() - started
        self.build_counts[stage_name] += 1
        obs_metrics.inc(f"stage.builds.{stage_name}")
        obs_metrics.observe(f"stage.seconds.{stage_name}", elapsed)
        log.debug(
            "stage built stage=%s key=%s elapsed=%.3fs",
            stage_name, key, elapsed,
        )
        self.store.put(key, value, stage.codec)
        return value
