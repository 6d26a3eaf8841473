"""The streaming uncleanliness service: ingest, checkpoint, query.

:class:`UncleanlinessService` wraps an :class:`IncrementalState` with

* **durable ingest** — after each day is folded in, the state is
  checkpointed through the artifact store and a head pointer is
  committed (in that order, so resume always lands on a complete day);
* **resume** — :meth:`UncleanlinessService.resume` reconstructs the
  newest committed state for a ``(stream config, source)`` pair, or
  starts cold when there is none;
* a **low-latency query surface** — ``score`` and ``is_blocked``
  answer from the precomputed interval indexes with one
  :func:`bisect.bisect_right` per lookup (no report scans, no NumPy
  call), ``scores_at`` answers a whole address array with one
  vectorised search, and ``top_blocks`` reads the score table; every
  single lookup records its latency to the ``stream.lookup.seconds``
  histogram.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.core.uncleanliness import BlockScores
from repro.engine.store import MISS, ArrayCodec, ArtifactStore, default_store
from repro.ipspace.addr import AddressLike
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.stream.batches import DayBatch
from repro.stream.checkpoint import (
    StreamStateCodec,
    day_key,
    head_key,
    stream_fingerprint,
)
from repro.stream.state import IncrementalState, IngestDelta, StreamConfig

__all__ = ["UncleanlinessService"]

_HEAD_CODEC = ArrayCodec()


class UncleanlinessService:
    """A resumable, queryable streaming uncleanliness pipeline."""

    def __init__(
        self,
        config: StreamConfig,
        *,
        source: str = "",
        store: Optional[ArtifactStore] = None,
        state: Optional[IncrementalState] = None,
        checkpointing: bool = True,
    ) -> None:
        config.validate()
        self.config = config
        self.source = source
        self.store = store if store is not None else default_store()
        self.checkpointing = checkpointing
        self.state = state if state is not None else IncrementalState(config)
        self.fingerprint = stream_fingerprint(config, source)
        self._codec = StreamStateCodec(config)
        self.queries = 0

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def resume(
        cls,
        config: StreamConfig,
        *,
        source: str = "",
        store: Optional[ArtifactStore] = None,
        checkpointing: bool = True,
    ) -> "UncleanlinessService":
        """The service at its newest committed checkpoint (cold if none).

        Reads the head pointer, then the day checkpoint it names.  Any
        failure along the way — no head, quarantined checkpoint, config
        mismatch — degrades to a cold start; ingest then simply replays
        from the window start.
        """
        service = cls(
            config, source=source, store=store, checkpointing=checkpointing
        )
        head = service.store.get(head_key(service.fingerprint), _HEAD_CODEC)
        if head is MISS:
            return service
        day = int(np.asarray(head).reshape(-1)[0])
        state = service.store.get(
            day_key(service.fingerprint, day), service._codec
        )
        if state is MISS:
            obs_metrics.inc("stream.resume.missing_checkpoint")
            return service
        # Snapshot again: a memory-tier hit hands every resumer the same
        # object, and resumed services go on to mutate their state.
        service.state = state.snapshot()
        obs_metrics.inc("stream.resume.restored")
        obs_metrics.set_gauge("stream.cursor", state.cursor)
        return service

    @property
    def cursor(self) -> int:
        """Last ingested day (window start - 1 when cold)."""
        return self.state.cursor

    def ingest(self, batch: DayBatch) -> IngestDelta:
        """Fold one day in and commit its checkpoint."""
        delta = self.state.ingest(batch)
        if self.checkpointing:
            with obs_trace.span(
                "stream.checkpoint", day=batch.day, fp=self.fingerprint
            ):
                # Day first, head second: the head only ever names a
                # checkpoint that finished committing.  A snapshot, not
                # the live state — the store's memory tier holds objects
                # by reference and the fold replaces its report sets in
                # place.
                self.store.put(
                    day_key(self.fingerprint, batch.day),
                    self.state.snapshot(),
                    self._codec,
                )
                self.store.put(
                    head_key(self.fingerprint),
                    np.asarray([batch.day], dtype=np.int64),
                    _HEAD_CODEC,
                )
        return delta

    # -- query surface -----------------------------------------------------

    def _observe_lookup(self, began: float) -> None:
        self.queries += 1
        obs_metrics.inc("stream.lookup.count")
        obs_metrics.observe("stream.lookup.seconds", time.perf_counter() - began)

    def score(self, address: AddressLike) -> float:
        """Uncleanliness score of the block containing ``address``
        (0.0 for blocks never reported)."""
        began = time.perf_counter()
        value = self.state.score_index.value_of(address, default=0.0)
        self._observe_lookup(began)
        return value

    def is_blocked(self, address: AddressLike) -> bool:
        """Whether ``address`` falls inside the current blocklist."""
        began = time.perf_counter()
        verdict = self.state.block_index.contains(address)
        self._observe_lookup(began)
        return verdict

    def top_blocks(self, count: int = 10) -> List[dict]:
        """The ``count`` most unclean blocks with per-class evidence."""
        began = time.perf_counter()
        rows = self.state.scores().top(count)
        self._observe_lookup(began)
        return rows

    def scores_at(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`score` over an address array."""
        return self.state.score_index.values_at(addresses, default=0.0)

    def scores(self) -> BlockScores:
        return self.state.scores()

    def blocklist(self) -> np.ndarray:
        return self.state.blocklist()

    def info(self) -> dict:
        """Service counters for the CLI ``serve`` info command."""
        return {
            "fingerprint": self.fingerprint,
            "window": str(self.config.window),
            "cursor": self.state.cursor,
            "days_ingested": self.state.days_ingested,
            "flows_ingested": self.state.flows_ingested,
            "blocks": len(self.state.scores()),
            "blocklist": int(self.state.blocklist().size),
            "queries": self.queries,
        }

    def __repr__(self) -> str:
        return (
            f"UncleanlinessService(fp={self.fingerprint[:12]}, "
            f"cursor={self.state.cursor}, "
            f"blocklist={int(self.state.blocklist().size)})"
        )
