"""Persistence of the streaming fold through the artifact store.

A checkpoint stores only the state the fold cannot recompute: one
``addresses:<tag>`` array per report set, the six ``spam:*`` arrays of
the running spam aggregate, and the cursor and report metadata in the
sidecar.  Scores, blocklist, R_unclean and its density counts are
deterministic functions of those and are rebuilt on load.  Checkpoints written by 4.x also carry ``unclean``, ``class:*``
and ``prefix:*`` arrays; loading ignores them, so such a checkpoint
resumes without its counters ever being trusted.  One checkpoint is
written per ingested day under

    ``<stream-fingerprint>/stream.day-<DDDDD>``

followed by a tiny head pointer at ``<stream-fingerprint>/stream.head``
naming the last committed day.  The head is written *after* its day
checkpoint, so a crash between the two leaves the previous head valid:
resume always lands on a fully committed day (crash consistency comes
from ordering, exactly like the store's payload-before-sidecar commit).

Checkpoints inherit every fault-tolerance property of
:class:`repro.engine.store.ArtifactStore`: checksummed payloads,
quarantine on corruption, degradation to memory-only — a checkpoint
that cannot be read is a miss, and the service cold-starts.  A
checkpoint whose spam aggregate lacks the ``(source, day)`` table
(``spam:day_sources``/``spam:day_values``; older checkpoints stored
per-source ``spam:active_days`` instead) raises
:class:`~repro.engine.store.VersionSkew`: a plain miss, never
quarantined, after which the service replays the window.
"""

from __future__ import annotations

import datetime
from typing import Dict

import numpy as np

from repro.detect.spam import SpamAggregates
from repro.engine.fingerprint import fingerprint
from repro.engine.store import Codec, VersionSkew
from repro.stream.state import IncrementalState, StreamConfig

__all__ = ["StreamStateCodec", "stream_fingerprint", "day_key", "head_key"]


def stream_fingerprint(config: StreamConfig, source: str) -> str:
    """Checkpoint namespace: the stream config plus the identity of the
    feed producing its batches (e.g. a scenario config fingerprint)."""
    return fingerprint({"stream": config, "source": source})


def day_key(prefix: str, day: int) -> str:
    """Store key of the checkpoint committed after ingesting ``day``."""
    return f"{prefix}/stream.day-{day:05d}"


def head_key(prefix: str) -> str:
    """Store key of the last-committed-day pointer."""
    return f"{prefix}/stream.head"


def _period_meta(period) -> object:
    if period is None:
        return None
    return [period[0].isoformat(), period[1].isoformat()]


def _period_from(meta) -> object:
    if meta is None:
        return None
    return (
        datetime.date.fromisoformat(meta[0]),
        datetime.date.fromisoformat(meta[1]),
    )


class StreamStateCodec(Codec):
    """(De)serialises :class:`IncrementalState` for one fixed config.

    The codec is bound to a :class:`StreamConfig`; the config's
    fingerprint is stored in the sidecar and verified on load, so a
    checkpoint can never silently resume under different detector
    calibrations or scoring weights (a mismatch reads as corrupt).
    """

    name = "stream-state"

    def __init__(self, config: StreamConfig) -> None:
        config.validate()
        self.config = config

    def to_payload(self, value: IncrementalState):
        arrays: Dict[str, np.ndarray] = {
            f"addresses:{tag}": addresses
            for tag, addresses in value._addresses.items()
        }
        spam = value._spam
        arrays["spam:sources"] = spam.sources
        arrays["spam:messages"] = spam.messages
        arrays["spam:size_sums"] = spam.size_sums
        arrays["spam:size_sq_sums"] = spam.size_sq_sums
        arrays["spam:day_sources"] = spam.day_sources
        arrays["spam:day_values"] = spam.day_values
        meta = {
            "config_fingerprint": fingerprint(self.config),
            "cursor": value.cursor,
            "days_ingested": value.days_ingested,
            "flows_ingested": value.flows_ingested,
            "tags": sorted(value._addresses),
            "reports": {
                tag: {
                    "report_type": report_type,
                    "data_class": data_class,
                    "period": _period_meta(period),
                }
                for tag, (report_type, data_class, period) in value._meta.items()
            },
        }
        return arrays, meta

    def from_payload(self, arrays, meta) -> IncrementalState:
        if meta["config_fingerprint"] != fingerprint(self.config):
            raise ValueError(
                "stream checkpoint written under a different StreamConfig"
            )
        if "spam:day_sources" not in arrays:
            # Written before the spam aggregate carried its day table:
            # a miss, so the service cold-starts and replays the window.
            raise VersionSkew("stream checkpoint without the spam day table")
        state = IncrementalState(self.config)
        state.cursor = int(meta["cursor"])
        state.days_ingested = int(meta["days_ingested"])
        state.flows_ingested = int(meta["flows_ingested"])
        state._addresses = {
            tag: arrays[f"addresses:{tag}"].astype(np.uint32)
            for tag in meta["tags"]
        }
        state._meta = {
            tag: (
                entry["report_type"],
                entry["data_class"],
                _period_from(entry["period"]),
            )
            for tag, entry in meta["reports"].items()
        }
        state._spam = SpamAggregates(
            sources=arrays["spam:sources"].astype(np.uint32),
            messages=arrays["spam:messages"].astype(np.int64),
            size_sums=arrays["spam:size_sums"].astype(np.float64),
            size_sq_sums=arrays["spam:size_sq_sums"].astype(np.float64),
            day_sources=arrays["spam:day_sources"].astype(np.uint32),
            day_values=arrays["spam:day_values"].astype(np.int64),
        )
        state._rebuild_derived()
        return state
