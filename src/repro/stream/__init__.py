"""Streaming uncleanliness: fold day-batches, serve per-IP queries.

The paper's §6 operational loop — observe reports, score prefixes, emit
a blocklist, repeat — as an *online* system instead of a monthly
rebuild:

``repro.stream.batches``
    :class:`DayBatch`: one day of border flows plus any report feeds
    that arrived that day, and the slicing of a window capture into the
    day-batch sequence the fold consumes.
``repro.stream.state``
    :class:`IncrementalState`: the fold.  It keeps the rolling report
    sets and the exact mergeable spam aggregate, and rebuilds the §7
    noisy-OR score table and the recommended blocklist from those sets
    each day with the batch scorer's own code — bit-identical to the
    batch pipeline after replaying any window.
``repro.stream.checkpoint``
    :class:`StreamStateCodec`: the fold's report sets and spam
    aggregate as a checksummed artifact, so a restarted service resumes
    from the last committed day.
``repro.stream.service``
    :class:`UncleanlinessService`: ingest + checkpointing + the
    low-latency query surface (``score``, ``is_blocked``,
    ``top_blocks``) over the day's score table.

The supported entry points are :func:`repro.api.stream_service`,
:func:`repro.api.score`, :func:`repro.api.is_blocked`,
:func:`repro.api.top_blocks` and the ``uncleanliness ingest``/``serve``
CLI verbs.
"""

from repro.stream.batches import DayBatch, day_batches
from repro.stream.checkpoint import StreamStateCodec
from repro.stream.service import UncleanlinessService
from repro.stream.state import IncrementalState, IngestDelta, StreamConfig

__all__ = [
    "DayBatch",
    "day_batches",
    "IncrementalState",
    "IngestDelta",
    "StreamConfig",
    "StreamStateCodec",
    "UncleanlinessService",
]
