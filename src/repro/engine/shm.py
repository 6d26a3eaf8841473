"""Shared-memory handoff for Monte-Carlo worker processes.

``monte_carlo`` re-pickles its control report and statistic into every
chunk submission — at paper scale that is megabytes of address and
block-set columns serialised once per chunk, per retry, through the
process-pool pipe.  This module ships those hot columns once instead:

* :meth:`SharedPack.create` copies a dict of arrays into **one**
  :class:`multiprocessing.shared_memory.SharedMemory` segment and
  returns a picklable :class:`SharedHandle` (segment name + per-array
  dtype/shape/offset table) that costs a few hundred bytes on the wire;
* :func:`attach` maps the segment back into a worker and returns
  read-only zero-copy views, cached per process so repeated chunks of
  one evaluation attach exactly once.

The creator owns the segment: :meth:`SharedPack.unlink` frees it after
the evaluation completes (workers merely :meth:`close` their maps).
Attachment deliberately skips Python's ``resource_tracker`` (via
``track=False`` on 3.13+, else the documented ``unregister`` workaround
for bpo-39959): the tracker would otherwise unlink the segment when the
*first* worker exits, yanking it out from under its siblings.

Everything degrades transparently: callers test :func:`available` and
fall back to plain pickling when the platform (or a sandbox) lacks
shared memory, so results never depend on the transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

try:  # pragma: no cover - exercised indirectly on every platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - no shm on this platform
    _shared_memory = None  # type: ignore[assignment]

__all__ = [
    "available",
    "SharedHandle",
    "SharedPack",
    "attach",
    "detach_all",
]

#: Byte alignment of each array inside the segment (cache-line friendly,
#: and safe for any numpy dtype's natural alignment).
_ALIGN = 64


def available() -> bool:
    """Whether POSIX shared memory is usable on this interpreter."""
    return _shared_memory is not None


@dataclass(frozen=True)
class SharedHandle:
    """A picklable reference to one packed segment.

    ``entries`` rows are ``(key, dtype_str, shape, offset)`` — enough to
    rebuild every array as a view over the mapped buffer.
    """

    name: str
    entries: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]
    nbytes: int


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedPack:
    """Creator-side owner of one shared segment holding many arrays."""

    def __init__(self, segment, handle: SharedHandle) -> None:
        self._segment = segment
        self.handle = handle

    @classmethod
    def create(cls, arrays: Dict[str, np.ndarray]) -> "SharedPack":
        """Copy ``arrays`` into a fresh segment (one copy, at creation)."""
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        layout = []
        offset = 0
        for key, array in arrays.items():
            array = np.ascontiguousarray(array)
            offset = _aligned(offset)
            layout.append((key, array, offset))
            offset += array.nbytes
        total = max(offset, 1)  # zero-byte segments are not allowed
        segment = _shared_memory.SharedMemory(create=True, size=total)
        entries = []
        for key, array, start in layout:
            view = np.ndarray(
                array.shape, dtype=array.dtype, buffer=segment.buf, offset=start
            )
            view[...] = array
            entries.append((key, array.dtype.str, tuple(array.shape), start))
        handle = SharedHandle(
            name=segment.name, entries=tuple(entries), nbytes=total
        )
        return cls(segment, handle)

    def close(self) -> None:
        """Unmap the creator's view (the segment itself stays alive)."""
        self._segment.close()

    def unlink(self) -> None:
        """Free the segment for good (close any local map first)."""
        try:
            self._segment.close()
        except OSError:  # pragma: no cover - already closed
            pass
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


def _attach_segment(name: str):
    """Map an existing segment without resource-tracker ownership.

    Before 3.13 (``track=False``), merely *attaching* registers the
    segment with the global resource tracker, which would unlink it —
    and spam warnings — on worker exit (bpo-39959).  The portable
    workaround suppresses that registration for the duration of the
    attach; workers here are single-threaded, so the swap is safe.
    """
    assert _shared_memory is not None
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - python < 3.13
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shared_memory(resource_name, rtype):
            if rtype != "shared_memory":
                original(resource_name, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return _shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


#: Per-process attachment cache: segment name -> (segment, views).
#: One evaluation's workers attach each segment exactly once no matter
#: how many chunks they process.
_ATTACHED: Dict[str, Tuple[object, Dict[str, np.ndarray]]] = {}


def attach(handle: SharedHandle) -> Dict[str, np.ndarray]:
    """Read-only zero-copy views of every array in ``handle``."""
    cached = _ATTACHED.get(handle.name)
    if cached is not None:
        return cached[1]
    segment = _attach_segment(handle.name)
    views: Dict[str, np.ndarray] = {}
    for key, dtype_str, shape, offset in handle.entries:
        view = np.ndarray(
            shape, dtype=np.dtype(dtype_str), buffer=segment.buf, offset=offset
        )
        view.setflags(write=False)
        views[key] = view
    _ATTACHED[handle.name] = (segment, views)
    return views


def detach_all() -> None:
    """Drop every cached attachment (views become invalid; test hook)."""
    for segment, views in _ATTACHED.values():
        views.clear()
        try:
            segment.close()
        except (OSError, BufferError):  # pragma: no cover - best effort
            pass
    _ATTACHED.clear()
