"""Content-addressed artifact store: in-memory LRU plus on-disk layer.

Keys are ``"<config-fingerprint>/<stage-name>"`` strings.  Every value
lives in a bounded in-memory LRU; stages that declare a :class:`Codec`
additionally persist to disk so the artifact survives across processes
(warm CLI runs, CI steps, benchmark sessions).

Disk location: ``$REPRO_CACHE_DIR`` when set (an empty value disables
the disk layer entirely), otherwise ``~/.cache/repro``.  Payloads are
``.npz`` arrays plus a ``.json`` metadata sidecar — nothing is pickled.

Fault tolerance (the disk layer is a cache, so no disk failure may ever
fail a run or corrupt a result):

* every sidecar carries a SHA-256 **checksum** of its payload, verified
  on read; a mismatch, unparseable sidecar or missing payload is
  **quarantined** to ``<cache>/quarantine/`` and treated as a miss;
* the payload is renamed into place *before* the sidecar, so a crash
  mid-``put`` leaves an orphan payload (swept to quarantine on the next
  store init), never a readable-but-wrong entry;
* transient ``OSError``\\ s are retried with exponential backoff; a put
  that still fails **degrades the store to memory-only mode** with a
  one-time warning — later runs simply rebuild;
* :meth:`ArtifactStore.doctor` verifies every entry, re-sweeps orphans
  and reports the health counters (the ``uncleanliness cache doctor``
  CLI verb).

Injection points for the chaos suite live in :mod:`repro.engine.faults`
(``store.read``, ``store.write``, ``store.commit``, ``store.corrupt``).
"""

from __future__ import annotations

import datetime
import hashlib
import io
import json
import logging
import os
import tempfile
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.report import Report
from repro.engine import faults
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import warn_event

__all__ = [
    "MISS",
    "StoreError",
    "ArtifactMissing",
    "VersionSkew",
    "CorruptArtifact",
    "Codec",
    "ReportMappingCodec",
    "PartitionCodec",
    "ArrayCodec",
    "ArtifactStore",
    "resolve_cache_dir",
    "default_store",
    "set_default_store",
    "reset_default_store",
]

log = logging.getLogger("repro.engine.store")

#: Sentinel returned by :meth:`ArtifactStore.get` on a miss (``None`` can
#: be a legitimate artifact value).
MISS = object()

#: Bump when the on-disk payload layout changes, or when artifact VALUES
#: change for the same fingerprint.  Version 3 added the payload
#: checksum to the sidecar envelope (entries without one are skewed).
STORE_FORMAT_VERSION = 3

#: Name of the quarantine subdirectory under the cache root.
QUARANTINE_DIR = "quarantine"


class StoreError(Exception):
    """Base class for typed artifact-store errors."""


class ArtifactMissing(StoreError):
    """No entry on disk (a plain miss, not a failure)."""


class VersionSkew(StoreError):
    """An entry written by another store format version (plain miss)."""


class CorruptArtifact(StoreError):
    """An entry that exists but cannot be trusted (quarantined)."""


def _sidecar(base: Path) -> Path:
    """Metadata path for a base name (append, never replace, a suffix —
    the base already contains dots from the cache key)."""
    return base.parent / (base.name + ".json")


def _payload(base: Path) -> Path:
    """Array-payload path for a base name."""
    return base.parent / (base.name + ".npz")


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write-then-rename so concurrent readers never see a torn file."""
    faults.check("store.write")
    with tempfile.NamedTemporaryFile(
        dir=str(path.parent), suffix=path.suffix + ".tmp", delete=False
    ) as handle:
        handle.write(data)
        tmp = handle.name
    os.replace(tmp, str(path))


def _read_envelope(base: Path) -> Tuple[dict, bytes]:
    """The verified ``(envelope, payload bytes)`` of an entry.

    Raises :class:`ArtifactMissing` when there is no sidecar,
    :class:`VersionSkew` on a format mismatch, and
    :class:`CorruptArtifact` when the sidecar is unparseable, the
    payload is missing, or the checksum does not match.
    """
    sidecar = _sidecar(base)
    if not sidecar.exists():
        raise ArtifactMissing(f"no sidecar for {base.name}")
    faults.check("store.read")
    raw = sidecar.read_bytes()
    try:
        envelope = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CorruptArtifact(f"unparseable sidecar {sidecar.name}: {err}") from None
    if not isinstance(envelope, dict):
        raise CorruptArtifact(f"sidecar {sidecar.name} is not an object")
    if envelope.get("format") != STORE_FORMAT_VERSION:
        raise VersionSkew(
            f"{sidecar.name}: format {envelope.get('format')!r}, "
            f"want {STORE_FORMAT_VERSION}"
        )
    faults.check("store.read")
    try:
        payload_bytes = _payload(base).read_bytes()
    except FileNotFoundError:
        raise CorruptArtifact(f"sidecar without payload: {base.name}") from None
    digest = hashlib.sha256(payload_bytes).hexdigest()
    if envelope.get("checksum") != digest:
        raise CorruptArtifact(
            f"checksum mismatch for {base.name}: "
            f"sidecar {envelope.get('checksum')!r} != payload {digest[:16]}..."
        )
    return envelope, payload_bytes


def verify_entry(base: Path) -> dict:
    """Checksum-verify one entry; its envelope, or a typed error."""
    envelope, _ = _read_envelope(base)
    return envelope


def _corrupt_payload(base: Path) -> None:
    """Flip one byte of the payload (the ``store.corrupt`` fault)."""
    path = _payload(base)
    try:
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 0xFF]))
    except OSError:  # pragma: no cover - nothing to corrupt
        pass


class Codec:
    """Serialises one stage's value to ``<base>.npz`` + ``<base>.json``.

    Subclasses implement :meth:`to_payload` / :meth:`from_payload`
    mapping the value to ``(arrays, meta)`` where ``arrays`` is a
    ``{name: ndarray}`` dict and ``meta`` is JSON-serialisable.
    """

    name = "codec"

    def to_payload(self, value: Any):
        raise NotImplementedError

    def from_payload(self, arrays: Dict[str, np.ndarray], meta: Any) -> Any:
        raise NotImplementedError

    # -- file plumbing ----------------------------------------------------

    def dump(self, value: Any, base: Path) -> int:
        """Persist ``value``: payload first, checksummed sidecar last.

        The sidecar rename is the commit point — a crash before it
        leaves an orphan payload that the next store init quarantines,
        never a readable entry with a missing or stale payload.
        Returns the number of payload+sidecar bytes written (the
        per-stage bytes metric).
        """
        arrays, meta = self.to_payload(value)
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        payload_bytes = buffer.getvalue()
        envelope = {
            "format": STORE_FORMAT_VERSION,
            "codec": self.name,
            "checksum": hashlib.sha256(payload_bytes).hexdigest(),
            "meta": meta,
        }
        sidecar_bytes = json.dumps(envelope, sort_keys=True).encode("utf-8")
        _atomic_write_bytes(_payload(base), payload_bytes)
        faults.check("store.commit")  # the chaos suite's crash window
        _atomic_write_bytes(_sidecar(base), sidecar_bytes)
        if faults.check("store.corrupt") is not None:
            _corrupt_payload(base)
        return len(payload_bytes) + len(sidecar_bytes)

    def load(self, base: Path) -> Any:
        envelope, payload_bytes = _read_envelope(base)
        if envelope.get("codec") != self.name:
            raise CorruptArtifact(
                f"codec mismatch for {base.name}: "
                f"{envelope.get('codec')!r} != {self.name!r}"
            )
        try:
            with np.load(io.BytesIO(payload_bytes)) as payload:
                arrays = {key: payload[key] for key in payload.files}
            return self.from_payload(arrays, envelope["meta"])
        except (KeyError, ValueError) as err:
            raise CorruptArtifact(f"undecodable payload {base.name}: {err}") from None


def _report_meta(report: Report) -> dict:
    period = None
    if report.period is not None:
        period = [report.period[0].isoformat(), report.period[1].isoformat()]
    return {
        "tag": report.tag,
        "report_type": report.report_type,
        "data_class": report.data_class,
        "period": period,
    }


def _report_from(addresses: np.ndarray, meta: dict) -> Report:
    period = None
    if meta["period"] is not None:
        period = (
            datetime.date.fromisoformat(meta["period"][0]),
            datetime.date.fromisoformat(meta["period"][1]),
        )
    return Report(
        tag=meta["tag"],
        addresses=addresses.astype(np.uint32),
        report_type=meta["report_type"],
        data_class=meta["data_class"],
        period=period,
    )


class ReportMappingCodec(Codec):
    """``{key: Report}`` dicts — e.g. the scenario's Table 1 reports."""

    name = "report-mapping"

    def to_payload(self, value: Dict[str, Report]):
        arrays = {key: report.addresses for key, report in value.items()}
        meta = {key: _report_meta(report) for key, report in value.items()}
        return arrays, meta

    def from_payload(self, arrays, meta) -> Dict[str, Report]:
        return {key: _report_from(arrays[key], meta[key]) for key in meta}


class PartitionCodec(Codec):
    """The §6 :class:`CandidatePartition` (four reports)."""

    name = "candidate-partition"
    _FIELDS = ("candidate", "hostile", "unknown", "innocent")

    def to_payload(self, value: CandidatePartition):
        reports = {name: getattr(value, name) for name in self._FIELDS}
        arrays = {name: report.addresses for name, report in reports.items()}
        meta = {name: _report_meta(report) for name, report in reports.items()}
        return arrays, meta

    def from_payload(self, arrays, meta) -> CandidatePartition:
        from repro.core.blocking import CandidatePartition

        return CandidatePartition(
            **{name: _report_from(arrays[name], meta[name]) for name in self._FIELDS}
        )


class ArrayCodec(Codec):
    """A bare ndarray (the stream service's checkpoint head)."""

    name = "ndarray"

    def to_payload(self, value):
        return {"values": np.asarray(value)}, None

    def from_payload(self, arrays, meta):
        return arrays["values"]


def resolve_cache_dir(ensure: bool = False) -> Optional[Path]:
    """The on-disk cache root, or ``None`` when disabled.

    ``$REPRO_CACHE_DIR`` overrides the default ``~/.cache/repro``; an
    empty ``$REPRO_CACHE_DIR`` disables the disk layer.  With
    ``ensure=True`` the directory is created and probe-written, and an
    uncreatable or unwritable directory (read-only ``$HOME`` in a CI
    container, say) falls back to ``None`` — memory-only — with a
    warning instead of crashing the run.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env is not None:
        if not env.strip():
            return None
        path = Path(env)
    else:
        path = Path.home() / ".cache" / "repro"
    if not ensure:
        return path
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / f".write-probe-{os.getpid()}"
        probe.write_bytes(b"")
        probe.unlink()
    except OSError as err:
        warn_event(
            "store.cache_dir_unusable",
            f"cache dir unusable; degrading to memory-only: {err}",
            logger=log,
            dir=str(path),
        )
        return None
    return path


class ArtifactStore:
    """Bounded in-memory LRU over an optional on-disk artifact layer.

    ``io_attempts``/``io_backoff`` bound the retry-with-backoff applied
    to transient disk errors; a put that exhausts its retries degrades
    the store to memory-only mode (``degraded``), because a cache that
    cannot write must never fail the run that is filling it.
    """

    def __init__(
        self,
        max_memory_items: int = 64,
        disk_dir: Optional[Path] = None,
        enable_disk: bool = True,
        io_attempts: int = 3,
        io_backoff: float = 0.02,
        sweep: bool = True,
    ) -> None:
        if max_memory_items < 1:
            raise ValueError("max_memory_items must be >= 1")
        if io_attempts < 1:
            raise ValueError("io_attempts must be >= 1")
        self.max_memory_items = max_memory_items
        self.disk_dir = Path(disk_dir) if (enable_disk and disk_dir) else None
        self.io_attempts = io_attempts
        self.io_backoff = io_backoff
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        # -- health counters (the `cache doctor` vital signs) -------------
        self.read_errors = 0
        self.write_errors = 0
        self.retries = 0
        self.quarantined = 0
        self.orphans_swept = 0
        self.tmp_removed = 0
        self.version_skew = 0
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        if self.disk_dir is not None and sweep:
            try:
                self._sweep_orphans()
            except OSError as err:
                log.warning("orphan sweep failed dir=%s err=%s", self.disk_dir, err)

    # -- keys -------------------------------------------------------------

    @staticmethod
    def _base_name(key: str) -> str:
        return key.replace("/", ".")

    def _disk_base(self, key: str) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / self._base_name(key)

    @property
    def quarantine_dir(self) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / QUARANTINE_DIR

    # -- retry / degradation ----------------------------------------------

    def _with_retries(self, op):
        """Run ``op``, retrying transient OSErrors with backoff.

        Typed store errors (missing, skewed, corrupt) are never
        retried — they are verdicts, not weather.
        """
        last: Optional[OSError] = None
        for attempt in range(self.io_attempts):
            try:
                return op()
            except StoreError:
                raise
            except OSError as err:
                last = err
                if attempt + 1 < self.io_attempts:
                    self.retries += 1
                    obs_metrics.inc("store.retries")
                    time.sleep(self.io_backoff * (2 ** attempt))
        assert last is not None
        raise last

    def _degrade(self, reason: str) -> None:
        """One-way switch to memory-only writes, warned exactly once."""
        if not self.degraded:
            self.degraded = True
            self.degraded_reason = reason
            warn_event(
                "store.degraded",
                f"store degraded to memory-only dir={self.disk_dir} "
                f"reason={reason}",
                logger=log,
            )

    def _quarantine(self, base: Path, reason: str = "") -> int:
        """Move an entry's files out of the hot path; files moved."""
        qdir = self.quarantine_dir
        if qdir is None:
            return 0
        moved = 0
        for path in (_payload(base), _sidecar(base)):
            if not path.exists():
                continue
            try:
                qdir.mkdir(parents=True, exist_ok=True)
                target = qdir / path.name
                serial = 0
                while target.exists():
                    serial += 1
                    target = qdir / f"{path.name}.{serial}"
                os.replace(str(path), str(target))
                moved += 1
            except OSError as err:
                log.warning("quarantine failed file=%s err=%s", path, err)
        if moved:
            self.quarantined += 1
            warn_event(
                "store.quarantined",
                f"store quarantined entry={base.name} files={moved} "
                f"reason={reason or 'unspecified'}",
                logger=log,
            )
        return moved

    def _sweep_orphans(self) -> None:
        """Quarantine half-written entries and drop stale temp files.

        A payload ``.npz`` without its ``.json`` sidecar (a crash
        mid-put) — or the reverse — would otherwise miss on every read
        forever.  Runs at store init and from :meth:`doctor`.
        """
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return
        payloads, sidecars = set(), set()
        for path in self.disk_dir.iterdir():
            if not path.is_file():
                continue
            if path.name.endswith(".tmp"):
                try:
                    path.unlink()
                    self.tmp_removed += 1
                except OSError:
                    pass
            elif path.name.endswith(".npz"):
                payloads.add(path.name[: -len(".npz")])
            elif path.name.endswith(".json"):
                sidecars.add(path.name[: -len(".json")])
        for name in sorted(payloads.symmetric_difference(sidecars)):
            if name.startswith(".write-probe"):
                continue
            side = "payload" if name in payloads else "sidecar"
            if self._quarantine(self.disk_dir / name, reason=f"orphan {side}"):
                self.orphans_swept += 1

    # -- access -----------------------------------------------------------

    def get(self, key: str, codec: Optional[Codec] = None) -> Any:
        """The cached value for ``key``, or :data:`MISS`."""
        with obs_trace.span("store.get", key=key) as sp:
            value, outcome = self._lookup(key, codec)
            sp.set(outcome=outcome)
        obs_metrics.inc(f"store.get.{outcome}")
        return value

    def _lookup(self, key: str, codec: Optional[Codec]) -> Tuple[Any, str]:
        if key in self._memory:
            self._memory.move_to_end(key)
            self.memory_hits += 1
            return self._memory[key], "memory-hit"
        base = self._disk_base(key)
        if codec is not None and base is not None:
            value = self._disk_read(key, base, codec)
            if value is not MISS:
                self.disk_hits += 1
                self._remember(key, value)
                return value, "disk-hit"
        self.misses += 1
        return MISS, "miss"

    def _disk_read(self, key: str, base: Path, codec: Codec) -> Any:
        try:
            return self._with_retries(lambda: codec.load(base))
        except ArtifactMissing:
            return MISS
        except VersionSkew as err:
            self.version_skew += 1
            log.info("store version skew key=%s err=%s", key, err)
            return MISS
        except CorruptArtifact as err:
            self._quarantine(base, reason=str(err))
            return MISS
        except OSError as err:
            self.read_errors += 1
            log.warning(
                "store read failed key=%s err=%s; treating as miss", key, err
            )
            return MISS

    def put(self, key: str, value: Any, codec: Optional[Codec] = None) -> None:
        """Cache ``value``; persist to disk when a codec is given."""
        self.puts += 1
        with obs_trace.span("store.put", key=key) as sp:
            outcome, nbytes = self._store(key, value, codec)
            sp.set(outcome=outcome)
        obs_metrics.inc(f"store.put.{outcome}")
        if nbytes:
            stage = key.rsplit("/", 1)[-1]
            obs_metrics.inc(f"store.bytes.{stage}", nbytes)

    def _store(
        self, key: str, value: Any, codec: Optional[Codec]
    ) -> Tuple[str, int]:
        self._remember(key, value)
        base = self._disk_base(key)
        if codec is None or base is None:
            return "memory", 0
        if self.degraded:
            return "degraded", 0
        try:
            nbytes = self._with_retries(lambda: self._dump(base, codec, value))
            return "disk", int(nbytes or 0)
        except StoreError as err:  # pragma: no cover - dump never raises these
            self.write_errors += 1
            log.warning("store write failed key=%s err=%s", key, err)
            return "error", 0
        except OSError as err:
            self.write_errors += 1
            self._degrade(f"{type(err).__name__}: {err}")
            return "error", 0

    def _dump(self, base: Path, codec: Codec, value: Any) -> int:
        base.parent.mkdir(parents=True, exist_ok=True)
        return codec.dump(value, base)

    def _remember(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_items:
            self._memory.popitem(last=False)
            self.evictions += 1

    # -- maintenance -------------------------------------------------------

    def _disk_files(self):
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return []
        return [
            path
            for path in self.disk_dir.iterdir()
            if path.is_file() and path.suffix in (".npz", ".json")
        ]

    def _quarantine_files(self):
        qdir = self.quarantine_dir
        if qdir is None or not qdir.is_dir():
            return []
        return [path for path in qdir.iterdir() if path.is_file()]

    def clear(self, memory: bool = True, disk: bool = True) -> int:
        """Drop cached artifacts; returns the number of disk files removed.

        Quarantined files are kept for post-mortems; purge them with
        :meth:`purge_quarantine` (``cache doctor --purge-quarantine``).
        """
        if memory:
            self._memory.clear()
        removed = 0
        if disk:
            for path in self._disk_files():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def purge_quarantine(self) -> int:
        """Delete quarantined files; returns how many were removed."""
        removed = 0
        for path in self._quarantine_files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def health(self) -> dict:
        """The fault/degradation counters on their own."""
        return {
            "read_errors": self.read_errors,
            "write_errors": self.write_errors,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "orphans_swept": self.orphans_swept,
            "tmp_removed": self.tmp_removed,
            "version_skew": self.version_skew,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
        }

    def info(self) -> dict:
        """A snapshot of cache contents and hit counters."""
        files = self._disk_files()
        disk_bytes = 0
        for path in files:
            try:
                disk_bytes += path.stat().st_size
            except OSError:
                pass
        snapshot = {
            "memory_entries": len(self._memory),
            "max_memory_items": self.max_memory_items,
            "disk_dir": str(self.disk_dir) if self.disk_dir else None,
            "disk_files": len(files),
            "disk_bytes": disk_bytes,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "quarantine_files": len(self._quarantine_files()),
            # Streaming day checkpoints (repro.stream.checkpoint keys
            # look like <fp>/stream.day-<DDDDD>; one sidecar per entry).
            "stream_checkpoints": sum(
                1
                for path in files
                if path.name.endswith(".json") and ".stream.day-" in path.name
            ),
        }
        # Streaming checkpoint bytes plus fleet shard-delivery
        # checkpoints (repro.fleet keys look like
        # fleet-<fp>/shard-<name>.reports), grouped into per-namespace
        # entry/byte counts so `cache info` can show each fleet's
        # footprint separately.
        stream_bytes = 0
        fleet_entries = 0
        namespaces: Dict[str, Dict[str, int]] = {}
        for path in files:
            name = path.name
            if ".stream." in name:
                try:
                    stream_bytes += path.stat().st_size
                except OSError:
                    pass
            if ".shard-" not in name:
                continue
            entry = namespaces.setdefault(
                name.split(".shard-", 1)[0], {"entries": 0, "bytes": 0}
            )
            if name.endswith(".json"):
                entry["entries"] += 1
                fleet_entries += 1
            try:
                entry["bytes"] += path.stat().st_size
            except OSError:
                pass
        snapshot["stream_checkpoint_bytes"] = stream_bytes
        snapshot["fleet_checkpoints"] = fleet_entries
        snapshot["fleet_namespaces"] = namespaces
        snapshot.update(self.health())
        return snapshot

    def doctor(self, purge_quarantine: bool = False) -> dict:
        """Verify every on-disk entry and report store health.

        Checksums each entry's payload against its sidecar, quarantines
        anything corrupt, re-sweeps orphans and stale temp files, and
        optionally purges the quarantine.  Safe to run on a live cache.
        """
        verified = corrupt = skewed = unreadable = 0
        stream_verified = stream_quarantined = 0
        fleet_verified = fleet_quarantined = 0
        if self.disk_dir is not None and self.disk_dir.is_dir():
            try:
                self._sweep_orphans()
            except OSError as err:
                log.warning("doctor sweep failed err=%s", err)
            for sidecar in sorted(self.disk_dir.glob("*.json")):
                base = self.disk_dir / sidecar.name[: -len(".json")]
                is_stream = ".stream." in sidecar.name
                is_fleet = ".shard-" in sidecar.name
                try:
                    self._with_retries(lambda b=base: verify_entry(b))
                except (ArtifactMissing, CorruptArtifact) as err:
                    self._quarantine(base, reason=str(err))
                    corrupt += 1
                    stream_quarantined += is_stream
                    fleet_quarantined += is_fleet
                except VersionSkew:
                    self.version_skew += 1
                    skewed += 1
                except OSError as err:
                    self.read_errors += 1
                    log.warning("doctor cannot read entry=%s err=%s", base, err)
                    unreadable += 1
                else:
                    verified += 1
                    stream_verified += is_stream
                    fleet_verified += is_fleet
        quarantine = self._quarantine_files()
        quarantine_bytes = 0
        for path in quarantine:
            try:
                quarantine_bytes += path.stat().st_size
            except OSError:
                pass
        purged = self.purge_quarantine() if purge_quarantine else 0
        report = {
            "disk_dir": str(self.disk_dir) if self.disk_dir else None,
            "entries_verified": verified,
            "entries_corrupt": corrupt,
            "entries_version_skew": skewed,
            "entries_unreadable": unreadable,
            "quarantine_files": 0 if purge_quarantine else len(quarantine),
            "quarantine_bytes": 0 if purge_quarantine else quarantine_bytes,
            "quarantine_purged": purged,
            # Stream day checkpoints and fleet shard deliveries are part
            # of the sweep above; break them out so resumability damage
            # is visible at a glance.
            "stream_checkpoints_verified": stream_verified,
            "stream_checkpoints_quarantined": stream_quarantined,
            "fleet_entries_verified": fleet_verified,
            "fleet_entries_quarantined": fleet_quarantined,
        }
        report.update(self.health())
        return report


_DEFAULT_STORE: Optional[ArtifactStore] = None


def default_store() -> ArtifactStore:
    """The process-wide store (created lazily from the environment)."""
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = ArtifactStore(disk_dir=resolve_cache_dir(ensure=True))
    return _DEFAULT_STORE


def set_default_store(store: ArtifactStore) -> None:
    global _DEFAULT_STORE
    _DEFAULT_STORE = store


def reset_default_store() -> None:
    """Drop the singleton so the next use re-reads the environment."""
    global _DEFAULT_STORE
    _DEFAULT_STORE = None
