"""The staged artifact engine.

Every expensive intermediate of the reproduction — the synthetic
Internet, the botnet timeline, the October border capture, the Table 1
reports, the §6 candidate partition — is produced by a named
:class:`~repro.engine.stage.Stage` and cached in an
:class:`~repro.engine.store.ArtifactStore` keyed by a deterministic
:func:`~repro.engine.fingerprint.fingerprint` of the full
configuration (not just its seed).  Stages whose values are plain
address data additionally persist to disk (``~/.cache/repro`` or
``$REPRO_CACHE_DIR``) so warm CLI runs, benchmarks and tests skip the
simulation entirely.
"""

from repro.engine import faults
from repro.engine.faults import FaultPlan, FaultRule, FaultSpecError, InjectedFault
from repro.engine.fingerprint import canonicalize, fingerprint
from repro.engine.stage import Stage, StageContext, StageEngine
from repro.engine.store import (
    MISS,
    ArrayCodec,
    ArtifactMissing,
    ArtifactStore,
    Codec,
    CorruptArtifact,
    PartitionCodec,
    ReportMappingCodec,
    StoreError,
    VersionSkew,
    default_store,
    reset_default_store,
    resolve_cache_dir,
    set_default_store,
)

__all__ = [
    "canonicalize",
    "fingerprint",
    "Stage",
    "StageContext",
    "StageEngine",
    "MISS",
    "ArtifactStore",
    "Codec",
    "ReportMappingCodec",
    "PartitionCodec",
    "ArrayCodec",
    "StoreError",
    "ArtifactMissing",
    "VersionSkew",
    "CorruptArtifact",
    "faults",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "InjectedFault",
    "default_store",
    "set_default_store",
    "reset_default_store",
    "resolve_cache_dir",
]
