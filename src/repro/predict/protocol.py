"""The :class:`Predictor` protocol: rival blocklist models, one contract.

The paper evaluates exactly one predictor — CIDR-aggregated
uncleanliness (§5-§7) — but its evaluation machinery (equal-cardinality
Monte-Carlo controls, Table-3 hit counting, ROC analysis) is generic in
the *predicted block set*, not in how it was produced.  This module
fixes the seam: a predictor is anything that

* ``fit(reports, window)`` — learns from a mapping of tagged past
  :class:`~repro.core.report.Report`\\ s (the training feeds) and an
  optional :class:`~repro.sim.timeline.Window` anchoring "now";
* ``score_blocks(prefix_len)`` — returns a
  :class:`~repro.core.uncleanliness.BlockScores`: per-CIDR-block
  scores in ``[0, 1]`` at any prefix length, the table type the
  paper's own scorer and the stream serve from (models without
  per-class evidence leave its ``class_counts`` empty);
* ``rank(prefix_len, count)`` — the blocks in descending-score order
  (ties broken by ascending block, so rankings are total and
  deterministic);
* ``fingerprint()`` — a stable content hash of the model *and* what it
  was fitted on, which keys every evaluation cache.

Predictors are deterministic by contract: no RNG anywhere, identical
inputs give bit-identical scores.  The evaluators in
:mod:`repro.predict.evaluate` consume only this surface, which is what
lets the §5/§6 experiments run head-to-head over rival models
(:mod:`repro.predict.recommender`, :mod:`repro.predict.graphcluster`)
with the adapted paper model (:mod:`repro.predict.uncleanliness`) as
the baseline.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Mapping, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.core.report import Report
from repro.core.uncleanliness import BlockScores
from repro.engine.fingerprint import fingerprint as _fingerprint
from repro.sim.timeline import Window, day_to_date

__all__ = [
    "PREDICT_VERSION",
    "NotFittedError",
    "Predictor",
    "BasePredictor",
]

#: Bump when the fingerprint canonical form (not a model) changes, so
#: stale cached evaluations miss instead of aliasing.
PREDICT_VERSION = 1


class NotFittedError(ValueError):
    """A score/rank call on a predictor that has not been fitted."""


@runtime_checkable
class Predictor(Protocol):
    """Structural type of a blocklist predictor (see module docstring)."""

    name: str

    def fit(
        self, reports: Mapping[str, Report], window: Optional[Window] = None
    ) -> "Predictor":  # pragma: no cover - protocol
        ...

    def score_blocks(self, prefix_len: int) -> BlockScores:  # pragma: no cover
        ...

    def rank(
        self, prefix_len: int = 24, count: Optional[int] = None
    ) -> np.ndarray:  # pragma: no cover - protocol
        ...

    def fingerprint(self) -> str:  # pragma: no cover - protocol
        ...


def _report_digest(report: Report) -> str:
    """Content hash of one training report (addresses + identity)."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(report.addresses).tobytes())
    return digest.hexdigest()[:24]


class BasePredictor:
    """Shared plumbing for concrete predictors.

    Subclasses set a class-level ``name``, implement ``params()``
    (plain-data hyperparameters — these feed the fingerprint) and
    ``_score_blocks(prefix_len)`` (the model itself, reading
    ``self.training`` / ``self.window``).  The base class owns fit-state
    validation, per-prefix score-table caching, ranking order and the
    content fingerprint, so every model fingerprints and caches the
    same way.
    """

    name = "base"

    def __init__(self) -> None:
        self._training: Optional[Tuple[Tuple[str, Report], ...]] = None
        self._window: Optional[Window] = None
        self._tables: Dict[int, BlockScores] = {}
        self._training_addresses: Optional[np.ndarray] = None

    # -- subclass surface -------------------------------------------------

    def params(self) -> dict:
        """Hyperparameters as plain data (fingerprinted)."""
        return {}

    def _score_blocks(self, prefix_len: int) -> BlockScores:
        raise NotImplementedError

    # -- protocol ---------------------------------------------------------

    def fit(
        self, reports: Mapping[str, Report], window: Optional[Window] = None
    ) -> "BasePredictor":
        """Learn from tagged past reports; returns ``self``.

        ``reports`` must be non-empty; tags are ordered lexically so the
        fitted state (and fingerprint) is independent of mapping order.
        ``window`` anchors "now" for models with temporal decay; the
        window's end day is the prediction horizon.
        """
        if not reports:
            raise ValueError("at least one training report is required")
        for tag, report in reports.items():
            if not isinstance(report, Report):
                raise TypeError(
                    f"training report {tag!r} is {type(report).__name__}, "
                    "expected Report"
                )
            if len(report) == 0:
                raise ValueError(f"training report {tag!r} is empty")
        self._training = tuple(sorted(reports.items()))
        self._window = window
        self._tables = {}
        self._training_addresses = None
        return self

    @property
    def fitted(self) -> bool:
        return self._training is not None

    @property
    def training(self) -> Dict[str, Report]:
        """The fitted training reports (tag-sorted)."""
        self._require_fitted()
        return dict(self._training)

    @property
    def window(self) -> Optional[Window]:
        return self._window

    @property
    def training_addresses(self) -> np.ndarray:
        """Union of all training addresses (computed lazily, cached) —
        the equal-cardinality budget the §5 control draws must match."""
        self._require_fitted()
        if self._training_addresses is None:
            arrays = [report.addresses for _, report in self._training]
            union = arrays[0] if len(arrays) == 1 else np.unique(
                np.concatenate(arrays)
            )
            self._training_addresses = union
        return self._training_addresses

    @property
    def training_cardinality(self) -> int:
        return int(self.training_addresses.size)

    def score_blocks(self, prefix_len: int) -> BlockScores:
        """Per-block scores at ``prefix_len`` (cached per prefix)."""
        self._require_fitted()
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"prefix length out of range: {prefix_len}")
        table = self._tables.get(prefix_len)
        if table is None:
            table = self._score_blocks(prefix_len)
            self._tables[prefix_len] = table
        return table

    def rank(
        self, prefix_len: int = 24, count: Optional[int] = None
    ) -> np.ndarray:
        """Blocks in ranking order (score desc, block asc)."""
        return self.score_blocks(prefix_len).ranked_blocks(count)

    def fingerprint(self) -> str:
        """Content hash of the model, its parameters and its training.

        Two predictors agree iff they share the model name and version,
        every hyperparameter, the training window, and the exact
        training report contents — the key under which evaluations are
        cached (so rival models over one scenario never collide).
        """
        identity = {
            "predict_version": PREDICT_VERSION,
            "predictor": self.name,
            "params": self.params(),
            "window": self._window,
            "reports": None if self._training is None else [
                [tag, _report_digest(report), len(report),
                 report.period]
                for tag, report in self._training
            ],
        }
        return _fingerprint(identity)

    # -- helpers ----------------------------------------------------------

    def _require_fitted(self) -> None:
        if self._training is None:
            raise NotFittedError(
                f"{type(self).__name__} must be fit(reports, window) "
                "before scoring"
            )

    def _reference_date(self):
        """The "now" the temporal models decay towards: the window's end
        date, else the newest training-period end, else ``None``."""
        if self._window is not None:
            return day_to_date(self._window.end_day)
        ends = [
            report.period[1]
            for _, report in (self._training or ())
            if report.period is not None
        ]
        return max(ends) if ends else None

    def __repr__(self) -> str:
        state = "unfitted"
        if self._training is not None:
            tags = ",".join(tag for tag, _ in self._training)
            state = f"fitted on [{tags}]"
        return f"{type(self).__name__}(name={self.name!r}, {state})"
