"""The paper's model behind the protocol: adapted ``UncleanlinessScorer``.

This is a thin adapter, deliberately so: the scoring math stays in
:class:`repro.core.uncleanliness.UncleanlinessScorer` and the adapter
only maps the protocol's tag-keyed training reports onto the scorer's
class-keyed input.  Reports sharing a
:class:`~repro.core.report.DataClass` are unioned into one evidence
dimension (the scorer counts *addresses* per class, exactly as §7
describes); reports with no data class contribute under their own tag
with weight 1.  Because the delegation is total, the adapter's scores
are bit-identical to calling the scorer directly — pinned by the
equivalence tests in ``tests/test_predict_models.py``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.core.report import DataClass, Report
from repro.core.uncleanliness import DEFAULT_WEIGHTS, UncleanlinessScorer
from repro.predict.protocol import BasePredictor, BlockRanking

__all__ = ["UncleanlinessPredictor"]


class UncleanlinessPredictor(BasePredictor):
    """CIDR-aggregated multidimensional uncleanliness (§7), as a
    :class:`~repro.predict.protocol.Predictor`.

    Parameters
    ----------
    weights:
        Optional per-class weight overrides.  When omitted, the paper
        defaults apply and any class outside them weighs 1.0 — so
        fitting on arbitrary tagged feeds never rejects a class the
        scorer has no weight for.
    """

    name = "uncleanliness"

    def __init__(self, weights: Optional[Mapping[str, float]] = None) -> None:
        super().__init__()
        self._weights = dict(weights) if weights is not None else None

    def params(self) -> dict:
        return {"weights": self._weights}

    def _class_reports(self) -> Dict[str, Report]:
        """Training reports regrouped by evidence class.

        Same-class reports are unioned (address counts per block are
        what the scorer consumes; a union is the lossless merge).  Tag
        order within a class is already lexical from ``fit``, so the
        merged report — and therefore the scores — are order-independent.
        """
        grouped: Dict[str, Report] = {}
        for tag, report in sorted(self.training.items()):
            cls = report.data_class
            if not cls or cls == DataClass.NONE:
                cls = tag
            if cls in grouped:
                grouped[cls] = grouped[cls].union(report, tag=cls)
            else:
                grouped[cls] = report
        return grouped

    def _effective_weights(self, classes) -> Dict[str, float]:
        if self._weights is not None:
            base = dict(self._weights)
        else:
            base = dict(DEFAULT_WEIGHTS)
        for cls in classes:
            base.setdefault(cls, 1.0)
        return base

    def _score_blocks(self, prefix_len: int) -> BlockRanking:
        reports = self._class_reports()
        scorer = UncleanlinessScorer(
            prefix_len=prefix_len,
            weights=self._effective_weights(reports),
        )
        scored = scorer.score(reports)
        return BlockRanking(
            prefix_len=prefix_len,
            blocks=scored.blocks,
            scores=scored.scores,
        )
