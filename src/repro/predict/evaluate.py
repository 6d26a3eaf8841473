"""Predictor-generic evaluation: §5, §6 and ROC for any model.

The evaluators here close the loop the protocol opens: any fitted
:class:`~repro.predict.protocol.Predictor` runs through the paper's own
machinery —

* the §5 temporal test (:func:`repro.core.prediction.
  prediction_test_blocks`) against the equal-cardinality Monte-Carlo
  null of :func:`repro.core.prediction.control_intersection_distribution`;
* the §6 Table-3 virtual block
  (:func:`repro.core.blocking.blocking_test_blocks`) over the
  candidate partition;
* a score-threshold ROC over the partition's hostile/innocent
  addresses (:func:`repro.core.roc.partition_roc`), giving the single
  AUC number the head-to-head tables rank by.

The crucial sharing property: the Monte-Carlo control distribution
depends only on the present blocks, the control report and the
cardinality budget — never on the predictor — so
:func:`compare_predictors` draws it once per distinct training
cardinality and reuses it across all rivals.  A comparison of three
models therefore costs one Monte-Carlo run plus three cheap
intersection/blocking passes, and the baseline adapter's numbers are
bit-identical to the legacy single-model path.

Evaluations are cached in the artifact store under a key that embeds
the predictor fingerprint next to the scenario/evaluation parameters
(:class:`EvaluationCodec`), so sweeps cache per-model and two rivals
over one scenario can never collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import cidr as rcidr
from repro.core.blocking import (
    BLOCKING_PREFIXES,
    BlockingResult,
    BlockingRow,
    CandidatePartition,
    blocking_test_blocks,
)
from repro.core.prediction import (
    PredictionResult,
    control_intersection_distribution,
    prediction_test_blocks,
)
from repro.core.report import Report
from repro.core.roc import ROCCurve, partition_roc
from repro.core.stats import BoxplotSummary
from repro.engine.store import Codec
from repro.predict.protocol import BasePredictor

__all__ = [
    "ModelEvaluation",
    "ComparisonResult",
    "EvaluationCodec",
    "evaluate_predictor",
    "compare_predictors",
]

#: Prefix length of the score-threshold ROC (the paper's candidate
#: extraction granularity).
ROC_PREFIX = 24


@dataclass(frozen=True)
class ModelEvaluation:
    """One predictor's full scorecard over one scenario.

    Attributes
    ----------
    predictor_name, predictor_fingerprint, params:
        Identity of the evaluated model (the fingerprint keys caches).
    training_cardinality:
        Address budget of the training union — the equal-cardinality
        constraint the Monte-Carlo null was drawn under.
    prediction:
        §5 temporal test of the model's predicted blocks.
    blocking:
        §6 Table-3 result over the model's blocks (``None`` when no
        candidate partition was supplied).
    roc:
        Score-threshold ROC over hostile vs innocent candidates at
        ``/24`` (``None`` without a partition or with a degenerate
        class split).
    """

    predictor_name: str
    predictor_fingerprint: str
    params: dict
    training_cardinality: int
    prediction: PredictionResult
    blocking: Optional[BlockingResult] = None
    roc: Optional[ROCCurve] = None

    def roc_auc(self) -> Optional[float]:
        return self.roc.auc() if self.roc is not None else None

    def summary_row(self) -> dict:
        """One line of the head-to-head table."""
        window = self.prediction.predictive_range()
        auc = self.roc_auc()
        row = {
            "predictor": self.predictor_name,
            "fingerprint": self.predictor_fingerprint[:12],
            "predictive_range": (
                f"{window[0]}-{window[1]}" if window else "none"
            ),
            "roc_auc": round(auc, 4) if auc is not None else None,
        }
        if self.blocking is not None:
            at24 = self.blocking.row(ROC_PREFIX)
            row["tp_rate@24"] = round(at24.tp_rate, 4)
            row["fp_rate@24"] = round(at24.fp_rate, 4)
        return row


@dataclass(frozen=True)
class ComparisonResult:
    """Head-to-head evaluations of rival predictors over one scenario."""

    present_tag: str
    prefixes: Tuple[int, ...]
    subsets: int
    evaluations: Tuple[ModelEvaluation, ...]

    def evaluation(self, name: str) -> ModelEvaluation:
        for ev in self.evaluations:
            if ev.predictor_name == name:
                return ev
        raise KeyError(f"no evaluation for predictor {name!r}")

    def names(self) -> List[str]:
        return [ev.predictor_name for ev in self.evaluations]

    def summary_table(self) -> List[dict]:
        """One row per model: predictive range, AUC, Table-3 rates."""
        return [ev.summary_row() for ev in self.evaluations]

    def auc_ranking(self) -> List[Tuple[str, Optional[float]]]:
        """(name, AUC) best-first; models without a ROC sort last."""
        pairs = [(ev.predictor_name, ev.roc_auc()) for ev in self.evaluations]
        return sorted(
            pairs, key=lambda pair: -1.0 if pair[1] is None else pair[1],
            reverse=True,
        )

    def manifest(self) -> dict:
        """Provenance block for run manifests: every model's fingerprint
        and parameters next to the evaluation's knobs."""
        return {
            "present": self.present_tag,
            "prefixes": list(self.prefixes),
            "subsets": self.subsets,
            "predictors": [
                {
                    "name": ev.predictor_name,
                    "fingerprint": ev.predictor_fingerprint,
                    "params": ev.params,
                    "roc_auc": ev.roc_auc(),
                }
                for ev in self.evaluations
            ],
        }


def _predicted_blocks(
    predictor: BasePredictor, prefixes: Sequence[int]
) -> Tuple[np.ndarray, ...]:
    """The model's predicted block set per prefix (all ranked blocks —
    thresholding is the ROC's job, set membership is the §5/§6 one)."""
    return tuple(predictor.score_blocks(n).blocks for n in prefixes)


def _past_tag(predictor: BasePredictor) -> str:
    """Label the §5 "past" side by the training feeds, so a single-feed
    fit reads exactly like the legacy report-vs-report test."""
    return "+".join(sorted(predictor.training))


def evaluate_predictor(
    predictor: BasePredictor,
    present: Report,
    control: Report,
    rng: np.random.Generator,
    partition: Optional[CandidatePartition] = None,
    prefixes: Sequence[int] = tuple(rcidr.PREFIX_RANGE),
    blocking_prefixes: Sequence[int] = BLOCKING_PREFIXES,
    subsets: int = 1000,
    control_values: Optional[Dict[int, np.ndarray]] = None,
) -> ModelEvaluation:
    """Run one fitted predictor through the paper's evaluations.

    ``control_values`` injects a precomputed §5 null distribution (from
    :func:`repro.core.prediction.control_intersection_distribution`
    with this predictor's training cardinality); when omitted it is
    drawn here from ``rng``.  When a §6 ``partition`` is supplied the
    Table-3 block and the hostile-vs-innocent ROC are evaluated too.
    """
    if not predictor.fitted:
        raise ValueError(
            f"predictor {predictor.name!r} must be fitted before evaluation"
        )
    prefixes = rcidr.prefix_tuple(prefixes)
    present_blocks = tuple(rcidr.cidr_set(present, n) for n in prefixes)
    if control_values is None:
        control_values = control_intersection_distribution(
            present_blocks,
            control,
            predictor.training_cardinality,
            subsets,
            rng,
            prefixes,
        )
    prediction = prediction_test_blocks(
        _predicted_blocks(predictor, prefixes),
        present_blocks,
        control_values,
        prefixes,
        past_tag=_past_tag(predictor),
        present_tag=present.tag,
    )

    blocking = None
    roc = None
    if partition is not None:
        blocking_prefixes = tuple(blocking_prefixes)
        blocking = blocking_test_blocks(
            partition,
            _predicted_blocks(predictor, blocking_prefixes),
            blocking_prefixes,
        )
        table = predictor.score_blocks(ROC_PREFIX)
        if len(partition.hostile) and len(partition.innocent):
            roc = partition_roc(
                table.scores_of(partition.hostile.addresses),
                table.scores_of(partition.innocent.addresses),
            )
    return ModelEvaluation(
        predictor_name=predictor.name,
        predictor_fingerprint=predictor.fingerprint(),
        params=predictor.params(),
        training_cardinality=predictor.training_cardinality,
        prediction=prediction,
        blocking=blocking,
        roc=roc,
    )


def compare_predictors(
    predictors: Sequence[BasePredictor],
    present: Report,
    control: Report,
    rng: np.random.Generator,
    partition: Optional[CandidatePartition] = None,
    prefixes: Sequence[int] = tuple(rcidr.PREFIX_RANGE),
    blocking_prefixes: Sequence[int] = BLOCKING_PREFIXES,
    subsets: int = 1000,
) -> ComparisonResult:
    """Head-to-head evaluation of rival fitted predictors.

    The §5 Monte-Carlo null is drawn once per distinct training
    cardinality (in first-use order, so the RNG consumption — and hence
    every number — is reproducible for a given predictor order) and
    shared across all models with that budget.  Predictors fitted on
    the same feeds therefore add only cheap intersection, blocking and
    ROC passes each.
    """
    if not predictors:
        raise ValueError("at least one predictor is required")
    names = [p.name for p in predictors]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate predictor names in comparison: {names}")
    prefixes = rcidr.prefix_tuple(prefixes)
    present_blocks = tuple(rcidr.cidr_set(present, n) for n in prefixes)
    shared: Dict[int, Dict[int, np.ndarray]] = {}
    evaluations = []
    for predictor in predictors:
        if not predictor.fitted:
            raise ValueError(
                f"predictor {predictor.name!r} must be fitted before "
                "comparison"
            )
        size = predictor.training_cardinality
        if size not in shared:
            shared[size] = control_intersection_distribution(
                present_blocks,
                control,
                size,
                subsets,
                rng,
                prefixes,
            )
        evaluations.append(
            evaluate_predictor(
                predictor,
                present,
                control,
                rng,
                partition=partition,
                prefixes=prefixes,
                blocking_prefixes=blocking_prefixes,
                subsets=subsets,
                control_values=shared[size],
            )
        )
    return ComparisonResult(
        present_tag=present.tag,
        prefixes=prefixes,
        subsets=subsets,
        evaluations=tuple(evaluations),
    )


def _summary_from_dict(data: dict) -> BoxplotSummary:
    """Inverse of :meth:`BoxplotSummary.as_dict` (which shortens the
    min/max key names)."""
    return BoxplotSummary(
        minimum=float(data["min"]),
        q05=float(data["q05"]),
        q25=float(data["q25"]),
        median=float(data["median"]),
        q75=float(data["q75"]),
        q95=float(data["q95"]),
        maximum=float(data["max"]),
        mean=float(data["mean"]),
        count=int(data["count"]),
    )


class EvaluationCodec(Codec):
    """Persists a :class:`ModelEvaluation` in the artifact store.

    The scorecard is small structured data: everything lands in the
    JSON sidecar except the ROC arrays, which ride the npz payload.
    Cache keys must embed the predictor fingerprint (the api layer
    does), and the fingerprint is also stored and round-tripped so a
    hit can be cross-checked against the model that asked.
    """

    name = "model-evaluation"

    def to_payload(self, value: ModelEvaluation):
        arrays = {"format": np.array([1], dtype=np.int64)}
        if value.roc is not None:
            arrays["roc_thresholds"] = value.roc.thresholds
            arrays["roc_tpr"] = value.roc.tpr
            arrays["roc_fpr"] = value.roc.fpr
        pred = value.prediction
        meta = {
            "predictor_name": value.predictor_name,
            "predictor_fingerprint": value.predictor_fingerprint,
            "params": value.params,
            "training_cardinality": value.training_cardinality,
            "prediction": {
                "past_tag": pred.past_tag,
                "present_tag": pred.present_tag,
                "prefixes": list(pred.prefixes),
                "observed": {str(n): pred.observed[n] for n in pred.prefixes},
                "control": {
                    str(n): pred.control[n].as_dict() for n in pred.prefixes
                },
                "exceedance": {
                    str(n): pred.exceedance[n] for n in pred.prefixes
                },
            },
            "blocking": None if value.blocking is None else [
                row.as_dict() for row in value.blocking.rows
            ],
        }
        return arrays, meta

    def from_payload(self, arrays, meta) -> ModelEvaluation:
        pmeta = meta["prediction"]
        prefixes = tuple(int(n) for n in pmeta["prefixes"])
        prediction = PredictionResult(
            past_tag=pmeta["past_tag"],
            present_tag=pmeta["present_tag"],
            prefixes=prefixes,
            observed={n: int(pmeta["observed"][str(n)]) for n in prefixes},
            control={
                n: _summary_from_dict(pmeta["control"][str(n)])
                for n in prefixes
            },
            exceedance={
                n: float(pmeta["exceedance"][str(n)]) for n in prefixes
            },
        )
        blocking = None
        if meta["blocking"] is not None:
            blocking = BlockingResult(
                rows=tuple(
                    BlockingRow(
                        prefix=int(row["n"]),
                        true_positives=int(row["TP(n)"]),
                        false_positives=int(row["FP(n)"]),
                        population=int(row["pop(n)"]),
                        unknown=int(row["unknown"]),
                    )
                    for row in meta["blocking"]
                )
            )
        roc = None
        if "roc_thresholds" in arrays:
            roc = ROCCurve(
                thresholds=arrays["roc_thresholds"],
                tpr=arrays["roc_tpr"],
                fpr=arrays["roc_fpr"],
            )
        return ModelEvaluation(
            predictor_name=meta["predictor_name"],
            predictor_fingerprint=meta["predictor_fingerprint"],
            params=meta["params"],
            training_cardinality=int(meta["training_cardinality"]),
            prediction=prediction,
            blocking=blocking,
            roc=roc,
        )
