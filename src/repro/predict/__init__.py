"""Rival blocklist predictors behind one :class:`Predictor` protocol.

The package splits *predictor* from *evaluator*: models live here and
emit per-block scores through a single contract
(:mod:`repro.predict.protocol`), while the §5 temporal test, the §6
Table-3 blocking experiment and ROC analysis consume any conforming
model through :mod:`repro.predict.evaluate`.

Models
------
``uncleanliness``
    The paper's §7 multidimensional metric, adapting
    :class:`~repro.core.uncleanliness.UncleanlinessScorer` —
    bit-identical to calling the scorer directly.
``recommender``
    Soldo et al.'s implicit-recommendation predictor: EWMA time
    smoothing per feed-block cell plus a cosine victim-neighborhood
    model, with spatial expansion to adjacent blocks.
``graphcluster``
    Haider/Scheffer-style greedy single-link clustering of adjacent
    blocks; members inherit pooled cluster evidence.

Use the registry (``make_predictor("recommender", blend=0.7)``) or the
:mod:`repro.api` facade (``evaluate``, ``compare``).
"""

from repro.predict.evaluate import (
    ComparisonResult,
    ModelEvaluation,
    compare_predictors,
    evaluate_predictor,
)
from repro.predict.graphcluster import GraphClusterPredictor
from repro.predict.protocol import BasePredictor, NotFittedError, Predictor
from repro.predict.recommender import RecommenderPredictor
from repro.predict.registry import (
    DEFAULT_PREDICTORS,
    list_predictors,
    make_predictor,
    predictor_summaries,
    register_predictor,
)
from repro.predict.uncleanliness import UncleanlinessPredictor

__all__ = [
    "Predictor",
    "BasePredictor",
    "NotFittedError",
    "UncleanlinessPredictor",
    "RecommenderPredictor",
    "GraphClusterPredictor",
    "DEFAULT_PREDICTORS",
    "register_predictor",
    "list_predictors",
    "make_predictor",
    "predictor_summaries",
    "ModelEvaluation",
    "ComparisonResult",
    "evaluate_predictor",
    "compare_predictors",
]
