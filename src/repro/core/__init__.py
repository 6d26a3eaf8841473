"""The paper's primary contribution: uncleanliness analysis.

Reports (:mod:`~repro.core.report`), report-level CIDR operations
(:mod:`~repro.core.cidr`), the spatial test (:mod:`~repro.core.density`),
the temporal test (:mod:`~repro.core.prediction`), the §6 blocking
experiment (:mod:`~repro.core.blocking`), the §7 multidimensional metric
(:mod:`~repro.core.uncleanliness`), and the end-to-end scenario builder
(:mod:`~repro.core.scenario`).
"""

from repro.core.blocklist import Blocklist, BlocklistEntry
from repro.core.blocking import (
    BLOCKING_PREFIXES,
    BlockingResult,
    BlockingRow,
    CandidatePartition,
    blocking_test,
    blocking_test_blocks,
    control_blocking_distribution,
    partition_candidates,
)
from repro.core.cidr import (
    PREFIX_RANGE,
    block_counts,
    cidr_blocks,
    cidr_set,
    intersection_count,
    intersection_counts,
    members_of,
)
from repro.core.density import DensityResult, density_curve, density_test
from repro.core.prediction import (
    BETTER_PREDICTOR_LEVEL,
    PredictionResult,
    control_intersection_distribution,
    prediction_test,
    prediction_test_blocks,
)
from repro.core.report import DataClass, Report, ReportType
from repro.core.roc import ROCCurve, auc, partition_roc, roc_curve
from repro.core.sampling import empirical_subsets, monte_carlo, naive_sample
from repro.core.scenario import PaperScenario, ScenarioConfig
from repro.core.stats import BoxplotSummary, exceedance_fraction, summarize
from repro.core.tracking import (
    ListCoverageStatistic,
    TrackerConfig,
    UncleanlinessTracker,
)
from repro.core.trials import (
    BlockCountStatistic,
    CoveredCountStatistic,
    IntersectionStatistic,
    TrialEnsemble,
    TrialStatistic,
    is_batched,
)
from repro.core.uncleanliness import (
    BlockScores,
    UncleanlinessScorer,
    block_jaccard,
)

__all__ = [
    "Report",
    "ReportType",
    "DataClass",
    "PREFIX_RANGE",
    "cidr_set",
    "cidr_blocks",
    "block_counts",
    "intersection_count",
    "intersection_counts",
    "members_of",
    "DensityResult",
    "BlockCountStatistic",
    "density_curve",
    "density_test",
    "PredictionResult",
    "IntersectionStatistic",
    "prediction_test",
    "prediction_test_blocks",
    "control_intersection_distribution",
    "BETTER_PREDICTOR_LEVEL",
    "BLOCKING_PREFIXES",
    "BlockingRow",
    "BlockingResult",
    "CandidatePartition",
    "CoveredCountStatistic",
    "partition_candidates",
    "blocking_test",
    "blocking_test_blocks",
    "control_blocking_distribution",
    "UncleanlinessScorer",
    "BlockScores",
    "block_jaccard",
    "naive_sample",
    "empirical_subsets",
    "monte_carlo",
    "TrialEnsemble",
    "TrialStatistic",
    "is_batched",
    "BoxplotSummary",
    "summarize",
    "exceedance_fraction",
    "PaperScenario",
    "ScenarioConfig",
    "Blocklist",
    "BlocklistEntry",
    "ROCCurve",
    "roc_curve",
    "auc",
    "partition_roc",
    "TrackerConfig",
    "UncleanlinessTracker",
    "ListCoverageStatistic",
]
