"""Trial matrices: the batched representation of Monte-Carlo ensembles.

Every hypothesis test in the paper reduces to the same procedure: draw
1000 equal-cardinality random subsets of the control report and evaluate
a block-level statistic on each (§4.2, §5.2).  A
:class:`TrialEnsemble` holds such an ensemble as one
``(trials, cardinality)`` ``uint32`` matrix with sorted rows, so the
statistic can run as a few full-matrix numpy passes
(:mod:`repro.ipspace.kernels`) instead of 1000 ``Report`` objects and a
Python callback per trial.

Determinism contract: trial ``i`` of an ensemble rooted at
``(entropy, spawn_key)`` is drawn from its own spawned
:class:`numpy.random.SeedSequence` child — exactly the stream the
per-trial path uses — and each trial's draw is a single
``Generator.choice(addresses, size, replace=False)`` call on that
stream.  Row ``i`` is therefore the *sorted* form of the identical
per-trial sample: batched statistics are bit-identical to the per-trial
reference, any contiguous slice of trials can be drawn on its own, and
the draws themselves (numpy's O(size) Floyd sampling per stream) are
the only per-trial work left.

:class:`TrialStatistic` is the protocol the statistical layers
implement to plug into :func:`repro.core.sampling.monte_carlo`: a
batched ``batch`` evaluation and a per-trial ``per_trial`` reference
(kept for equivalence tests).  The concrete statistics the paper's
tests run on — block counts (Figs. 2-3), block intersections
(Figs. 4-5) and covered-address counts (§6's null model) — live here
too, next to the protocol they implement: they are parametrised by
*precomputed block sets*, never by a model, so any
:class:`~repro.predict.protocol.Predictor` (or the raw reports the
paper uses) can feed them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core import cidr as rcidr
from repro.core.report import DataClass, Report, ReportType
from repro.ipspace import cidr as _lowcidr
from repro.ipspace.kernels import (
    block_counts_2d,
    intersection_counts_2d,
    merge_sorted_rows,
)

try:  # Protocol is typing-only; runtime dispatch uses hasattr("batch").
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - python < 3.8
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


__all__ = [
    "TrialEnsemble",
    "TrialStatistic",
    "trial_seed",
    "is_batched",
    "BlockCountStatistic",
    "IntersectionStatistic",
    "CoveredCountStatistic",
]


def trial_seed(
    entropy: int, spawn_key: Tuple[int, ...], index: int
) -> np.random.SeedSequence:
    """Child ``index`` of the root sequence, built without materialising
    every sibling.

    ``SeedSequence(entropy, spawn_key=parent_key + (i,))`` is exactly the
    ``i``-th element of ``parent.spawn(n)`` — this is how each trial
    derives its stream independently of the others.
    """
    return np.random.SeedSequence(
        entropy=entropy, spawn_key=tuple(spawn_key) + (index,)
    )


@runtime_checkable
class TrialStatistic(Protocol):
    """A statistic evaluable over a whole :class:`TrialEnsemble` at once.

    ``batch`` returns a ``(trials, k)`` array (one row per trial, one
    column per output component); ``per_trial`` is the retained scalar
    reference — it must return the same ``k`` values ``batch`` produces
    for that trial's row, and is what the hypothesis equivalence tests
    compare against.
    """

    def batch(self, ensemble: "TrialEnsemble") -> np.ndarray:  # pragma: no cover
        ...

    def per_trial(self, subset: Report) -> Sequence[float]:  # pragma: no cover
        ...


def is_batched(statistic: object) -> bool:
    """Whether ``monte_carlo`` should take the trial-matrix path."""
    return callable(getattr(statistic, "batch", None))


@dataclass(frozen=True)
class TrialEnsemble:
    """A contiguous span of Monte-Carlo trials as one sorted matrix.

    Attributes
    ----------
    matrix:
        ``(trials, cardinality)`` ``uint32``, each row sorted ascending —
        trial ``start + i``'s control subset as row ``i``.
    start:
        Global index of the first trial (an ensemble may be a slice).
    source_tag:
        Tag of the control report the trials were drawn from.
    """

    matrix: np.ndarray
    start: int = 0
    source_tag: str = "control"

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix)
        if matrix.ndim != 2:
            raise ValueError(
                f"trial matrix must be 2-D, got shape {matrix.shape}"
            )
        if matrix.dtype != np.uint32:
            matrix = matrix.astype(np.uint32)
        matrix = np.ascontiguousarray(matrix)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def draw(
        cls,
        control: Report,
        size: int,
        count: int,
        entropy: int,
        spawn_key: Tuple[int, ...],
        start: int = 0,
    ) -> "TrialEnsemble":
        """Draw trials ``start .. start+count`` as one matrix.

        Trial ``start + i`` consumes exactly the draw the per-trial path
        makes — one ``choice(addresses, size, replace=False)`` on its
        spawned stream — so the rows are the sorted per-trial samples,
        bit for bit, for any chunking of the ensemble.
        """
        if size > len(control):
            raise ValueError(
                f"cannot sample {size} addresses from report of {len(control)}"
            )
        matrix = np.empty((count, size), dtype=np.uint32)
        addresses = control.addresses
        for offset in range(count):
            rng = np.random.default_rng(
                trial_seed(entropy, spawn_key, start + offset)
            )
            matrix[offset] = rng.choice(addresses, size=size, replace=False)
        matrix.sort(axis=1)
        return cls(matrix=matrix, start=start, source_tag=control.tag)

    @property
    def trials(self) -> int:
        """Number of trials in this span."""
        return int(self.matrix.shape[0])

    @property
    def cardinality(self) -> int:
        """Addresses per trial (the paper's equal-cardinality condition)."""
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return self.trials

    def merged_with(self, columns: np.ndarray) -> "TrialEnsemble":
        """A new ensemble with extra addresses merged into every trial.

        ``columns`` is a ``(trials, new)`` matrix of additional
        addresses (one batch of new columns per trial — the streaming
        shape: each day contributes a few fresh addresses per trial).
        Rows of ``columns`` need not be sorted; rows of the result are,
        via the sorted-merge kernel rather than a full re-sort, which is
        what keeps per-day ensemble growth proportional to the batch
        width instead of the accumulated cardinality.
        """
        batch = np.array(columns, dtype=np.uint32, copy=True, ndmin=2)
        if batch.shape[0] != self.trials:
            raise ValueError(
                f"batch has {batch.shape[0]} rows for {self.trials} trials"
            )
        batch.sort(axis=1)
        return TrialEnsemble(
            matrix=merge_sorted_rows(self.matrix, batch),
            start=self.start,
            source_tag=self.source_tag,
        )

    def trial(self, index: int) -> Report:
        """Trial ``start + index`` as a :class:`Report` — the object the
        per-trial path would have built (same addresses, same tag)."""
        if not 0 <= index < self.trials:
            raise IndexError(f"trial index out of range: {index}")
        return Report(
            tag=f"{self.source_tag}[{self.start + index}]",
            addresses=self.matrix[index],
            report_type=ReportType.OBSERVED,
            data_class=DataClass.NONE,
        )

    def __repr__(self) -> str:
        return (
            f"TrialEnsemble(trials={self.trials}, "
            f"cardinality={self.cardinality}, start={self.start}, "
            f"source={self.source_tag!r})"
        )


# ---------------------------------------------------------------------------
# The concrete trial-matrix statistics.  Each is parametrised by plain
# block-set data (no model objects), which is what keeps the Monte-Carlo
# layer predictor-generic: the §5/§6 evaluators hand any predictor's
# block sets to the same statistics the paper's raw reports feed.
# ---------------------------------------------------------------------------


def _block_count_vector(report: Report, prefixes: Sequence[int]) -> List[int]:
    """Per-prefix block counts — the per-trial reference statistic of
    Figs. 2-3 (the batched path is :class:`BlockCountStatistic`)."""
    return [_lowcidr.block_count(report, n) for n in prefixes]


@dataclass(frozen=True)
class BlockCountStatistic:
    """The Figure 2/3 Monte-Carlo statistic: :math:`|C_n(S)|` per prefix.

    Implements the :class:`TrialStatistic` protocol; ``batch`` evaluates
    every prefix of a whole trial ensemble in one pass over its matrix.
    """

    prefixes: Tuple[int, ...]

    def batch(self, ensemble: TrialEnsemble) -> np.ndarray:
        return block_counts_2d(ensemble.matrix, self.prefixes)

    def per_trial(self, subset: Report) -> List[int]:
        return _block_count_vector(subset, self.prefixes)


def _intersection_vector(
    subset: Report,
    present_blocks: Tuple[np.ndarray, ...],
    prefixes: Tuple[int, ...],
) -> List[int]:
    """Per-prefix block intersections with the (precomputed) present
    report — the per-trial reference statistic of Figs. 4-5 (the batched
    path is :class:`IntersectionStatistic`)."""
    values = []
    for blocks, n in zip(present_blocks, prefixes):
        subset_blocks = rcidr.cidr_set(subset, n)
        values.append(int(np.intersect1d(subset_blocks, blocks).size))
    return values


@dataclass(frozen=True, eq=False)
class IntersectionStatistic:
    """The Figure 4/5 Monte-Carlo statistic:
    :math:`|C_n(S) \\cap C_n(R_{present})|` per prefix.

    Implements the :class:`TrialStatistic` protocol against precomputed
    present-report block sets (``cidr_set(present, n)`` per prefix: the
    sets must nest); ``batch`` evaluates every prefix of a whole trial
    ensemble in one pass over its matrix.
    """

    prefixes: Tuple[int, ...]
    present_blocks: Tuple[np.ndarray, ...]

    def batch(self, ensemble: TrialEnsemble) -> np.ndarray:
        return intersection_counts_2d(
            ensemble.matrix, self.present_blocks, self.prefixes
        )

    def per_trial(self, subset: Report) -> List[int]:
        return _intersection_vector(subset, self.present_blocks, self.prefixes)


@dataclass(frozen=True, eq=False)
class CoveredCountStatistic:
    """Per-prefix count of a fixed report's addresses covered by
    :math:`C_n(\\text{subset})`.

    The §6 null-model statistic (a :class:`TrialStatistic`): each trial
    subset plays the role of a random "blocked report", and the
    statistic asks how many of the target report's addresses its blocks
    would catch.  Target addresses are pre-aggregated into
    ``(blocks, multiplicities)`` per prefix so the batched evaluation is
    one weighted-intersection pass over the matrix.
    """

    prefixes: Tuple[int, ...]
    target_blocks: Tuple[np.ndarray, ...]
    target_weights: Tuple[np.ndarray, ...]

    @classmethod
    def for_report(
        cls, target: Report, prefixes: Sequence[int]
    ) -> "CoveredCountStatistic":
        prefixes = tuple(prefixes)
        blocks, weights = [], []
        for n in prefixes:
            uniques, counts = np.unique(
                _lowcidr.mask_array(target.addresses, n), return_counts=True
            )
            blocks.append(uniques)
            weights.append(counts.astype(np.int64))
        return cls(
            prefixes=prefixes,
            target_blocks=tuple(blocks),
            target_weights=tuple(weights),
        )

    def batch(self, ensemble: TrialEnsemble) -> np.ndarray:
        return intersection_counts_2d(
            ensemble.matrix,
            self.target_blocks,
            self.prefixes,
            weights_by_prefix=self.target_weights,
        )

    def per_trial(self, subset: Report) -> List[int]:
        values = []
        for blocks, weights, n in zip(
            self.target_blocks, self.target_weights, self.prefixes
        ):
            subset_blocks = rcidr.cidr_set(subset, n)
            hit = np.isin(blocks, subset_blocks)
            values.append(int(weights[hit].sum()))
        return values
