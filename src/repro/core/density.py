"""Spatial uncleanliness: comparative density of reports in CIDR space.

Implements §4 of the paper.  A report :math:`S_1` is *denser* at *n* bits
than an equal-cardinality report :math:`S_2` if
:math:`|C_n(S_1)| < |C_n(S_2)|`.  The spatial uncleanliness hypothesis
(Eq. 3) states that an unclean report is at least as dense as a random
control subset at every prefix length in [16, 32].

The test compares the unclean report's block counts against the Monte-Carlo
distribution of block counts over 1000 random control subsets (the
*empirical* estimate), and optionally against the IANA-uniform *naive*
estimate that Figure 2 shows to be badly over-dispersed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import cidr as rcidr
from repro.core.report import Report
from repro.core.sampling import monte_carlo, naive_sample
from repro.core.stats import BoxplotSummary, summarize
from repro.ipspace.kernels import block_counts_2d

__all__ = [
    "DensityResult",
    "density_curve",
    "control_density_distribution",
    "naive_density_distribution",
    "density_test",
]


@dataclass(frozen=True)
class DensityResult:
    """Outcome of a spatial uncleanliness test for one unclean report.

    Attributes
    ----------
    report_tag:
        Tag of the unclean report tested.
    prefixes:
        The prefix lengths evaluated.
    observed:
        ``{n: |C_n(R_unclean)|}``.
    control:
        ``{n: BoxplotSummary}`` of the empirical control distribution.
    naive:
        ``{n: BoxplotSummary}`` of the naive estimate, when requested.
    """

    report_tag: str
    prefixes: tuple
    observed: Dict[int, int]
    control: Dict[int, BoxplotSummary]
    naive: Optional[Dict[int, BoxplotSummary]] = None

    def denser_than_control(self, prefix_len: int) -> bool:
        """Eq. 3 at one prefix: observed count <= the control median.

        The paper checks Eq. 3 visually: the unclean report's line sits
        at or below the control boxplots (Figs. 2-3).  Comparing against
        the Monte-Carlo median mirrors that; near /32 both counts
        saturate at the report cardinality and the comparison becomes an
        equality, which still satisfies Eq. 3's `<=`.
        """
        return self.observed[prefix_len] <= self.control[prefix_len].median

    def hypothesis_holds(self) -> bool:
        """Eq. 3 across all tested prefixes."""
        return all(self.denser_than_control(n) for n in self.prefixes)

    def density_ratio(self, prefix_len: int) -> float:
        """Control median block count divided by observed block count.

        Values above 1 mean the unclean report is that many times denser
        than random control addresses at this prefix length.
        """
        observed = self.observed[prefix_len]
        if observed == 0:
            return float("inf")
        return self.control[prefix_len].median / observed

    def rows(self) -> List[dict]:
        """Per-prefix rows suitable for tabular output (Figs. 2-3)."""
        out = []
        for n in self.prefixes:
            row = {
                "prefix": n,
                "observed_blocks": self.observed[n],
                "control_median": self.control[n].median,
                "control_min": self.control[n].minimum,
                "control_max": self.control[n].maximum,
                "denser": self.denser_than_control(n),
            }
            if self.naive is not None:
                row["naive_median"] = self.naive[n].median
            out.append(row)
        return out


def density_curve(report: Report, prefixes: Iterable[int] = rcidr.PREFIX_RANGE) -> Dict[int, int]:
    """Block counts :math:`|C_n(R)|` per prefix length for one report."""
    return rcidr.block_counts(report, prefixes)


def control_density_distribution(
    control: Report,
    size: int,
    prefixes: Sequence[int],
    subsets: int,
    rng: np.random.Generator,
) -> Dict[int, np.ndarray]:
    """Monte-Carlo block-count distributions over random control subsets.

    Returns ``{n: array of |C_n(subset)| over all subsets}``, every
    subset and prefix counted by one :func:`block_counts_2d` call.
    """
    prefixes = tuple(prefixes)
    matrix = monte_carlo(
        control,
        size,
        subsets,
        rng,
        statistic=lambda trials: block_counts_2d(trials, prefixes),
    )
    return {n: matrix[:, column] for column, n in enumerate(prefixes)}


def naive_density_distribution(
    size: int,
    prefixes: Sequence[int],
    subsets: int,
    rng: np.random.Generator,
) -> Dict[int, np.ndarray]:
    """Monte-Carlo block-count distributions for the naive IANA estimate.

    The rejection-sampled draws stay per-trial (they consume a
    data-dependent number of variates), but the samples stack into one
    trial matrix so the block counting is a single batched pass.
    """
    prefixes = tuple(prefixes)
    matrix = np.empty((subsets, size), dtype=np.uint32)
    for index in range(subsets):
        # Report construction already sorted and deduplicated the draw.
        matrix[index] = naive_sample(size, rng).addresses
    counts = block_counts_2d(matrix, prefixes)
    return {
        n: counts[:, column].astype(float)
        for column, n in enumerate(prefixes)
    }


def density_test(
    unclean: Report,
    control: Report,
    rng: np.random.Generator,
    prefixes: Sequence[int] = tuple(rcidr.PREFIX_RANGE),
    subsets: int = 1000,
    include_naive: bool = False,
    naive_subsets: int = 20,
) -> DensityResult:
    """Run the spatial uncleanliness test of §4.2 for one report.

    Compares ``|C_n(unclean)|`` against ``subsets`` equal-cardinality
    random subsets of ``control`` at every prefix in ``prefixes``.  When
    ``include_naive`` is set, also computes the naive IANA-uniform
    estimate (Fig. 2); the naive distribution is extremely narrow, so a
    small ``naive_subsets`` suffices.
    """
    prefixes = rcidr.prefix_tuple(prefixes)
    size = len(unclean)
    if size == 0:
        raise ValueError("cannot run a density test on an empty report")
    if size > len(control):
        raise ValueError(
            f"control report ({len(control)}) smaller than unclean report ({size})"
        )
    observed = density_curve(unclean, prefixes)
    control_dist = control_density_distribution(
        control, size, prefixes, subsets, rng
    )
    control_summaries = {n: summarize(v) for n, v in control_dist.items()}
    naive_summaries = None
    if include_naive:
        naive_dist = naive_density_distribution(size, prefixes, naive_subsets, rng)
        naive_summaries = {n: summarize(v) for n, v in naive_dist.items()}
    return DensityResult(
        report_tag=unclean.tag,
        prefixes=prefixes,
        observed=observed,
        control=control_summaries,
        naive=naive_summaries,
    )
