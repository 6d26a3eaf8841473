"""Experiment modules: one per table/figure in the paper's evaluation.

Each module exposes ``run(...)`` returning a typed result with
shape-checking predicates, and ``format_result(...)`` rendering the
table/series alongside the paper's reference values.
"""

from repro.experiments import (
    ablation,
    plotting,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    table1,
    table2,
    table3,
)
from repro.experiments.common import render_table

__all__ = [
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "table1",
    "table2",
    "table3",
    "ablation",
    "plotting",
    "render_table",
]
