"""Report-level CIDR operations.

Implements the paper's notation on whole reports: the set-valued masking
function :math:`C_n(S)` (Eq. 1), the inclusion relation (Eq. 2), and block
intersection counts (the quantity inside Eqs. 4 and 5).

The scalar block counter :math:`|C_n(S)|` is
:func:`repro.ipspace.cidr.block_count`, which accepts reports directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.core.report import Report
from repro.ipspace import cidr as _cidr
from repro.ipspace.cidr import CIDRBlock

__all__ = [
    "PREFIX_RANGE",
    "prefix_tuple",
    "cidr_set",
    "cidr_blocks",
    "block_counts",
    "intersection_count",
    "intersection_counts",
    "addresses_in_blocks",
    "members_of",
]

#: The paper restricts analyses to prefix lengths of 16..32 bits (§4.1),
#: following Collins & Reiter's observation that shorter prefixes are too
#: imprecise for filtering.
PREFIX_RANGE = range(16, 33)


def prefix_tuple(prefixes: Iterable[int]) -> Tuple[int, ...]:
    """The prefix lengths a paper test runs at, as a tuple.

    An empty sequence raises ``ValueError``: a test at no prefix would
    hold vacuously.
    """
    prefixes = tuple(prefixes)
    if not prefixes:
        raise ValueError("at least one prefix length is required")
    return prefixes


def cidr_set(report: Report, prefix_len: int) -> np.ndarray:
    """:math:`C_n(\\mathcal{R})` as a sorted array of masked network ints."""
    return _cidr.unique_blocks(report.addresses, prefix_len)


def cidr_blocks(report: Report, prefix_len: int) -> list:
    """:math:`C_n(\\mathcal{R})` as :class:`CIDRBlock` objects."""
    return [CIDRBlock(int(net), prefix_len) for net in cidr_set(report, prefix_len)]


def block_counts(report: Report, prefixes: Iterable[int] = PREFIX_RANGE) -> Dict[int, int]:
    """:math:`|C_n(\\mathcal{R})|` for each prefix length in ``prefixes``."""
    return {n: _cidr.block_count(report, n) for n in prefixes}


def intersection_count(past: Report, present: Report, prefix_len: int) -> int:
    """:math:`|C_n(\\mathcal{R}_{past}) \\cap C_n(\\mathcal{R}_{present})|`.

    The quantity compared in the temporal uncleanliness test (Eqs. 4, 5).
    """
    past_blocks = cidr_set(past, prefix_len)
    present_blocks = cidr_set(present, prefix_len)
    return int(np.intersect1d(past_blocks, present_blocks).size)


def intersection_counts(
    past: Report, present: Report, prefixes: Iterable[int] = PREFIX_RANGE
) -> Dict[int, int]:
    """Intersection counts for each prefix length in ``prefixes``."""
    return {n: intersection_count(past, present, n) for n in prefixes}


def addresses_in_blocks(report: Report, blocks: np.ndarray, prefix_len: int) -> np.ndarray:
    """Addresses of ``report`` that satisfy :math:`i \\sqsubset` ``blocks``.

    ``blocks`` is a sorted masked-network array at ``prefix_len``.
    """
    mask = _cidr.contains(report.addresses, blocks, prefix_len)
    return report.addresses[mask]


def members_of(report: Report, covering: Report, prefix_len: int) -> Report:
    """The sub-report of ``report`` inside :math:`C_n(\\text{covering})`.

    This is the candidate-extraction step of §6.1: all addresses of
    ``report`` sharing an *n*-bit block with any address of ``covering``.
    """
    blocks = cidr_set(covering, prefix_len)
    kept = addresses_in_blocks(report, blocks, prefix_len)
    return Report(
        tag=f"{report.tag}@{covering.tag}/{prefix_len}",
        addresses=kept,
        report_type=report.report_type,
        data_class=report.data_class,
        period=report.period,
    )
