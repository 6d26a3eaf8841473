"""CIDR blocks and the masking function :math:`C_n`.

The paper models networks as homogeneously sized CIDR blocks and defines a
masking function :math:`C_n(i)` that maps an address *i* to the unique
*n*-bit block containing it (Eq. 1), plus an inclusion relation
:math:`i \\sqsubset S` (Eq. 2).  This module implements both, for scalars
and for ``uint32`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.ipspace.addr import (
    AddressLike,
    as_array,
    as_int,
    as_str,
    block_size,
    prefix_mask,
)

__all__ = [
    "CIDRBlock",
    "mask_address",
    "mask_array",
    "unique_blocks",
    "block_count",
    "contains",
]


@dataclass(frozen=True, order=True)
class CIDRBlock:
    """An immutable CIDR block, e.g. ``127.1.0.0/16``.

    ``network`` is the integer form of the lowest address in the block and
    is always pre-masked: constructing ``CIDRBlock(2130806542, 16)``
    produces the canonical ``127.1.0.0/16``.
    """

    network: int
    prefix_len: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"prefix length out of range: {self.prefix_len}")
        masked = as_int(self.network) & prefix_mask(self.prefix_len)
        object.__setattr__(self, "network", masked)

    @classmethod
    def containing(cls, address: AddressLike, prefix_len: int) -> "CIDRBlock":
        """The block :math:`C_n(i)` containing ``address``.

        >>> CIDRBlock.containing("127.1.135.14", 16)
        CIDRBlock('127.1.0.0/16')
        """
        return cls(as_int(address), prefix_len)

    @classmethod
    def parse(cls, text: str) -> "CIDRBlock":
        """Parse ``"a.b.c.d/n"`` notation.

        >>> CIDRBlock.parse("10.0.0.0/8").prefix_len
        8
        """
        try:
            network_text, prefix_text = text.split("/")
        except ValueError:
            raise ValueError(f"not CIDR notation: {text!r}") from None
        return cls(as_int(network_text), int(prefix_text))

    @property
    def first_address(self) -> int:
        """Lowest address in the block, as an integer."""
        return self.network

    @property
    def last_address(self) -> int:
        """Highest address in the block, as an integer."""
        return self.network + block_size(self.prefix_len) - 1

    @property
    def num_addresses(self) -> int:
        """Total addresses the block spans."""
        return block_size(self.prefix_len)

    def contains(self, address: AddressLike) -> bool:
        """Whether ``address`` falls inside this block."""
        return as_int(address) & prefix_mask(self.prefix_len) == self.network

    def subblock_of(self, other: "CIDRBlock") -> bool:
        """Whether this block is contained in (or equal to) ``other``."""
        return (
            self.prefix_len >= other.prefix_len
            and self.network & prefix_mask(other.prefix_len) == other.network
        )

    def addresses(self) -> Iterator[int]:
        """Iterate every address in the block (use only for small blocks)."""
        return iter(range(self.first_address, self.last_address + 1))

    def __str__(self) -> str:
        return f"{as_str(self.network)}/{self.prefix_len}"

    def __repr__(self) -> str:
        return f"CIDRBlock('{self}')"


def mask_address(address: AddressLike, prefix_len: int) -> int:
    """Scalar :math:`C_n(i)`: the masked network integer for ``address``.

    >>> from repro.ipspace.addr import as_str
    >>> as_str(mask_address("127.1.135.14", 16))
    '127.1.0.0'
    """
    return as_int(address) & prefix_mask(prefix_len)


def _as_addresses(addresses) -> np.ndarray:
    """Accept a raw address array/iterable or anything report-shaped.

    Objects exposing a ``.addresses`` array (:class:`repro.core.report.
    Report`) are unwrapped by duck-typing, so the canonical block
    functions below serve both layers without this substrate importing
    :mod:`repro.core`.
    """
    return getattr(addresses, "addresses", addresses)


def mask_array(addresses: np.ndarray, prefix_len: int) -> np.ndarray:
    """Vectorised :math:`C_n` over a ``uint32`` array.

    Returns an array of the same shape holding masked network integers.
    """
    arr = as_array(_as_addresses(addresses))
    return arr & np.uint32(prefix_mask(prefix_len))


def unique_blocks(addresses: Iterable[AddressLike], prefix_len: int) -> np.ndarray:
    """The set :math:`C_n(S)` (Eq. 1) as a sorted array of network ints.

    ``addresses`` may be an address array/iterable or a report.
    """
    return np.unique(mask_array(addresses, prefix_len))


def block_count(addresses: Iterable[AddressLike], prefix_len: int) -> int:
    """:math:`|C_n(S)|`: how many distinct *n*-bit blocks cover ``S``.

    ``addresses`` may be an address array/iterable or a report.
    """
    return int(unique_blocks(addresses, prefix_len).size)


def contains(addresses: np.ndarray, block_set: np.ndarray, prefix_len: int) -> np.ndarray:
    """Vectorised inclusion relation :math:`i \\sqsubset S` (Eq. 2).

    ``block_set`` must be a sorted array of masked network integers at
    ``prefix_len`` (as produced by :func:`unique_blocks`).  Returns a
    boolean array marking which of ``addresses`` fall in any block.
    """
    masked = mask_array(addresses, prefix_len)
    if block_set.size == 0:
        return np.zeros(masked.shape, dtype=bool)
    idx = np.searchsorted(block_set, masked)
    idx = np.clip(idx, 0, block_set.size - 1)
    return block_set[idx] == masked
