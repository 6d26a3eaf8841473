"""IPv4 address arithmetic.

Addresses are represented as unsigned 32-bit integers (``int`` for scalar
work, ``numpy.uint32`` arrays for bulk work).  This module provides the
conversions between that representation, dotted-quad strings, and
:mod:`ipaddress` objects, plus the small amount of bit arithmetic the rest
of the library needs.

The integer representation is the natural one for this paper: the CIDR
masking function :math:`C_n` (paper Eq. 1) is a single AND against a prefix
mask, and reports of hundreds of thousands of addresses stay cheap as numpy
arrays.
"""

from __future__ import annotations

import ipaddress
from typing import Iterable, Union

import numpy as np

__all__ = [
    "AddressLike",
    "MAX_ADDRESS",
    "as_int",
    "as_str",
    "as_array",
    "format_array",
    "prefix_mask",
    "block_size",
    "first_octet",
]

#: Anything the public API accepts as a single IPv4 address.
AddressLike = Union[int, str, ipaddress.IPv4Address]

#: The largest representable IPv4 address, 255.255.255.255.
MAX_ADDRESS = 0xFFFFFFFF


def as_int(address: AddressLike) -> int:
    """Convert a single address to its integer form.

    Accepts an ``int`` (validated for range), a dotted-quad string, or an
    :class:`ipaddress.IPv4Address`.

    >>> as_int("127.1.135.14")
    2130806542
    >>> as_int(0)
    0
    """
    if isinstance(address, bool):
        # Guard against a surprising bool -> int coercion.
        raise TypeError("bool is not a valid IPv4 address")
    if isinstance(address, (int, np.integer)):
        value = int(address)
        if not 0 <= value <= MAX_ADDRESS:
            raise ValueError(f"address out of IPv4 range: {value!r}")
        return value
    if isinstance(address, str):
        return int(ipaddress.IPv4Address(address))
    if isinstance(address, ipaddress.IPv4Address):
        return int(address)
    raise TypeError(f"not an IPv4 address: {address!r}")


def as_str(address: AddressLike) -> str:
    """Convert a single address to dotted-quad form.

    >>> as_str(2130806542)
    '127.1.135.14'
    """
    return str(ipaddress.IPv4Address(as_int(address)))


def as_array(addresses: Iterable[AddressLike]) -> np.ndarray:
    """Convert an iterable of addresses to a ``uint32`` numpy array.

    A ``uint32`` array is returned as is (it cannot leave the IPv4
    range); any other numpy integer array passes through a range check
    and a dtype cast, so bulk paths stay cheap.
    """
    if isinstance(addresses, np.ndarray) and addresses.dtype == np.uint32:
        return addresses
    if isinstance(addresses, np.ndarray) and addresses.dtype.kind in "iu":
        arr = addresses.astype(np.int64, copy=False)
        if arr.size and (arr.min() < 0 or arr.max() > MAX_ADDRESS):
            raise ValueError("array contains values outside IPv4 range")
        return addresses.astype(np.uint32, copy=False)
    values = [as_int(a) for a in addresses]
    return np.asarray(values, dtype=np.uint32)


def format_array(addresses: np.ndarray) -> list:
    """Format a ``uint32`` array as a list of dotted-quad strings."""
    return [as_str(int(a)) for a in addresses]


def prefix_mask(prefix_len: int) -> int:
    """The network mask for a prefix length, as an integer.

    >>> hex(prefix_mask(24))
    '0xffffff00'
    >>> prefix_mask(0)
    0
    """
    if not 0 <= prefix_len <= 32:
        raise ValueError(f"prefix length out of range: {prefix_len}")
    if prefix_len == 0:
        return 0
    return (MAX_ADDRESS << (32 - prefix_len)) & MAX_ADDRESS


def block_size(prefix_len: int) -> int:
    """Number of addresses in a block with the given prefix length.

    >>> block_size(24)
    256
    """
    if not 0 <= prefix_len <= 32:
        raise ValueError(f"prefix length out of range: {prefix_len}")
    return 1 << (32 - prefix_len)


def first_octet(address: AddressLike) -> int:
    """The leading octet of an address (its /8 index).

    >>> first_octet("62.4.0.1")
    62
    """
    return as_int(address) >> 24
