"""IPv4 address-space substrate.

Provides address arithmetic (:mod:`repro.ipspace.addr`), CIDR blocks and
the paper's masking function :math:`C_n` (:mod:`repro.ipspace.cidr`),
batched trial-matrix prefix kernels (:mod:`repro.ipspace.kernels`), the
2006-era IANA /8 allocation table (:mod:`repro.ipspace.iana`), and
reserved-space filtering (:mod:`repro.ipspace.reserved`).
"""

from repro.ipspace.addr import (
    MAX_ADDRESS,
    AddressLike,
    as_array,
    as_int,
    as_str,
    block_size,
    first_octet,
    format_array,
    prefix_mask,
)
from repro.ipspace.cidr import (
    CIDRBlock,
    block_count,
    contains,
    mask_address,
    mask_array,
    unique_blocks,
)
from repro.ipspace.clusters import PrefixTable, synthesize_table
from repro.ipspace.kernels import (
    block_counts_2d,
    intersection_counts_2d,
    member_counts_2d,
)
from repro.ipspace.iana import Status, allocated_octets, is_allocated
from repro.ipspace.structure import StructureProfile, profile_addresses
from repro.ipspace.reserved import (
    RESERVED_BLOCKS,
    filter_reserved,
    is_reserved,
    reserved_mask,
)

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
    "CIDRBlock",
    "mask_address",
    "mask_array",
    "unique_blocks",
    "block_count",
    "contains",
    "block_counts_2d",
    "intersection_counts_2d",
    "member_counts_2d",
    "Status",
    "allocated_octets",
    "is_allocated",
    "RESERVED_BLOCKS",
    "is_reserved",
    "reserved_mask",
    "filter_reserved",
    "PrefixTable",
    "synthesize_table",
    "StructureProfile",
    "profile_addresses",
]
