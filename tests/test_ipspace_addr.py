"""Unit tests for repro.ipspace.addr."""

import ipaddress

import numpy as np
import pytest

from repro.ipspace.addr import (
    MAX_ADDRESS,
    as_array,
    as_int,
    as_str,
    block_size,
    first_octet,
    format_array,
    prefix_mask,
)


class TestAsInt:
    def test_dotted_quad(self):
        assert as_int("127.1.135.14") == 2130806542

    def test_zero(self):
        assert as_int("0.0.0.0") == 0

    def test_max(self):
        assert as_int("255.255.255.255") == MAX_ADDRESS

    def test_int_passthrough(self):
        assert as_int(42) == 42

    def test_numpy_integer(self):
        assert as_int(np.uint32(7)) == 7

    def test_ipaddress_object(self):
        assert as_int(ipaddress.IPv4Address("10.0.0.1")) == (10 << 24) + 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            as_int(-1)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            as_int(MAX_ADDRESS + 1)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            as_int(True)

    def test_garbage_string_rejected(self):
        with pytest.raises(ValueError):
            as_int("not.an.ip.addr")

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            as_int(3.14)


class TestAsStr:
    def test_round_trip(self):
        assert as_str(as_int("62.4.1.200")) == "62.4.1.200"

    def test_from_string(self):
        assert as_str("8.8.8.8") == "8.8.8.8"


class TestAsArray:
    def test_from_strings(self):
        arr = as_array(["1.0.0.1", "2.0.0.2"])
        assert arr.dtype == np.uint32
        assert list(arr) == [as_int("1.0.0.1"), as_int("2.0.0.2")]

    def test_numpy_passthrough_is_cheap(self):
        src = np.asarray([1, 2, 3], dtype=np.uint32)
        out = as_array(src)
        assert out.dtype == np.uint32
        assert np.array_equal(out, src)

    def test_uint32_returned_without_copy(self):
        src = np.asarray([0, MAX_ADDRESS], dtype=np.uint32)
        assert as_array(src) is src

    def test_in_range_int64_cast_to_uint32(self):
        out = as_array(np.asarray([0, MAX_ADDRESS], dtype=np.int64))
        assert out.dtype == np.uint32
        assert list(out) == [0, MAX_ADDRESS]

    def test_numpy_negative_rejected(self):
        with pytest.raises(ValueError):
            as_array(np.asarray([-1], dtype=np.int64))

    def test_numpy_overflow_rejected(self):
        with pytest.raises(ValueError):
            as_array(np.asarray([MAX_ADDRESS + 1], dtype=np.int64))
        with pytest.raises(ValueError):
            as_array(np.asarray([1, MAX_ADDRESS + 1, 2], dtype=np.uint64))

    def test_empty(self):
        assert as_array([]).size == 0

    def test_format_array_round_trip(self):
        addrs = ["9.9.9.9", "10.20.30.40"]
        assert format_array(as_array(addrs)) == addrs


class TestPrefixMask:
    def test_full(self):
        assert prefix_mask(32) == MAX_ADDRESS

    def test_zero(self):
        assert prefix_mask(0) == 0

    def test_slash24(self):
        assert prefix_mask(24) == 0xFFFFFF00

    def test_slash16(self):
        assert prefix_mask(16) == 0xFFFF0000

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            prefix_mask(33)
        with pytest.raises(ValueError):
            prefix_mask(-1)


class TestBlockSize:
    def test_sizes(self):
        assert block_size(32) == 1
        assert block_size(24) == 256
        assert block_size(16) == 65536
        assert block_size(0) == 1 << 32

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            block_size(40)


def test_first_octet():
    assert first_octet("62.4.0.1") == 62
    assert first_octet(0) == 0
    assert first_octet("255.0.0.0") == 255
