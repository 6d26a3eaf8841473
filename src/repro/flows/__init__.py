"""NetFlow substrate: records, columnar logs, and border traffic generation."""

from repro.flows.generator import BorderTraffic, TrafficConfig, TrafficGenerator
from repro.flows.log import FlowBatch, FlowLog
from repro.flows.stats import (
    TrafficProfile,
    hourly_volume,
    port_histogram,
    profile_flows,
    top_talkers,
)
from repro.flows.record import (
    HEADER_BYTES_PER_PACKET,
    PAYLOAD_BEARING_MIN_BYTES,
    FlowRecord,
    Protocol,
    TCPFlags,
)

__all__ = [
    "FlowRecord",
    "FlowLog",
    "FlowBatch",
    "Protocol",
    "TCPFlags",
    "HEADER_BYTES_PER_PACKET",
    "PAYLOAD_BEARING_MIN_BYTES",
    "TrafficConfig",
    "TrafficGenerator",
    "BorderTraffic",
    "TrafficProfile",
    "profile_flows",
    "top_talkers",
    "port_histogram",
    "hourly_volume",
]
