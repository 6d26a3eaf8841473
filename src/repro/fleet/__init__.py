"""The multi-network fleet: sharded simulation + report clearinghouse.

The paper's cross-network claim — one network's uncleanliness predicts
*another* network's future botnet addresses — needs many vantage
points.  This package runs a fleet of :class:`NetworkShard` member
networks under a fault-isolating :class:`FleetSupervisor` (per-shard
deadlines, bounded retry-with-backoff, quarantine, checkpoint/resume)
and pools their report feeds through a :class:`Clearinghouse` with an
explicit staleness/quorum policy.  See DESIGN.md ("Fleet failure
domains") for the policy rationale.
"""

from repro.fleet.clearinghouse import (
    Clearinghouse,
    FleetError,
    QuorumError,
    ShardFeed,
)
from repro.fleet.shard import (
    FLEET_FEED_TAGS,
    FleetConfig,
    NetworkShard,
    heterogeneous_fleet,
)
from repro.fleet.supervisor import (
    FleetFailure,
    FleetResult,
    FleetSupervisor,
    ShardDelivery,
    ShardOutcome,
    delivery_checksum,
    reports_as_of,
    scenario_reports,
)

__all__ = [
    "FLEET_FEED_TAGS",
    "NetworkShard",
    "FleetConfig",
    "heterogeneous_fleet",
    "ShardFeed",
    "Clearinghouse",
    "FleetError",
    "QuorumError",
    "FleetFailure",
    "ShardDelivery",
    "ShardOutcome",
    "FleetResult",
    "FleetSupervisor",
    "delivery_checksum",
    "reports_as_of",
    "scenario_reports",
]
