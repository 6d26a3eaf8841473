"""Network shards: the fleet's unit of isolation.

A :class:`NetworkShard` is one member network of the fleet — its own
:class:`~repro.core.scenario.ScenarioConfig` (its own synthetic
Internet, botnet, detectors and seed), its own artifact-store namespace
under the shared cache (``fleet-<fp>/shard-<name>`` keys), and its own
worker process when the supervisor runs a pool.  :class:`FleetConfig`
bundles the shards with the supervisor's failure policy: per-shard
deadline, bounded retry-with-backoff, and the clearinghouse's
staleness/quorum parameters.

:func:`heterogeneous_fleet` builds the default multi-network study —
``count`` networks with distinct seeds, traffic volumes and control
population sizes, mirroring the paper's observation that networks of
very different sizes still predict each other's botnet addresses.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.core.scenario import ScenarioConfig
from repro.engine.fingerprint import fingerprint

__all__ = [
    "FLEET_FEED_TAGS",
    "NetworkShard",
    "FleetConfig",
    "heterogeneous_fleet",
]

#: Report feeds a member network ships to the clearinghouse: the four
#: unclean classes (Table 2), the months-old bot-test report (the §5
#: cross-network predictor), and the network's control population.
FLEET_FEED_TAGS: Tuple[str, ...] = (
    "bot",
    "phish",
    "scan",
    "spam",
    "bot-test",
    "control",
)

#: Shard names become store-key components and file-name fragments.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@dataclass(frozen=True)
class NetworkShard:
    """One member network: a name and the scenario that simulates it.

    ``vantage_as`` restricts the shard's *observed* feeds (scan, spam,
    control) to the address space announced by one autonomous system of
    the shard's AS-structured Internet — a fleet member that borders a
    single operator rather than the whole world.  Provided feeds (bot,
    phish, bot-test) stay global: third parties publish them regardless
    of where the member sits.  ``None`` (the default) keeps the classic
    whole-Internet vantage.
    """

    name: str
    config: ScenarioConfig
    vantage_as: Optional[int] = None

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(
                f"bad shard name {self.name!r}: must be alphanumeric with "
                "'.', '_' or '-' (it becomes a store-key component)"
            )
        if self.vantage_as is not None:
            if self.vantage_as < 0:
                raise ValueError(
                    f"vantage_as must be >= 0: {self.vantage_as}"
                )
            if self.config.internet.asys is None:
                raise ValueError(
                    "vantage_as requires an AS-structured Internet: set "
                    "InternetConfig.asys (e.g. via an AS-aware scenario "
                    "pack)"
                )
            if self.vantage_as >= self.config.internet.asys.num_as:
                raise ValueError(
                    f"vantage_as {self.vantage_as} outside "
                    f"0..{self.config.internet.asys.num_as - 1}"
                )

    def fingerprint(self) -> str:
        """Identity of this shard's configuration (not its name)."""
        if self.vantage_as is not None:
            return fingerprint(
                {"config": self.config, "vantage_as": self.vantage_as}
            )
        return fingerprint(self.config)


@dataclass(frozen=True)
class FleetConfig:
    """The fleet's membership plus its failure and pooling policy.

    ``deadline`` (seconds, pool mode only) bounds each shard attempt;
    ``max_retries`` bounds extra rounds after the first;
    ``backoff`` seeds the exponential inter-round delay;
    ``quorum`` / ``max_staleness_days`` parameterise the clearinghouse;
    ``workers`` > 1 runs shards in a process pool (1 = in-process).
    """

    shards: Tuple[NetworkShard, ...]
    feed_tags: Tuple[str, ...] = FLEET_FEED_TAGS
    deadline: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.05
    quorum: int = 1
    max_staleness_days: Optional[int] = None
    workers: Optional[int] = None
    prefix_len: int = 24

    def __post_init__(self) -> None:
        object.__setattr__(self, "shards", tuple(self.shards))
        object.__setattr__(self, "feed_tags", tuple(self.feed_tags))

    def validate(self) -> None:
        if not self.shards:
            raise ValueError("a fleet needs at least one shard")
        names = [shard.name for shard in self.shards]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard names: {names}")
        if not 1 <= self.quorum <= len(self.shards):
            raise ValueError(
                f"quorum {self.quorum} outside 1..{len(self.shards)}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0: {self.backoff}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive: {self.deadline}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1: {self.workers}")
        if self.max_staleness_days is not None and self.max_staleness_days < 0:
            raise ValueError(
                f"max_staleness_days must be >= 0: {self.max_staleness_days}"
            )
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"prefix length out of range: {self.prefix_len}")
        if not self.feed_tags:
            raise ValueError("feed_tags must not be empty")

    def fingerprint(self) -> str:
        """Identity of the fleet's membership and feed set.

        Execution policy (deadline, retries, workers, backoff) is
        deliberately excluded: results are bit-identical regardless of
        how the shards were scheduled, so policy must not change the
        checkpoint namespace.  A shard's vantage AS joins its tuple only
        when set, so whole-Internet fleets keep their historical
        fingerprints.
        """
        return fingerprint(
            {
                "shards": [
                    (shard.name, shard.config)
                    if shard.vantage_as is None
                    else (shard.name, shard.config, shard.vantage_as)
                    for shard in self.shards
                ],
                "feed_tags": list(self.feed_tags),
                "prefix_len": self.prefix_len,
            }
        )

    def shard(self, name: str) -> NetworkShard:
        for candidate in self.shards:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no shard named {name!r}")


def _shard_name(index: int) -> str:
    letters = string.ascii_lowercase
    if index < len(letters):
        return f"net-{letters[index]}"
    return f"net-{index}"


def heterogeneous_fleet(
    count: int = 3,
    seed: int = 20_061_001,
    small: bool = True,
    pack: Optional[str] = None,
    vantage: str = "global",
    **policy,
) -> FleetConfig:
    """A fleet of ``count`` dissimilar vantage points on one Internet.

    All shards share ``seed`` — the paper's networks observe the *same*
    Internet, botnet ecosystem and phishing economy — but each member
    watches it differently: its own (overlapping) set of monitored IRC
    channels, its own monitor observation probability, its own border
    traffic volume and its own control population size, cycling through
    small, mid-sized and large member profiles.  That makes the
    cross-network question real: does network A's old uncleanliness
    predict network B's current botnet space?  ``policy`` keyword
    arguments pass through to :class:`FleetConfig`.

    ``pack`` names a scenario pack whose transform shapes every member's
    shared world (applied to the base config before per-member
    profiling).  ``vantage="as"`` additionally pins each member to one
    autonomous system of that world — member *i* borders AS ``i mod
    num_as`` and its observed feeds (scan, spam, control) cover only
    that operator's announced space — which requires an AS-structured
    config (``pack`` setting ``internet.asys``, e.g. ``attack-wave``).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1: {count}")
    if vantage not in ("global", "as"):
        raise ValueError(f"vantage must be 'global' or 'as': {vantage!r}")
    base = ScenarioConfig.small(seed=seed) if small else ScenarioConfig(seed=seed)
    if pack is not None:
        from repro.scenarios import get_pack

        base = get_pack(pack).build(base)
    if vantage == "as" and base.internet.asys is None:
        raise ValueError(
            "vantage='as' needs an AS-structured world: pass a pack that "
            "sets InternetConfig.asys (e.g. 'attack-wave')"
        )
    channel_count = base.botnet.num_channels
    shards = []
    for index in range(count):
        # Member profile: 1.0x / 0.6x / 1.4x traffic and control volume,
        # 0.9 / 0.7 / 0.5 monitor coverage.
        scale = (1.0, 0.6, 1.4)[index % 3]
        coverage = (0.9, 0.7, 0.5)[index % 3]
        # Each network tracks four channels of the shared botnet, strided
        # so neighbours overlap; the top two channels are reserved for
        # the months-old bot-test reports, alternated between members so
        # a network's own historical botnet differs from its peers'.
        test_channel = channel_count - 1 - (index % 2)
        channels = tuple(
            sorted({(3 * index + j) % (channel_count - 2) for j in range(4)})
        )
        config = replace(
            base,
            bot_report_channels=channels,
            bot_test_channel=test_channel,
            monitor=replace(base.monitor, observation_probability=coverage),
            traffic=replace(
                base.traffic,
                benign_clients_per_day=max(
                    10, int(base.traffic.benign_clients_per_day * scale)
                ),
                suspicious_hosts=max(
                    50, int(base.traffic.suspicious_hosts * scale)
                ),
            ),
            control_size=max(1_000, int(base.control_size * scale)),
        )
        vantage_as = (
            index % base.internet.asys.num_as if vantage == "as" else None
        )
        shards.append(NetworkShard(
            name=_shard_name(index), config=config, vantage_as=vantage_as
        ))
    return FleetConfig(shards=tuple(shards), **policy)
