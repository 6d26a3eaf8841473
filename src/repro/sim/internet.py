"""A synthetic Internet with per-network uncleanliness.

This is the substrate that replaces the paper's proprietary vantage: a
population of occupied /24 networks spread non-uniformly over the 2006
allocated IPv4 space, each carrying

* a **host population** (how many addresses are live),
* an **uncleanliness** score in [0, 1] — the paper's hidden network
  property: "an indicator of the propensity for hosts in a network to be
  compromised" (§1), and
* a **hosting flag** marking datacenter-style blocks where public web
  servers (and therefore phishing sites, §5.2) concentrate.

Structure follows the paper's modelling assumptions:

* addresses are *not* uniform in IPv4 space (Kohler et al., cited in
  §4.2): occupied /16s are a sparse subset of allocated space and /24
  occupancy within a /16 varies widely;
* uncleanliness is correlated within a /16 (institutions run many
  adjacent /24s), which produces the spatial clustering the paper
  measures, and is heavy-tailed: most networks are mostly clean, a small
  minority are very unclean.

Since the AS-substrate refactor the /16s are themselves announced by a
two-level autonomous-system topology (:mod:`repro.sim.asys`): with
:attr:`InternetConfig.asys` set, per-/16 base uncleanliness concentrates
around the announcing operator's posture and per-/24 compromise
durations stretch or shrink with the operator's cleanup tempo.  The
default (``asys=None``) keeps the original flat statistics and is
**bit-identical** to the pre-AS substrate: the flat topology is built
without consuming any random draws, and every AS-only knob is gated so
the flat path's draw sequence never changes.

Everything is generated deterministically from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.engine.fingerprint import addendum_field
from repro.ipspace.addr import as_int
from repro.ipspace.cidr import CIDRBlock
from repro.ipspace.iana import allocated_octets
from repro.ipspace.reserved import reserved_mask
from repro.sim.asys import ASConfig, ASTopology, flat_topology, generate_topology

__all__ = ["InternetConfig", "SyntheticInternet"]


@dataclass(frozen=True)
class InternetConfig:
    """Generation parameters for :class:`SyntheticInternet`.

    The defaults give a reproduction-scale Internet: roughly 50k occupied
    /24s and 2M live hosts (the paper's vantage saw 47M distinct
    addresses; all analyses are size-relative, so scale does not affect
    shape).
    """

    #: Number of occupied /16 networks drawn from allocated space.
    num_slash16: int = 950

    #: Mean fraction of a /16's 256 possible /24s that are occupied.
    mean_occupancy: float = 0.30

    #: Lognormal sigma of per-/16 occupancy variation (address-structure
    #: burstiness per Kohler et al.).
    occupancy_sigma: float = 0.8

    #: Beta parameters of the per-/16 base uncleanliness distribution.
    #: (0.28, 3.0) gives a mostly-clean Internet with a heavy unclean tail.
    uncleanliness_alpha: float = 0.28
    uncleanliness_beta: float = 3.0

    #: Lognormal sigma of per-/24 uncleanliness variation around the /16 base.
    uncleanliness_noise: float = 0.45

    #: Fraction of /16s that are hosting/datacenter space.
    hosting_fraction: float = 0.04

    #: Mean live hosts per occupied /24 (geometric, capped at 254).
    mean_hosts: float = 90.0

    #: The observed edge network; external reports exclude it (§3.2).
    #: A /8 stands in for the paper's 20M-address network.
    observed_octet: int = 30

    #: AS-level structure (None = the original flat world).  All four
    #: fields below are fingerprint addenda: at their defaults they are
    #: omitted from the canonical form, so pre-AS cache keys stay valid.
    asys: Optional[ASConfig] = addendum_field(default=None)

    #: Fraction of /16s that are DHCP/NAT dynamic pools (addresses there
    #: rebind over time; see BotnetConfig.rebind_days).
    dynamic_fraction: float = addendum_field(default=0.0)

    #: Prefix reassignment event: on ``reassignment_day`` a random
    #: ``reassignment_fraction`` of /16s moves to a different announcing
    #: AS and takes on the new operator's uncleanliness and cleanup
    #: regime for compromises starting after that day.  Requires
    #: ``asys``; -1 / 0.0 disables.
    reassignment_day: int = addendum_field(default=-1)
    reassignment_fraction: float = addendum_field(default=0.0)

    def validate(self) -> None:
        if self.num_slash16 <= 0:
            raise ValueError("num_slash16 must be positive")
        if not 0 < self.mean_occupancy <= 1:
            raise ValueError("mean_occupancy must be in (0, 1]")
        if self.occupancy_sigma < 0:
            raise ValueError("occupancy_sigma must be non-negative")
        if self.uncleanliness_alpha <= 0 or self.uncleanliness_beta <= 0:
            raise ValueError("uncleanliness beta parameters must be positive")
        if self.uncleanliness_noise < 0:
            raise ValueError("uncleanliness_noise must be non-negative")
        if not 0 <= self.hosting_fraction <= 1:
            raise ValueError("hosting_fraction must be in [0, 1]")
        if self.mean_hosts < 1:
            raise ValueError("mean_hosts must be at least 1")
        if not 0 <= self.observed_octet <= 255:
            raise ValueError("observed_octet out of range")
        if self.asys is not None:
            self.asys.validate()
        if not 0 <= self.dynamic_fraction <= 1:
            raise ValueError("dynamic_fraction must be in [0, 1]")
        if not 0 <= self.reassignment_fraction <= 1:
            raise ValueError("reassignment_fraction must be in [0, 1]")
        if self.reassignment_fraction > 0:
            if self.asys is None:
                raise ValueError(
                    "prefix reassignment requires AS structure: set "
                    "InternetConfig.asys"
                )
            if self.reassignment_day < 0:
                raise ValueError(
                    "reassignment_fraction > 0 needs reassignment_day >= 0"
                )


class SyntheticInternet:
    """The generated network population (columnar over occupied /24s)."""

    def __init__(self, config: InternetConfig, rng: np.random.Generator) -> None:
        config.validate()
        self.config = config
        self.observed_network = CIDRBlock(config.observed_octet << 24, 8)
        self._generate(rng)

    # -- generation ----------------------------------------------------------

    def _generate(self, rng: np.random.Generator) -> None:
        cfg = self.config
        octets = np.asarray(
            sorted(allocated_octets() - {cfg.observed_octet}), dtype=np.uint32
        )

        # Occupied /16s: skewed across /8s (some /8s much denser than others).
        octet_weights = rng.dirichlet(np.full(octets.size, 0.5))
        slash16_octets = rng.choice(octets, size=cfg.num_slash16 * 2, p=octet_weights)
        slash16_seconds = rng.integers(0, 256, size=cfg.num_slash16 * 2, dtype=np.uint32)
        slash16 = np.unique(
            (slash16_octets << np.uint32(24)) | (slash16_seconds << np.uint32(16))
        )[: cfg.num_slash16]

        # The announcing-AS layer.  The flat topology consumes no draws
        # (bit-identity of the default world); the AS topology draws its
        # plan first, then per-/16 base uncleanliness concentrates
        # around each announcing operator's posture.
        if cfg.asys is None:
            self.topology: ASTopology = flat_topology(slash16.size)
            # Per-/16 character: base uncleanliness, occupancy, hosting.
            base_unclean = rng.beta(
                cfg.uncleanliness_alpha, cfg.uncleanliness_beta, size=slash16.size
            )
        else:
            self.topology = generate_topology(cfg.asys, slash16.size, rng)
            as_mean = self.topology.base_uncleanliness[self.topology.as_of_net16]
            conc = cfg.asys.concentration
            base_unclean = rng.beta(conc * as_mean, conc * (1.0 - as_mean))
        occupancy = cfg.mean_occupancy * rng.lognormal(
            -cfg.occupancy_sigma**2 / 2, cfg.occupancy_sigma, size=slash16.size
        )
        occupancy = np.clip(occupancy, 1.0 / 256, 1.0)
        hosting16 = rng.random(slash16.size) < cfg.hosting_fraction

        # Occupied /24s within each /16.
        nets, net16_index = [], []
        for i, base in enumerate(slash16):
            count = max(1, int(rng.binomial(256, occupancy[i])))
            thirds = rng.choice(256, size=count, replace=False).astype(np.uint32)
            nets.append(base | (thirds << np.uint32(8)))
            net16_index.append(np.full(count, i, dtype=np.int64))
        net24 = np.concatenate(nets)
        self._net16_index = np.concatenate(net16_index)

        order = np.argsort(net24)
        self.net24 = net24[order]
        self._net16_index = self._net16_index[order]

        # Per-/24 uncleanliness: /16 base modulated by lognormal noise, so
        # dirt clusters hierarchically.
        noise = rng.lognormal(0.0, cfg.uncleanliness_noise, size=self.net24.size)
        self.uncleanliness = np.clip(
            base_unclean[self._net16_index] * noise, 0.0, 1.0
        )

        # Host populations: geometric with the configured mean, capped to
        # the usable host range of a /24.
        populations = rng.geometric(1.0 / cfg.mean_hosts, size=self.net24.size)
        self.population = np.minimum(populations, 254).astype(np.uint16)

        self.hosting = hosting16[self._net16_index]

        # Hosting blocks are professionally run: damp their uncleanliness.
        self.uncleanliness = np.where(
            self.hosting, self.uncleanliness * 0.25, self.uncleanliness
        )

        # -- AS-derived per-/24 fields -----------------------------------
        # All draws below are gated on non-default config, so the flat
        # default world's draw sequence ends exactly where it always did.
        self.slash16 = slash16
        self.as_of_net24 = self.topology.as_of_net16[self._net16_index]
        if self.topology.flat:
            # Multiplying by an all-ones factor is bit-exact (x * 1.0).
            self.duration_factor = np.ones(self.net24.size, dtype=np.float64)
        else:
            per_as = self.topology.duration_factor(cfg.asys.reference_cleanup_days)
            self.duration_factor = per_as[self.as_of_net24]

        if cfg.dynamic_fraction > 0:
            dynamic16 = rng.random(slash16.size) < cfg.dynamic_fraction
        else:
            dynamic16 = np.zeros(slash16.size, dtype=bool)
        self.dynamic = dynamic16[self._net16_index]

        if cfg.reassignment_fraction > 0:
            self._generate_reassignment(rng)
        else:
            self.uncleanliness_after = self.uncleanliness
            self.duration_factor_after = self.duration_factor
            self.as_of_net24_after = self.as_of_net24

        for arr in (
            self.net24,
            self.uncleanliness,
            self.population,
            self.hosting,
            self.slash16,
            self.as_of_net24,
            self.duration_factor,
            self.dynamic,
            self.uncleanliness_after,
            self.duration_factor_after,
            self.as_of_net24_after,
        ):
            arr.setflags(write=False)

    def _generate_reassignment(self, rng: np.random.Generator) -> None:
        """Draw the mid-window prefix-reassignment event.

        Affected /16s move to a uniformly-drawn new AS; their /24s'
        *after* regime (uncleanliness + cleanup tempo) is re-drawn from
        the new operator's posture exactly the way the original regime
        was drawn from the old one.
        """
        cfg = self.config
        topo = self.topology
        n16 = self.slash16.size
        affected16 = rng.random(n16) < cfg.reassignment_fraction
        new_as16 = topo.as_of_net16.copy()
        count = int(affected16.sum())
        if count:
            new_as16[affected16] = rng.integers(0, topo.num_as, size=count)
        self.as_of_net24_after = new_as16[self._net16_index]

        conc = cfg.asys.concentration
        base16 = np.zeros(n16, dtype=np.float64)
        if count:
            mean_new = topo.base_uncleanliness[new_as16[affected16]]
            base16[affected16] = rng.beta(
                conc * mean_new, conc * (1.0 - mean_new)
            )
        mask24 = affected16[self._net16_index]
        after = np.array(self.uncleanliness, copy=True)
        changed = int(mask24.sum())
        if changed:
            noise = rng.lognormal(0.0, cfg.uncleanliness_noise, size=changed)
            values = np.clip(
                base16[self._net16_index[mask24]] * noise, 0.0, 1.0
            )
            after[mask24] = np.where(
                self.hosting[mask24], values * 0.25, values
            )
        self.uncleanliness_after = after

        per_as = topo.duration_factor(cfg.asys.reference_cleanup_days)
        self.duration_factor_after = per_as[self.as_of_net24_after]

    # -- introspection ---------------------------------------------------------

    @property
    def num_networks(self) -> int:
        """Number of occupied /24s."""
        return int(self.net24.size)

    @property
    def total_population(self) -> int:
        """Total live hosts across all occupied /24s."""
        return int(self.population.astype(np.int64).sum())

    @property
    def net16_index(self) -> np.ndarray:
        """Per-/24 index into :attr:`slash16` (the containing /16)."""
        return self._net16_index

    @property
    def num_as(self) -> int:
        """Number of autonomous systems announcing the occupied space."""
        return self.topology.num_as

    @property
    def reassignment_day(self) -> int:
        """Day the prefix-reassignment event fires, or -1 if none."""
        if self.config.reassignment_fraction > 0:
            return self.config.reassignment_day
        return -1

    def slash16_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Half-open ``[start, end)`` ranges of each /16's /24 rows.

        ``self.net24`` is address-sorted, so every /16's occupied /24s
        are contiguous; the bounds let kernels (e.g. the DHCP rebind
        kernel in :mod:`repro.sim.dynamics`) redraw addresses within a
        /16's occupied pool without per-row Python loops.
        """
        lows = self.slash16.astype(np.int64)
        starts = np.searchsorted(self.net24, lows)
        ends = np.searchsorted(self.net24, lows + 0x1_0000)
        return starts, ends

    def network_of(self, address: int) -> Optional[int]:
        """Index of the occupied /24 containing ``address``, or None."""
        net = np.uint32(as_int(address) & 0xFFFFFF00)
        idx = int(np.searchsorted(self.net24, net))
        if idx < self.net24.size and self.net24[idx] == net:
            return idx
        return None

    def is_observed(self, address: int) -> bool:
        """Whether an address lies inside the observed edge network."""
        return self.observed_network.contains(address)

    # -- address generation -----------------------------------------------------

    #: Stride for spreading live hosts across a /24.  Real populations are
    #: not packed at the bottom of the block (DHCP pools, static servers,
    #: NAT gateways sit anywhere), and the paper's Table 3 depends on this:
    #: its FP counts collapse past /26 because innocent hosts do NOT share
    #: small sub-blocks with bots.  167 is coprime to 254, so the stride
    #: walk visits every usable offset exactly once.
    HOST_STRIDE = 167

    @classmethod
    def host_offsets(cls, indices: np.ndarray) -> np.ndarray:
        """Last-octet offsets of host slots ``indices`` (0-based) in a /24."""
        spread = (np.asarray(indices, dtype=np.uint32) * cls.HOST_STRIDE) % 254
        return spread + 1

    def host_addresses(self, network_index: int) -> np.ndarray:
        """All live host addresses of one /24 (spread over the block)."""
        base = self.net24[network_index]
        count = int(self.population[network_index])
        return base + self.host_offsets(np.arange(count))

    def sample_hosts(
        self,
        count: int,
        rng: np.random.Generator,
        weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Sample ``count`` live host addresses (with replacement).

        ``weights`` are per-/24 selection weights; the default weights by
        host population, which models "addresses observed at a busy
        vantage" and backs the control report.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if weights is None:
            weights = self.population.astype(np.float64)
        total = weights.sum()
        if total <= 0:
            raise ValueError("weights sum to zero")
        probs = weights / total
        net_idx = rng.choice(self.num_networks, size=count, p=probs)
        slots = (
            rng.random(count) * self.population[net_idx].astype(np.float64)
        ).astype(np.uint32)
        return self.net24[net_idx] + self.host_offsets(slots)

    def sample_unique_hosts(
        self,
        count: int,
        rng: np.random.Generator,
        weights: Optional[np.ndarray] = None,
        max_rounds: int = 12,
    ) -> np.ndarray:
        """Sample until ``count`` *distinct* host addresses are collected.

        Each of the first ``max_rounds`` rounds draws ``max(2 * need,
        64)`` hosts with replacement (:meth:`sample_hosts`) and keeps the
        new ones.  Should that leave ``need`` hosts missing, they are
        drawn from the hosts not yet seen by :meth:`_sample_unseen`, in
        the order further rounds would have found them, but in bounded
        time however skewed the weights.  Raises ``ValueError``, before
        any draw, if the hosts the weights reach are fewer than
        ``count``.
        """
        reach = self.population.astype(np.int64)
        if weights is not None:
            reach = reach[np.asarray(weights) > 0]
        if count > int(reach.sum()):
            raise ValueError(
                f"requested {count} unique hosts but the weights reach "
                f"{int(reach.sum())} of {self.total_population}"
            )
        seen = np.asarray([], dtype=np.uint32)
        for _ in range(max_rounds):
            need = count - seen.size
            if need <= 0:
                break
            batch = self.sample_hosts(max(need * 2, 64), rng, weights)
            # Set union by a sort that keeps each run's first row;
            # np.unique's hash table is far slower on these arrays.
            merged = np.sort(np.concatenate([seen, batch]))
            first = np.ones(merged.size, dtype=bool)
            np.not_equal(merged[1:], merged[:-1], out=first[1:])
            seen = merged[first]
        if seen.size < count:
            missing = count - seen.size
            seen = np.concatenate(
                [seen, self._sample_unseen(missing, seen, rng, weights)]
            )
        return rng.choice(seen, size=count, replace=False)

    def _sample_unseen(
        self,
        need: int,
        seen: np.ndarray,
        rng: np.random.Generator,
        weights: Optional[np.ndarray],
    ) -> np.ndarray:
        """``need`` distinct live hosts outside the sorted ``seen``.

        A host's rate is its /24's weight over the /24's population, in
        proportion to the chance :meth:`sample_hosts` picks it in one
        draw.  Sampling with replacement meets new hosts in the order of
        independent exponential arrival times at those rates, so the
        ``need`` earliest of one such draw per unseen host are the hosts
        further rounds would have added.
        """
        if weights is None:
            weights = self.population
        weights = np.asarray(weights, dtype=np.float64)
        nets = np.flatnonzero(weights > 0)
        sizes = self.population[nets].astype(np.int64)
        net_idx = np.repeat(nets, sizes)
        starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
        slots = np.arange(net_idx.size) - starts
        hosts = self.net24[net_idx] + self.host_offsets(slots)
        unseen = np.isin(hosts, seen, assume_unique=True, invert=True)
        hosts, net_idx = hosts[unseen], net_idx[unseen]
        rates = weights[net_idx] / self.population[net_idx]
        arrivals = rng.exponential(size=rates.size) / rates
        return hosts[np.argpartition(arrivals, need - 1)[:need]]

    # -- weights for the actors ----------------------------------------------------

    def compromise_weights(self, affinity: float = 2.0) -> np.ndarray:
        """Per-/24 weights for opportunistic compromise.

        Attackers hit everyone; *successful, persistent* compromise
        concentrates in unclean networks (§1).  Weight = population x
        uncleanliness^affinity.
        """
        return self.population.astype(np.float64) * np.power(
            self.uncleanliness, affinity
        )

    def hosting_weights(self, uncleanliness_pull: float = 0.08) -> np.ndarray:
        """Per-/24 weights for phishing-site placement.

        Phishers prefer hosting blocks (robust web serving, §5.2), with a
        small pull toward unclean space (compromised web servers exist).
        """
        base = self.population.astype(np.float64)
        hosting_term = np.where(self.hosting, 1.0, 0.01)
        return base * (hosting_term + uncleanliness_pull * self.uncleanliness)

    def __repr__(self) -> str:
        return (
            f"SyntheticInternet(networks={self.num_networks}, "
            f"hosts={self.total_population}, observed={self.observed_network})"
        )
