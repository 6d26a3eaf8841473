"""End-to-end construction of the paper's datasets.

:class:`PaperScenario` wires the whole reproduction together: it generates
the synthetic Internet, runs the botnet and phishing ecosystems across the
2006 study year, captures October 1st-14th border traffic, runs the
detectors, and materialises every report of Table 1 (bot, phish, scan,
spam, bot-test, control) plus the Table 2 union report — all
deterministically from one seed.

Since the staged-artifact refactor, :class:`PaperScenario` is a thin
facade over the engine pipeline of :mod:`repro.core.stages`: nothing is
simulated until an attribute is first touched, and every stage value is
cached in the fingerprint-keyed artifact store
(:mod:`repro.engine.store`), so scenarios sharing a configuration —
across experiments, benchmarks and even across processes for the
disk-persisted report stages — are built exactly once.

Scale note: report sizes default to roughly 1/64 of the paper's (e.g.
~10k provided bot addresses instead of 621,861) except the small
hypothesis-testing reports (bot-test at 186 addresses), which are kept at
natural size because their absolute cardinality drives the statistics of
Figures 4-5.  Every analysis in the library is an equal-cardinality
comparison, so scaling preserves shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.blocking import BlockingResult, CandidatePartition, blocking_test
from repro.core.report import Report
from repro.detect.botlog import BotLogConfig
from repro.detect.phishlist import PhishListConfig
from repro.detect.scan import ScanDetectorConfig
from repro.detect.spam import SpamDetectorConfig
from repro.engine.fingerprint import addendum_field
from repro.engine.fingerprint import fingerprint as _fingerprint
from repro.flows.generator import BorderTraffic, TrafficConfig
from repro.sim.botnet import BotnetConfig, BotnetSimulation
from repro.sim.internet import InternetConfig, SyntheticInternet
from repro.sim.phishing import PhishingConfig, PhishingSimulation

__all__ = ["ScenarioConfig", "PaperScenario"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to rebuild the paper's datasets from a seed."""

    seed: int = 20_061_001

    internet: InternetConfig = field(default_factory=InternetConfig)
    botnet: BotnetConfig = field(default_factory=BotnetConfig)
    phishing: PhishingConfig = field(default_factory=PhishingConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    monitor: BotLogConfig = field(default_factory=BotLogConfig)
    phishlist: PhishListConfig = field(default_factory=PhishListConfig)
    scan_detector: ScanDetectorConfig = field(default_factory=ScanDetectorConfig)
    spam_detector: SpamDetectorConfig = field(default_factory=SpamDetectorConfig)

    #: Unique control addresses to draw (the paper saw 46.9M).
    control_size: int = 250_000

    #: C&C channels the provided October bot feed covers.  Real feeds see
    #: only the botnets they have infiltrated; half coverage is generous.
    bot_report_channels: Tuple[int, ...] = tuple(range(5))

    #: The separate small botnet behind R_bot-test ("acquired through
    #: private communication", five months earlier).
    bot_test_channel: int = 8

    #: Cardinality of R_bot-test (the paper's report had 186 addresses).
    bot_test_size: int = 186

    #: Optional cap on R_phish-test (paper: 1386); None keeps all.
    phish_test_size: Optional[int] = None

    #: Sinkhole-takedown feed dynamics (fingerprint addenda, omitted at
    #: default).  From ``bot_feed_dark_from_day`` the provided bot feed
    #: loses live visibility (its infiltrated channels were seized); if
    #: ``bot_feed_stale_days`` > 0 the feed then floods the addresses it
    #: sighted over the preceding that-many days — long-cleaned machines
    #: republished as if current.  -1 / 0 keep the paper's feed.
    bot_feed_dark_from_day: int = addendum_field(default=-1)
    bot_feed_stale_days: int = addendum_field(default=0)

    def validate(self) -> None:
        # Surface bad sub-config values here, with their own clear
        # ValueErrors, instead of as numpy broadcast errors deep in
        # generation.
        for sub in (
            self.internet,
            self.botnet,
            self.phishing,
            self.traffic,
            self.monitor,
            self.phishlist,
            self.scan_detector,
            self.spam_detector,
        ):
            sub_validate = getattr(sub, "validate", None)
            if sub_validate is not None:
                sub_validate()
        if self.control_size <= 0:
            raise ValueError("control_size must be positive")
        if self.bot_test_size <= 0:
            raise ValueError("bot_test_size must be positive")
        if self.bot_feed_stale_days < 0:
            raise ValueError("bot_feed_stale_days must be non-negative")
        if self.bot_feed_stale_days > 0 and self.bot_feed_dark_from_day < 1:
            raise ValueError(
                "a stale flood needs bot_feed_dark_from_day >= 1 (the feed "
                "replays the days before it went dark)"
            )
        if self.bot_feed_dark_from_day >= self.botnet.horizon_days:
            raise ValueError(
                "bot_feed_dark_from_day is past the botnet horizon"
            )
        channels = set(self.bot_report_channels) | {self.bot_test_channel}
        if any(not 0 <= c < self.botnet.num_channels for c in channels):
            raise ValueError("channel index outside botnet.num_channels")
        if self.bot_test_channel in self.bot_report_channels:
            raise ValueError(
                "bot_test_channel must be disjoint from bot_report_channels: "
                "the paper's R_bot-test is an unrelated botnet"
            )

    def fingerprint(self) -> str:
        """A stable hash of *every* field (not just the seed).

        Two configs sharing a seed but differing anywhere — even deep in
        a sub-config — fingerprint differently; the artifact store and
        the scenario cache behind :func:`repro.api.run_scenario` key on
        this.
        """
        return _fingerprint(self)

    @classmethod
    def small(cls, seed: int = 7) -> "ScenarioConfig":
        """A fast configuration for tests: ~100x smaller than default."""
        return cls(
            seed=seed,
            internet=InternetConfig(num_slash16=80, mean_hosts=25.0),
            botnet=BotnetConfig(daily_compromises=30.0, num_channels=12),
            phishing=PhishingConfig(daily_sites=6.0),
            traffic=TrafficConfig(
                benign_clients_per_day=150, suspicious_hosts=700
            ),
            control_size=20_000,
            bot_test_size=120,
        )


class PaperScenario:
    """Lazy facade over the staged pipeline; same attribute API as ever.

    Touching :attr:`internet`, :attr:`botnet`, :attr:`phishing`,
    :attr:`october_traffic`, :attr:`reports` or :attr:`partition`
    resolves the corresponding stage through the artifact store —
    nothing is simulated at construction time.
    """

    def __init__(self, config: Optional[ScenarioConfig] = None, *, engine=None) -> None:
        self.config = config or ScenarioConfig()
        self.config.validate()
        if engine is None:
            from repro.core.stages import scenario_engine

            engine = scenario_engine()
        self._engine = engine

    # -- stage access ------------------------------------------------------

    @property
    def engine(self):
        """The stage engine resolving this scenario's artifacts."""
        return self._engine

    @property
    def internet(self) -> SyntheticInternet:
        return self._engine.resolve(self.config, "internet")

    @property
    def asys(self):
        """The AS topology announcing the occupied space
        (:class:`repro.sim.asys.ASTopology`; flat in the default world)."""
        return self._engine.resolve(self.config, "asys")

    @property
    def botnet(self) -> BotnetSimulation:
        return self._engine.resolve(self.config, "botnet")

    @property
    def phishing(self) -> PhishingSimulation:
        return self._engine.resolve(self.config, "phishing")

    @property
    def october_traffic(self) -> BorderTraffic:
        return self._engine.resolve(self.config, "traffic")

    @property
    def reports(self) -> Dict[str, Report]:
        return self._engine.resolve(self.config, "reports")

    # -- access ------------------------------------------------------------

    def report(self, tag: str) -> Report:
        """Look up a report by its Table 1/2 tag."""
        try:
            return self.reports[tag]
        except KeyError:
            raise KeyError(
                f"no report tagged {tag!r}; have {sorted(self.reports)}"
            ) from None

    @property
    def bot(self) -> Report:
        return self.reports["bot"]

    @property
    def phish(self) -> Report:
        return self.reports["phish"]

    @property
    def scan(self) -> Report:
        return self.reports["scan"]

    @property
    def spam(self) -> Report:
        return self.reports["spam"]

    @property
    def bot_test(self) -> Report:
        return self.reports["bot-test"]

    @property
    def phish_test(self) -> Report:
        return self.reports["phish-test"]

    @property
    def phish_present(self) -> Report:
        return self.reports["phish-present"]

    @property
    def control(self) -> Report:
        return self.reports["control"]

    @property
    def unclean(self) -> Report:
        return self.reports["unclean"]

    def table1_rows(self) -> List[dict]:
        """The report inventory in the shape of the paper's Table 1."""
        order = ["bot", "phish", "scan", "spam", "bot-test", "control"]
        return [self.reports[tag].summary_row() for tag in order]

    # -- §6 blocking --------------------------------------------------------

    @property
    def partition(self) -> CandidatePartition:
        """The Table 2 candidate partition over October traffic."""
        return self._engine.resolve(self.config, "partition")

    def blocking(self) -> BlockingResult:
        """Table 3: the virtual blocking scores."""
        return blocking_test(self.partition, self.bot_test)

    def __repr__(self) -> str:
        sizes = {tag: len(r) for tag, r in self.reports.items()}
        return f"PaperScenario(seed={self.config.seed}, reports={sizes})"
