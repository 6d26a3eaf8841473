#!/usr/bin/env python
"""The §7 extension indicator: C&C rendezvous observed through a sinkhole.

The paper's conclusion names "communication with botnet C&C nodes" as the
next indicator to add to an uncleanliness metric.  This example plays it
out: one botnet's rendezvous point is sinkholed into the observed
network, its members phone home across the border, the sinkhole monitor
reports them — and that report predicts the *other* botnets' future
members, because all botnets farm the same unclean networks.

Run:  python examples/cnc_sinkhole.py
"""

import numpy as np

from repro.api import evaluate, run_scenario
from repro.core.report import DataClass, Report, ReportType
from repro.detect.cnc import SinkholeMonitor
from repro.flows.generator import TrafficConfig, TrafficGenerator
from repro.sim.timeline import PAPER_WINDOWS

SINKHOLED_CHANNEL = 9  # a botnet outside every Table 1 feed


def main() -> None:
    scenario = run_scenario(small=True)
    config = scenario.config
    rng = np.random.default_rng(4)

    # --- seize one channel's rendezvous and replay October ---------------
    traffic_config = TrafficConfig(
        benign_clients_per_day=config.traffic.benign_clients_per_day,
        suspicious_hosts=config.traffic.suspicious_hosts,
        sinkholed_channels=(SINKHOLED_CHANNEL,),
    )
    generator = TrafficGenerator(scenario.internet, scenario.botnet, traffic_config)
    traffic = generator.generate(PAPER_WINDOWS.OCTOBER, rng)
    print(f"October border capture with a sinkholed C&C: "
          f"{len(traffic.flows)} flows")

    # --- the monitor turns phone-homes into a bot report ------------------
    monitor = SinkholeMonitor()
    detected = monitor.detect(traffic.flows, generator.sinkhole_addresses())
    cnc_report = Report(
        tag="cnc",
        addresses=detected,
        report_type=ReportType.OBSERVED,
        data_class=DataClass.BOTS,
        period=PAPER_WINDOWS.OCTOBER.dates(),
    )
    truth = traffic.ground_truth("cnc")
    print(f"sinkhole monitor reported {len(cnc_report)} bots "
          f"(ground truth: {truth.size} members phoned home)")
    print()

    # --- does the sinkholed botnet predict the other botnets? ------------
    # The prediction target is the October membership of the channels the
    # provided bot feed covers — botnets the sinkhole never saw.
    result = evaluate(
        scenario, metric="prediction", train=cnc_report, present="bot",
        rng=rng, subsets=150,
    )
    print("predicting OTHER botnets' October members from the sinkhole:")
    for n in (16, 20, 24, 28):
        print(f"  /{n}: intersection={result.observed[n]:>4}  "
              f"control median={result.control[n].median:>6.1f}  "
              f"beats control in {result.exceedance[n]:.0%} of draws")
    print(f"  predictive prefix range: {result.predictive_range()}")
    print()
    print("one seized rendezvous point maps the unclean networks that all")
    print("the other botnets keep harvesting — exactly why §7 wants C&C")
    print("communication folded into the uncleanliness metric.")


if __name__ == "__main__":
    main()
