#!/usr/bin/env python
"""Record kernel throughput to ``BENCH_kernels.json`` (and guard it).

Times the vectorized hot paths (traffic-stage cold build, TRW walk and
detect, scan detect and its row-table reference
:func:`tests.oracles.scan_detect_reference`, spam detect) directly
— no artifact engine, so every build is genuinely cold — and writes
flows/sec and events/sec to a JSON snapshot at the repo root.  At ``--scale full``
the snapshot also embeds the PR-1 loop-based timings (measured on the
same class of machine) and the resulting speedups, so the perf
trajectory is auditable from the file alone.

``--guard`` exits non-zero when the ``scan_detect`` speedups fall below
their floors (5x over the 5.06s loop baseline at full scale; 4x/1.2x
over the row-table reference at full/small scale).

Run it as a module from the repo root, so the oracle in ``tests/``
imports::

    PYTHONPATH=src python -m benchmarks.snapshot_kernels \
        --scale full --output BENCH_kernels.json
    PYTHONPATH=src python -m benchmarks.snapshot_kernels \
        --scale small --guard
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.scenario import ScenarioConfig
from repro.detect.scan import ScanDetector
from repro.detect.spam import SpamDetector
from repro.detect.trw import TRWDetector
from repro.flows.generator import TrafficGenerator
from repro.sim.botnet import BotnetSimulation
from repro.sim.internet import SyntheticInternet
from repro.sim.timeline import PAPER_WINDOWS

#: PR-1 per-bot-loop timings at full scale (seconds), measured on the
#: reference container right before the columnar rewrite landed.  Kept
#: as constants so the speedup column survives the old code's deletion.
LOOP_BASELINES_FULL = {
    "traffic_cold_build": 3.70,
    "trw_walk": 4.78,
    "scan_detect": 5.06,
}

#: ``--guard`` floors.
SCAN_SPEEDUP_FLOOR_FULL = 5.0  # vs the 5.06s loop baseline
SCAN_VS_REFERENCE_FLOORS = {"full": 4.0, "small": 1.2}


def best_of(fn, repeats):
    """Best wall-clock of ``repeats`` runs; returns (seconds, result)."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--output", default="BENCH_kernels.json")
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the best of N runs per section")
    parser.add_argument("--guard", action="store_true",
                        help="exit non-zero when a floor is broken")
    args = parser.parse_args(argv)

    from tests.oracles import scan_detect_reference

    config = ScenarioConfig.small() if args.scale == "small" else ScenarioConfig()
    seeds = np.random.SeedSequence(config.seed).spawn(8)
    internet = SyntheticInternet(config.internet, np.random.default_rng(seeds[0]))
    botnet = BotnetSimulation(internet, config.botnet, np.random.default_rng(seeds[1]))
    generator = TrafficGenerator(internet, botnet, config.traffic)
    window = PAPER_WINDOWS.OCTOBER
    window_events = int(botnet.event_indices(window).size)

    def cold_build():
        return generator.generate(
            window,
            np.random.default_rng(np.random.SeedSequence(config.seed).spawn(8)[3]),
        )

    sections = {}

    seconds, traffic = best_of(cold_build, args.repeats)
    flows = len(traffic.flows)
    sections["traffic_cold_build"] = {
        "seconds": round(seconds, 4),
        "flows": flows,
        "flows_per_sec": round(flows / seconds),
        "window_events": window_events,
        "events_per_sec": round(window_events / seconds),
    }

    detector = TRWDetector()
    seconds, states = best_of(lambda: detector.walk(traffic.flows), args.repeats)
    sections["trw_walk"] = {
        "seconds": round(seconds, 4),
        "flows": flows,
        "flows_per_sec": round(flows / seconds),
        "sources_walked": len(states),
    }

    seconds, detected = best_of(
        lambda: detector.detect(traffic.flows), args.repeats
    )
    sections["trw_detect"] = {
        "seconds": round(seconds, 4),
        "flows": flows,
        "flows_per_sec": round(flows / seconds),
        "sources_flagged": int(detected.size),
    }

    scan_detector = ScanDetector()
    seconds, detected = best_of(
        lambda: scan_detector.detect(traffic.flows), args.repeats
    )
    sections["scan_detect"] = {
        "seconds": round(seconds, 4),
        "flows": flows,
        "flows_per_sec": round(flows / seconds),
        "sources_flagged": int(detected.size),
    }

    reference_seconds, reference_detected = best_of(
        lambda: scan_detect_reference(scan_detector.config, traffic.flows),
        args.repeats,
    )
    if not np.array_equal(reference_detected, detected):
        raise AssertionError("scan kernel diverges from scan_detect_reference")
    sections["scan_detect"]["reference_seconds"] = round(reference_seconds, 4)
    sections["scan_detect"]["speedup_vs_reference"] = round(
        reference_seconds / sections["scan_detect"]["seconds"], 2
    )

    spam_detector = SpamDetector()
    seconds, detected = best_of(
        lambda: spam_detector.detect(traffic.flows), args.repeats
    )
    sections["spam_detect"] = {
        "seconds": round(seconds, 4),
        "flows": flows,
        "flows_per_sec": round(flows / seconds),
        "sources_flagged": int(detected.size),
    }

    if args.scale == "full":
        for name, baseline in LOOP_BASELINES_FULL.items():
            sections[name]["loop_baseline_seconds"] = baseline
            sections[name]["speedup_vs_loops"] = round(
                baseline / sections[name]["seconds"], 2
            )

    snapshot = {
        "suite": "kernels",
        "scale": args.scale,
        "seed": config.seed,
        "window": [window.start_day, window.end_day],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": args.repeats,
        "sections": sections,
    }
    Path(args.output).write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {args.output}")
    for name, section in sections.items():
        speedup = section.get("speedup_vs_loops")
        suffix = f"  ({speedup}x vs loops)" if speedup else ""
        print(f"  {name:20s} {section['seconds']:8.3f}s{suffix}")

    if not args.guard:
        return 0
    failed = []
    scan = sections["scan_detect"]
    if args.scale == "full":
        if scan["speedup_vs_loops"] < SCAN_SPEEDUP_FLOOR_FULL:
            failed.append(
                f"scan_detect: {scan['speedup_vs_loops']}x over loops < "
                f"required {SCAN_SPEEDUP_FLOOR_FULL}x"
            )
    reference_floor = SCAN_VS_REFERENCE_FLOORS[args.scale]
    if scan["speedup_vs_reference"] < reference_floor:
        failed.append(
            f"scan_detect: {scan['speedup_vs_reference']}x over "
            f"scan_detect_reference < required {reference_floor}x"
        )
    for message in failed:
        print(f"GUARD FAIL: {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
