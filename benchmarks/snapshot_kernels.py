#!/usr/bin/env python
"""Record kernel throughput to ``BENCH_kernels.json`` (and guard it).

Times the vectorized hot paths (traffic-stage cold build, TRW walk and
detect, scan detect and its row-table reference, spam detect) directly
— no artifact engine, so every build is genuinely cold — and writes
flows/sec and events/sec to a JSON snapshot at the repo root.  At ``--scale full``
the snapshot also embeds the PR-1 loop-based timings (measured on the
same class of machine) and the resulting speedups, so the perf
trajectory is auditable from the file alone.

Two chunked sections cover the out-of-core layer:

* ``chunked_fold`` — the window spilled to a memmap directory and every
  detector folded over it (bit-identity with the in-memory verdict is
  a hard assertion, not a guard);
* ``chunked_memory_scaling`` — repeating synthetic traffic at 1x and 2x
  window length folded through the TRW partial-aggregate path.  The log
  doubles; the fold's peak traced allocation must not (it is bounded by
  chunk size plus per-pair state, which repetition keeps constant).

``--guard`` exits non-zero when the ``scan_detect`` speedups fall below
their floors (5x over the 5.06s loop baseline at full scale; 4x/1.2x
over the row-table reference at full/small scale) or when the chunked
fold's peak memory grows with window length.

Usage::

    PYTHONPATH=src python benchmarks/snapshot_kernels.py \
        --scale full --output BENCH_kernels.json
    PYTHONPATH=src python benchmarks/snapshot_kernels.py \
        --scale small --guard
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.scenario import ScenarioConfig
from repro.detect.scan import ScanDetector
from repro.detect.spam import SpamDetector
from repro.detect.trw import TRWDetector
from repro.flows.chunked import ChunkedFlowLog
from repro.flows.generator import TrafficGenerator
from repro.flows.log import COLUMN_DTYPES, FlowLog
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

#: ``--guard`` floors and ceilings.
SCAN_SPEEDUP_FLOOR_FULL = 5.0  # vs the 5.06s loop baseline
SCAN_VS_REFERENCE_FLOORS = {"full": 4.0, "small": 1.2}
#: Folding a 2x-length window of repeating traffic may grow the fold's
#: peak allocation by at most this factor (the log itself grows ~2x).
CHUNKED_PEAK_GROWTH_CEILING = 1.6


def _log_nbytes(flows: FlowLog) -> int:
    return sum(flows.column(name).nbytes for name in COLUMN_DTYPES)


def _repeating_flows(days: int, per_day: int) -> FlowLog:
    """``days`` identical days of traffic from a fixed source/dst pool.

    Every day replays the same (source, destination) template, so the
    TRW first-contact table — the fold's only cross-chunk state — stays
    constant while the log grows linearly with ``days``.
    """
    rng = np.random.default_rng(0xC1D)
    src = rng.choice(256, size=per_day).astype(np.uint32) + 1
    dst = (src * 17 + rng.choice(24, size=per_day).astype(np.uint32)) % 997 + 1
    offsets = np.sort(rng.uniform(0.0, 86_400.0, per_day))
    day_template = dict(
        src_addr=src,
        dst_addr=dst,
        src_port=np.full(per_day, 40_000, dtype=np.uint16),
        dst_port=np.full(per_day, 80, dtype=np.uint16),
        protocol=np.full(per_day, 6, dtype=np.uint8),
        packets=np.ones(per_day, dtype=np.uint32),
        octets=np.full(per_day, 512, dtype=np.uint64),
        tcp_flags=np.where(rng.random(per_day) < 0.6, 2, 18).astype(np.uint8),
    )
    columns = {
        name: np.concatenate([value] * days)
        for name, value in day_template.items()
    }
    start = np.concatenate(
        [offsets + day * 86_400.0 for day in range(days)]
    )
    return FlowLog(start_time=start, end_time=start + 1.0, **columns)


def _traced_fold(detector, chunked):
    """(seconds, peak_traced_bytes, flagged) of one chunked fold."""
    tracemalloc.start()
    started = time.perf_counter()
    flagged = detector.detect_chunked(chunked)
    seconds = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return seconds, peak, flagged


def bench_chunked_fold(traffic, tmp_dir: str) -> dict:
    """Every detector folded over the spilled window, identity-checked."""
    flows = traffic.flows
    chunked = ChunkedFlowLog.spill_to_dir(
        flows,
        Path(tmp_dir) / "window",
        max_flows=max(4096, len(flows) // 12),
        day_bounded=False,
    )
    section = {
        "chunks": chunked.chunk_count,
        "log_mb": round(_log_nbytes(flows) / 1e6, 1),
    }
    for name, detector in (
        ("scan", ScanDetector()),
        ("trw", TRWDetector()),
        ("spam", SpamDetector()),
    ):
        whole = detector.detect(flows)
        seconds, peak, flagged = _traced_fold(detector, chunked)
        if not np.array_equal(flagged, whole):
            raise AssertionError(f"{name} chunked fold diverges from in-memory")
        section[name] = {
            "seconds": round(seconds, 4),
            "peak_traced_mb": round(peak / 1e6, 1),
            "sources_flagged": int(whole.size),
        }
    return section


def bench_chunked_memory_scaling(scale: str, tmp_dir: str) -> dict:
    """Fold peak vs window length over repeating traffic (1x vs 2x)."""
    days = 6 if scale == "small" else 14
    per_day = 20_000 if scale == "small" else 100_000
    detector = TRWDetector()
    measurements = {}
    for label, length in (("window", days), ("window_x2", 2 * days)):
        flows = _repeating_flows(length, per_day)
        chunked = ChunkedFlowLog.spill_to_dir(
            flows,
            Path(tmp_dir) / f"scaling-{label}",
            max_flows=max(4096, per_day // 2),
        )
        seconds, peak, flagged = _traced_fold(detector, chunked)
        if not np.array_equal(flagged, detector.detect(flows)):
            raise AssertionError(f"{label} chunked fold diverges from in-memory")
        measurements[label] = {
            "days": length,
            "flows": len(flows),
            "chunks": chunked.chunk_count,
            "log_mb": round(_log_nbytes(flows) / 1e6, 1),
            "seconds": round(seconds, 4),
            "peak_traced_mb": round(peak / 1e6, 1),
        }
    peak_growth = (
        measurements["window_x2"]["peak_traced_mb"]
        / max(measurements["window"]["peak_traced_mb"], 0.1)
    )
    log_growth = (
        measurements["window_x2"]["log_mb"]
        / max(measurements["window"]["log_mb"], 0.1)
    )
    measurements["peak_growth"] = round(peak_growth, 2)
    measurements["log_growth"] = round(log_growth, 2)
    return measurements


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
        lambda: scan_detector.detect_reference(traffic.flows), args.repeats
    )
    if not np.array_equal(reference_detected, detected):
        raise AssertionError("scan kernel diverges from detect_reference")
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

    with tempfile.TemporaryDirectory() as tmp_dir:
        sections["chunked_fold"] = bench_chunked_fold(traffic, tmp_dir)
        sections["chunked_memory_scaling"] = bench_chunked_memory_scaling(
            args.scale, tmp_dir
        )

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
        if "seconds" not in section:
            continue
        speedup = section.get("speedup_vs_loops")
        suffix = f"  ({speedup}x vs loops)" if speedup else ""
        print(f"  {name:20s} {section['seconds']:8.3f}s{suffix}")
    scaling = sections["chunked_memory_scaling"]
    print(
        f"  chunked fold peak    "
        f"{scaling['window']['peak_traced_mb']:.1f} MB -> "
        f"{scaling['window_x2']['peak_traced_mb']:.1f} MB "
        f"({scaling['peak_growth']}x) while the log grows "
        f"{scaling['log_growth']}x"
    )

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
            f"detect_reference < required {reference_floor}x"
        )
    if scaling["peak_growth"] > CHUNKED_PEAK_GROWTH_CEILING:
        failed.append(
            f"chunked fold peak grew {scaling['peak_growth']}x over a "
            f"{scaling['log_growth']}x longer window "
            f"(ceiling {CHUNKED_PEAK_GROWTH_CEILING}x)"
        )
    for message in failed:
        print(f"GUARD FAIL: {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
