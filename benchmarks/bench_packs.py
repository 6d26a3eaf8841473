#!/usr/bin/env python
"""Scenario-pack guard: packs must stay cheap, and the identity free.

Three promises of the pack layer are enforced here (sized for the
single-core CI runner — ratios against the paper-default world, never
absolute seconds):

* **Building a pack config is trivial.**  A pack is a pure
  ``ScenarioConfig -> ScenarioConfig`` transform plus validation; the
  floor is builds-per-second across the whole registry.
* **The identity pack is free.**  ``paper-default`` fingerprints
  identically to the plain default, so once the default world is warm a
  pack run must resolve entirely from cache — the floor is the
  cold/warm speedup, and the warm run must perform zero stage builds.
* **Adversarial worlds are bounded.**  Every built-in pack simulates
  end to end (internet through reports) within a small multiple of the
  paper-default world: AS topology generation, DHCP rebinding, diurnal
  warping and the stale-feed replay are all vectorised kernels, not
  per-event Python.  Ceiling on pack/default cold-build time.

Results land in ``BENCH_packs.json``; ``--guard`` exits non-zero when a
floor/ceiling is broken.

Usage::

    PYTHONPATH=src python benchmarks/bench_packs.py \
        --scale full --output BENCH_packs.json
    PYTHONPATH=src python benchmarks/bench_packs.py --scale small --guard
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

SCALES = {
    # timing repetitions (min-of-reps) and config-build rounds
    "full": dict(reps=3, build_rounds=200),
    "small": dict(reps=2, build_rounds=50),
}

#: Pack-config builds (transform + validate) per second, whole registry.
BUILD_FLOOR = 200.0
#: cold default build / warm paper-default resolve must exceed this.
IDENTITY_SPEEDUP_FLOORS = {"full": 5.0, "small": 5.0}
#: Every pack's cold build must stay within this multiple of the
#: paper-default cold build.
OVERHEAD_CEILINGS = {"full": 3.0, "small": 3.5}


def _timed(op) -> float:
    start = time.perf_counter()
    op()
    return time.perf_counter() - start


def _reset_caches() -> None:
    from repro.core.stages import reset_scenario_engine
    from repro.engine.store import reset_default_store

    reset_default_store()
    reset_scenario_engine()


def _cold_build_seconds(config, reps: int) -> float:
    from repro.core.scenario import PaperScenario

    def build():
        _reset_caches()
        PaperScenario(config).reports

    return min(_timed(build) for _ in range(reps))


def bench_build(params) -> dict:
    from repro.scenarios import list_packs

    packs = list_packs()

    def round_trip():
        for pack in packs:
            pack.build(small=True)

    seconds = min(_timed(round_trip) for _ in range(params["build_rounds"]))
    per_second = len(packs) / seconds if seconds > 0 else float("inf")
    return {
        "packs": len(packs),
        "round_seconds": round(seconds, 6),
        "builds_per_second": round(min(per_second, 1e9), 1),
    }


def bench_identity(params) -> dict:
    from repro.core.scenario import PaperScenario, ScenarioConfig
    from repro.core.stages import scenario_engine
    from repro.scenarios import get_pack

    base = ScenarioConfig.small()
    cold_s = _cold_build_seconds(base, params["reps"])

    # Warm the default world once, then resolve the identity pack.
    _reset_caches()
    PaperScenario(base).reports
    engine = scenario_engine()
    before = dict(engine.build_counts)
    config = get_pack("paper-default").build(small=True)

    warm_s = min(
        _timed(lambda: PaperScenario(config).reports)
        for _ in range(max(2, params["reps"]))
    )
    if engine.build_counts != before:
        raise AssertionError(
            "identity pack rebuilt stages on a warm store: "
            f"{before} -> {engine.build_counts}"
        )
    return {
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 6),
        "speedup": round(cold_s / warm_s, 1),
    }


def bench_packs(params) -> dict:
    from repro.scenarios import get_pack, pack_names

    base_s = _cold_build_seconds(
        get_pack("paper-default").build(small=True), params["reps"]
    )
    per_pack = {}
    for name in pack_names():
        if name == "paper-default":
            continue
        seconds = _cold_build_seconds(
            get_pack(name).build(small=True), params["reps"]
        )
        per_pack[name] = {
            "seconds": round(seconds, 4),
            "ratio": round(seconds / base_s, 3),
        }
    return {
        "paper_default_seconds": round(base_s, 4),
        "packs": per_pack,
        "max_ratio": round(
            max(entry["ratio"] for entry in per_pack.values()), 3
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    parser.add_argument("--output", default="BENCH_packs.json")
    parser.add_argument("--guard", action="store_true",
                        help="exit non-zero when a floor is broken")
    args = parser.parse_args(argv)

    # Hermetic cold timings: no disk cache behind the default store.
    os.environ["REPRO_CACHE_DIR"] = ""

    params = SCALES[args.scale]
    sections = {
        "build": bench_build(params),
        "identity": bench_identity(params),
        "simulate": bench_packs(params),
    }

    snapshot = {
        "suite": "packs",
        "scale": args.scale,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "build_floor": BUILD_FLOOR,
        "identity_speedup_floor": IDENTITY_SPEEDUP_FLOORS[args.scale],
        "overhead_ceiling": OVERHEAD_CEILINGS[args.scale],
        "sections": sections,
    }
    Path(args.output).write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {args.output}")
    build = sections["build"]
    identity = sections["identity"]
    simulate = sections["simulate"]
    print(
        f"  build       {build['packs']} packs at "
        f"{build['builds_per_second']:.0f} builds/s"
    )
    print(
        f"  identity    cold {identity['cold_seconds']:.2f}s vs warm "
        f"{identity['warm_seconds']:.4f}s ({identity['speedup']}x)"
    )
    print(
        f"  simulate    paper-default {simulate['paper_default_seconds']:.2f}s; "
        f"worst pack ratio {simulate['max_ratio']}"
    )
    for name, entry in sorted(simulate["packs"].items()):
        print(f"    {name:<22} {entry['seconds']:.2f}s ({entry['ratio']}x)")

    if not args.guard:
        return 0
    failed = []
    if build["builds_per_second"] < BUILD_FLOOR:
        failed.append(
            f"build: {build['builds_per_second']} builds/s < "
            f"floor {BUILD_FLOOR}"
        )
    if identity["speedup"] < IDENTITY_SPEEDUP_FLOORS[args.scale]:
        failed.append(
            f"identity: cold/warm {identity['speedup']}x < "
            f"floor {IDENTITY_SPEEDUP_FLOORS[args.scale]}x"
        )
    if simulate["max_ratio"] > OVERHEAD_CEILINGS[args.scale]:
        failed.append(
            f"simulate: worst pack/default ratio {simulate['max_ratio']} > "
            f"ceiling {OVERHEAD_CEILINGS[args.scale]}"
        )
    for message in failed:
        print(f"GUARD FAIL: {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
