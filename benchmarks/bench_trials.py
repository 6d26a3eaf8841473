#!/usr/bin/env python
"""Trial-matrix Monte-Carlo throughput snapshot and regression guard.

Times the paper-scale Monte-Carlo evaluation (1000 equal-cardinality
random control subsets, |R| ~ 6e5 control addresses, 17 prefix lengths)
two ways for each statistic of the §4/§5 tests:

* **per-trial**: the reference — :func:`tests.oracles.run_trials`
  evaluating the per-trial oracle statistic on one subset ``Report`` at
  a time;
* **batched**: ``monte_carlo`` handing the whole trial matrix to one
  :mod:`repro.ipspace.kernels` call.

Both paths draw identical per-trial RNG streams, so before timing, the
script asserts the two produce bit-identical matrices on a sample.
Results (trials/sec and the batched-over-per-trial speedup) land in
``BENCH_trials.json`` at the repo root; ``--guard`` exits non-zero when
the speedup falls below the floor (10x at full scale, 3x at the small
CI scale where fixed overheads dominate).

Run it as a module from the repo root, so the oracles in ``tests/``
import::

    PYTHONPATH=src python -m benchmarks.bench_trials \
        --scale full --output BENCH_trials.json
    PYTHONPATH=src python -m benchmarks.bench_trials --scale small --guard
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import cidr as rcidr
from repro.core.report import Report
from repro.core.sampling import monte_carlo
from repro.ipspace.kernels import block_counts_2d, intersection_counts_2d

SCALES = {
    # control |R|, subset size, batched trials, per-trial reference trials
    "full": dict(control=600_000, size=2_000, trials=1_000, reference_trials=100),
    "small": dict(control=60_000, size=500, trials=100, reference_trials=25),
}

SPEEDUP_FLOORS = {"full": 10.0, "small": 3.0}

PREFIXES = tuple(rcidr.PREFIX_RANGE)


def build_reports(control_size: int) -> tuple:
    rng = np.random.default_rng(0x7219)
    control = Report.from_addresses(
        "control",
        np.unique(rng.integers(0, 2**32, size=control_size, dtype=np.uint32)),
    )
    # A "present" report for the intersection statistic: a clustered
    # slice of control space, as the paper's unclean reports are.
    present = Report.from_addresses("present", control.addresses[:: 7])
    return control, present


def time_trials(run, control, size, trials, statistic) -> float:
    """Seconds for ``run`` (``monte_carlo`` or ``run_trials``) to
    evaluate ``trials`` subsets."""
    start = time.perf_counter()
    run(control, size, trials, np.random.default_rng(42), statistic)
    return time.perf_counter() - start


def bench_statistic(name, kernel, per_trial, control, params, run_trials) -> dict:
    """Check bit-identity, then time both paths; returns one section.

    ``monte_carlo`` hands the trial matrix to ``kernel``; the reference
    ``run_trials`` calls ``per_trial`` on one subset at a time.
    """
    size, trials = params["size"], params["trials"]
    check = min(10, trials)
    batched_sample = monte_carlo(
        control, size, check, np.random.default_rng(42), kernel
    )
    reference_sample = run_trials(
        control, size, check, np.random.default_rng(42), per_trial
    )
    if not np.array_equal(batched_sample, reference_sample):
        raise AssertionError(f"{name}: batched path is not bit-identical")

    reference_trials = params["reference_trials"]
    reference_s = time_trials(
        run_trials, control, size, reference_trials, per_trial
    )
    batched_s = time_trials(monte_carlo, control, size, trials, kernel)

    per_trial_rate = reference_trials / reference_s
    batched_rate = trials / batched_s
    return {
        "prefixes": len(PREFIXES),
        "subset_size": size,
        "batched_trials": trials,
        "batched_seconds": round(batched_s, 4),
        "batched_trials_per_sec": round(batched_rate, 1),
        "per_trial_reference_trials": reference_trials,
        "per_trial_seconds": round(reference_s, 4),
        "per_trial_trials_per_sec": round(per_trial_rate, 1),
        "speedup": round(batched_rate / per_trial_rate, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    parser.add_argument("--output", default="BENCH_trials.json")
    parser.add_argument("--guard", action="store_true",
                        help="exit non-zero when the speedup floor is broken")
    args = parser.parse_args(argv)

    from tests.oracles import block_count_vector, intersection_vector, run_trials

    params = SCALES[args.scale]
    floor = SPEEDUP_FLOORS[args.scale]
    control, present = build_reports(params["control"])
    present_blocks = tuple(rcidr.cidr_set(present, n) for n in PREFIXES)

    sections = {}
    sections["density_block_counts"] = bench_statistic(
        "density_block_counts",
        lambda trials: block_counts_2d(trials, PREFIXES),
        lambda subset: block_count_vector(subset, PREFIXES),
        control,
        params,
        run_trials,
    )
    sections["prediction_intersections"] = bench_statistic(
        "prediction_intersections",
        lambda trials: intersection_counts_2d(trials, present_blocks, PREFIXES),
        lambda subset: intersection_vector(subset, present_blocks, PREFIXES),
        control,
        params,
        run_trials,
    )

    snapshot = {
        "suite": "trials",
        "scale": args.scale,
        "control_addresses": len(control),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "speedup_floor": floor,
        "sections": sections,
    }
    Path(args.output).write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {args.output}")
    for name, section in sections.items():
        print(
            f"  {name:26s} {section['batched_trials_per_sec']:9.1f} trials/s "
            f"batched vs {section['per_trial_trials_per_sec']:7.1f} per-trial "
            f"({section['speedup']}x)"
        )

    if not args.guard:
        return 0
    failed = [
        f"{name}: {section['speedup']}x < required {floor}x"
        for name, section in sections.items()
        if section["speedup"] < floor
    ]
    for message in failed:
        print(f"GUARD FAIL: {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
