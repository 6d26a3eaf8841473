#!/usr/bin/env python3
"""The repository benchmark: four paper-default workloads, end to end.

Every repetition of a workload runs in its own fresh child process
(:mod:`benchmarks.e2e.workloads`), one at a time, with one busy core:
``REPRO_WORKERS=1``, ``REPRO_TRACE`` and every other ``REPRO_*``
setting unset, BLAS thread pools pinned to 1, and ``REPRO_CACHE_DIR`` /
``REPRO_RUNS_DIR`` inside a per-invocation temporary directory under
``.bench_e2e/`` that is deleted on exit.  Each cold, stream and fleet
child gets an empty artifact store; warm children share one store that
an untimed cold child filled first.

One workload, as a harness calls it (the last stdout line is the JSON
result; ``--trace 1`` reports the per-layer metrics instead)::

    python3 benchmarks/e2e/run.py --workload stream-serve --seed 7 \\
        --seconds 10 --trace 0

Every workload, round-robin across repeats, printing each metric with
its unit, median, IQR and n, and writing ``.bench_e2e/results.json``::

    python3 benchmarks/e2e/run.py [--seed S] [--repeats N] [--trace 1]

Outputs are verified in every run: a sha256 digest per workload is
compared with ``reference.json`` (pinned for the default seed), across
repetitions, and between the cold and warm reproductions; the children
add their own checks.  Every mismatch, exception or quarantined shard
counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("reproduce-cold", "reproduce-warm", "stream-serve", "fleet-pooled")
DEFAULT_SEED = 20061001

#: End-to-end metrics every workload reports, with units.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
#: stream-serve's service metrics: printed with the end-to-end table,
#: reported to a harness through the per-layer table (see README.md).
STREAM_METRICS = (
    ("ingest_day_p50_ms", "ms"),
    ("lookup_p50_us", "us"),
    ("lookup_p99_us", "us"),
    ("lookups_per_s", "1/s"),
)

#: A child that has not finished by then is killed and counted failed.
CHILD_TIMEOUT_S = 170.0
#: Start no further repetition that would end a run past this, so the
#: harness's 4 + 22 x 4 runs fit its time cap even on a contended host.
RUN_BUDGET_S = 34.0


def _child_env(tmp: Path, cache: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        REPRO_WORKERS="1",
        REPRO_CACHE_DIR=str(cache),
        REPRO_RUNS_DIR=str(tmp / "runs"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        # Peak RSS must measure live data, not allocator luck: with a
        # fixed mmap threshold every large array returns to the OS when
        # freed (glibc otherwise slides the threshold up after the first
        # big free, and the peak jumped by ~10% between seeds and even
        # between hash seeds of one seed).
        PYTHONHASHSEED="0",
        MALLOC_MMAP_THRESHOLD_="65536",
    )
    return env


class Session:
    """Spawns children inside one temporary directory (removed on exit)."""

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.scale = scale
        self._count = 0
        base = ROOT / ".bench_e2e"
        base.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self.warm_cache: Optional[Path] = None
        #: The untimed cold child that filled the warm store.
        self.fill: Optional[dict] = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def spawn(self, workload: str, trace: bool = False,
              cache: Optional[Path] = None) -> dict:
        """Run one child; its artifact store is ``cache`` or a fresh one."""
        self._count += 1
        own_cache = cache is None
        if own_cache:
            cache = self.tmp / f"cache-{self._count}"
        out = self.tmp / f"result-{self._count}.json"
        spawned = time.monotonic()
        cmd = [
            sys.executable, "-m", "benchmarks.e2e.workloads",
            "--workload", workload, "--seed", str(self.seed),
            "--scale", self.scale, "--trace", str(int(trace)),
            "--spawned", repr(spawned), "--out", str(out),
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=_child_env(self.tmp, cache),
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            status, stderr = f"exit {proc.returncode}", proc.stderr
        except subprocess.TimeoutExpired as err:
            status = f"timed out after {CHILD_TIMEOUT_S:.0f}s"
            stderr = err.stderr or ""
            if isinstance(stderr, bytes):
                stderr = stderr.decode("utf-8", "replace")
        finally:
            if own_cache:
                shutil.rmtree(cache, ignore_errors=True)
        try:
            result = json.loads(out.read_text())
        except (OSError, ValueError):
            result = {
                "workload": workload, "wall_s": None, "attempted": 1,
                "failed": 1, "checks": {}, "digest": "", "phases": [],
                "extra": {}, "layers": None,
                "error": f"child produced no result ({status}):\n{stderr[-2000:]}",
            }
        if result.get("error"):
            print(f"[{workload}] child error: {result['error']}", file=sys.stderr)
        result["child_s"] = time.monotonic() - spawned
        return result

    def run(self, workload: str, trace: bool = False) -> dict:
        """One repetition; warm ones read the store the fill wrote."""
        if workload != "reproduce-warm":
            return self.spawn(workload, trace)
        if self.warm_cache is None:
            self.warm_cache = self.tmp / "warm-cache"
            self.fill = self.spawn("reproduce-cold", cache=self.warm_cache)
        return self.spawn(workload, trace, cache=self.warm_cache)


def summarize(values: List[float]) -> dict:
    """Median, interquartile range and sample count."""
    if len(values) == 1:
        return {"median": values[0], "iqr": 0.0, "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "n": len(values)}


def step_floor(children: List[dict]) -> float:
    """The timed region as the sum of each step's fastest repetition.

    Every child runs the same steps (an experiment, a day's ingest, a
    day's lookups, ...) in the same order, plus the untimed-by-steps
    remainder of its timed region.  Contention from other tenants on the
    host only ever adds time, and it comes in bursts of seconds, so the
    fastest of a step's repetitions is its best measurement; summing
    them keeps the number a duration of this workload.
    """
    steps: Dict[str, List[float]] = {}
    for child in children:
        rest = child["wall_s"]
        for name, seconds in child["phases"]:
            steps.setdefault(name, []).append(seconds)
            rest -= seconds
        steps.setdefault("", []).append(max(rest, 0.0))
    return sum(min(values) for values in steps.values())


def end_to_end(children: List[dict]) -> Dict[str, dict]:
    """Each metric's reported value plus median, IQR and n over the
    completed untraced children."""
    done = [c for c in children if c.get("wall_s") is not None]
    out: Dict[str, dict] = {}
    if not done:
        return out
    for name, unit in END_TO_END:
        stats = summarize([c[name] for c in done])
        value = step_floor(done) if name == "wall_s" else stats["median"]
        out[name] = dict(stats, value=value, unit=unit)
    for name, unit in STREAM_METRICS:
        values = [c["extra"][name] for c in done if name in c["extra"]]
        if values:
            stats = summarize(values)
            out[name] = dict(stats, value=stats["median"], unit=unit)
    return out


def load_reference(path: Path) -> Dict[str, dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


class Checks:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)

    def children(self, children: List[dict]) -> None:
        """Count the children's own operations and checks."""
        for child in children:
            self.attempted += child["attempted"]
            self.failed += child["failed"]
            self.problems += [
                f"{child['workload']}: check {name} failed"
                for name, ok in child["checks"].items() if not ok
            ]

    def digests(self, workload: str, children: List[dict],
                expected: Optional[str], cold: Optional[str] = None) -> None:
        """Every repetition must match the pinned reference (if any),
        repetition 0, and the cold reproduction (if given)."""
        for index, child in enumerate(children):
            digest = child["digest"]
            if expected is not None:
                self.add(digest == expected,
                         f"{workload}[{index}] digest {digest[:12]} != "
                         f"reference {expected[:12]}")
            self.add(digest == children[0]["digest"],
                     f"{workload}[{index}] digest differs from repetition 0")
            if cold is not None:
                self.add(digest == cold,
                         f"{workload}[{index}] digest differs from the cold run")


def assess(workload: str, runs: List[dict], extra: List[dict],
           fill: Optional[dict], reference: Dict[str, dict], seed: int,
           scale: str) -> Checks:
    """All checks of one workload's children (``extra``: traced ones)."""
    checks = Checks()
    checks.children(runs + extra)
    cold = None
    if fill is not None and workload == "reproduce-warm":
        checks.add(not fill["failed"] and bool(fill["digest"]),
                   "the cold fill of the warm store failed")
        cold = fill["digest"]
    expected = reference.get(f"{scale}/{seed}", {}).get(workload)
    checks.digests(workload, runs, expected, cold)
    return checks


def per_layer(traced: dict, untraced: dict) -> Dict[str, float]:
    """The traced run's layer table plus the untraced comparisons."""
    from benchmarks.e2e.layers import PER_LAYER

    values = dict(traced.get("layers") or {})
    if traced.get("wall_s") and untraced.get("wall_s"):
        values["trace_overhead_frac"] = (
            traced["wall_s"] - untraced["wall_s"]
        ) / untraced["wall_s"]
    # Service latencies come from the untraced child: the wrappers add
    # about a microsecond to every lookup.
    for name, source in (
        ("stream.ingest_day_p50_ms", "ingest_day_p50_ms"),
        ("stream.lookup.p50_us", "lookup_p50_us"),
        ("stream.lookup.p99_us", "lookup_p99_us"),
        ("stream.lookups_per_s", "lookups_per_s"),
    ):
        values[name] = untraced.get("extra", {}).get(source, 0.0)
    return {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}


def _print_table(rows: List[List[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _metric_rows(workload: str, summary: Dict[str, dict],
                 checks: Checks) -> List[List[str]]:
    rows = [
        [workload, name, s["unit"], _fmt(s["value"]), _fmt(s["median"]),
         _fmt(s["iqr"]), str(s["n"])]
        for name, s in summary.items()
    ]
    rows.append([workload, "failed_frac", "ratio",
                 _fmt(checks.failed / max(checks.attempted, 1)), "", "",
                 str(checks.attempted)])
    return rows


HEADER = ["workload", "metric", "unit", "value", "median", "iqr", "n"]


def run_workload(args: argparse.Namespace, reference: Dict[str, dict]) -> dict:
    """One workload, as a harness measures it; returns the JSON result."""
    from benchmarks.e2e.layers import PER_LAYER

    began = time.monotonic()
    runs: List[dict] = []
    traced: List[dict] = []
    with Session(args.seed, args.scale) as session:
        if args.trace:
            runs.append(session.run(args.workload))
            traced.append(session.run(args.workload, trace=True))
        else:
            while True:
                runs.append(session.run(args.workload))
                timed = sum(r.get("wall_s") or 0.0 for r in runs)
                if len(runs) >= args.repeats and timed >= args.seconds:
                    break
                finish = time.monotonic() + runs[-1]["child_s"]
                if finish - began > RUN_BUDGET_S:
                    break
        fill = session.fill
    checks = assess(args.workload, runs, traced, fill, reference,
                    args.seed, args.scale)
    for message in checks.problems:
        print(f"FAILED: {message}", file=sys.stderr)

    if traced:
        layer_values = per_layer(traced[0], runs[0])
        metrics = {
            name: {"value": layer_values[name], "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        summary = end_to_end(runs)
        print(f"seed={args.seed} scale={args.scale} nproc={os.cpu_count()}")
        _print_table([HEADER] + _metric_rows(args.workload, summary, checks))
        metrics = {
            name: {"value": summary[name]["value"], "unit": unit}
            for name, unit in END_TO_END
            if name in summary
        }
    return {
        "correct": checks.failed == 0 and bool(metrics),
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": metrics,
    }


def run_all(args: argparse.Namespace, reference: Dict[str, dict]) -> int:
    """Every workload, round-robin across repeats; prints and saves."""
    from benchmarks.e2e.layers import PER_LAYER

    runs: Dict[str, List[dict]] = {w: [] for w in WORKLOADS}
    traced: Dict[str, List[dict]] = {w: [] for w in WORKLOADS}
    with Session(args.seed, args.scale) as session:
        for repeat in range(args.repeats):
            for workload in WORKLOADS:
                child = session.run(workload)
                runs[workload].append(child)
                print(f"[{repeat + 1}/{args.repeats}] {workload}: wall "
                      f"{child.get('wall_s') or float('nan'):.3f} s",
                      file=sys.stderr)
        if args.trace:
            for workload in WORKLOADS:
                traced[workload].append(session.run(workload, trace=True))
        fill = session.fill

    report = {"seed": args.seed, "scale": args.scale,
              "nproc": os.cpu_count(), "workloads": {}}
    rows = [HEADER]
    failed = 0
    for workload in WORKLOADS:
        checks = assess(workload, runs[workload], traced[workload], fill,
                        reference, args.seed, args.scale)
        for message in checks.problems:
            print(f"FAILED: {message}", file=sys.stderr)
        failed += checks.failed
        summary = end_to_end(runs[workload])
        rows += _metric_rows(workload, summary, checks)
        entry = {
            "end_to_end": summary,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "failed_frac": checks.failed / max(checks.attempted, 1),
            "digest": runs[workload][0]["digest"],
            "children": runs[workload],
        }
        if traced[workload]:
            entry["per_layer"] = per_layer(traced[workload][0], runs[workload][0])
        report["workloads"][workload] = entry
    # The cold and warm reproductions must print the same outputs.
    cross = Checks()
    cross.digests("reproduce-cold+warm",
                  runs["reproduce-cold"] + runs["reproduce-warm"], None)
    for message in cross.problems:
        print(f"FAILED: {message}", file=sys.stderr)
    failed += cross.failed

    print(f"seed={args.seed} scale={args.scale} nproc={os.cpu_count()}")
    _print_table(rows)
    if args.trace:
        print()
        layer_rows = [["layer metric", "unit", *WORKLOADS]]
        for name, unit in PER_LAYER:
            layer_rows.append([name, unit, *(
                _fmt(report["workloads"][w]["per_layer"][name])
                for w in WORKLOADS
            )])
        _print_table(layer_rows)
    output = Path(args.output or ROOT / ".bench_e2e" / "results.json")
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and print a JSON result line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="repeat until at least this much timed work")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repetitions per workload (at least)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced run and its per-layer metrics")
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--reference", default=str(HERE / "reference.json"))
    parser.add_argument("--output", help="results JSON (all-workload mode)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    reference = load_reference(Path(args.reference))
    if args.workload is None:
        return run_all(args, reference)
    print(json.dumps(run_workload(args, reference)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
