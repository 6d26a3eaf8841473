"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    uncleanliness table1 [--small] [--seed N]
    uncleanliness figure4 [--subsets N] [--workers W]
    uncleanliness all --small
    uncleanliness ablation
    uncleanliness compare [--predictors NAME ...] [--train TAG ...]
    uncleanliness score --reports bots.txt scan.txt --threshold 0.5 \
        --output blocklist.txt
    uncleanliness validate --small
    uncleanliness profile --reports feed.txt
    uncleanliness cache [info|clear|doctor] [--purge-quarantine]
    uncleanliness trace [latest|<run-dir>|<fingerprint-prefix>]
    uncleanliness fleet [--shards N] [--small] [--workers W]
    uncleanliness packs
    uncleanliness table2 --pack attack-wave --small

The ``--small`` flag runs the ~100x reduced scenario (seconds instead of
a minute); shapes are preserved but the counts are proportionally lower.
``--pack`` runs any scenario verb (and the fleet) inside a named
scenario-pack world — ``uncleanliness packs`` lists them.

Scenario artifacts are cached by the staged engine (``~/.cache/repro``
or ``$REPRO_CACHE_DIR``), so a warm rerun of any table/figure skips the
simulation; ``uncleanliness cache`` inspects or clears that cache.
``--workers`` (default ``$REPRO_WORKERS`` or serial) parallelises the
Monte-Carlo control subsets with bit-identical results.

Observability: every run executes with span tracing enabled and leaves
a manifest — config fingerprint, seed, versions, metrics, span tree —
in ``runs/<fingerprint>-<n>/`` (``$REPRO_RUNS_DIR`` overrides; empty
disables).  ``uncleanliness trace`` pretty-prints a stored span tree,
and ``--profile`` on any verb prints the run's hotspot table.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.core.sampling import monte_carlo_rng
from repro.core.scenario import ScenarioConfig
from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics
from repro.obs import render as obs_render
from repro.obs import trace as obs_trace
from repro.experiments import (
    ablation,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    table1,
    table2,
    table3,
)

__all__ = ["main", "build_parser"]

_SCENARIO_EXPERIMENTS = {
    "figure2": (figure2, True),
    "figure3": (figure3, True),
    "figure4": (figure4, True),
    "figure5": (figure5, True),
    "table1": (table1, False),
    "table2": (table2, False),
    "table3": (table3, False),
}

_ALL = ("table1", "table2", "table3", "figure2", "figure3", "figure4", "figure5")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncleanliness",
        description=(
            "Reproduce tables and figures of 'Using uncleanliness to "
            "predict future botnet addresses' (IMC 2007)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_SCENARIO_EXPERIMENTS)
        + ["figure1", "ablation", "all", "compare", "score", "validate",
           "profile", "cache", "trace", "ingest", "serve", "fleet", "packs"],
        help="which experiment to regenerate; 'compare' runs rival "
        "blocklist predictors head-to-head (Table 3 + ROC-AUC per model "
        "over one shared Monte-Carlo null), 'score' scores user-provided "
        "report files into a /24 blocklist, 'validate' runs the statistical "
        "generator checks, 'profile' prints the address-structure profile "
        "of report files, 'cache' inspects or clears the artifact cache, "
        "'trace' pretty-prints the span tree of a recorded run, 'ingest' "
        "folds scenario day-batches into the streaming uncleanliness "
        "service (checkpointed, resumable), 'serve' answers score/blocked "
        "queries from the streaming index over stdin, 'fleet' runs the "
        "sharded multi-network fleet and prints the clearinghouse view "
        "next to each member network's local view, 'packs' lists the "
        "registered scenario packs",
    )
    parser.add_argument(
        "action",
        nargs="?",
        default=None,
        help="(cache) 'info' (default), 'clear', or 'doctor' — doctor "
        "checksum-verifies every cached artifact, quarantines corrupt "
        "ones, sweeps orphans and prints the store health counters; "
        "(trace) a run selector: 'latest' (default), a run directory "
        "name, a fingerprint prefix, or a path",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="after the run, print the top-N span hotspot table "
        "(self-time ranking) to stderr",
    )
    parser.add_argument(
        "--purge-quarantine",
        action="store_true",
        help="(cache doctor) delete quarantined files after reporting",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="scenario seed (default: paper seed)"
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="use the fast ~100x reduced scenario",
    )
    parser.add_argument(
        "--subsets",
        type=int,
        default=200,
        help="Monte-Carlo control subsets for the density/prediction tests",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="Monte-Carlo worker processes (default: $REPRO_WORKERS or 1); "
        "results are bit-identical for any value",
    )
    parser.add_argument(
        "--reports",
        nargs="+",
        metavar="FILE",
        help="(score) report files: one address per line, optional "
        "'#:' header as written by repro.io.write_report",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="(score) minimum aggregate score for a block to be listed",
    )
    parser.add_argument(
        "--prefix",
        type=int,
        default=24,
        help="(score) blocklist granularity in bits",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="(score) write the blocklist here instead of stdout",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=3,
        help="(fleet) number of heterogeneous member networks",
    )
    parser.add_argument(
        "--pack",
        metavar="NAME",
        default=None,
        help="run inside a named scenario-pack world (see 'uncleanliness "
        "packs'); applies to every scenario verb and the fleet",
    )
    parser.add_argument(
        "--vantage",
        choices=("global", "as"),
        default="global",
        help="(fleet) 'as' pins each member network to one autonomous "
        "system of an AS-structured pack world",
    )
    parser.add_argument(
        "--predictors",
        nargs="+",
        metavar="NAME",
        default=None,
        help="(compare) registered predictor names to pit against each "
        "other (default: every registered model; see repro.api."
        "list_predictors)",
    )
    parser.add_argument(
        "--train",
        nargs="+",
        metavar="TAG",
        default=None,
        help="(compare) scenario report tag(s) the predictors fit on "
        "(default: bot-test)",
    )
    parser.add_argument(
        "--present",
        metavar="TAG",
        default="bot",
        help="(compare) present-day report the §5 test targets",
    )
    parser.add_argument(
        "--days",
        type=int,
        default=None,
        help="(ingest) fold at most this many not-yet-ingested days "
        "(default: all remaining days of the window)",
    )
    return parser


def _run_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the staged-artifact cache."""
    from repro.engine import default_store

    store = default_store()
    action = args.action or "info"
    if action == "info":
        info = store.info()
        print("Staged artifact cache:")
        print(f"  disk dir:       {info['disk_dir'] or '(disk layer disabled)'}")
        print(f"  disk files:     {info['disk_files']} "
              f"({info['disk_bytes']} bytes)")
        print(f"  memory entries: {info['memory_entries']} "
              f"(max {info['max_memory_items']})")
        print(f"  hits:           {info['memory_hits']} memory, "
              f"{info['disk_hits']} disk; misses: {info['misses']}")
        print(f"  stream ckpts:   {info['stream_checkpoints']} "
              f"day checkpoint(s) ({info['stream_checkpoint_bytes']} bytes)")
        print(f"  flow chunks:    {info['flow_chunks']} chunk(s) "
              f"({info['flow_chunk_bytes']} bytes)")
        namespaces = info["fleet_namespaces"]
        print(f"  fleet ckpts:    {info['fleet_checkpoints']} shard "
              f"deliver(ies) in {len(namespaces)} namespace(s)")
        for name in sorted(namespaces):
            entry = namespaces[name]
            print(f"    {name}: {entry['entries']} entr(ies), "
                  f"{entry['bytes']} bytes")
        print(f"  quarantine:     {info['quarantine_files']} file(s)")
        return 0
    if action == "clear":
        removed = store.clear()
        print(f"cleared artifact cache ({removed} disk file(s) removed)")
        return 0
    if action == "doctor":
        report = store.doctor(purge_quarantine=args.purge_quarantine)
        degraded = (
            f"yes ({report['degraded_reason']})" if report["degraded"] else "no"
        )
        print("Cache doctor:")
        print(f"  disk dir:       {report['disk_dir'] or '(disk layer disabled)'}")
        print(f"  entries:        {report['entries_verified']} verified, "
              f"{report['entries_corrupt']} corrupt (quarantined), "
              f"{report['entries_version_skew']} version-skewed, "
              f"{report['entries_unreadable']} unreadable")
        print(f"  stream ckpts:   {report['stream_checkpoints_verified']} "
              f"verified, {report['stream_checkpoints_quarantined']} "
              f"quarantined")
        print(f"  fleet entries:  {report['fleet_entries_verified']} "
              f"verified, {report['fleet_entries_quarantined']} "
              f"quarantined")
        print(f"  orphans:        {report['orphans_swept']} swept, "
              f"{report['tmp_removed']} temp file(s) removed")
        if args.purge_quarantine:
            print(f"  quarantine:     purged {report['quarantine_purged']} file(s)")
        else:
            print(f"  quarantine:     {report['quarantine_files']} file(s) "
                  f"({report['quarantine_bytes']} bytes)")
        print(f"  health:         read_errors={report['read_errors']} "
              f"write_errors={report['write_errors']} "
              f"retries={report['retries']} "
              f"quarantined={report['quarantined']}")
        print(f"  degraded:       {degraded}")
        return 0 if not (report["entries_corrupt"] or report["degraded"]) else 1
    print(f"unknown cache action {action!r}; use 'info', 'clear' or 'doctor'",
          file=sys.stderr)
    return 2


def _run_trace(args: argparse.Namespace) -> int:
    """Pretty-print the span tree stored in a run manifest."""
    selector = args.action or "latest"
    run_dir = obs_manifest.find_run(selector)
    if run_dir is None:
        print(
            f"no recorded run matches {selector!r} under "
            f"{obs_manifest.resolve_runs_dir() or '(manifests disabled)'}",
            file=sys.stderr,
        )
        return 1
    manifest = obs_manifest.load_manifest(run_dir)
    print(f"run:         {run_dir.name}")
    print(f"command:     {manifest.get('command')}")
    print(f"fingerprint: {manifest.get('fingerprint')}")
    print(f"seed:        {manifest.get('seed')}")
    coverage = manifest.get("span_coverage")
    if coverage is not None:
        print(f"coverage:    {coverage:.1%} of root wall time in child spans")
    span = manifest.get("span")
    if span is None:
        print("(no span tree recorded)")
        return 0
    print()
    print(obs_render.render_span_tree(span))
    if args.profile:
        print()
        print(obs_render.render_hotspots(span))
    return 0


def _run_validate(args: argparse.Namespace) -> int:
    """Run the statistical generator checks on a built scenario."""
    from repro.api import run_scenario
    from repro.experiments.common import render_table
    from repro.sim.validation import validate_botnet

    scenario = run_scenario(_scenario_config(args))
    results = validate_botnet(scenario.botnet)
    print("Statistical validation of the botnet generator:")
    print()
    print(render_table([r.as_dict() for r in results]))
    return 0 if all(r.passed for r in results) else 1


def _run_profile(args: argparse.Namespace) -> int:
    """Print the address-structure profile of report files."""
    from repro.experiments.common import render_table
    from repro.io.reports import read_report
    from repro.ipspace.structure import profile_addresses

    if not args.reports:
        print("profile requires --reports FILE [FILE ...]", file=sys.stderr)
        return 2
    for path in args.reports:
        report = read_report(path)
        profile = profile_addresses(report.addresses)
        print(f"{path}: {len(report)} addresses")
        print(render_table(profile.rows()))
        growth = profile.unsaturated_growth()
        if growth is not None:
            print(f"unsaturated per-bit growth: {growth:.3f} "
                  f"(2.0 = uniform); looks uniform: {profile.looks_uniform()}")
        print()
    return 0


def _run_score(args: argparse.Namespace) -> int:
    """Score user-provided report files into a blocklist.

    Routed through the predictor registry: the files become the training
    feeds of the ``uncleanliness`` model, whose ranking at the requested
    prefix yields the blocklist (numerically identical to scoring with
    :class:`repro.core.uncleanliness.UncleanlinessScorer` directly).
    """
    from repro.api import make_predictor
    from repro.io.reports import read_report

    if not args.reports:
        print("score requires --reports FILE [FILE ...]", file=sys.stderr)
        return 2
    reports = {}
    weights = {}
    for path in args.reports:
        report = read_report(path)
        key = report.data_class if report.data_class != "n/a" else report.tag
        if key in reports:
            reports[key] = reports[key] | report
        else:
            reports[key] = report
            weights[key] = 1.0
    predictor = make_predictor("uncleanliness", weights=weights)
    ranking = predictor.fit(reports).score_blocks(args.prefix)
    blocks = ranking.blocklist(args.threshold)
    lines = [str(block) for block in blocks]
    if args.output:
        with open(args.output, "w") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
        print(
            f"scored {len(ranking)} /{args.prefix} blocks from "
            f"{len(reports)} report class(es); wrote {len(blocks)} "
            f"to {args.output} [{predictor.name} {predictor.fingerprint()[:12]}]"
        )
    else:
        for line in lines:
            print(line)
    return 0


def _run_compare(args: argparse.Namespace, extra: dict) -> int:
    """Run rival predictors head-to-head over one scenario."""
    from repro import api
    from repro.experiments.common import render_table

    run = api.run_scenario(_scenario_config(args))
    train = list(args.train) if args.train else "bot-test"
    try:
        result = api.compare(
            run,
            args.predictors,
            train=train,
            present=args.present,
            subsets=args.subsets,
            workers=args.workers,
        )
    except (KeyError, ValueError) as err:
        print(f"compare failed: {err}", file=sys.stderr)
        return 2
    extra["compare"] = result.manifest()

    train_label = "+".join(train) if isinstance(train, list) else train
    print(
        f"Predictor comparison: {len(result.evaluations)} model(s) "
        f"fit on '{train_label}', predicting '{result.present_tag}' "
        f"({result.subsets} Monte-Carlo subsets, shared null)"
    )
    print()
    print("Models:")
    print(render_table([
        {
            "predictor": ev.predictor_name,
            "fingerprint": ev.predictor_fingerprint[:12],
            "training_addrs": ev.training_cardinality,
            "params": ", ".join(
                f"{key}={value}" for key, value in sorted(ev.params.items())
            ) or "-",
        }
        for ev in result.evaluations
    ]))

    print()
    print("Head-to-head (§5 predictive range, §6 rates at /24, ROC-AUC):")
    print(render_table(result.summary_table()))

    for ev in result.evaluations:
        if ev.blocking is None:
            continue
        print()
        print(f"Table 3 — {ev.predictor_name}:")
        print(render_table(ev.blocking.table3()))

    print()
    ranking = [
        f"{name} ({auc:.4f})" if auc is not None else f"{name} (no ROC)"
        for name, auc in result.auc_ranking()
    ]
    print("AUC ranking: " + " > ".join(ranking))
    return 0


def _run_ingest(args: argparse.Namespace) -> int:
    """Fold scenario day-batches into the streaming service."""
    from repro import api
    from repro.stream import day_batches

    config = _scenario_config(args)
    service = api.stream_service(
        config, prefix_len=args.prefix, threshold=args.threshold, warm=False
    )
    window = service.config.window
    if service.cursor >= window.end_day:
        print(f"stream already at head (day {service.cursor}); "
              f"nothing to ingest")
        return 0
    scenario = api.run_scenario(config).scenario
    provided = None
    if service.state.days_ingested == 0:
        provided = {tag: scenario.report(tag) for tag in api.STREAM_FEED_TAGS}
    folded = 0
    for batch in day_batches(
        scenario.october_traffic, provided, from_day=service.cursor + 1
    ):
        if args.days is not None and folded >= args.days:
            break
        delta = service.ingest(batch)
        folded += 1
        fresh = sum(delta.fresh.values())
        print(f"day {delta.day}: {delta.flows} flows, +{fresh} fresh "
              f"address(es), -{delta.retracted_spam} retracted, "
              f"{delta.blocks} scored blocks, "
              f"{delta.blocklist_size} blocklisted")
    state = "at head" if service.cursor >= window.end_day else "behind head"
    print(f"ingested {folded} day(s); cursor {service.cursor} of "
          f"{window.end_day} ({state}); checkpoints under "
          f"{service.fingerprint[:12]}...")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Answer score/blocked queries over stdin from the warm index."""
    from repro import api

    config = _scenario_config(args)
    service = api.stream_service(
        config, prefix_len=args.prefix, threshold=args.threshold
    )
    info = service.info()
    print(f"serving window {info['window']} at day {info['cursor']}: "
          f"{info['blocks']} scored /{args.prefix} blocks, "
          f"{info['blocklist']} blocklisted")
    print("commands: score <ip> | blocked <ip> | top [n] | info | quit")
    import time

    latencies: List[float] = []
    status = 0
    for line in sys.stdin:
        parts = line.split()
        if not parts:
            continue
        command, operands = parts[0].lower(), parts[1:]
        try:
            if command in ("quit", "exit"):
                break
            elif command == "score" and len(operands) == 1:
                began = time.perf_counter()
                value = service.score(operands[0])
                latencies.append(time.perf_counter() - began)
                print(f"{operands[0]} {value:.4f}")
            elif command == "blocked" and len(operands) == 1:
                began = time.perf_counter()
                verdict = service.is_blocked(operands[0])
                latencies.append(time.perf_counter() - began)
                print(f"{operands[0]} {'blocked' if verdict else 'allowed'}")
            elif command == "top":
                count = int(operands[0]) if operands else 10
                for row in service.top_blocks(count):
                    evidence = " ".join(
                        f"{cls}={row[cls]}"
                        for cls in row if cls not in ("block", "score")
                    )
                    print(f"{row['block']} score={row['score']} {evidence}")
            elif command == "info":
                for key, value in service.info().items():
                    print(f"  {key}: {value}")
            else:
                print(f"? unknown command: {line.strip()}", file=sys.stderr)
                status = 2
        except (ValueError, TypeError) as err:
            print(f"? {err}", file=sys.stderr)
            status = 2
    if latencies:
        p50, p99 = np.percentile(latencies, [50, 99])
        print(f"served {len(latencies)} lookup(s): "
              f"p50 {p50 * 1e3:.3f} ms, p99 {p99 * 1e3:.3f} ms")
    return status


def _fleet_config(args: argparse.Namespace):
    from repro.fleet import heterogeneous_fleet

    seed = args.seed if args.seed is not None else ScenarioConfig().seed
    return heterogeneous_fleet(
        args.shards, seed=seed, small=args.small, workers=args.workers,
        pack=args.pack, vantage=args.vantage,
    )


def _run_fleet(args: argparse.Namespace, extra: dict) -> int:
    """Run the sharded fleet; print availability plus the cross-network
    Table 2/Table 3 comparison (clearinghouse view vs local views)."""
    from repro import api
    from repro.core.blocking import blocking_test
    from repro.experiments.common import render_table
    from repro.fleet import FleetFailure, QuorumError

    config = _fleet_config(args)
    try:
        result = api.run_fleet(config)
    except FleetFailure as err:
        print(f"fleet failed: {err}", file=sys.stderr)
        return 1
    extra["fleet"] = result.manifest()
    ch = result.clearinghouse

    print(
        f"Fleet of {len(config.shards)} network(s) "
        f"[{result.fingerprint[:12]}...]: {len(ch.available)} available, "
        f"{len(ch.stale)} stale, {len(result.quarantined)} quarantined"
        + ("  ** DEGRADED **" if ch.degraded else "")
    )
    print()
    print("Shard availability:")
    outcomes = {outcome.name: outcome for outcome in result.outcomes}
    rows = ch.availability()
    for row in rows:
        outcome = outcomes.get(row["network"])
        row["attempts"] = outcome.attempts if outcome else "-"
        row["resumed"] = (
            "yes" if outcome and outcome.from_checkpoint else "no"
        )
    print(render_table(rows))

    pooled = ch.pooled_scores(allow_partial=True)
    pooled_list = len(pooled.blocklist(args.threshold))
    print()
    print(
        f"Table 2 view — /{args.prefix} unclean blocks, local vs "
        f"clearinghouse (threshold {args.threshold}):"
    )
    table2_rows = []
    for feed in ch.available:
        local = ch.local_scores(feed.name)
        gained = int(np.setdiff1d(pooled.blocks, local.blocks).size)
        table2_rows.append(
            {
                "network": feed.name,
                "local_blocks": len(local.scores),
                "local_blocklist": len(local.blocklist(args.threshold)),
                "pooled_blocks": len(pooled.scores),
                "pooled_blocklist": pooled_list,
                "gained_blocks": gained,
            }
        )
    print(render_table(table2_rows))

    print()
    print(
        "Table 3 view — §6 blocking at /24, local bot-test vs the other "
        "networks' pooled bot-test:"
    )
    table3_rows = []
    for feed in ch.available:
        shard = config.shard(feed.name)
        partition = api.run_scenario(shard.config).partition
        local_row = blocking_test(
            partition, feed.reports["bot-test"], prefixes=(24,)
        ).row(24)
        entry = {
            "network": feed.name,
            "local_tp": local_row.true_positives,
            "local_fp": local_row.false_positives,
        }
        try:
            cross = ch.pooled_report("bot-test", exclude=(feed.name,))
        except QuorumError:
            entry["cross_tp"] = entry["cross_fp"] = "-"
        else:
            cross_row = blocking_test(partition, cross, prefixes=(24,)).row(24)
            entry["cross_tp"] = cross_row.true_positives
            entry["cross_fp"] = cross_row.false_positives
        table3_rows.append(entry)
    print(render_table(table3_rows))
    if ch.degraded:
        print()
        print(
            "degraded clearinghouse: "
            f"stale={list(ch.stale)} quarantined={list(result.quarantined)}; "
            "re-run to retry quarantined shards (completed shards resume "
            "from checkpoints)"
        )
    return 0


def _scenario_config(args: argparse.Namespace) -> ScenarioConfig:
    if args.small:
        config = ScenarioConfig.small()
    else:
        config = ScenarioConfig()
    if args.seed is not None:
        from dataclasses import replace

        config = replace(config, seed=args.seed)
    if args.pack is not None:
        from repro.scenarios import get_pack

        config = get_pack(args.pack).build(config)
    return config


def _run_packs(args: argparse.Namespace) -> int:
    """List the registered scenario packs."""
    from repro.experiments.common import render_table
    from repro.scenarios import list_packs

    print("Scenario packs (run any verb with --pack NAME):")
    print()
    print(render_table([
        {"pack": pack.name, "description": pack.description}
        for pack in list_packs()
    ]))
    print()
    print("example: uncleanliness table2 --pack attack-wave --small")
    return 0


def _run_one(name: str, scenario, args: argparse.Namespace) -> str:
    module, takes_subsets = _SCENARIO_EXPERIMENTS[name]
    with obs_trace.span(f"experiment.{name}", subsets=args.subsets):
        if takes_subsets:
            rng = monte_carlo_rng(scenario.config.seed)
            result = module.run(
                scenario, rng, subsets=args.subsets, workers=args.workers
            )
        else:
            result = module.run(scenario)
        return module.format_result(result)


def _figure1_config(args: argparse.Namespace):
    config = figure1.Figure1Config()
    if args.seed is not None:
        from dataclasses import replace

        config = replace(config, seed=args.seed)
    return config


def _manifest_identity(args: argparse.Namespace):
    """The ``(fingerprint, seed)`` identifying one CLI run's manifest.

    Scenario verbs use the full scenario-config fingerprint (what the
    artifact store keys on); figure1 fingerprints its own config; the
    report-file verbs fingerprint their canonicalised arguments.
    """
    from repro.engine.fingerprint import fingerprint

    if args.experiment == "figure1":
        config = _figure1_config(args)
        return fingerprint(config), config.seed
    if args.experiment in ("score", "profile"):
        identity = {
            "experiment": args.experiment,
            "reports": sorted(args.reports or ()),
            "threshold": args.threshold,
            "prefix": args.prefix,
        }
        return fingerprint(identity), None
    if args.experiment == "ablation":
        return fingerprint({"experiment": "ablation", "seed": args.seed}), args.seed
    if args.experiment == "fleet":
        config = _fleet_config(args)
        return config.fingerprint(), config.shards[0].config.seed
    config = _scenario_config(args)
    return config.fingerprint(), config.seed


def _dispatch(args: argparse.Namespace, extra: dict) -> int:
    if args.experiment == "score":
        return _run_score(args)

    if args.experiment == "compare":
        return _run_compare(args, extra)

    if args.experiment == "fleet":
        return _run_fleet(args, extra)

    if args.experiment == "validate":
        return _run_validate(args)

    if args.experiment == "profile":
        return _run_profile(args)

    if args.experiment == "ingest":
        return _run_ingest(args)

    if args.experiment == "serve":
        return _run_serve(args)

    if args.experiment == "figure1":
        with obs_trace.span("experiment.figure1"):
            output = figure1.format_result(figure1.run(_figure1_config(args)))
        with obs_trace.span("render"):
            print(output)
        return 0

    if args.experiment == "ablation":
        sections = (
            ("Ablation: uncleanliness tail vs. spatial clustering",
             ablation.uncleanliness_tail_ablation),
            ("Ablation: bot-report age vs. temporal prediction",
             ablation.report_age_ablation),
            ("Ablation: naive vs. empirical control estimation",
             ablation.estimator_ablation),
            ("Ablation: predictor quality across the prefix band",
             ablation.prefix_band_ablation),
            ("Ablation: blacklist-aware attackers vs. prediction",
             ablation.evasion_ablation),
            ("Ablation: homogeneous blocks vs network-aware clustering",
             ablation.clustering_ablation),
            ("Ablation: uncleanliness-field stability (temporal mechanism)",
             ablation.field_stability_ablation),
        )
        for index, (title, section) in enumerate(sections):
            if index:
                print()
            with obs_trace.span(f"experiment.ablation.{section.__name__}"):
                rows = section()
            print(ablation.format_rows(title, rows))
        return 0

    from repro.api import run_scenario

    with obs_trace.span("scenario.init"):
        scenario = run_scenario(_scenario_config(args)).scenario
    names = _ALL if args.experiment == "all" else (args.experiment,)
    outputs = [_run_one(name, scenario, args) for name in names]
    with obs_trace.span("render"):
        print("\n\n".join(outputs))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    # Meta verbs inspect state rather than produce results; they run
    # untraced and leave no manifest.
    if args.experiment == "cache":
        return _run_cache(args)
    if args.experiment == "trace":
        return _run_trace(args)
    if args.experiment == "packs":
        return _run_packs(args)

    if args.pack is not None:
        from repro.scenarios import get_pack

        try:
            get_pack(args.pack)
        except KeyError as err:
            print(err.args[0], file=sys.stderr)
            return 2

    obs_metrics.reset()
    tracer = obs_trace.tracer()
    was_enabled = tracer.enabled
    tracer.enabled = True
    root = None
    extra: dict = {}
    try:
        with tracer.span(f"cli.{args.experiment}") as root:
            code = _dispatch(args, extra)
    finally:
        tracer.enabled = was_enabled
        if root is not None and root in tracer.roots:
            tracer.roots.remove(root)

    span_dict = root.to_dict()
    fingerprint, seed = _manifest_identity(args)
    manifest_path = obs_manifest.write_manifest(
        command=args.experiment,
        fingerprint=fingerprint,
        seed=seed,
        argv=list(argv) if argv is not None else sys.argv[1:],
        span=span_dict,
        exit_code=code,
        extra=extra or None,
    )
    if manifest_path is not None:
        print(f"[manifest: {manifest_path}]", file=sys.stderr)
    if args.profile:
        print(obs_render.render_hotspots(span_dict), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
