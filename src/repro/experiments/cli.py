"""Command-line interface: ``python -m repro.experiments <command>``.

Examples::

    python -m repro.experiments list
    python -m repro.experiments run platoon/karyon --seeds 10 --jobs 4   # 4 workers
    python -m repro.experiments run platoon --sweep variant=karyon,never_cooperative \\
        -p duration=30 --seeds 5 --store results.jsonl
    python -m repro.experiments report results.jsonl --group-by variant

    # Distributed: coordinator on one host, workers anywhere that sees /spool
    python -m repro.experiments run platoon/karyon --seeds 50 \\
        --spool /spool/platoon --workers 0 --store results.jsonl
    python -m repro.experiments worker /spool/platoon          # on each host
    python -m repro.experiments merge results.jsonl /spool/platoon

    # Shared content-addressed cache across campaigns
    python -m repro.experiments run platoon/karyon --seeds 50 --cache ~/.repro-cache
    python -m repro.experiments cache stats ~/.repro-cache

    # Observability: watch a campaign, tail its event log
    python -m repro.experiments status /spool/platoon --watch
    python -m repro.experiments tail /spool/platoon --follow

    # Tracing: where did the campaign's wall-clock actually go?  `run`
    # prints each cell's build/sim/collect phases; `report` shows them again
    python -m repro.experiments run platoon/karyon --seeds 5 --trace --store s.jsonl
    python -m repro.experiments run platoon/karyon --seeds 50 \\
        --backend spool --spool /spool/platoon --trace
    python -m repro.experiments trace summary /spool/platoon
    python -m repro.experiments trace critical-path /spool/platoon
    python -m repro.experiments trace export /spool/platoon -o trace.json

    # Resilience: chaos-test a campaign, inspect/retry quarantined tasks
    python -m repro.experiments run platoon/karyon --seeds 20 \\
        --backend spool --spool /spool/chaos --faults plan.json --retries 3
    python -m repro.experiments quarantine list /spool/chaos
    python -m repro.experiments quarantine retry /spool/chaos

    # Failure bounds: kill runaway cells, audit and repair a spool
    python -m repro.experiments run platoon/karyon --seeds 50 \\
        --backend spool --spool /spool/platoon --cell-timeout 30
    python -m repro.experiments fsck /spool/platoon --repair
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import logging
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.evaluation.reporting import format_table
from repro.experiments.registry import REGISTRY, UnknownScenarioError, load_builtin_scenarios
from repro.experiments.runner import (
    ParallelCampaignRunner,
    aggregate_records,
    grouped_rows,
)
from repro.experiments.spec import ParameterGrid, ScenarioSpec
from repro.experiments.store import ResultStore
from repro.observability.events import EVENT_KINDS, follow_events, read_events
from repro.observability.progress import (
    CampaignProgress,
    campaign_paths,
    read_progress,
)
from repro.observability.trace import (
    critical_path,
    disable_tracing,
    enable_tracing,
    export_chrome_trace,
    merge_trace_files,
    summarize_trace,
)
from repro.resilience.retry import RetryPolicy

LOG_LEVELS = ("debug", "info", "warning", "error")


class _Spelling(argparse.Action):
    """Store the value and the spelling that set it (``<dest>_flag``), so
    an error names an option with two spellings as it was typed."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        setattr(namespace, f"{self.dest}_flag", option_string)


class _Backend(NamedTuple):
    """One ``run --backend`` choice: its ``module:Class``, the flags it
    accepts (each mapped to the constructor parameter that takes, and
    range-checks, its value) and the arguments ``run`` passes for absent
    flags."""

    constructor: str
    flags: Dict[str, str]
    defaults: Dict[str, Any] = {}


#: ``run``'s backends: which flags each accepts, which one runs by default
#: and how it is built are all read from here.
BACKENDS: Dict[str, _Backend] = {
    "inline": _Backend("repro.experiments.runner:InProcessBackend", {}),
    "spool": _Backend(
        "repro.distributed:SpoolBackend",
        {"--spool": "spool_root", "--jobs": "workers", "--task-size": "task_size",
         "--cell-timeout": "cell_timeout", "--lease-timeout": "lease_timeout",
         "--timeout": "timeout", "--max-respawns": "max_respawns"},
        {"spool_root": None, "workers": 2},
    ),
    "vector": _Backend("repro.vectorized:VectorBatchBackend", {}),
}
_BACKEND_FLAGS = list(dict.fromkeys(flag for row in BACKENDS.values() for flag in row.flags))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Scenario registry, parameter sweeps and parallel campaigns.",
    )
    # Shared by every subcommand (a parent parser, so it appears after the
    # subcommand on the command line: `run ... --log-level debug`).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-level", choices=LOG_LEVELS, default="warning",
        help="stdlib logging threshold for coordinator/worker diagnostics "
        "(default warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list registered scenarios", parents=[common])
    list_parser.add_argument("--tag", help="only scenarios carrying this tag")
    list_parser.add_argument(
        "--params", action="store_true", help="show every parameter with its default"
    )

    run_parser = sub.add_parser("run", help="run a campaign over one scenario", parents=[common])
    run_parser.add_argument("scenario", help="registered scenario name (see `list`)")
    run_parser.add_argument(
        "--seeds", type=int, default=None, metavar="N",
        help="run seeds seed-base..seed-base+N-1 (default: the scenario's seeds)",
    )
    run_parser.add_argument(
        "--seed-base", type=int, default=1, help="first seed when --seeds is used (default 1)"
    )
    run_parser.add_argument(
        "--seed-list", default=None, metavar="S1,S2,...",
        help="explicit comma-separated seed list (overrides --seeds)",
    )
    run_parser.add_argument(
        "--jobs", "--workers", type=int, default=None, metavar="N", action=_Spelling,
        help="spool worker processes the coordinator forks (default 2 with "
        "--spool; 0 waits for hand-started workers).  Without --spool, N >= 2 "
        "runs a spool in a temporary directory, removed after the campaign, "
        "and 1 runs inline",
    )
    run_parser.set_defaults(jobs_flag="--jobs")
    run_parser.add_argument(
        "-p", "--param", action="append", default=[], metavar="NAME=VALUE",
        help="override one scenario parameter (repeatable)",
    )
    run_parser.add_argument(
        "--sweep", action="append", default=[], metavar="NAME=V1,V2,...",
        help="sweep one parameter over several values; repeat for a cartesian grid",
    )
    run_parser.add_argument("--store", default=None, help="JSONL results file (enables resume)")
    run_parser.add_argument(
        "--no-resume", action="store_true",
        help="re-run every cell even when the store already has it",
    )
    run_parser.add_argument(
        "--backend", choices=tuple(BACKENDS), default=None,
        help="execution backend (default: spool with --spool or --jobs N >= 2, "
        "inline otherwise; vector runs homogeneous seed batches in lockstep, "
        "byte-identical to inline)",
    )
    run_parser.add_argument(
        "--spool", default=None, metavar="DIR",
        help="shared-filesystem spool directory, kept after the campaign "
        "(--backend spool needs it or --jobs)",
    )
    run_parser.add_argument(
        "--task-size", type=int, default=None, metavar="N",
        help="spool only: campaign cells per spool task file (default: large "
        "tasks first, shrinking to one cell, sized for the forked workers; "
        "one cell per task with --workers 0)",
    )
    run_parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="spool only: kill any cell exceeding this wall-clock budget; "
        "repeat offenders are quarantined with error_class=CellTimeout",
    )
    run_parser.add_argument(
        "--lease-timeout", type=float, default=None, metavar="SECONDS",
        help="spool only: reclaim a claimed task after this long without a "
        "worker heartbeat (default 60)",
    )
    run_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="spool only: abort a campaign that has not finished after this long",
    )
    run_parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="content-addressed result cache shared across campaigns "
        "(keyed by scenario source + params + seed)",
    )
    run_parser.add_argument(
        "--group-by", default=None, metavar="P1,P2",
        help="extra per-group table over these parameters (default: the swept ones)",
    )
    run_parser.add_argument(
        "--strict", action="store_true", help="exit non-zero when any run failed"
    )
    run_parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="attempts per cell before a transient failure is recorded as "
        "failed (default 3; deterministic errors never retry)",
    )
    run_parser.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="arm this fault-injection plan for the campaign (chaos testing); "
        "spool workers spawned by the coordinator inherit it via the "
        "REPRO_FAULT_PLAN environment variable",
    )
    run_parser.add_argument(
        "--max-respawns", type=int, default=None, metavar="N",
        help="spool only: replace up to N coordinator-spawned workers that "
        "die mid-campaign (default 0)",
    )
    run_parser.add_argument(
        "--trace", action="store_true",
        help="record a distributed span trace (--spool campaigns trace into "
        "the spool directory, others into --trace-dir or <store>.trace/) and "
        "print each executed cell's build/sim/collect phases; explore with "
        "the `trace` subcommand",
    )
    run_parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="trace directory for campaigns without --spool (implies "
        "--trace; default <store>.trace)",
    )

    report_parser = sub.add_parser("report", help="aggregate a JSONL results store", parents=[common])
    report_parser.add_argument("store", help="path to a JSONL store written by `run`")
    report_parser.add_argument("--scenario", default=None, help="only this scenario")
    report_parser.add_argument(
        "--group-by", default=None, metavar="P1,P2", help="group rows by these parameters"
    )
    report_parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output format: human tables (default), CSV rows, or a JSON document",
    )

    worker_parser = sub.add_parser(
        "worker", help="process tasks from a shared-filesystem campaign spool",
        parents=[common],
    )
    worker_parser.add_argument("spool", help="spool directory written by `run --backend spool`")
    worker_parser.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="sleep between claim attempts when the queue is empty (default 0.2)",
    )
    worker_parser.add_argument(
        "--max-tasks", type=int, default=None, metavar="N",
        help="exit after completing N tasks (default: until the campaign completes)",
    )
    worker_parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="exit after this long without claimable work "
        "(default: wait for the completion marker)",
    )
    worker_parser.add_argument(
        "--lease-timeout", type=float, default=None, metavar="SECONDS",
        help="override the coordinator-published lease timeout used when "
        "reclaiming dead peers' tasks",
    )
    worker_parser.add_argument(
        "--import", dest="imports", action="append", default=[], metavar="MODULE",
        help="import MODULE before working so its scenarios register (repeatable)",
    )
    worker_parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="attempts per cell before a transient failure is recorded as "
        "failed (default 3)",
    )
    worker_parser.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="arm this fault-injection plan in this worker process",
    )
    worker_parser.add_argument(
        "--quiet", action="store_true", help="suppress the exit summary"
    )

    merge_parser = sub.add_parser(
        "merge", help="merge spool result shards or other stores into a JSONL store",
        description="A spool's cells settle by the rule its campaign's store used: "
        "the first verified shard by task id wins a cell, a verified shard beats a "
        "quarantine failure, and a quarantined cell no shard covers keeps its failed "
        "record.  So merging a finished campaign's spool reproduces its store.",
        parents=[common],
    )
    merge_parser.add_argument("dest", help="destination JSONL store (created if absent)")
    merge_parser.add_argument(
        "sources", nargs="+", metavar="SOURCE",
        help="spool directories and/or JSONL stores to merge in, in order",
    )

    cache_parser = sub.add_parser(
        "cache", help="inspect or clear a content-addressed result cache",
        parents=[common],
    )
    cache_parser.add_argument("action", choices=("stats", "clear"))
    cache_parser.add_argument("dir", help="cache directory")

    quarantine_parser = sub.add_parser(
        "quarantine",
        help="inspect or re-queue poison tasks parked by a spool campaign",
        parents=[common],
    )
    quarantine_parser.add_argument("action", choices=("list", "retry"))
    quarantine_parser.add_argument("spool", help="spool directory")
    quarantine_parser.add_argument(
        "tasks", nargs="*", metavar="TASK_ID",
        help="retry only: specific task ids to re-queue "
        "(default: every quarantined task)",
    )

    fsck_parser = sub.add_parser(
        "fsck",
        help="audit a campaign spool for torn shards, orphaned/expired "
        "leases and quarantine-ledger inconsistencies",
        parents=[common],
    )
    fsck_parser.add_argument("spool", help="spool directory")
    fsck_parser.add_argument(
        "--repair", action="store_true",
        help="apply the coordinator's recovery paths (drop torn shards, "
        "retire settled/expired claims, lift completed quarantine entries)",
    )
    fsck_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the audit document instead of tables",
    )

    status_parser = sub.add_parser(
        "status",
        help="show a campaign's progress.json (spool dir, store path, or the "
        "progress file itself)",
        parents=[common],
    )
    status_parser.add_argument(
        "target", help="spool directory, result store path, or progress.json file"
    )
    status_parser.add_argument(
        "--watch", action="store_true",
        help="keep polling and printing until the campaign completes",
    )
    status_parser.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="poll interval for --watch (default 1.0)",
    )
    status_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the raw progress document instead of a summary line",
    )

    tail_parser = sub.add_parser(
        "tail", help="print a campaign's event log (spool dir or events.jsonl path)",
        parents=[common],
    )
    tail_parser.add_argument("target", help="spool directory or events.jsonl file")
    tail_parser.add_argument(
        "-n", "--lines", type=int, default=20, metavar="N",
        help="show the last N events (default 20; <= 0 shows all)",
    )
    tail_parser.add_argument(
        "--follow", action="store_true",
        help="keep printing new events as they are appended (Ctrl-C to stop)",
    )
    tail_parser.add_argument(
        "--kind", action="append", default=[], metavar="KIND",
        help=f"only these event kinds (repeatable; known: {', '.join(sorted(EVENT_KINDS))})",
    )

    trace_parser = sub.add_parser(
        "trace",
        help="explore a campaign trace recorded with `run --trace`",
        parents=[common],
    )
    trace_parser.add_argument(
        "action", choices=("export", "summary", "critical-path"),
        help="export: Chrome trace-event JSON (chrome://tracing, "
        "ui.perfetto.dev); summary: per-phase totals, slowest cells, "
        "stragglers; critical-path: the span chain bounding wall-clock "
        "with idle-gap attribution",
    )
    trace_parser.add_argument(
        "target", help="trace directory, spool directory, or store path"
    )
    trace_parser.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="export only: output path (default <trace dir>/trace.json)",
    )
    trace_parser.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="summary only: slowest cells to list (default 5)",
    )
    trace_parser.add_argument(
        "--straggler-k", type=float, default=3.0, metavar="K",
        help="summary only: flag cells slower than K times the median "
        "cell (default 3.0)",
    )
    trace_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="summary/critical-path: print the full JSON document",
    )
    return parser


def _parse_assignment(text: str) -> List[str]:
    if "=" not in text:
        raise ValueError(f"expected NAME=VALUE, got {text!r}")
    name, _, value = text.partition("=")
    return [name.strip(), value]


def _parse_params(spec: ScenarioSpec, assignments: Sequence[str]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for assignment in assignments:
        name, value = _parse_assignment(assignment)
        params[name] = spec.parameter(name).coerce(value)
    return params


def _parse_sweep(spec: ScenarioSpec, assignments: Sequence[str]) -> Optional[ParameterGrid]:
    if not assignments:
        return None
    axes: Dict[str, List[Any]] = {}
    for assignment in assignments:
        name, values = _parse_assignment(assignment)
        parameter = spec.parameter(name)
        axes[name] = [parameter.coerce(value) for value in values.split(",")]
    return ParameterGrid(axes)


def _parse_seeds(args: argparse.Namespace) -> Optional[List[int]]:
    if args.seed_list:
        return [int(part) for part in args.seed_list.split(",") if part.strip()]
    if args.seeds is not None:
        if args.seeds <= 0:
            raise ValueError("--seeds must be positive")
        return list(range(args.seed_base, args.seed_base + args.seeds))
    return None


def _cmd_list(args: argparse.Namespace) -> int:
    load_builtin_scenarios()
    rows = []
    for spec in REGISTRY.specs():
        if args.tag and args.tag not in spec.tags:
            continue
        row: Dict[str, Any] = {
            "scenario": spec.name,
            "description": spec.description[:58],
            "seeds": ",".join(str(seed) for seed in spec.default_seeds),
        }
        if args.params:
            row["parameters"] = " ".join(
                f"{parameter.name}={parameter.default}" for parameter in spec.parameters
            )
        else:
            row["parameters"] = str(len(spec.parameters))
        rows.append(row)
    print(format_table(rows, title=f"registered scenarios ({len(rows)})"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    load_builtin_scenarios()
    try:
        spec = REGISTRY.get(args.scenario)
    except UnknownScenarioError as exc:
        return _usage(f"{exc.args[0]}\nknown scenarios: {', '.join(REGISTRY.names())}")
    try:
        params = _parse_params(spec, args.param)
        sweep = _parse_sweep(spec, args.sweep)
        seeds = _parse_seeds(args)
    except (KeyError, ValueError) as exc:
        return _usage(exc.args[0] if exc.args else exc)

    # `--jobs 1` runs inline, unless it asks for one worker on a spool.
    given = [flag for flag in _BACKEND_FLAGS if getattr(args, _dest(flag)) is not None]
    name = args.backend or ("spool" if args.spool or args.jobs not in (None, 1) else "inline")
    row = BACKENDS[name]
    rejected = [
        flag for flag in given if flag not in row.flags and (flag, args.jobs) != ("--jobs", 1)
    ]
    if rejected:
        homes = [other for other, each in BACKENDS.items() if set(rejected) & set(each.flags)]
        verb = "applies" if len(rejected) == 1 else "apply"
        shown = ", ".join(args.jobs_flag if flag == "--jobs" else flag for flag in rejected)
        return _usage(f"{shown} only {verb} to --backend {', '.join(homes)} (not {name})")
    if name == "spool" and not args.spool and args.jobs is None:
        return _usage("--backend spool requires --spool DIR or --jobs N")
    if args.spool and args.trace_dir:
        return _usage(
            "--spool campaigns always trace into the spool directory (workers "
            "append there); drop --trace-dir"
        )
    if args.trace and not (args.spool or args.trace_dir or args.store):
        return _usage(
            "--trace needs somewhere to write: add --store, --trace-dir or --spool"
        )
    trace_dir: Optional[Path] = None
    if args.spool and args.trace:
        trace_dir = Path(args.spool)
    elif args.trace_dir:
        trace_dir = Path(args.trace_dir)
    elif args.trace:
        trace_dir = campaign_paths(args.store).trace

    module, _, constructor = row.constructor.partition(":")
    options = {**row.defaults, "retry_policy": None}
    for flag, parameter in row.flags.items():
        if getattr(args, _dest(flag)) is not None:
            options[parameter] = getattr(args, _dest(flag))
    try:
        if args.retries is not None:
            options["retry_policy"] = RetryPolicy(max_attempts=args.retries)
        backend = getattr(importlib.import_module(module), constructor)(**options)
    except ValueError as exc:
        flags = {**row.flags, "--retries": "max_attempts"}
        return _usage(
            _flag_error(exc, {args.jobs_flag if f == "--jobs" else f: p for f, p in flags.items()})
        )
    if args.faults and _arm_fault_plan(args.faults, export=name == "spool") != 0:
        return 2

    cache = None
    if args.cache:
        from repro.distributed import CacheIndex

        cache = CacheIndex(args.cache)

    trace_id = None
    if trace_dir is not None:
        trace_id = enable_tracing(
            trace_dir, source="coordinator" if name == "spool" else "runner"
        )

    # The tracer is process-global: whoever calls ``main`` in-process must
    # not find it still recording into this campaign's directory.
    try:
        store = ResultStore(args.store) if args.store else None
        runner = ParallelCampaignRunner(
            store=store, resume=not args.no_resume, backend=backend, cache=cache
        )
        # Only a spool campaign fails as a whole (a timeout, a lost shard).
        campaign_errors: Tuple[type, ...] = ()
        if name == "spool":
            from repro.distributed import SpoolDispatchError

            campaign_errors = (SpoolDispatchError,)
        try:
            result = runner.run(spec, params=params, sweep=sweep, seeds=seeds)
        except campaign_errors as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

        cached_part = f", {result.cached} cached" if cache is not None else ""
        print(
            f"{spec.name}: {result.run_count} runs "
            f"({result.executed} executed, {result.reused} reused{cached_part}, "
            f"{result.failures} failed) backend={result.backend} "
            f"jobs={getattr(backend, 'workers', 1)}"
        )
        if name == "vector":
            print(backend.stats.summary())
        if cache is not None:
            session = cache.session_stats()
            repair_part = (
                f", {session['repairs']} repair(s)" if session.get("repairs") else ""
            )
            print(
                f"cache: {session['hits']} hit(s), {session['misses']} miss(es), "
                f"{session['puts']} put(s){repair_part} this campaign"
            )
        print()
        print(format_table(result.aggregate_rows(), title=f"{spec.name}: aggregate metrics"))
        group_by = [part for part in (args.group_by or "").split(",") if part]
        if not group_by and sweep is not None:
            group_by = list(sweep.axes)
        if group_by:
            print()
            print(
                format_table(
                    result.grouped_rows(by=group_by),
                    title=f"{spec.name}: per-{','.join(group_by)} means",
                )
            )
        if result.failures:
            print()
            print(format_table(result.failure_rows(), title="failed runs"))
        if trace_dir is not None:
            spans = [span for span in merge_trace_files(trace_dir) if span.get("trace") == trace_id]
            print()
            _print_cell_phases(spans, f"{spec.name}: cell phases of trace {trace_id}")
            print()
            print(
                f"trace {trace_id} recorded in {trace_dir} "
                f"(trace-*.jsonl); inspect with "
                f"`trace summary {trace_dir}` / `trace export {trace_dir}`"
            )
        if args.store:
            print()
            print(f"results stored in {args.store} (re-run to resume)")
        return 1 if (args.strict and result.failures) else 0
    finally:
        if trace_dir is not None:
            disable_tracing()


def _usage(message: object) -> int:
    """Report a usage error; returns the exit status for it."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _flag_error(exc: ValueError, flags: Mapping[str, str]) -> str:
    """``exc``'s message with the parameter it opens with replaced by its
    flag (``flags`` maps flag -> parameter); re-raises ``exc`` when the
    message names none of them."""
    message = str(exc)
    for flag, parameter in flags.items():
        if message.startswith(f"{parameter} "):
            return f"{flag}{message[len(parameter):]}"
    raise exc


def _arm_fault_plan(path: str, export: bool) -> int:
    """Load and arm a fault plan; optionally export it to child processes.

    With ``export`` the resolved path also lands in ``REPRO_FAULT_PLAN`` so
    spool workers forked by the coordinator re-arm the same plan, with
    fresh counters, when they start (their injection generation comes from
    ``REPRO_FAULT_GENERATION``, which the coordinator sets per spawn).
    """
    from repro.resilience import PLAN_ENV, FaultPlan, arm

    try:
        plan = FaultPlan.load(path)
    except (OSError, ValueError, KeyError) as exc:
        return _usage(f"could not load fault plan {path}: {exc}")
    arm(plan)
    if export:
        os.environ[PLAN_ENV] = str(Path(path).resolve())
    logging.getLogger(__name__).warning(
        "fault plan armed from %s (%d rule(s))", path, len(plan.rules)
    )
    return 0


def _report_rows(
    by_scenario: Dict[str, List], group_by: Sequence[str]
) -> List[Dict[str, Any]]:
    """Flat rows for machine-readable report formats (one table, all scenarios)."""
    rows: List[Dict[str, Any]] = []
    for name in sorted(by_scenario):
        records = by_scenario[name]
        if group_by:
            for row in grouped_rows(records, by=group_by):
                rows.append({"scenario": name, **row})
            continue
        runs = len(records)
        failed = runs - sum(1 for record in records if record.ok)
        emitted = False
        for metric, stats in aggregate_records(records).items():
            if stats.get("count"):
                rows.append(
                    {"scenario": name, "metric": metric, **stats,
                     "runs": runs, "failed": failed}
                )
                emitted = True
        if not emitted:
            # All runs failed (or carried no numeric metrics): still surface
            # the scenario so the CSV distinguishes this from an empty store.
            rows.append({"scenario": name, "metric": "", "runs": runs, "failed": failed})
    return rows


def _print_report_csv(rows: List[Dict[str, Any]]) -> None:
    fieldnames: List[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)


def _print_report_json(by_scenario: Dict[str, List], group_by: Sequence[str]) -> None:
    document: Dict[str, Any] = {}
    for name in sorted(by_scenario):
        records = by_scenario[name]
        ok = [record for record in records if record.ok]
        entry: Dict[str, Any] = {
            "runs": len(records),
            "failed": len(records) - len(ok),
            "aggregates": {
                metric: stats
                for metric, stats in aggregate_records(records).items()
                if stats.get("count")
            },
        }
        if group_by:
            entry["groups"] = grouped_rows(records, by=group_by)
        document[name] = entry
    print(json.dumps(document, indent=2, sort_keys=True))


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    records = store.records()
    if args.scenario:
        records = [record for record in records if record.scenario == args.scenario]
    if not records:
        suffix = f" for scenario {args.scenario!r}" if args.scenario else ""
        print(f"no records in {args.store}{suffix}")
        return 1
    by_scenario: Dict[str, List] = {}
    for record in records:
        by_scenario.setdefault(record.scenario, []).append(record)
    group_by = [part for part in (args.group_by or "").split(",") if part]
    if args.format == "csv":
        _print_report_csv(_report_rows(by_scenario, group_by))
        return 0
    if args.format == "json":
        _print_report_json(by_scenario, group_by)
        return 0
    for name in sorted(by_scenario):
        scenario_records = by_scenario[name]
        ok = [record for record in scenario_records if record.ok]
        failed = len(scenario_records) - len(ok)
        print(f"{name}: {len(scenario_records)} runs ({failed} failed)")
        aggregates = aggregate_records(scenario_records)
        rows = [
            {"metric": metric, **stats} for metric, stats in aggregates.items() if stats["count"]
        ]
        print(format_table(rows, title=f"{name}: aggregate metrics"))
        if group_by:
            print()
            print(
                format_table(
                    grouped_rows(scenario_records, by=group_by),
                    title=f"{name}: per-{','.join(group_by)} means",
                )
            )
        if failed:
            failure_rows = [
                {
                    "seed": record.seed,
                    "attempts": record.attempts,
                    "error_class": record.error_class or "?",
                    "error": (record.error or "")[:60],
                    "params": json.dumps(record.params, sort_keys=True),
                }
                for record in scenario_records
                if not record.ok
            ]
            print()
            print(format_table(failure_rows, title=f"{name}: failed runs"))
        print()
    _print_campaign_sidecar(args.store)
    _print_trace_phases(args.store)
    return 0


def _print_campaign_sidecar(store_path: str) -> None:
    """Surface the last campaign's backend.

    Reads the `<store>.progress.json` sidecar the runner maintains.
    """
    progress = read_progress(campaign_paths(store_path).progress)
    if progress is None:
        return
    print(f"last campaign: backend={progress.backend}")
    print()


def _recorded_trace_dir(target: str) -> Path:
    """The trace directory of the campaign ``target`` names: the one its
    progress file records (a ``--spool`` or ``--trace-dir`` campaign's),
    else the default (``<store>.trace/``, or the spool itself)."""
    paths = campaign_paths(target)
    progress = read_progress(paths.progress)
    if progress is not None and progress.trace_dir:
        return Path(progress.trace_dir)
    return paths.trace


def _print_trace_phases(store_path: str) -> None:
    """Surface the cell phases of the newest trace the store's campaign
    recorded (see :func:`_recorded_trace_dir`)."""
    trace_dir = _recorded_trace_dir(store_path)
    spans = merge_trace_files(trace_dir)
    if not spans:
        return
    newest = max(spans, key=lambda span: float(span["ts"])).get("trace")
    _print_cell_phases(
        [span for span in spans if span.get("trace") == newest],
        f"cell phases of trace {newest} ({trace_dir.name})",
    )
    print()


def _print_cell_phases(spans: Sequence[Dict[str, Any]], title: str) -> None:
    """Print the cell-phase table of ``spans`` (see :func:`summarize_trace`)
    in milliseconds."""
    rows = summarize_trace(spans)["cell_phases"]
    if not rows:
        print(f"{title}: no phase spans (no cell executed)")
        return
    stats = ("total", "mean", "p50", "p95", "max")
    shown = [
        {"phase": row["phase"], "count": row["count"],
         **{f"{stat}_ms": row[f"{stat}_s"] * 1e3 for stat in stats}}
        for row in rows
    ]
    print(format_table(shown, title=title))


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.distributed import run_worker

    if args.poll <= 0:
        return _usage("--poll must be positive")
    if args.faults and _arm_fault_plan(args.faults, export=False) != 0:
        return 2
    try:
        stats = run_worker(
            args.spool,
            poll_interval=args.poll,
            max_tasks=args.max_tasks,
            idle_timeout=args.idle_timeout,
            lease_timeout=args.lease_timeout,
            scenario_modules=args.imports,
            retry_policy=None if args.retries is None else RetryPolicy(max_attempts=args.retries),
        )
    except ValueError as exc:
        return _usage(
            _flag_error(exc, {"--retries": "max_attempts", "--lease-timeout": "lease_timeout"})
        )
    if not args.quiet:
        print(
            f"{stats.worker_id}: {stats.tasks_completed} tasks, "
            f"{stats.runs_executed} runs executed, "
            f"{stats.failures} failed runs"
        )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.distributed import Spool, merge_spool_results

    dest = ResultStore(args.dest)
    total = 0
    for source in args.sources:
        source_path = Path(source)
        if source_path.is_dir():
            spool = Spool(source_path)
            if not spool.exists():
                return _usage(f"{source} is not a campaign spool")
            merged = dest.merge(merge_spool_results(spool))
        elif source_path.is_file():
            merged = dest.merge_store(ResultStore(source_path))
        else:
            return _usage(f"no such store or spool: {source}")
        print(f"{source}: merged {merged} new record(s)")
        total += merged
    print(f"{args.dest}: {len(dest)} record(s) total (+{total})")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.distributed import CacheIndex

    cache = CacheIndex(args.dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"{args.dir}: removed {removed} cached record(s)")
        return 0
    stats = cache.stats()
    print(f"{args.dir}: {stats['entries']} cached record(s), {stats['bytes']} bytes")
    lifetime = stats.get("lifetime", {})
    if any(lifetime.values()):
        repair_part = (
            f", {lifetime['repairs']} repair(s)" if lifetime.get("repairs") else ""
        )
        print(
            f"lifetime: {lifetime.get('hits', 0)} hit(s), "
            f"{lifetime.get('misses', 0)} miss(es), {lifetime.get('puts', 0)} put(s)"
            f"{repair_part}"
        )
    return 0


def _cmd_quarantine(args: argparse.Namespace) -> int:
    from repro.distributed import Spool

    spool = Spool(args.spool)
    if not spool.exists():
        return _usage(f"{args.spool} is not a campaign spool")
    quarantined = spool.quarantined_task_ids()
    if args.action == "list":
        if args.tasks:
            return _usage("`quarantine list` takes no task ids")
        if not quarantined:
            print(f"{args.spool}: quarantine is empty")
            return 0
        rows: List[Dict[str, Any]] = []
        for task_id in quarantined:
            row: Dict[str, Any] = {
                "task": task_id,
                "failed_claims": spool.reclaim_count(task_id),
            }
            try:
                task = spool.read_quarantined_task(task_id)
            except (OSError, ValueError, KeyError):
                row["scenario"] = "?"
                row["cells"] = "?"
            else:
                row["scenario"] = task.scenario
                row["cells"] = len(task.cells)
            rows.append(row)
        print(format_table(rows, title=f"{args.spool}: {len(rows)} quarantined task(s)"))
        return 0
    missing = sorted(set(args.tasks) - set(quarantined))
    if missing:
        return _usage(f"not quarantined: {', '.join(missing)}")
    wanted = args.tasks or quarantined
    if not wanted:
        print(f"{args.spool}: quarantine is empty; nothing to retry")
        return 0
    failures = 0
    for task_id in wanted:
        if spool.quarantine_retry(task_id):
            print(f"{task_id}: re-queued (attempt ledger reset)")
        else:
            failures += 1
            print(f"error: could not re-queue {task_id}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.distributed import Spool, fsck_spool

    spool = Spool(args.spool)
    if not spool.exists():
        print(f"{args.spool}: not a campaign spool (missing tasks/ or results/)")
        return 1
    report = fsck_spool(spool, repair=args.repair)
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        if report["issues"]:
            print(
                format_table(
                    report["issues"],
                    title=f"{args.spool}: {len(report['issues'])} issue(s)",
                )
            )
        else:
            print(f"{args.spool}: clean (no issues found)")
        for action in report["repaired"]:
            print(f"repaired: {action}")
        if report["issues"] and not args.repair:
            print("re-run with --repair to apply the recovery paths")
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# status / tail
# ---------------------------------------------------------------------------


def _format_progress(progress: CampaignProgress) -> str:
    state = "complete" if progress.complete else "running"
    parts = [
        f"{progress.scenario} [{progress.backend}] {state}:",
        f"{progress.done}/{progress.total} done",
    ]
    detail = [f"{progress.failed} failed"] if progress.failed else []
    if progress.cached:
        detail.append(f"{progress.cached} cached")
    if progress.reused:
        detail.append(f"{progress.reused} reused")
    if detail:
        parts.append(f"({', '.join(detail)})")
    if not progress.complete:
        parts.append(f"{progress.running} running, {progress.pending} pending")
        if progress.throughput_rps:
            rate = f"| {progress.throughput_rps:.2f} cells/s"
            if progress.throughput_ewma_rps:
                rate += f" (ewma {progress.throughput_ewma_rps:.2f})"
            parts.append(rate)
        if progress.eta_s is not None:
            eta = f"eta {progress.eta_s:.0f}s"
            if progress.eta_smoothed_s is not None:
                eta += f" (ewma {progress.eta_smoothed_s:.0f}s)"
            parts.append(eta)
    return " ".join(parts)


def _format_worker(worker_id: str, worker: Dict[str, Any]) -> str:
    """One worker's status line.  Its age is measured now, from its last
    event's ``ts``, not frozen at the snapshot; an entry without ``ts``
    falls back to its ``age_s``."""
    state = worker.get("state", "?")
    bits = [f"  {worker_id}: {state}"]
    task = worker.get("current_task")
    if state == "running" and task:
        bits.append(f"on {task}")
    counts = [
        f"{worker.get('tasks_completed', 0)} tasks",
        f"{worker.get('runs_executed', 0)} runs",
    ]
    timeouts = worker.get("timeouts", 0)
    if isinstance(timeouts, int) and timeouts > 0:
        counts.append(f"{timeouts} timeout(s)")
    dropped = worker.get("events_dropped", 0)
    if isinstance(dropped, int) and dropped > 0:
        counts.append(f"{dropped} dropped event(s)")
    stamp = worker.get("ts")
    if isinstance(stamp, (int, float)):
        age = max(0.0, time.time() - stamp)
    else:
        age = worker.get("age_s")
    if isinstance(age, (int, float)):
        counts.append(f"last event {age:.1f}s ago")
    bits.append(f"({', '.join(counts)})")
    return " ".join(bits)


def _print_status(progress: CampaignProgress, as_json: bool) -> None:
    if as_json:
        print(json.dumps(progress.to_json_dict(), indent=2, sort_keys=True))
        return
    print(_format_progress(progress))
    dropped_total = 0
    for worker_id in sorted(progress.workers):
        print(_format_worker(worker_id, progress.workers[worker_id]))
        dropped = progress.workers[worker_id].get("events_dropped", 0)
        if isinstance(dropped, int) and dropped > 0:
            dropped_total += dropped
    if dropped_total:
        print(
            f"warning: {dropped_total} event(s) dropped from the event log "
            "(events.jsonl unwritable?); counts above remain accurate",
            file=sys.stderr,
        )


def _cmd_status(args: argparse.Namespace) -> int:
    path = campaign_paths(args.target).progress
    if args.interval <= 0:
        return _usage("--interval must be positive")
    if not args.watch:
        progress = read_progress(path)
        if progress is None:
            print(f"no progress file at {path} (campaign not started?)", file=sys.stderr)
            return 1
        _print_status(progress, args.as_json)
        return 0
    try:
        while True:
            progress = read_progress(path)
            if progress is None:
                print(f"waiting for {path} ...")
            else:
                _print_status(progress, args.as_json)
                if progress.complete:
                    return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 130


def _format_event(event: Dict[str, Any]) -> str:
    stamp = event.get("ts")
    clock = (
        time.strftime("%H:%M:%S", time.localtime(stamp))
        if isinstance(stamp, (int, float))
        else "--:--:--"
    )
    source = str(event.get("source", "-"))
    kind = str(event.get("kind", "?"))
    rest = " ".join(
        f"{key}={event[key]}"
        for key in sorted(event)
        if key not in ("ts", "source", "kind")
    )
    return f"{clock} {source:<16} {kind:<16} {rest}".rstrip()


def _cmd_tail(args: argparse.Namespace) -> int:
    paths = campaign_paths(args.target)
    if not paths.spool:
        return _usage(
            f"{args.target} is not a spool directory: only a spool campaign keeps "
            "an event log, so tail its --spool DIR (or DIR/events.jsonl)"
        )
    path = paths.events
    unknown = sorted(set(args.kind) - EVENT_KINDS)
    if unknown:
        return _usage(
            f"unknown event kind(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(EVENT_KINDS))})"
        )
    kinds = set(args.kind) or None
    events = read_events(path, kinds=kinds)
    if not events and not path.exists() and not args.follow:
        print(f"no event log at {path}", file=sys.stderr)
        return 1
    shown = events[-args.lines :] if args.lines > 0 else events
    for event in shown:
        print(_format_event(event))
    if not args.follow:
        return 0
    try:
        # follow_events replays the file from the start: skip everything the
        # initial read already covered and print only genuinely new events.
        for position, event in enumerate(follow_events(path, kinds=kinds)):
            if position < len(events):
                continue
            print(_format_event(event), flush=True)
    except KeyboardInterrupt:
        return 130
    return 0


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def _cmd_trace(args: argparse.Namespace) -> int:
    trace_dir = _recorded_trace_dir(args.target)
    spans = merge_trace_files(trace_dir)
    if not spans:
        print(
            f"no trace files (trace-*.jsonl) in {trace_dir} "
            "(was the campaign run with --trace?)",
            file=sys.stderr,
        )
        return 1

    if args.action == "export":
        document = export_chrome_trace(spans)
        output = Path(args.output) if args.output else trace_dir / "trace.json"
        output.write_text(json.dumps(document) + "\n", encoding="utf-8")
        print(
            f"{output}: {len(document['traceEvents'])} trace event(s) "
            "(load in chrome://tracing or https://ui.perfetto.dev)"
        )
        return 0

    if args.action == "summary":
        summary = summarize_trace(spans, top=args.top, straggler_k=args.straggler_k)
        if args.as_json:
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        print(
            f"{trace_dir}: {summary['spans']} span(s) from "
            f"{summary['processes']} process(es), {summary['cells']} cell(s), "
            f"median cell {summary['median_cell_s']:.3f}s"
        )
        phase_rows = [
            {
                "cat": row["cat"],
                "name": row["name"],
                "count": row["count"],
                "total_s": round(row["total_s"], 4),
                "max_s": round(row["max_s"], 4),
            }
            for row in summary["phases"]
        ]
        print()
        print(format_table(phase_rows, title="per-phase wall seconds"))
        if summary["cell_phases"]:
            print()
            _print_cell_phases(spans, "cell phases")
        if summary["slowest_cells"]:
            print()
            print(
                format_table(
                    summary["slowest_cells"],
                    title=f"slowest {len(summary['slowest_cells'])} cell(s)",
                )
            )
        print()
        if summary["stragglers"]:
            print(
                format_table(
                    summary["stragglers"],
                    title=f"stragglers (> {args.straggler_k:g} x median = "
                    f"{summary['straggler_threshold_s']:.3f}s)",
                )
            )
        else:
            print(f"no stragglers (> {args.straggler_k:g} x median)")
        return 0

    path = critical_path(spans)
    if args.as_json:
        print(json.dumps(path, indent=2, sort_keys=True))
        return 0
    if not path["chain"] and not path["gaps"]:
        print("no work spans (cell/task/batch) in the trace", file=sys.stderr)
        return 1
    print(
        f"wall-clock {path['wall_clock_s']:.3f}s = "
        f"{path['covered_s']:.3f}s on the critical chain "
        f"+ {path['idle_s']:.3f}s idle"
    )
    print()
    chain_rows = [
        {
            "start_s": entry["start_s"],
            "dur_s": entry["dur_s"],
            "cat": entry["cat"],
            "span": entry["name"],
            "worker": entry["worker"],
        }
        for entry in path["chain"]
    ]
    print(format_table(chain_rows, title=f"critical chain ({len(chain_rows)} span(s))"))
    if path["gaps"]:
        print()
        print(
            format_table(
                path["gaps"],
                title=f"idle gaps ({len(path['gaps'])}, {path['idle_s']:.3f}s total)",
            )
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
        force=True,
    )
    # Subcommand NAME is handled by ``_cmd_NAME``.
    return globals()[f"_cmd_{args.command}"](args)
