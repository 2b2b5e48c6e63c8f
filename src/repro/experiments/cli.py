"""Command-line entry point: regenerate the paper's figures.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig3-markov
    python -m repro.experiments all --quick
    repro-experiments fig6            # console script

Reliability tooling (docs/RELIABILITY.md)::

    repro-experiments fig4 --workers 4 --chaos seed=7,poison=0.2 --retry 3
    repro-experiments run-sweep --case rpc --phase markovian \
        --parameter shutdown_timeout --values 0.5,2,11,25 \
        --checkpoint journal.jsonl --output series.json
    repro-experiments trace-summary trace.jsonl

Observability tooling (docs/OBSERVABILITY.md)::

    repro-experiments fig4 --metrics-out out/fig4   # + out/fig4.{prom,json}
    repro-experiments metrics                       # metric catalog
    repro-experiments metrics out/fig4.json         # inspect an export
    repro-experiments fig4 -vv                      # debug logging (stderr)
    repro-experiments run-sweep ... --trace-out trace.jsonl --ledger
    repro-experiments trace-summary trace.jsonl --check
    repro-experiments runs list                     # the run ledger
    repro-experiments runs diff last~1 last         # phase/metric deltas

Simulation tooling (docs/SIMULATION.md)::

    repro-experiments run-sweep --case rpc --phase general --paired \
        --parameter shutdown_timeout --values 0.5,5,15
    repro-experiments run-sweep --case rpc --phase general --rare \
        --parameter shutdown_timeout --values 4,8 --levels 2 --splits 2

Workload tooling (docs/WORKLOADS.md)::

    repro-experiments workload generate --generator mmpp:2,0.05,5,50 \
        --events 5000 --rescale-mean 9.7 --out trace.jsonl
    repro-experiments workload fit trace.jsonl --out fit.json
    repro-experiments workload replay trace.jsonl --case rpc --mode cycle
    repro-experiments fig7 --workload trace:trace.jsonl:cycle
    repro-experiments fig7 --workload pareto:1.5,3.23

*Product* output (reports, JSON series, tables) goes to stdout;
diagnostics go through the ``repro.*`` logger on stderr
(``--verbose`` / ``$REPRO_LOG``), so piped output stays clean.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from ..casestudies import rpc, streaming
from ..casestudies.fleet import DEFAULT_FLEET_SIZE, POLICIES
from ..core.methodology import IncrementalMethodology
from ..fleet import REPRESENTATIONS, FleetAssessment
from ..core.reporting import format_table
from ..ctmc.solvers import solver_choices
from ..errors import CheckpointError, RuntimeExecutionError
from ..obs import (
    CATALOG,
    configure_logging,
    emit,
    get_logger,
    get_registry,
    load_json_export,
    write_exports,
)
from ..obs import tracing
from ..obs.ledger import (
    LedgerError,
    RunLedger,
    condense_metrics,
    default_ledger_path,
    diff_entries,
    render_diff,
    render_entries_table,
    render_entry,
)
from ..runtime import FaultInjector, RetryPolicy
from ..errors import WorkloadError
from ..workload import (
    TraceReplay,
    fit_trace,
    parse_generator_spec,
    parse_workload,
)
from ..workload import read_trace as read_workload_trace
from ..workload import write_trace as write_workload_trace
from .registry import all_experiments
from .results import RunOptions

_CASES = {"rpc": rpc.family, "streaming": streaming.family}

_LOG = get_logger("cli")


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """Options shared by experiment runs and ``run-sweep``."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for sweeps/replications (0 = auto-detect; "
            "results are identical to --workers 1)"
        ),
    )
    parser.add_argument(
        "--retry",
        type=int,
        default=None,
        metavar="N",
        help=(
            "max attempts per sweep point / replication before raising "
            "RetryBudgetExceededError (default: one attempt, and a failing "
            "task raises its own error)"
        ),
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help=(
            "deterministic fault injection, e.g. "
            "'seed=7,kill=0.1,poison=0.2,delay=0.5,delay-seconds=0.05' "
            "(see FaultInjector.parse); without --retry the first injected "
            "failure ends the run"
        ),
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help=(
            "record a hierarchical span trace to FILE (JSONL), plus "
            "FILE.perfetto.json and FILE.otlp.json when the run "
            "finishes (docs/OBSERVABILITY.md)"
        ),
    )
    parser.add_argument(
        "--ledger",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help=(
            "append a run-ledger entry when done, to FILE or (with no "
            "FILE) to $REPRO_LEDGER / .repro-runs.jsonl; inspect with "
            "'repro-experiments runs'"
        ),
    )
    parser.add_argument(
        "--solver",
        default=None,
        choices=solver_choices(),
        help=(
            "steady-state backend for Markovian solves (default: "
            "$REPRO_SOLVER or 'auto' size/sparsity selection; every "
            "solve records its backend and residual — docs/SOLVERS.md)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PREFIX",
        help=(
            "export the run's metrics as PREFIX.prom (Prometheus text) "
            "and PREFIX.json when done (docs/OBSERVABILITY.md)"
        ),
    )
    parser.add_argument(
        "--workload",
        default=None,
        metavar="SPEC",
        help=(
            "workload injected at the case study's hook in the general "
            "phase: a distribution spec ('pareto:1.5,3.23', "
            "'exp:0.103') or a trace replay ('trace:FILE[:MODE]', mode "
            "bootstrap or cycle — docs/WORKLOADS.md)"
        ),
    )
    parser.add_argument(
        "-v", "--verbose",
        action="count",
        default=0,
        help=(
            "diagnostic logging on stderr (-v info, -vv debug; "
            "baseline via $REPRO_LOG)"
        ),
    )


def _run_options(args: argparse.Namespace) -> RunOptions:
    """Build the RunOptions an argparse namespace describes.

    Also installs the logging configuration the namespace asks for —
    every command path funnels through here before doing work.
    """
    configure_logging(args.verbose)
    retry = None
    if args.retry is not None:
        retry = RetryPolicy(max_attempts=args.retry)
    faults = FaultInjector.parse(args.chaos) if args.chaos else None
    workload = None
    if getattr(args, "workload", None):
        try:
            workload = parse_workload(args.workload)
        except WorkloadError as error:
            raise SystemExit(f"--workload: {error}") from None
    span_tracer = None
    if getattr(args, "trace_out", None):
        span_tracer = tracing.Tracer(args.trace_out)
        tracing.set_tracer(span_tracer)
    ledger = getattr(args, "ledger", None)
    if ledger is not None:
        ledger = ledger or default_ledger_path()
    return RunOptions(
        workers=args.workers,
        retry=retry,
        faults=faults,
        solver=args.solver,
        metrics_out=args.metrics_out,
        verbose=args.verbose,
        workload=workload,
        trace_out=getattr(args, "trace_out", None),
        ledger=ledger,
        span_tracer=span_tracer,
    )


def _export_metrics(options: RunOptions) -> None:
    """Write the ``--metrics-out`` exports from the default registry."""
    if options.metrics_out is None:
        return
    prom_path, json_path = write_exports(
        get_registry(), options.metrics_out
    )
    emit(f"[metrics written to {prom_path} and {json_path}]")


def _finish_observability(
    options: RunOptions,
    command: str,
    started: float,
    cpu_started: float,
    spans_before: tracing.SpanTotals,
    **fields: object,
) -> None:
    """Finalise the ``--trace-out`` / ``--ledger`` side of a run.

    Closes the hierarchical tracer, writes the Perfetto and OTLP views
    next to the span JSONL, and appends one run-ledger entry carrying
    the run's identity (command, configuration, trace id, checkpoint
    link) plus its wall/cpu time, condensed metrics and phase timings:
    the seconds per span name closed since *spans_before*.
    """
    trace_id = None
    resumed_from = None
    if options.span_tracer is not None:
        tracer = options.span_tracer
        tracing.set_tracer(None)
        tracer.close()
        records = tracer.records()
        trace_id = tracer.trace_id
        for record in records:
            link = record.get("attrs", {}).get("resumed_from")
            if link:
                resumed_from = link
                break
        if options.trace_out:
            tracing.write_perfetto(
                records, options.trace_out + ".perfetto.json"
            )
            tracing.write_otlp(records, options.trace_out + ".otlp.json")
            emit(
                f"[trace written to {options.trace_out} "
                "(+ .perfetto.json, .otlp.json)]"
            )
    if options.ledger is None:
        return
    spans = tracing.totals().since(spans_before)
    registry = get_registry()
    entry = {
        "command": command,
        "workers": options.workers,
        "solver": options.solver,
        "workload": (
            repr(options.workload) if options.workload is not None else None
        ),
        "wall": round(time.time() - started, 6),
        "cpu": round(time.process_time() - cpu_started, 6),
        "trace": options.trace_out,
        "trace_id": trace_id,
        "resumed_from": resumed_from,
        "phases": {
            name: timing["seconds"]
            for name, timing in spans.timings().items()
        },
        "metrics": condense_metrics(registry.snapshot())
        if registry.enabled
        else {},
    }
    entry.update(fields)
    ledger = RunLedger(options.ledger)
    record = ledger.append(entry)
    ledger.close()
    emit(f"[run {record['run_id']} recorded in {ledger.path}]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Assessing the Impact "
            "of Dynamic Power Management...' (DSN 2004)"
        ),
    )
    parser.add_argument(
        "experiment",
        help="experiment id, 'list', or 'all'",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced sweeps / simulation effort (CI mode)",
    )
    parser.add_argument(
        "--no-charts",
        action="store_true",
        help="omit ASCII charts from figure reports",
    )
    _add_runtime_arguments(parser)
    return parser


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments run-sweep",
        description=(
            "Run one checkpointable sweep of a case-study model; an "
            "interrupted sweep rerun with the same --checkpoint resumes "
            "from the last completed point, bit-identically"
        ),
    )
    parser.add_argument(
        "--case", choices=sorted([*_CASES, "fleet"]), required=True,
        help="case-study model family",
    )
    parser.add_argument(
        "--phase", choices=["markovian", "general"], default="markovian",
        help="analytic (markovian) or simulated (general) sweep",
    )
    parser.add_argument(
        "--fleet-size", type=int, default=DEFAULT_FLEET_SIZE, metavar="N",
        help=(
            "--case fleet: number of devices (the product space is "
            "|C|*|S|^N but the solve never materializes it; "
            "docs/FLEET.md)"
        ),
    )
    parser.add_argument(
        "--policy", choices=sorted(POLICIES), default="balanced",
        help="--case fleet: coordinator wake-up/handoff policy",
    )
    parser.add_argument(
        "--representation", choices=list(REPRESENTATIONS), default="lumped",
        help=(
            "--case fleet: solve the exchangeability-lumped operator "
            "(default) or the full Kronecker product operator"
        ),
    )
    parser.add_argument(
        "--parameter", required=True, metavar="NAME",
        help="const parameter to sweep",
    )
    parser.add_argument(
        "--values", required=True, metavar="V1,V2,...",
        help="comma-separated sweep values",
    )
    parser.add_argument(
        "--points", type=int, default=None, metavar="N",
        help=(
            "densify: sweep N uniform points spanning --values' range "
            "instead of the listed values (dense markovian grids "
            "auto-engage the parametric fast path, docs/SOLVERS.md)"
        ),
    )
    parser.add_argument(
        "--variant", default="dpm", help="model variant (default: dpm)"
    )
    parser.add_argument(
        "--paired", action="store_true",
        help=(
            "general phase only: simulate the DPM and NO-DPM variants "
            "together under common random numbers and report the "
            "dpm/nodpm/delta series with paired-t delta half-widths "
            "(--variant is ignored; docs/SIMULATION.md)"
        ),
    )
    parser.add_argument(
        "--independent", action="store_true",
        help=(
            "with --paired: decorrelate the two variants' streams "
            "(baseline for measuring the CRN interval shrinkage)"
        ),
    )
    parser.add_argument(
        "--rare", action="store_true",
        help=(
            "general phase only: estimate each point by rare-event "
            "importance splitting (RESTART) instead of naive "
            "replication, adding rare_probability/rare_low/rare_high "
            "series with near-zero-safe intervals (docs/SIMULATION.md)"
        ),
    )
    parser.add_argument(
        "--levels", type=int, default=4, metavar="N",
        help="with --rare: importance levels between base and rare set",
    )
    parser.add_argument(
        "--splits", type=int, default=4, metavar="N",
        help="with --rare: fixed effort (trajectories) per rare level",
    )
    parser.add_argument(
        "--segments", type=int, default=32, metavar="N",
        help="with --rare: resampling boundaries per replication",
    )
    parser.add_argument(
        "--rare-measure", default=None, metavar="NAME",
        help=(
            "with --rare: measure whose reward support defines the "
            "importance function (default: the family's first measure)"
        ),
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="JSONL journal of completed points (enables resume)",
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the series as JSON to FILE instead of only stdout",
    )
    parser.add_argument(
        "--method", default=None,
        help=(
            "steady-state solver for markovian sweeps (overrides "
            "--solver; default: --solver, then $REPRO_SOLVER, then auto)"
        ),
    )
    parser.add_argument(
        "--runs", type=int, default=10,
        help="replications per point (general phase)",
    )
    parser.add_argument(
        "--run-length", type=float, default=20_000.0,
        help="simulated time per replication (general phase)",
    )
    parser.add_argument(
        "--warmup", type=float, default=0.0,
        help="warm-up deletion per replication (general phase)",
    )
    parser.add_argument(
        "--seed", type=int, default=20040628,
        help="master seed (general phase)",
    )
    parser.add_argument(
        "--max-states", type=int, default=200_000,
        help="state-space generation cap",
    )
    _add_runtime_arguments(parser)
    return parser


def _list_report() -> str:
    experiments = all_experiments()
    rows = [[e.id, e.paper_artifact] for e in experiments.values()]
    return format_table(["id", "paper artifact"], rows, "available experiments")


def run_experiment(
    identifier: str,
    quick: bool,
    charts: bool = True,
    options: Optional[RunOptions] = None,
) -> str:
    """Run one experiment and return its rendered report."""
    experiments = all_experiments()
    if identifier not in experiments:
        known = ", ".join(experiments)
        raise SystemExit(
            f"unknown experiment {identifier!r}; known: {known}"
        )
    options = RunOptions.resolve(options)
    result = experiments[identifier].run(quick, options)
    if hasattr(result, "report"):
        try:
            return result.report(charts=charts)
        except TypeError:
            return result.report()
    return str(result)


def run_sweep(argv: List[str]) -> int:
    """``run-sweep``: one resumable sweep, series printed as JSON."""
    args = build_sweep_parser().parse_args(argv)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise SystemExit("--values must name at least one sweep value")
    if args.points is not None:
        if args.points < 2 or len(values) < 2:
            raise SystemExit(
                "--points needs N >= 2 and at least two --values to span"
            )
        low, high = min(values), max(values)
        step = (high - low) / (args.points - 1)
        values = [low + index * step for index in range(args.points)]
    if args.paired and args.phase != "general":
        raise SystemExit("--paired requires --phase general")
    if args.independent and not args.paired:
        raise SystemExit("--independent only makes sense with --paired")
    if args.rare and args.phase != "general":
        raise SystemExit("--rare requires --phase general")
    if args.rare and args.paired:
        raise SystemExit(
            "--rare and --paired are mutually exclusive: splitting "
            "trees cannot share the CRN stream discipline"
        )
    if args.case == "fleet" and args.phase != "markovian":
        raise SystemExit(
            "--case fleet is analytic: only --phase markovian applies"
        )
    options = _run_options(args)
    if args.case == "fleet":
        methodology = FleetAssessment(
            args.fleet_size,
            policy=args.policy,
            representation=args.representation,
            **options.driver_kwargs(),
        )
    else:
        methodology = IncrementalMethodology(
            _CASES[args.case](),
            max_states=args.max_states,
            **options.methodology_kwargs(),
        )
    started = time.time()
    cpu_started = time.process_time()
    spans_before = tracing.totals()
    try:
        with tracing.span(
            "run-sweep",
            case=args.case,
            phase=args.phase,
            parameter=args.parameter,
            points=len(values),
            workers=args.workers,
        ):
            if args.case == "fleet":
                series = methodology.sweep(
                    args.parameter,
                    values,
                    method=args.method,
                    checkpoint=args.checkpoint,
                )
            elif args.phase == "markovian":
                series = methodology.sweep_markovian(
                    args.parameter,
                    values,
                    variant=args.variant,
                    method=args.method,
                    checkpoint=args.checkpoint,
                )
            else:
                simulation = dict(
                    run_length=args.run_length,
                    runs=args.runs,
                    warmup=args.warmup,
                    seed=args.seed,
                    checkpoint=args.checkpoint,
                )
                if args.paired:
                    series = methodology.sweep_general_paired(
                        args.parameter, values, crn=not args.independent,
                        **simulation,
                    )
                elif args.rare:
                    series = methodology.sweep_rare(
                        args.parameter,
                        values,
                        variant=args.variant,
                        levels=args.levels,
                        splits=args.splits,
                        segments=args.segments,
                        rare_measure=args.rare_measure,
                        **simulation,
                    )
                else:
                    series = methodology.sweep_general(
                        args.parameter, values, variant=args.variant,
                        **simulation,
                    )
    except CheckpointError as error:
        _LOG.error("checkpoint rejected: %s", error)
        return 1
    except RuntimeExecutionError as error:
        _LOG.error("sweep failed: %s", error)
        return 1
    payload = {
        "case": args.case,
        "phase": args.phase,
        "parameter": args.parameter,
        "values": values,
        "series": series,
    }
    if args.case == "fleet":
        fleet_info = {
            "size": args.fleet_size,
            "policy": args.policy,
            "representation": args.representation,
        }
        if methodology.operator_records:
            last = methodology.operator_records[-1]
            fleet_info["product_states"] = last["product_states"]
            fleet_info["lumped_states"] = last["lumped_states"]
            fleet_info["operator_states"] = last["states"]
        payload["fleet"] = fleet_info
    if args.paired:
        payload["paired"] = {"crn": not args.independent}
    if args.rare:
        payload["rare"] = {
            "levels": args.levels,
            "splits": args.splits,
            "segments": args.segments,
            "measure": args.rare_measure,
        }
    # json round-trips floats exactly (repr-based), so two runs are
    # bit-identical iff their series are.
    rendered = json.dumps(payload, sort_keys=True, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    emit(rendered)
    stats = methodology.runtime_stats()
    summary = (
        f"run-sweep done in {time.time() - started:.1f}s; "
        f"workers={stats['workers']}"
    )
    if "solver" in stats:
        solver_stats = stats["solver"]
        backends = "+".join(
            f"{name}x{count}"
            for name, count in sorted(solver_stats["backends"].items())
        )
        summary += (
            f", solver {backends} "
            f"max residual={solver_stats['max_residual']:.2e}"
        )
    summary += (
        f", retries={stats['retries']}"
        f", checkpoint hits={stats['checkpoint_hits']}"
    )
    _LOG.info("%s", summary)
    _export_metrics(options)
    _finish_observability(
        options,
        "run-sweep",
        started,
        cpu_started,
        spans_before,
        case=args.case,
        phase=args.phase,
        parameter=args.parameter,
        checkpoint=args.checkpoint,
    )
    return 0


def trace_summary(argv: List[str]) -> int:
    """``trace-summary``: aggregate a ``--trace-out`` span file.

    Prints per-span self-time vs cumulative-time and the status counts.

    Exit codes: 0 for a trace with span records, 1 for a missing file,
    malformed JSONL (a torn final line — a crash mid-write — is
    tolerated, corruption anywhere else is not), a file without span
    records (e.g. the flat per-attempt format, which is no longer
    read), and when ``--check`` finds a malformed span tree.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments trace-summary",
        description=(
            "Summarise a --trace-out JSONL span file (self vs "
            "cumulative time per span name)"
        ),
    )
    parser.add_argument("trace_file", help="JSONL file written by --trace-out")
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "validate the span tree (single root, no orphans, one "
            "trace id, sane timestamps); exit 1 if malformed"
        ),
    )
    args = parser.parse_args(argv)
    configure_logging()
    try:
        spans = tracing.read_spans(args.trace_file)
    except OSError as error:
        _LOG.error("cannot read trace file: %s", error)
        return 1
    except json.JSONDecodeError as error:
        _LOG.error(
            "%s is not a valid JSONL trace: %s", args.trace_file, error
        )
        return 1
    if not spans:
        _LOG.error(
            "%s has no span records (write one with --trace-out)",
            args.trace_file,
        )
        return 1
    emit(
        tracing.render_span_summary(
            tracing.summarize_spans(spans), title=args.trace_file
        )
    )
    if args.check:
        problems = tracing.validate_tree(spans)
        for problem in problems:
            _LOG.error("span tree: %s", problem)
        if problems:
            return 1
        emit(f"[span tree OK: {len(spans)} spans, one root]")
    return 0


def runs_command(argv: List[str]) -> int:
    """``runs list|show|diff``: inspect the persistent run ledger.

    Refs are ``last``, ``last~N`` or a unique ``run_id`` prefix.
    Exit codes: 0 on success, 1 for an unknown/ambiguous ref or an
    unreadable ledger.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments runs",
        description=(
            "Inspect the persistent run ledger written by --ledger "
            "(docs/OBSERVABILITY.md)"
        ),
    )
    parser.add_argument(
        "--ledger",
        default=None,
        metavar="FILE",
        help="ledger file (default: $REPRO_LEDGER or .repro-runs.jsonl)",
    )
    commands = parser.add_subparsers(dest="action", required=True)
    commands.add_parser("list", help="one line per recorded run")
    show = commands.add_parser("show", help="full JSON of one run")
    show.add_argument("ref", help="run ref: last, last~N, or id prefix")
    diff = commands.add_parser(
        "diff",
        help="config, wall-time, phase-timing and metric deltas",
    )
    diff.add_argument("ref_a", help="baseline run ref")
    diff.add_argument("ref_b", help="comparison run ref")
    args = parser.parse_args(argv)
    configure_logging()
    ledger = RunLedger(args.ledger)
    try:
        if args.action == "list":
            emit(render_entries_table(ledger.entries()))
        elif args.action == "show":
            emit(render_entry(ledger.get(args.ref)))
        else:
            emit(
                render_diff(
                    diff_entries(
                        ledger.get(args.ref_a), ledger.get(args.ref_b)
                    )
                )
            )
    except LedgerError as error:
        _LOG.error("runs: %s", error)
        return 1
    except json.JSONDecodeError as error:
        _LOG.error("%s is not a valid ledger: %s", ledger.path, error)
        return 1
    return 0


def _catalog_report() -> str:
    """The metric catalog as a table (``metrics`` with no file)."""
    rows = [
        [
            spec.name,
            spec.kind,
            ",".join(spec.labelnames) or "-",
            spec.help,
        ]
        for spec in CATALOG
    ]
    return format_table(
        ["metric", "type", "labels", "help"], rows,
        "metric catalog (docs/OBSERVABILITY.md)",
    )


def metrics_command(argv: List[str]) -> int:
    """``metrics``: show the catalog, or inspect a ``--metrics-out`` JSON.

    Exit codes: 0 on success, 1 for a missing, corrupt or empty export.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments metrics",
        description=(
            "With no argument: the catalog of every metric the stack "
            "emits.  With a FILE.json written by --metrics-out: the "
            "exported series and values"
        ),
    )
    parser.add_argument(
        "export_file", nargs="?", default=None,
        help="JSON export written by --metrics-out (optional)",
    )
    args = parser.parse_args(argv)
    configure_logging()
    if args.export_file is None:
        emit(_catalog_report())
        return 0
    try:
        snapshot = load_json_export(args.export_file)
    except OSError as error:
        _LOG.error("cannot read metrics export: %s", error)
        return 1
    except (ValueError, json.JSONDecodeError) as error:
        _LOG.error(
            "%s is not a metrics export: %s", args.export_file, error
        )
        return 1
    rows = []
    for name in sorted(snapshot):
        family = snapshot[name]
        for entry in family.get("series", ()):
            labels = ",".join(
                f"{k}={v}"
                for k, v in sorted(dict(entry.get("labels", {})).items())
            )
            if family.get("type") == "histogram":
                value = (
                    f"count={entry.get('count', 0)} "
                    f"sum={entry.get('sum', 0.0):.6g}"
                )
            else:
                value = f"{entry.get('value', 0.0):.6g}"
            rows.append([name, labels or "-", value])
    emit(format_table(["metric", "labels", "value"], rows, args.export_file))
    return 0


def build_workload_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments workload",
        description=(
            "Generate synthetic workload traces, fit them to closed-form "
            "distributions, and replay them through a case study's "
            "general phase (docs/WORKLOADS.md)"
        ),
    )
    commands = parser.add_subparsers(dest="action", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic trace from a seeded spec"
    )
    generate.add_argument(
        "--generator", required=True, metavar="SPEC",
        help=(
            "generator spec: poisson:RATE | mmpp:RH,RL,BURST,IDLE | "
            "pareto:ALPHA,XM | diurnal:RATE,AMPL,PERIOD"
        ),
    )
    generate.add_argument(
        "--events", type=int, default=5000, help="trace length"
    )
    generate.add_argument(
        "--seed", type=int, default=20040628, help="generator seed"
    )
    generate.add_argument(
        "--rescale-mean", type=float, default=None, metavar="M",
        help="rescale the trace to mean interarrival M after generation",
    )
    generate.add_argument(
        "--out", required=True, metavar="FILE",
        help="output trace file (.jsonl or .csv)",
    )

    fit = commands.add_parser(
        "fit", help="fit a trace to the closed-form distribution families"
    )
    fit.add_argument("trace_file", help="trace file (.jsonl or .csv)")
    fit.add_argument(
        "--families", default=None, metavar="F1,F2,...",
        help="candidate families to try (default: all)",
    )
    fit.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the fit report as JSON to FILE",
    )

    replay = commands.add_parser(
        "replay",
        help="replay a trace through a case study's general phase",
    )
    replay.add_argument("trace_file", help="trace file (.jsonl or .csv)")
    replay.add_argument(
        "--case", choices=sorted(_CASES), required=True,
        help="case-study model family",
    )
    replay.add_argument(
        "--mode", choices=["bootstrap", "cycle"], default="bootstrap",
        help="replay mode (default: bootstrap)",
    )
    replay.add_argument(
        "--variant", default="dpm", help="model variant (default: dpm)"
    )
    replay.add_argument(
        "--runs", type=int, default=10, help="replications"
    )
    replay.add_argument(
        "--run-length", type=float, default=20_000.0,
        help="simulated time per replication",
    )
    replay.add_argument(
        "--warmup", type=float, default=0.0,
        help="warm-up deletion per replication",
    )
    replay.add_argument(
        "--seed", type=int, default=20040628, help="master seed"
    )
    replay.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (results identical to --workers 1)",
    )
    replay.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the estimates as JSON to FILE as well",
    )
    return parser


def workload_command(argv: List[str]) -> int:
    """``workload generate|fit|replay``: the trace workflow end to end.

    Exit codes: 0 on success, 1 for a workload error (unreadable or
    malformed trace, unknown generator, hook mismatch).
    """
    args = build_workload_parser().parse_args(argv)
    configure_logging()
    try:
        if args.action == "generate":
            generator = parse_generator_spec(args.generator)
            trace = generator.generate(args.events, args.seed)
            if args.rescale_mean is not None:
                trace = trace.rescaled(args.rescale_mean)
            path = write_workload_trace(trace, args.out)
            emit(json.dumps(trace.summary(), sort_keys=True, indent=2))
            emit(f"[trace written to {path}]")
            return 0
        if args.action == "fit":
            trace = read_workload_trace(args.trace_file)
            families = None
            if args.families:
                families = [
                    f.strip() for f in args.families.split(",") if f.strip()
                ]
            report = fit_trace(trace, families)
            rendered = json.dumps(report.as_dict(), sort_keys=True, indent=2)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(rendered + "\n")
            emit(rendered)
            best = report.best
            emit(
                f"[best fit: {best.spec} "
                f"(KS {best.ks:.4f}, p {best.pvalue:.3f})]"
            )
            return 0
        # replay
        trace = read_workload_trace(args.trace_file)
        replay_distribution = TraceReplay(trace, args.mode)
        methodology = IncrementalMethodology(
            _CASES[args.case](),
            workers=args.workers,
            workload=replay_distribution,
        )
        replication = methodology.simulate_general(
            args.variant,
            run_length=args.run_length,
            runs=args.runs,
            warmup=args.warmup,
            seed=args.seed,
        )
        payload = {
            "case": args.case,
            "variant": args.variant,
            "mode": args.mode,
            "trace": trace.summary(),
            "estimates": {
                name: {
                    "mean": estimate.mean,
                    "half_width": estimate.half_width,
                }
                for name, estimate in replication.estimates.items()
            },
        }
        rendered = json.dumps(payload, sort_keys=True, indent=2)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
        emit(rendered)
        return 0
    except WorkloadError as error:
        _LOG.error("workload: %s", error)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "run-sweep":
        return run_sweep(argv[1:])
    if argv and argv[0] == "trace-summary":
        return trace_summary(argv[1:])
    if argv and argv[0] == "metrics":
        return metrics_command(argv[1:])
    if argv and argv[0] == "runs":
        return runs_command(argv[1:])
    if argv and argv[0] == "workload":
        return workload_command(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        configure_logging(args.verbose)
        emit(_list_report())
        return 0
    targets = (
        list(all_experiments())
        if args.experiment == "all"
        else [args.experiment]
    )
    options = _run_options(args)
    run_started = time.time()
    cpu_started = time.process_time()
    spans_before = tracing.totals()
    with tracing.span(
        "experiments",
        targets=",".join(targets),
        quick=args.quick,
        workers=args.workers,
    ):
        for target in targets:
            started = time.time()
            _LOG.info("running %s (quick=%s)", target, args.quick)
            with tracing.span("experiment", experiment=target):
                report = run_experiment(
                    target,
                    args.quick,
                    charts=not args.no_charts,
                    options=options,
                )
            emit(report)
            emit(f"[{target} done in {time.time() - started:.1f}s]")
            emit()
    _export_metrics(options)
    _finish_observability(
        options,
        args.experiment,
        run_started,
        cpu_started,
        spans_before,
        case=None,
        phase=None,
        parameter=None,
        checkpoint=None,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
