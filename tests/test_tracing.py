"""End-to-end causal tracing, the run ledger, and their CLI surface.

Covers the hierarchical span model of ``repro.obs.tracing`` (context
propagation in-process and across worker processes), the well-formedness
of the span tree a traced parallel sweep produces, the Perfetto / OTLP
exports, the ``--trace-out`` / ``--ledger`` CLI flags, the
``runs list|show|diff`` commands, checkpoint-resume trace linkage, and
the design invariant that tracing never perturbs numerics
(docs/OBSERVABILITY.md).
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.core.methodology import IncrementalMethodology
from repro.experiments.cli import main
from repro.obs import tracing
from repro.obs.ledger import (
    LedgerError,
    RunLedger,
    condense_metrics,
    diff_entries,
)
from repro.obs.tracing import (
    RECORD_KIND,
    Span,
    TraceContext,
    Tracer,
    build_tree,
    export_otlp,
    export_perfetto,
    read_spans,
    summarize_spans,
    use_tracer,
    validate_tree,
)
from repro.runtime import ParallelExecutor, RetryPolicy


def _square(shared, item):
    return item * item


@pytest.fixture()
def tracer():
    """An in-memory tracer installed as the process tracer."""
    tracer = Tracer()
    previous = tracing.set_tracer(tracer)
    yield tracer
    tracing.set_tracer(previous)
    tracer.close()


def _sweep_argv(out, extra=()):
    return [
        "run-sweep",
        "--case",
        "rpc",
        "--parameter",
        "shutdown_timeout",
        "--values",
        "0.5,2,11",
        "--output",
        str(out),
        *extra,
    ]


class TestSpanModel:
    def test_nesting_parents_and_ids(self, tracer):
        with tracing.span("outer") as outer:
            with tracing.span("inner") as inner:
                pass
        records = {r["name"]: r for r in tracer.records()}
        assert records["inner"]["parent"] == outer.span_id
        assert records["outer"]["parent"] is None
        assert records["inner"]["trace"] == records["outer"]["trace"]
        assert records["inner"]["span"] == inner.span_id
        assert all(r["kind"] == RECORD_KIND for r in records.values())

    def test_exception_marks_error_and_reraises(self, tracer):
        with pytest.raises(ValueError):
            with tracing.span("work"):
                raise ValueError("boom")
        [record] = tracer.records()
        assert record["status"] == tracing.STATUS_ERROR
        assert "ValueError" in record["attrs"]["error"]

    def test_attributes_and_events(self, tracer):
        with tracing.span("work", phase="solve"):
            tracing.add_attributes(method="gmres")
            tracing.add_event("fallback", reason="fit")
        [record] = tracer.records()
        assert record["attrs"]["phase"] == "solve"
        assert record["attrs"]["method"] == "gmres"
        [event] = record["events"]
        assert event["name"] == "fallback"
        assert event["attrs"]["reason"] == "fit"

    def test_record_span_manufactures_closed_span(self, tracer):
        tracing.record_span("solve", 0.25, method="direct")
        [record] = tracer.records()
        assert record["name"] == "solve"
        assert record["end"] - record["start"] == pytest.approx(
            0.25, abs=1e-6
        )
        assert record["attrs"]["method"] == "direct"

    def test_no_tracer_yields_shared_null_span(self):
        assert tracing.get_tracer() is None
        with tracing.span("ghost") as ghost:
            ghost.set_attributes(ignored=1)
            ghost.add_event("ignored")
            ghost.status = "retry"  # executor writes this unconditionally
        tracing.add_attributes(ignored=2)
        tracing.add_event("ignored")
        tracing.record_span("ghost", 0.1)

    def test_use_tracer_with_remote_context(self):
        collector = Tracer(trace_id="ab" * 16)
        ctx = TraceContext("ab" * 16, "cd" * 8)
        with use_tracer(collector, context=ctx):
            with tracing.span("worker-side"):
                pass
        [record] = collector.records()
        assert record["trace"] == "ab" * 16
        assert record["parent"] == "cd" * 8

    def test_jsonl_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tracer = Tracer(path)
        previous = tracing.set_tracer(tracer)
        try:
            with tracing.span("a"):
                with tracing.span("b"):
                    pass
        finally:
            tracing.set_tracer(previous)
            tracer.close()
        on_disk = read_spans(path)
        assert on_disk == tracer.records()

    def test_read_spans_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record = Span(
            trace_id=tracing.new_trace_id(),
            span_id=tracing.new_span_id(),
            parent_id=None,
            name="a",
            start=1.0,
            end=2.0,
        ).to_record()
        path.write_text(json.dumps(record) + "\n" + '{"kind": "sp')
        assert read_spans(str(path)) == [record]


class TestSpanTotals:
    """Every closed span reaches the process totals, traced or not."""

    def test_untraced_spans_are_counted(self):
        before = tracing.totals()
        with tracing.span("ghost") as ghost:
            ghost.status = "retry"
        with pytest.raises(ValueError):
            with tracing.span("ghost"):
                raise ValueError("boom")
        tracing.record_span("leaf", 0.25, status="checkpoint_hit")
        spans = tracing.totals().since(before)
        assert spans.timings()["ghost"]["count"] == 2
        assert spans.timings()["leaf"] == {"seconds": 0.25, "count": 1}
        assert spans.statuses == {
            "checkpoint_hit": 1, "error": 1, "retry": 1,
        }

    def test_traced_and_untraced_totals_agree(self, tracer):
        before = tracing.totals()
        with tracing.span("outer"):
            with tracing.span("inner"):
                pass
        spans = tracing.totals().since(before)
        assert len(tracer.records()) == 2
        assert {name: t["count"] for name, t in spans.timings().items()} == {
            "inner": 1, "outer": 1,
        }
        assert spans.count("ok") == 2

    @pytest.mark.parametrize("traced", [False, True])
    def test_nested_spans_of_one_name_count_their_seconds_once(self, traced):
        """An inner span of an open span's name counts, but its seconds
        are already inside the outer span's."""
        previous = tracing.set_tracer(Tracer() if traced else None)
        try:
            before = tracing.totals()
            started = time.perf_counter()
            with tracing.span("outer"):
                with tracing.span("inner"):
                    with tracing.span("outer"):
                        time.sleep(0.05)
                with tracing.span("outer"):
                    pass
            with tracing.span("outer"):
                pass
            wall = time.perf_counter() - started
            spans = tracing.totals().since(before)
        finally:
            tracing.set_tracer(previous)
        timings = spans.timings()
        assert timings["outer"]["count"] == 4
        assert timings["inner"]["count"] == 1
        # The two outermost spans are disjoint parts of the wall time.
        assert timings["inner"]["seconds"] <= timings["outer"]["seconds"]
        assert timings["outer"]["seconds"] <= wall

    def test_a_general_sweep_point_holds_its_chunks_seconds(self, rpc_family):
        """Each sweep point's replication chunk runs as a nested
        ``point``/``execute`` pair: counted, its seconds not again."""
        methodology = IncrementalMethodology(rpc_family, workers=1)
        values = [1.0, 15.0]
        methodology.sweep_general(
            "shutdown_timeout", values, run_length=200.0, runs=2, seed=3,
            workers=1,
        )
        timings = methodology.runtime_stats()["timings"]
        phase = timings["sweep:general"]["seconds"]
        for name in ("point", "execute"):
            assert timings[name]["count"] == 2 * len(values)
            assert timings[name]["seconds"] <= phase

    def test_untraced_resilient_pool_counts_points(self):
        before = tracing.totals()
        ParallelExecutor(2).map(
            _square, [1, 2, 3], retry=RetryPolicy(max_attempts=1)
        )
        spans = tracing.totals().since(before)
        assert spans.timings()["point"]["count"] == 3
        assert spans.timings()["execute"]["count"] == 3
        assert spans.timings()["queue-wait"]["count"] == 3


class TestTreeTools:
    def test_validate_accepts_well_formed_tree(self, tracer):
        with tracing.span("root"):
            with tracing.span("child"):
                pass
            with tracing.span("child"):
                pass
        assert validate_tree(tracer.records()) == []

    def test_validate_rejects_orphans_and_multiple_roots(self, tracer):
        with tracing.span("a"):
            pass
        with tracing.span("b"):
            pass
        problems = validate_tree(tracer.records())
        assert any("root" in problem for problem in problems)
        orphan = Span(
            trace_id=tracer.trace_id,
            span_id=tracing.new_span_id(),
            parent_id="feedbeeffeedbeef",
            name="lost",
            start=1.0,
            end=2.0,
        )
        tracer.finish(orphan)
        problems = validate_tree(tracer.records())
        assert any("orphan" in problem for problem in problems)

    def test_validate_rejects_mixed_trace_ids(self, tracer):
        with tracing.span("root"):
            pass
        tracer.add_span(
            "alien",
            parent_id=None,
            start=1.0,
            end=2.0,
            trace_id=tracing.new_trace_id(),
        )
        problems = validate_tree(tracer.records())
        assert any("trace id" in problem for problem in problems)

    def test_summarize_separates_self_from_cumulative(self):
        trace = tracing.new_trace_id()
        root = tracing.new_span_id()
        records = [
            {
                "kind": RECORD_KIND,
                "trace": trace,
                "span": root,
                "parent": None,
                "name": "root",
                "start": 0.0,
                "end": 10.0,
                "status": "ok",
            },
            {
                "kind": RECORD_KIND,
                "trace": trace,
                "span": tracing.new_span_id(),
                "parent": root,
                "name": "leaf",
                "start": 1.0,
                "end": 8.0,
                "status": "ok",
            },
        ]
        names = summarize_spans(records)["names"]
        assert names["root"]["cum"] == pytest.approx(10.0)
        assert names["root"]["self"] == pytest.approx(3.0)
        assert names["leaf"]["self"] == pytest.approx(7.0)


class TestExporters:
    def _records(self, tracer):
        with tracing.span("root", case="rpc"):
            with tracing.span("child"):
                tracing.add_event("tick", n=1)
        return tracer.records()

    def test_perfetto_shape(self, tracer):
        records = self._records(tracer)
        export = export_perfetto(records)
        json.dumps(export)  # must be serialisable
        assert export["displayTimeUnit"] == "ms"
        complete = [e for e in export["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in export["traceEvents"] if e["ph"] == "i"]
        assert len(complete) == len(records)
        assert len(instants) == 1
        for event in complete:
            assert event["dur"] >= 0
            assert {"name", "ts", "pid", "tid"} <= set(event)

    def test_otlp_shape(self, tracer):
        records = self._records(tracer)
        export = export_otlp(records)
        json.dumps(export)
        spans = export["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert len(spans) == len(records)
        for span in spans:
            assert span["traceId"] == records[0]["trace"]
            assert span["startTimeUnixNano"].isdigit()
            assert span["endTimeUnixNano"].isdigit()


class TestTracedSweepCLI:
    def test_workers4_retry_produces_one_well_formed_tree(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                _sweep_argv(
                    tmp_path / "out.json",
                    [
                        "--workers",
                        "4",
                        "--retry",
                        "2",
                        "--trace-out",
                        str(trace),
                    ],
                )
            )
            == 0
        )
        records = read_spans(str(trace))
        assert validate_tree(records) == []
        names = {record["name"] for record in records}
        # Queue wait and execution are separate spans, and the solver
        # leafs made it back from the worker processes.
        assert {
            "run-sweep",
            "sweep:markovian",
            "point",
            "queue-wait",
            "execute",
            "solve",
        } <= names
        tree = build_tree(records)
        [root] = tree["roots"]
        assert root["name"] == "run-sweep"
        executes = [r for r in records if r["name"] == "execute"]
        assert len(executes) == 3
        assert all("worker" in record for record in executes)

    def test_trace_summary_check_passes_on_span_file(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "trace.jsonl"
        main(_sweep_argv(tmp_path / "out.json", ["--trace-out", str(trace)]))
        assert main(["trace-summary", str(trace), "--check"]) == 0
        out = capsys.readouterr().out
        assert "self [s]" in out
        assert "cum [s]" in out
        assert "span tree OK" in out

    def test_trace_summary_check_fails_on_orphan(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(_sweep_argv(tmp_path / "out.json", ["--trace-out", str(trace)]))
        with open(trace, "a") as handle:
            handle.write(
                json.dumps(
                    {
                        "kind": RECORD_KIND,
                        "trace": read_spans(str(trace))[0]["trace"],
                        "span": tracing.new_span_id(),
                        "parent": "feedbeeffeedbeef",
                        "name": "lost",
                        "start": 0.0,
                        "end": 1.0,
                        "status": "ok",
                    }
                )
                + "\n"
            )
        assert main(["trace-summary", str(trace), "--check"]) == 1

    def test_perfetto_and_otlp_written_next_to_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        main(_sweep_argv(tmp_path / "out.json", ["--trace-out", str(trace)]))
        perfetto = json.loads((tmp_path / "trace.jsonl.perfetto.json").read_text())
        otlp = json.loads((tmp_path / "trace.jsonl.otlp.json").read_text())
        records = read_spans(str(trace))
        complete = [e for e in perfetto["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == len(records)
        spans = otlp["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert len(spans) == len(records)

    def test_chaos_kills_keep_tree_well_formed(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                _sweep_argv(
                    tmp_path / "out.json",
                    [
                        "--workers",
                        "2",
                        "--retry",
                        "4",
                        "--chaos",
                        "seed=7,kill=0.4",
                        "--trace-out",
                        str(trace),
                    ],
                )
            )
            == 0
        )
        records = read_spans(str(trace))
        assert validate_tree(records) == []


class TestBitIdentity:
    def test_traced_parallel_equals_untraced_serial(self, tmp_path):
        plain = tmp_path / "plain.json"
        traced = tmp_path / "traced.json"
        assert main(_sweep_argv(plain)) == 0
        assert (
            main(
                _sweep_argv(
                    traced,
                    [
                        "--workers",
                        "2",
                        "--retry",
                        "2",
                        "--trace-out",
                        str(tmp_path / "t.jsonl"),
                        "--ledger",
                        str(tmp_path / "runs.jsonl"),
                    ],
                )
            )
            == 0
        )
        assert plain.read_bytes() == traced.read_bytes()


class TestResumeLink:
    def test_resumed_sweep_links_to_journal_fingerprint(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        full = tmp_path / "full.json"
        resumed = tmp_path / "resumed.json"
        extra = ["--checkpoint", str(journal)]
        assert main(_sweep_argv(full, extra)) == 0
        lines = journal.read_text().splitlines()
        fingerprint = json.loads(lines[0])["fingerprint"]
        # Keep the header and the first completed point: a crash.
        journal.write_text("\n".join(lines[:2]) + "\n")
        trace = tmp_path / "trace.jsonl"
        ledger = tmp_path / "runs.jsonl"
        assert (
            main(
                _sweep_argv(
                    resumed,
                    extra
                    + [
                        "--trace-out",
                        str(trace),
                        "--ledger",
                        str(ledger),
                    ],
                )
            )
            == 0
        )
        # Bit-identical resume (the reliability invariant still holds
        # under tracing) ...
        assert full.read_bytes() == resumed.read_bytes()
        records = read_spans(str(trace))
        assert validate_tree(records) == []
        # ... the replayed point appears as a checkpoint_hit span ...
        hits = [
            r for r in records if r.get("status") == "checkpoint_hit"
        ]
        assert len(hits) == 1
        # ... the phase span links to the original run's journal ...
        linked = [
            r
            for r in records
            if r.get("attrs", {}).get("resumed_from") == fingerprint
        ]
        assert linked
        # ... and the ledger entry carries the same link.
        [entry] = RunLedger(str(ledger)).entries()
        assert entry["resumed_from"] == fingerprint
        assert entry["checkpoint"] == str(journal)


class TestRunLedger:
    def test_append_stamps_identity(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        record = ledger.append({"command": "x", "wall": 1.0})
        ledger.close()
        assert len(record["run_id"]) == 16
        [entry] = ledger.entries()
        assert entry == record

    def test_refs_last_tilde_and_prefix(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        first = ledger.append({"command": "a"})
        second = ledger.append({"command": "b"})
        ledger.close()
        assert ledger.get("last")["command"] == "b"
        assert ledger.get("last~1")["command"] == "a"
        assert ledger.get(first["run_id"][:8])["command"] == "a"
        with pytest.raises(LedgerError):
            ledger.get("last~5")
        with pytest.raises(LedgerError):
            ledger.get("doesnotexist")
        assert second["run_id"] != first["run_id"]

    def test_diff_reports_config_wall_phases_metrics(self):
        a = {
            "run_id": "a" * 16,
            "command": "run-sweep",
            "workers": 1,
            "wall": 2.0,
            "phases": {"solve": 1.5, "statespace": 0.5},
            "metrics": {"repro_solver_solves_total": 3.0},
        }
        b = {
            "run_id": "b" * 16,
            "command": "run-sweep",
            "workers": 4,
            "wall": 1.0,
            "phases": {"solve": 0.6},
            "metrics": {"repro_solver_solves_total": 3.0},
        }
        diff = diff_entries(a, b)
        assert diff["config"]["workers"] == {"a": 1, "b": 4}
        assert diff["wall"]["delta"] == pytest.approx(-1.0)
        assert diff["phases"]["solve"]["delta"] == pytest.approx(-0.9)
        assert "repro_solver_solves_total" not in diff["metrics"]

    def test_condense_metrics_sums_series(self):
        snapshot = {
            "c_total": {
                "type": "counter",
                "series": [{"value": 2.0}, {"value": 3.0}],
            },
            "h": {
                "type": "histogram",
                "series": [{"count": 4, "sum": 1.0, "buckets": {}}],
            },
        }
        condensed = condense_metrics(snapshot)
        assert condensed["c_total"] == 5.0
        assert condensed["h"] == 4.0

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(str(path))
        ledger.append({"command": "a"})
        ledger.close()
        with open(path, "a") as handle:
            handle.write('{"run_id": "torn')
        [entry] = RunLedger(str(path)).entries()
        assert entry["command"] == "a"


class TestRunsCLI:
    def _ledger_with_two_runs(self, tmp_path):
        out = tmp_path / "out.json"
        ledger = tmp_path / "runs.jsonl"
        for workers in ("1", "2"):
            assert (
                main(
                    _sweep_argv(
                        out,
                        ["--workers", workers, "--ledger", str(ledger)],
                    )
                )
                == 0
            )
        return str(ledger)

    def test_list_show_diff(self, tmp_path, capsys):
        ledger = self._ledger_with_two_runs(tmp_path)
        assert main(["runs", "--ledger", ledger, "list"]) == 0
        out = capsys.readouterr().out
        assert "run-sweep" in out
        assert main(["runs", "--ledger", ledger, "show", "last"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["case"] == "rpc"
        assert shown["phases"]  # per-phase seconds present
        assert (
            main(["runs", "--ledger", ledger, "diff", "last~1", "last"])
            == 0
        )
        out = capsys.readouterr().out
        assert "total wall" in out
        assert "workers" in out

    def test_bad_refs_exit_1(self, tmp_path):
        ledger = self._ledger_with_two_runs(tmp_path)
        assert main(["runs", "--ledger", ledger, "show", "zzz"]) == 1
        assert (
            main(["runs", "--ledger", ledger, "diff", "last", "last~9"])
            == 1
        )
        missing = str(tmp_path / "absent.jsonl")
        assert main(["runs", "--ledger", missing, "list"]) == 0


def _ledger_append_task(args):
    path, worker = args
    ledger = RunLedger(path)
    for index in range(25):
        ledger.append({"command": f"w{worker}", "index": index})
    ledger.close()
    return worker


class TestAppendAtomicity:
    def test_concurrent_ledger_appends_never_interleave(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        with multiprocessing.get_context("fork").Pool(4) as pool:
            pool.map(_ledger_append_task, [(path, w) for w in range(4)])
        entries = RunLedger(path).entries()
        assert len(entries) == 100
        # Every line parsed as exactly one complete record.
        by_worker = {}
        for entry in entries:
            by_worker.setdefault(entry["command"], []).append(
                entry["index"]
            )
        assert all(
            sorted(indices) == list(range(25))
            for indices in by_worker.values()
        )

    def test_trace_file_complete_under_chaos(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                _sweep_argv(
                    tmp_path / "out.json",
                    [
                        "--workers",
                        "2",
                        "--retry",
                        "4",
                        "--chaos",
                        "seed=11,kill=0.3",
                        "--trace-out",
                        str(trace),
                    ],
                )
            )
            == 0
        )
        # Every line of the span file is complete, parseable JSON.
        for line in trace.read_text().splitlines():
            record = json.loads(line)
            assert record["kind"] == RECORD_KIND


def _snapshot_task(shared, value):
    from repro.obs import MetricRegistry

    registry = MetricRegistry()
    registry.gauge("g_rate").set(float(value))
    registry.counter("c_total").inc(1.0)
    return registry.snapshot()


class TestWorkerSnapshotMerge:
    def test_workers4_gauge_merge_deterministic(self):
        """Satellite pin: folding 4 workers' snapshots into a parent
        registry gives the same gauge whatever order the pool returns
        them in (max-merge), while counters still add."""
        from repro.obs import MetricRegistry

        executor = ParallelExecutor(workers=4)
        snapshots = list(
            executor.map(_snapshot_task, [3.0, -1.0, 7.0, 2.0])
        )
        import itertools

        merged_values = set()
        for order in itertools.permutations(range(4)):
            target = MetricRegistry()
            for position in order:
                target.merge_snapshot(snapshots[position])
            merged_values.add(target.value("g_rate"))
            assert target.value("c_total") == 4.0
        assert merged_values == {7.0}


class TestBenchObs:
    def test_committed_baseline_honours_contract(self):
        baseline = json.loads(
            open(
                os.path.join(
                    os.path.dirname(__file__), "..", "BENCH_obs.json"
                )
            ).read()
        )
        sweep = baseline["fig3_sweep"]
        assert sweep["overhead_ratio"] <= 1.05
        assert sweep["bit_identical"] is True
        assert sweep["spans"]["total"] == sum(
            sweep["spans"]["by_name"].values()
        )
