"""CLI tests for the observability commands and flags.

Covers ``trace-summary`` and ``metrics`` end to end (exit codes, empty
and malformed inputs) and the ``--metrics-out`` flag on ``run-sweep``:
the exports must cover solver iterations, sim event throughput, cache
events and retry/span counters for both case studies.  A ``run-sweep``
whose task fails ends with one logged error and a nonzero exit.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import main
from repro.obs import (
    MetricRegistry,
    configure_logging,
    load_json_export,
    use_registry,
)
from repro.obs.tracing import Tracer


@pytest.fixture()
def trace_file(tmp_path):
    """A small valid span trace, as ``--trace-out`` writes it."""
    path = str(tmp_path / "trace.jsonl")
    tracer = Tracer(path)
    root = tracer.add_span("sweep", None, 0.0, 1.0)
    tracer.add_span("solve", root, 0.0, 0.1, index=0)
    tracer.add_span("solve", root, 0.1, 0.3, status="retry", index=1)
    tracer.add_span("simulate", root, 0.3, 0.6, index=0)
    tracer.close()
    return path


class TestTraceSummary:
    def test_valid_trace(self, trace_file, capsys):
        assert main(["trace-summary", trace_file, "--check"]) == 0
        out = capsys.readouterr().out
        assert "solve" in out
        assert "retry" in out
        assert "span tree OK" in out

    def test_missing_file(self, tmp_path):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["trace-summary", missing]) == 1

    def test_empty_file_has_no_span_records(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace-summary", str(path)]) == 1

    def test_flat_records_are_refused(self, tmp_path, capsys):
        path = tmp_path / "flat.jsonl"
        path.write_text(
            json.dumps({"phase": "solve", "event": "point", "index": 0,
                        "status": "ok", "wall": 0.1})
            + "\n"
        )
        stream = io.StringIO()
        configure_logging(stream=stream, force=True)
        try:
            assert main(["trace-summary", str(path)]) == 1
        finally:
            configure_logging(force=True)
        assert "has no span records" in stream.getvalue()
        assert capsys.readouterr().out == ""

    def test_malformed_middle_line(self, trace_file):
        with open(trace_file) as handle:
            lines = handle.read().splitlines()
        lines[1] = '{"phase": "solve", TORN'
        with open(trace_file, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        assert main(["trace-summary", trace_file]) == 1

    def test_second_run_replaces_the_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        argv = [
            "run-sweep", "--case", "rpc", "--phase", "markovian",
            "--parameter", "shutdown_timeout", "--values", "1,5",
            "--output", str(tmp_path / "out.json"),
            "--trace-out", str(trace),
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        lines = trace.read_text().splitlines()
        assert len({json.loads(line)["trace"] for line in lines}) == 1
        assert main(["trace-summary", str(trace), "--check"]) == 0
        assert "span tree OK" in capsys.readouterr().out

    def test_torn_final_line_tolerated(self, trace_file, capsys):
        with open(trace_file, "a") as handle:
            handle.write('{"phase": "solve", "ev')  # crash mid-write
        assert main(["trace-summary", trace_file]) == 0
        assert "solve" in capsys.readouterr().out


class TestMetricsCommand:
    def test_catalog_listing(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "repro_solver_iterations_total" in out
        assert "repro_sim_events_total" in out
        assert "repro_cache_events_total" in out
        assert "histogram" in out

    def test_inspect_valid_export(self, tmp_path, capsys):
        export = tmp_path / "run.json"
        registry = MetricRegistry()
        registry.counter(
            "repro_cache_events_total", "Cache.", ("kind",)
        ).labels(kind="hit").inc(3)
        registry.histogram("repro_solver_residual", "R.", ()).observe(1e-15)
        export.write_text(json.dumps(registry.snapshot()))
        assert main(["metrics", str(export)]) == 0
        out = capsys.readouterr().out
        assert "kind=hit" in out
        assert "count=1" in out  # histogram rendering

    def test_missing_file(self, tmp_path):
        assert main(["metrics", str(tmp_path / "nope.json")]) == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert main(["metrics", str(path)]) == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": closed')
        assert main(["metrics", str(path)]) == 1

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "array.json"
        path.write_text("[1, 2, 3]")
        assert main(["metrics", str(path)]) == 1


def _value(snapshot, name, **labels):
    total = 0.0
    for entry in snapshot.get(name, {}).get("series", ()):
        if all(entry["labels"].get(k) == v for k, v in labels.items()):
            total += entry.get("value", entry.get("count", 0))
    return total


class TestMetricsOut:
    def _run_sweep(self, tmp_path, extra):
        prefix = str(tmp_path / "metrics")
        with use_registry(MetricRegistry()):
            code = main(
                ["run-sweep", "--metrics-out", prefix, "--retry", "2"]
                + extra
            )
        assert code == 0
        return load_json_export(prefix + ".json")

    def test_rpc_markovian_export(self, tmp_path, capsys):
        snapshot = self._run_sweep(
            tmp_path,
            [
                "--case", "rpc", "--phase", "markovian",
                "--parameter", "shutdown_timeout", "--values", "1,5,11",
            ],
        )
        out = capsys.readouterr().out
        assert "[metrics written to" in out
        assert (tmp_path / "metrics.prom").exists()
        assert _value(snapshot, "repro_solver_iterations_total") >= 3
        assert _value(snapshot, "repro_solver_solves_total") == 3
        assert _value(snapshot, "repro_cache_events_total", kind="miss") == 1
        assert (
            _value(snapshot, "repro_cache_events_total", kind="relabel")
            == 2
        )
        assert (
            _value(
                snapshot, "repro_sweep_points_total",
                case="rpc", kind="markovian",
            )
            == 3
        )
        # one residual observation per solve (histogram count)
        assert _value(snapshot, "repro_solver_residual") == 3

    def test_rpc_parametric_export_counts_points(self, tmp_path):
        """A parametric sweep runs one task per worker chunk; the counter
        still counts its points."""
        snapshot = self._run_sweep(
            tmp_path,
            [
                "--case", "rpc", "--phase", "markovian",
                "--parameter", "shutdown_timeout", "--values", "0.5,25.0",
                "--points", "40", "--solver", "parametric",
            ],
        )
        assert (
            _value(
                snapshot, "repro_sweep_points_total",
                case="rpc", kind="markovian",
            )
            == 40
        )

    def test_rpc_general_export_covers_simulation(self, tmp_path):
        snapshot = self._run_sweep(
            tmp_path,
            [
                "--case", "rpc", "--phase", "general",
                "--parameter", "shutdown_timeout", "--values", "5",
                "--runs", "2", "--run-length", "500", "--warmup", "0",
            ],
        )
        assert _value(snapshot, "repro_sim_runs_total") == 2
        assert _value(snapshot, "repro_sim_events_total") > 0
        assert _value(snapshot, "repro_cache_events_total", kind="miss") == 1
        assert (
            _value(
                snapshot, "repro_sweep_points_total",
                case="rpc", kind="general",
            )
            == 1
        )

    def test_streaming_markovian_export(self, tmp_path):
        snapshot = self._run_sweep(
            tmp_path,
            [
                "--case", "streaming", "--phase", "markovian",
                "--parameter", "awake_period", "--values", "100,200",
            ],
        )
        assert _value(snapshot, "repro_solver_solves_total") == 2
        assert _value(snapshot, "repro_solver_iterations_total") >= 2
        assert _value(snapshot, "repro_cache_events_total", kind="miss") == 1
        assert (
            _value(
                snapshot, "repro_sweep_points_total",
                case="streaming", kind="markovian",
            )
            == 2
        )
        assert _value(snapshot, "repro_solver_residual") == 2

    def test_prometheus_export_parses(self, tmp_path):
        prefix = str(tmp_path / "metrics")
        with use_registry(MetricRegistry()):
            assert (
                main(
                    [
                        "run-sweep", "--metrics-out", prefix,
                        "--case", "rpc", "--phase", "markovian",
                        "--parameter", "shutdown_timeout", "--values", "5",
                    ]
                )
                == 0
            )
        with open(prefix + ".prom") as handle:
            text = handle.read()
        assert "# TYPE repro_solver_solves_total counter" in text
        assert 'repro_solver_solves_total{method="direct"} 1' in text
        assert "repro_solver_residual_bucket" in text


class TestRunSweepTaskFailure:
    def test_poisoned_task_is_one_error_line_not_a_traceback(
        self, tmp_path
    ):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        output = tmp_path / "sweep.json"
        done = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments", "run-sweep",
                "--case", "rpc", "--phase", "markovian",
                "--parameter", "shutdown_timeout", "--values", "1,5,11",
                "--chaos", "seed=0,poison-indices=1",
                "--output", str(output),
            ],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr + done.stdout
        assert "sweep failed: injected poison fault on task 1" in done.stderr
        assert not output.exists()
