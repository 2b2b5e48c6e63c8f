"""End-to-end tests of the workload subsystem through the methodology.

The contracts under test (ISSUE acceptance criteria):

* the case-study workload hooks exist and ``apply_workload`` rewrites
  them without touching anything else;
* trace-driven general sweeps are bit-identical across worker counts
  and across checkpoint resume — including a SIGKILL of the whole CLI
  process mid-sweep — and a journal written under one workload refuses
  to resume under another;
* replaying a generated exponential trace through the general-phase
  simulator reproduces the analytic Markovian measures for **both**
  case studies (trace cross-validation);
* the fig7 workload extension produces a Pareto front per class for
  Poisson / MMPP-bursty / Pareto heavy-tail workloads.
"""

import json
from pathlib import Path

import pytest

from repro.aemilia.rates import GeneralRate
from repro.core.methodology import IncrementalMethodology
from repro.distributions import Exponential, Pareto
from repro.errors import AnalysisError, CheckpointError
from repro.experiments.extensions import fig7_workloads
from repro.experiments.cli import main
from repro.workload import (
    MMPPGenerator,
    PoissonGenerator,
    TraceReplay,
    apply_workload,
    cross_validate_replay,
    write_trace,
)


#: Fast general-sweep settings shared by the in-process tests.
FAST = dict(run_length=800.0, runs=2, warmup=50.0)


@pytest.fixture(scope="module")
def rpc_general(rpc_family):
    return IncrementalMethodology(rpc_family).build_lts("general", "dpm")


@pytest.fixture(scope="module")
def mmpp_trace():
    return MMPPGenerator(2.0, 0.05, 5.0, 50.0).generate(
        600, seed=42
    ).rescaled(9.7)


class TestCaseStudyHooks:
    def test_rpc_hook_rewrites_only_processing_time(
        self, rpc_family, rpc_general
    ):
        workload = Pareto(1.5, 9.7 / 3.0)
        rewritten = apply_workload(
            rpc_general, rpc_family.workload_pattern, workload
        )
        replaced = [
            t
            for t in rewritten.transitions
            if isinstance(t.rate, GeneralRate)
            and t.rate.distribution is workload
        ]
        assert replaced
        assert all(
            "process_result_packet" in t.label for t in replaced
        )
        assert rewritten.num_states == rpc_general.num_states
        assert rewritten.num_transitions == rpc_general.num_transitions

    def test_streaming_hook_exists(self, streaming_family):
        # Presence check without building the (large) streaming LTS:
        # the methodology validates the hook against the family.
        assert streaming_family.workload_pattern == "S.produce_frame"
        IncrementalMethodology(
            streaming_family, workload=Exponential(1.0 / 67.0)
        )

    def test_workload_without_hook_is_rejected(self, rpc_family):
        import dataclasses

        hookless = dataclasses.replace(rpc_family, workload_pattern=None)
        with pytest.raises(AnalysisError, match="workload"):
            IncrementalMethodology(hookless, workload=Exponential(1.0))


class TestSweepDeterminism:
    """Same seed => same bits, no matter how the work is executed."""

    def test_trace_sweep_identical_across_worker_counts(
        self, rpc_family, mmpp_trace
    ):
        workload = TraceReplay(mmpp_trace, "cycle")
        serial = IncrementalMethodology(rpc_family).sweep_general(
            "shutdown_timeout", [5.0, 15.0], workload=workload, **FAST
        )
        parallel = IncrementalMethodology(
            rpc_family, workers=4
        ).sweep_general(
            "shutdown_timeout", [5.0, 15.0], workload=workload, **FAST
        )
        assert parallel == serial

    def test_workload_changes_the_results(self, rpc_family):
        plain = IncrementalMethodology(rpc_family).sweep_general(
            "shutdown_timeout", [5.0], **FAST
        )
        heavy = IncrementalMethodology(rpc_family).sweep_general(
            "shutdown_timeout", [5.0],
            workload=Pareto(1.5, 9.7 / 3.0), **FAST
        )
        assert plain != heavy

    def test_checkpoint_refuses_a_different_workload(
        self, rpc_family, mmpp_trace, tmp_path
    ):
        journal = str(tmp_path / "journal.jsonl")
        workload = TraceReplay(mmpp_trace)
        IncrementalMethodology(rpc_family).sweep_general(
            "shutdown_timeout", [5.0], workload=workload,
            checkpoint=journal, **FAST
        )
        with pytest.raises(CheckpointError):
            IncrementalMethodology(rpc_family).sweep_general(
                "shutdown_timeout", [5.0],
                workload=Pareto(1.5, 9.7 / 3.0),
                checkpoint=journal, **FAST
            )

    def test_checkpoint_resume_replays_trace_sweep_bit_identically(
        self, rpc_family, mmpp_trace, tmp_path
    ):
        journal = str(tmp_path / "journal.jsonl")
        workload = TraceReplay(mmpp_trace, "cycle")
        first = IncrementalMethodology(rpc_family).sweep_general(
            "shutdown_timeout", [5.0, 15.0], workload=workload,
            checkpoint=journal, **FAST
        )
        resumed_methodology = IncrementalMethodology(rpc_family)
        resumed = resumed_methodology.sweep_general(
            "shutdown_timeout", [5.0, 15.0], workload=workload,
            checkpoint=journal, **FAST
        )
        assert resumed == first
        assert resumed_methodology.runtime_stats()["checkpoint_hits"] == 2


class TestSweepWorkloads:
    CLASSES = [5.0, 15.0]

    def _workloads(self, trace):
        return {
            "poisson": Exponential(1.0 / 9.7),
            "mmpp": TraceReplay(trace, "cycle"),
            "pareto": Pareto(1.5, 9.7 / 3.0),
        }

    def test_grid_is_identical_serial_and_parallel(
        self, rpc_family, mmpp_trace
    ):
        workloads = self._workloads(mmpp_trace)
        serial = IncrementalMethodology(rpc_family).sweep_workloads(
            workloads, "shutdown_timeout", self.CLASSES, **FAST
        )
        parallel = IncrementalMethodology(
            rpc_family, workers=4
        ).sweep_workloads(
            workloads, "shutdown_timeout", self.CLASSES, **FAST
        )
        assert parallel == serial
        assert sorted(serial) == ["mmpp", "pareto", "poisson"]
        for name, series in serial.items():
            for values in series.values():
                assert len(values) == len(self.CLASSES)
        # Distinct workload shapes produce distinct series.
        assert serial["poisson"] != serial["pareto"]

    def test_spec_class_is_sweep_general(self, rpc_family):
        """The spec-duration class is exactly the plain general sweep."""
        grid = IncrementalMethodology(rpc_family).sweep_workloads(
            {"spec": None}, "shutdown_timeout", self.CLASSES, **FAST
        )
        assert grid["spec"] == IncrementalMethodology(
            rpc_family
        ).sweep_general("shutdown_timeout", self.CLASSES, **FAST)

    def test_empty_grid_is_rejected(self, rpc_family):
        with pytest.raises(AnalysisError, match="at least one"):
            IncrementalMethodology(rpc_family).sweep_workloads(
                {}, "shutdown_timeout", [5.0]
            )


class TestReplayCrossValidation:
    """Acceptance: replaying a generated exponential trace reproduces
    the analytic Markovian measures within confidence half-widths."""

    def test_rpc(self, rpc_family, rpc_general):
        report = cross_validate_replay(
            rpc_general,
            hook="C.process_result_packet",
            hook_rate=1.0 / 9.7,
            measures=rpc_family.measures,
            batch_length=2_000.0,
            batches=12,
            warmup=300.0,
        )
        assert report.passed, str(report)
        assert report.trace_events == 4000

    def test_streaming(self, streaming_family):
        lts = IncrementalMethodology(streaming_family).build_lts(
            "general", "dpm"
        )
        report = cross_validate_replay(
            lts,
            hook="S.produce_frame",
            hook_rate=1.0 / 67.0,
            measures=streaming_family.measures,
            batch_length=8_000.0,
            batches=12,
            warmup=300.0,
        )
        assert report.passed, str(report)


class TestFig7Workloads:
    """Acceptance: a Pareto front per workload class, resumable."""

    QUICK = dict(
        timeouts=[1.0, 5.0, 15.0], runs=2, run_length=1_500.0,
        warmup=100.0, trace_events=600,
    )

    def test_three_classes_each_with_a_front(self, tmp_path):
        journal = str(tmp_path / "grid.jsonl")
        figure = fig7_workloads(
            checkpoint=journal, **self.QUICK
        )
        assert sorted(figure.curves) == ["mmpp", "pareto", "poisson"]
        for name, curve in figure.curves.items():
            front = curve.pareto_front()
            assert front, f"workload {name} produced an empty front"
            assert len(front) + len(curve.dominated_points()) == 3
        assert figure.workloads["mmpp"].startswith("replay:cycle:")
        assert figure.workloads["poisson"] == "exp(0.103093)"
        # Resume from the completed journal: same curves, all cached.
        resumed = fig7_workloads(
            checkpoint=journal, **self.QUICK
        )
        for name in figure.curves:
            assert (
                resumed.curves[name].points == figure.curves[name].points
            )
        assert resumed.runtime.checkpoint_hits == 9

    def test_report_renders(self):
        figure = fig7_workloads(
            timeouts=[5.0], runs=2, run_length=400.0, warmup=0.0,
            trace_events=200,
        )
        text = figure.report()
        assert "fig7-workloads" in text
        for name in ("poisson", "mmpp", "pareto"):
            assert f"workload {name}" in text


class TestWorkloadCLI:
    def test_generate_fit_replay_round_trip(self, tmp_path, capsys):
        trace_file = str(tmp_path / "wl.jsonl")
        assert main([
            "workload", "generate",
            "--generator", "mmpp:2,0.05,5,50",
            "--events", "300", "--seed", "9",
            "--rescale-mean", "9.7",
            "--out", trace_file,
        ]) == 0
        summary = json.loads(
            capsys.readouterr().out.rsplit("[trace", 1)[0]
        )
        assert summary["events"] == 300
        assert summary["mean"] == pytest.approx(9.7)

        fit_file = str(tmp_path / "fit.json")
        assert main([
            "workload", "fit", trace_file, "--out", fit_file,
        ]) == 0
        report = json.loads(Path(fit_file).read_text())
        assert report["trace"]["fingerprint"] == summary["fingerprint"]
        assert any(
            candidate["family"] == report["best"]
            for candidate in report["candidates"]
        )

        out_file = str(tmp_path / "replay.json")
        assert main([
            "workload", "replay", trace_file,
            "--case", "rpc", "--mode", "cycle",
            "--runs", "2", "--run-length", "400", "--warmup", "20",
            "--output", out_file,
        ]) == 0
        payload = json.loads(Path(out_file).read_text())
        assert payload["mode"] == "cycle"
        assert "energy" in payload["estimates"]

    def test_generate_rejects_bad_spec(self, tmp_path):
        assert main([
            "workload", "generate",
            "--generator", "zeta:1.0",
            "--out", str(tmp_path / "x.jsonl"),
        ]) == 1

    def test_fit_rejects_missing_trace(self, tmp_path):
        assert main([
            "workload", "fit", str(tmp_path / "missing.jsonl"),
        ]) == 1

    def test_workload_flag_rejects_bad_spec(self):
        with pytest.raises(SystemExit, match="--workload"):
            main(["fig3-general", "--quick", "--workload", "zeta:1.0"])


# ---------------------------------------------------------------------------
# The SIGKILL acceptance scenario, now with a trace-driven workload.
# ---------------------------------------------------------------------------


class TestSigkillResumeWithWorkload:
    VALUES = "0.5,2.0,5.0,11.0,15.0,25.0"

    def _common(self, trace_file):
        return [
            "--case", "rpc", "--phase", "general",
            "--parameter", "shutdown_timeout", "--values", self.VALUES,
            "--runs", "2", "--run-length", "500", "--warmup", "25",
            "--workload", f"trace:{trace_file}:cycle",
        ]

    def test_sigkill_resume_is_bit_identical(self, tmp_path, sweep_cli):
        trace_file = str(tmp_path / "workload.jsonl")
        write_trace(
            PoissonGenerator(1.0 / 9.7).generate(500, seed=13), trace_file
        )
        common = self._common(trace_file)

        baseline_out = tmp_path / "baseline.json"
        clean = sweep_cli.start(common + ["--output", str(baseline_out)])
        assert clean.wait(timeout=180) == 0

        journal = tmp_path / "journal.jsonl"
        victim = sweep_cli.start(
            common + [
                "--checkpoint", str(journal), "--workers", "4",
                "--chaos", "seed=1,delay=1.0,delay-seconds=0.3",
            ]
        )
        sweep_cli.kill_mid_sweep(victim, journal)
        total = len(self.VALUES.split(","))
        completed = sweep_cli.completed(journal)
        assert 1 <= completed < total, (
            f"kill landed outside the sweep: {completed}/{total} points"
        )

        resumed_out = tmp_path / "resumed.json"
        resumed = sweep_cli.start(
            common + [
                "--checkpoint", str(journal), "--workers", "4",
                "--output", str(resumed_out),
            ]
        )
        assert resumed.wait(timeout=180) == 0
        assert resumed_out.read_bytes() == baseline_out.read_bytes()
        assert sweep_cli.completed(journal) == total
