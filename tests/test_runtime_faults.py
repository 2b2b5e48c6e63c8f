"""Chaos tests of the fault-tolerant runtime (docs/RELIABILITY.md).

The contract under test: injected faults — poisoned tasks, killed
workers, delays, even a SIGKILL of the whole sweep process — change
*nothing* about the results.  Retried tasks replay the same derived
random streams, checkpointed sweeps resume bit-identically, and when
the retry budget runs out the failure is a typed error that says which
task gave up after how many attempts.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.aemilia import parse_architecture
from repro.aemilia.pretty import print_architecture
from repro.core import sweep as sweep_module
from repro.core.methodology import IncrementalMethodology
from repro.experiments.cli import main
from repro.errors import (
    CheckpointError,
    ReproError,
    RetryBudgetExceededError,
    RuntimeExecutionError,
    WorkerFaultError,
)
from repro.fleet import FleetAssessment
from repro.obs import tracing
from repro.runtime import (
    FaultInjector,
    ParallelExecutor,
    RetryPolicy,
    SweepCheckpoint,
    sweep_fingerprint,
)
from repro.runtime.faults import DELAY, KILL, POISON, plan_preview
from repro.sim.output import replicate, replicate_until

FAST_RETRY = RetryPolicy(max_attempts=3, backoff=0.0)

#: Committed sweep journals (``tests/data``).
JOURNALS = Path(__file__).with_name("data")


def _cube(shared, item):
    return (shared or 0) + item**3


class TestFaultInjectorDeterminism:
    def test_plan_is_a_pure_function_of_seed_index_attempt(self):
        injector = FaultInjector(seed=7, kill=0.2, poison=0.3, delay=0.2)
        first = plan_preview(injector, 64)
        second = plan_preview(FaultInjector(seed=7, kill=0.2, poison=0.3,
                                            delay=0.2), 64)
        assert first == second
        assert set(first) <= {None, KILL, POISON, DELAY}
        # With 70% total fault probability over 64 indices something fires.
        assert any(first)

    def test_fault_budget_per_task_bounds_attempts(self):
        injector = FaultInjector(seed=1, poison=1.0, max_faults_per_task=2)
        assert injector.plan(0, 0) == POISON
        assert injector.plan(0, 1) == POISON
        assert injector.plan(0, 2) is None  # attempt 2 runs clean

    def test_explicit_indices_override_the_draw(self):
        injector = FaultInjector(
            seed=3, kill_indices=frozenset({4}),
            poison_indices=frozenset({5}),
        )
        assert injector.plan(4, 0) == KILL
        assert injector.plan(5, 0) == POISON
        assert injector.plan(6, 0) is None

    def test_parse_round_trip(self):
        injector = FaultInjector.parse(
            "seed=7,kill=0.1,poison=0.2,delay=0.3,delay-seconds=0.05,"
            "kill-indices=1+3,max-faults-per-task=4"
        )
        assert injector.seed == 7
        assert injector.kill == 0.1
        assert injector.poison == 0.2
        assert injector.delay == 0.3
        assert injector.delay_seconds == 0.05
        assert injector.kill_indices == frozenset({1, 3})
        assert injector.max_faults_per_task == 4
        with pytest.raises(ValueError):
            FaultInjector.parse("sabotage=1.0")

    def test_serial_kill_raises_instead_of_exiting(self):
        injector = FaultInjector(seed=0, kill_indices=frozenset({0}))
        with pytest.raises(WorkerFaultError):
            injector.apply(0, 0, in_worker=False)


class TestChaosEquivalence:
    """Faults plus retries must reproduce the fault-free results."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_poisoned_tasks_retry_to_identical_results(self, workers):
        items = list(range(12))
        clean = ParallelExecutor(workers).map(_cube, items, shared=2)
        before = tracing.totals()
        faults = FaultInjector(
            seed=11, poison_indices=frozenset({1, 5, 9})
        )
        chaotic = ParallelExecutor(workers).map(
            _cube, items, shared=2, retry=FAST_RETRY, faults=faults,
        )
        assert chaotic == clean == [2 + i**3 for i in items]
        assert tracing.totals().since(before).count("retry") == 3

    def test_killed_workers_rebuild_pool_and_match(self):
        items = list(range(10))
        clean = [3 + i**3 for i in items]
        before = tracing.totals()
        faults = FaultInjector(seed=5, kill_indices=frozenset({2, 7}))
        survived = ParallelExecutor(4).map(
            _cube, items, shared=3, retry=FAST_RETRY, faults=faults,
        )
        assert survived == clean
        # both killed tasks were re-run
        assert tracing.totals().since(before).count("retry") >= 2

    def test_degrades_to_serial_when_workers_keep_dying(self):
        # Kill probability 1.0 for two attempts per task: every pool
        # round breaks until the executor gives up on pools entirely.
        items = list(range(6))
        before = tracing.totals()
        faults = FaultInjector(seed=2, kill=1.0, max_faults_per_task=2)
        executor = ParallelExecutor(2, max_pool_restarts=1)
        results = executor.map(
            _cube, items, shared=0, retry=FAST_RETRY, faults=faults,
        )
        assert results == [i**3 for i in items]
        assert tracing.totals().since(before).count("degraded") >= 1


class TestRetryBudget:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_exhaustion_raises_typed_error(self, workers):
        faults = FaultInjector(
            seed=4, poison_indices=frozenset({3}), max_faults_per_task=99
        )
        with pytest.raises(RetryBudgetExceededError) as info:
            ParallelExecutor(workers).map(
                _cube, list(range(6)),
                retry=RetryPolicy(max_attempts=2, backoff=0.0),
                faults=faults,
            )
        error = info.value
        assert error.index == 3
        assert error.attempts == 2
        assert isinstance(error.last_error, WorkerFaultError)
        # The hierarchy keeps `except ReproError` handlers working.
        assert isinstance(error, RuntimeExecutionError)
        assert isinstance(error, ReproError)


class TestCheckpointJournal:
    def test_wrong_fingerprint_is_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepCheckpoint(path, sweep_fingerprint(parameter="a")) as ck:
            ck.record(0, {"m": 1.0}, 0.01)
        with pytest.raises(CheckpointError):
            SweepCheckpoint(
                path, sweep_fingerprint(parameter="b")
            ).load()

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepCheckpoint(path, sweep_fingerprint(parameter="a")) as ck:
            ck.record(0, {"m": 1.0}, 0.01)
            ck.record(1, {"m": 2.0}, 0.01)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "point", "index": 2, "resu')  # torn
        reopened = SweepCheckpoint(path, sweep_fingerprint(parameter="a"))
        reopened.load()
        assert set(reopened.completed) == {0, 1}
        assert reopened.completed[1] == {"m": 2.0}

    def test_interrupted_sweep_resumes_bit_identically(
        self, tmp_path, rpc_family, sweep_spec
    ):
        values = [0.5, 2.0, 5.0, 11.0, 25.0]
        baseline = IncrementalMethodology(rpc_family).sweep_markovian(
            "shutdown_timeout", values
        )
        journal = tmp_path / "sweep.jsonl"
        # First run: task 3 poisons on every attempt, so the sweep dies
        # with points 0-2 journalled (serial executes in order).
        doomed = IncrementalMethodology(
            rpc_family,
            retry=RetryPolicy(max_attempts=2, backoff=0.0),
            faults=FaultInjector(
                seed=0, poison_indices=frozenset({3}),
                max_faults_per_task=99,
            ),
        )
        with pytest.raises(RetryBudgetExceededError):
            doomed.sweep_markovian(
                "shutdown_timeout", values, checkpoint=str(journal)
            )
        survivor = SweepCheckpoint(
            journal,
            sweep_spec(
                IncrementalMethodology(rpc_family), "sweep_markovian",
                "shutdown_timeout", values,
            ).fingerprint(),
        )
        survivor.load()
        assert set(survivor.completed) == {0, 1, 2}
        # Second run: no faults, same journal — replays 0-2, computes the
        # rest, and the full series matches the uninterrupted baseline.
        resumed_methodology = IncrementalMethodology(rpc_family)
        resumed = resumed_methodology.sweep_markovian(
            "shutdown_timeout", values, checkpoint=str(journal)
        )
        assert resumed == baseline
        assert resumed_methodology.runtime_stats()["checkpoint_hits"] == 3


class TestSpanDerivedCounters:
    """``runtime_stats()`` retry and checkpoint-hit counts, pinned.

    The expected numbers were recorded from the flat per-attempt
    recorder that used to feed these counters, on the same sweeps; the
    span aggregate of :mod:`repro.obs.tracing` must reproduce them.
    """

    VALUES = [0.5, 2.0, 11.0, 25.0]

    def _counts(self, family, workers, chaos, retry, checkpoint=None):
        methodology = IncrementalMethodology(
            family,
            workers=workers,
            retry=RetryPolicy(max_attempts=retry) if retry else None,
            faults=FaultInjector.parse(chaos) if chaos else None,
        )
        methodology.sweep_markovian(
            "shutdown_timeout", self.VALUES, checkpoint=checkpoint
        )
        stats = methodology.runtime_stats()
        return stats["retries"], stats["checkpoint_hits"]

    def test_serial_poison_retries(self, rpc_family):
        assert self._counts(rpc_family, 1, "seed=7,poison=0.3", 3) == (2, 0)

    def test_pool_kill_retries(self, rpc_family):
        assert self._counts(rpc_family, 4, "kill-indices=0", 3) == (1, 0)

    def test_checkpoint_resume_hits(self, rpc_family, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        doomed = IncrementalMethodology(
            rpc_family,
            retry=RetryPolicy(max_attempts=2, backoff=0.0),
            faults=FaultInjector(
                seed=0, poison_indices=frozenset({2}),
                max_faults_per_task=99,
            ),
        )
        with pytest.raises(RetryBudgetExceededError):
            doomed.sweep_markovian(
                "shutdown_timeout", self.VALUES, checkpoint=journal
            )
        assert doomed.runtime_stats()["retries"] == 1
        resumed = self._counts(
            rpc_family, 1, "seed=7,poison=0.3", 3, checkpoint=journal
        )
        assert resumed == (2, 2)
        assert self._counts(rpc_family, 4, None, None, journal) == (0, 4)


class TestJournalIdentity:
    """A journal resumes only the sweep that wrote it.

    The fingerprint is the sweep spec's content hash, so an edited
    measure, an edited model, a journal of the retired vectorized engine
    or a bumped pipeline version refuses the journal instead of
    replaying stale points.
    """

    VALUES = [1.0, 5.0]

    def _sweep(self, family, journal):
        return IncrementalMethodology(family).sweep_markovian(
            "shutdown_timeout", self.VALUES, checkpoint=str(journal)
        )

    def test_edited_measure_reward_is_refused(self, tmp_path, rpc_family):
        journal = tmp_path / "sweep.jsonl"
        baseline = self._sweep(rpc_family, journal)
        doubled = [
            replace(
                measure,
                clauses=tuple(
                    replace(clause, value=2 * clause.value)
                    for clause in measure.clauses
                ),
            )
            if measure.name == "waiting_time"
            else measure
            for measure in rpc_family.measures
        ]
        edited = replace(rpc_family, measures=doubled)
        fresh = IncrementalMethodology(edited).sweep_markovian(
            "shutdown_timeout", self.VALUES
        )
        assert fresh["waiting_time"] == pytest.approx(
            [2 * value for value in baseline["waiting_time"]]
        )
        with pytest.raises(CheckpointError):
            self._sweep(edited, journal)

    def test_swapped_architecture_is_refused(self, tmp_path, rpc_family):
        journal = tmp_path / "sweep.jsonl"
        self._sweep(rpc_family, journal)
        text = print_architecture(rpc_family.markovian_dpm)
        assert "const real proc_time := 9.7," in text
        swapped = replace(
            rpc_family,
            markovian_dpm=parse_architecture(
                text.replace(
                    "const real proc_time := 9.7,",
                    "const real proc_time := 19.4,",
                )
            ),
        )
        assert swapped.name == rpc_family.name
        with pytest.raises(CheckpointError):
            self._sweep(swapped, journal)

    def test_bumped_pipeline_version_is_refused(
        self, tmp_path, rpc_family, monkeypatch
    ):
        journal = tmp_path / "sweep.jsonl"
        self._sweep(rpc_family, journal)
        monkeypatch.setattr(
            sweep_module, "PIPELINE_VERSION",
            sweep_module.PIPELINE_VERSION + 1,
        )
        with pytest.raises(CheckpointError):
            self._sweep(rpc_family, journal)

    @staticmethod
    def _journal_copy(tmp_path, name):
        """A copy of a committed journal that the retired vectorized
        engine (the former ``--engine fast``) wrote."""
        source = JOURNALS / name
        journal = tmp_path / name
        journal.write_bytes(source.read_bytes())
        return journal, source.read_bytes()

    def test_workload_sweep_on_another_engine_is_refused(
        self, tmp_path, rpc_family
    ):
        """Its per-run streams differ from the per-run generators
        ``replicate`` uses now, so resuming would mix two samples."""
        journal, recorded = self._journal_copy(
            tmp_path, "journal_fast_engine_workloads.jsonl"
        )
        with pytest.raises(CheckpointError):
            IncrementalMethodology(rpc_family).sweep_workloads(
                {"spec": None}, "shutdown_timeout", self.VALUES,
                run_length=200.0, runs=2, checkpoint=str(journal),
            )
        assert journal.read_bytes() == recorded

    def test_fast_engine_cli_journal_is_refused(self, tmp_path):
        journal, recorded = self._journal_copy(
            tmp_path, "journal_fast_engine_general.jsonl"
        )
        output = tmp_path / "series.json"
        assert main([
            "run-sweep", "--case", "rpc", "--phase", "general",
            "--parameter", "shutdown_timeout", "--values", "1,5",
            "--runs", "2", "--run-length", "200",
            "--checkpoint", str(journal), "--output", str(output),
        ]) == 1
        assert journal.read_bytes() == recorded
        assert not output.exists()

    @pytest.mark.parametrize(
        "edit", [{"drain_rate": 0.07}, {"power_busy": 2.5}],
        ids=["component-model", "measure"],
    )
    def test_edited_fleet_model_or_measure_is_refused(
        self, tmp_path, monkeypatch, edit
    ):
        import repro.casestudies.fleet as fleet_case

        journal = str(tmp_path / "fleet.jsonl")
        FleetAssessment(2).sweep(
            "arrival_rate", [0.5, 1.5], checkpoint=journal
        )
        monkeypatch.setattr(
            fleet_case, "DEFAULT_PARAMETERS",
            fleet_case.DEFAULT_PARAMETERS.override(edit),
        )
        with pytest.raises(CheckpointError):
            FleetAssessment(2).sweep(
                "arrival_rate", [0.5, 1.5], checkpoint=journal
            )


class TestWelfordRetryRegression:
    """A retried replication must be recorded exactly once (satellite 4).

    If a replayed run reached the Welford accumulators twice, the sample
    list would grow, the running variance would shrink, and the adaptive
    stopping rule would fire early — all silently.  Chaos runs must
    instead be indistinguishable from clean ones.
    """

    def _streams_case(self, rpc_family):
        methodology = IncrementalMethodology(rpc_family)
        return methodology.build_lts("general", "dpm", None)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_replicate_until_estimates_unchanged_by_retries(
        self, rpc_family, workers
    ):
        lts = self._streams_case(rpc_family)
        measures = rpc_family.measures
        kwargs = dict(
            run_length=400.0, relative_half_width=0.5,
            min_runs=4, max_runs=12, seed=99,
        )
        clean = replicate_until(lts, measures, workers=1, **kwargs)
        before = tracing.totals()
        # Fault indices address positions within each internal batch, so
        # index 0 poisons (and retries) the first task of every batch.
        chaotic = replicate_until(
            lts, measures, workers=workers,
            retry=FAST_RETRY,
            faults=FaultInjector(seed=6, poison_indices=frozenset({0})),
            **kwargs,
        )
        assert tracing.totals().since(before).count("retry") >= 1
        for name, estimate in clean.estimates.items():
            other = chaotic.estimates[name]
            assert estimate.mean == other.mean
            assert estimate.half_width == other.half_width
            assert estimate.runs == other.runs
            # Same number of samples: nothing was double-counted.
            assert clean.samples[name] == chaotic.samples[name]

    def test_replicate_estimates_unchanged_by_retries(self, rpc_family):
        lts = self._streams_case(rpc_family)
        measures = rpc_family.measures
        clean = replicate(lts, measures, 400.0, runs=6, seed=99)
        chaotic = replicate(
            lts, measures, 400.0, runs=6, seed=99,
            retry=FAST_RETRY,
            faults=FaultInjector(seed=8, poison_indices=frozenset({1, 4})),
        )
        for name in clean.estimates:
            assert clean.samples[name] == chaotic.samples[name]
            assert clean.estimates[name] == chaotic.estimates[name]


SIGKILL_SWEEPS = {
    "rpc": ("shutdown_timeout",
            "0.5,1.0,2.0,4.0,6.0,8.0,11.0,16.0,20.0,25.0"),
    "streaming": ("awake_period", "10.0,20.0,35.0,50.0,75.0,100.0"),
    "fleet": ("arrival_rate", "0.25,0.5,0.75,1.0,1.5,2.0,3.0,4.0"),
}


@pytest.fixture(scope="module")
def sweep_baselines(tmp_path_factory, sweep_cli):
    """Uninterrupted run-sweep JSON output, once per case."""
    outputs = {}
    root = tmp_path_factory.mktemp("baselines")
    for case, (parameter, values) in SIGKILL_SWEEPS.items():
        out = root / f"{case}.json"
        process = sweep_cli.start([
            "--case", case, "--phase", "markovian",
            "--parameter", parameter, "--values", values,
            "--output", str(out),
        ])
        assert process.wait(timeout=180) == 0
        outputs[case] = out.read_bytes()
    return outputs


@pytest.mark.parametrize("case", sorted(SIGKILL_SWEEPS))
@pytest.mark.parametrize("workers", [1, 4])
class TestSigkillResume:
    """The acceptance scenario: SIGKILL mid-sweep, resume, same bits."""

    def test_sigkill_interrupted_sweep_resumes_bit_identically(
        self, case, workers, tmp_path, sweep_baselines, sweep_cli
    ):
        parameter, values = SIGKILL_SWEEPS[case]
        journal = tmp_path / "journal.jsonl"
        common = [
            "--case", case, "--phase", "markovian",
            "--parameter", parameter, "--values", values,
            "--checkpoint", str(journal), "--workers", str(workers),
        ]
        # A deterministic delay fault slows every point down so the kill
        # reliably lands mid-sweep.
        victim = sweep_cli.start(
            common + ["--chaos", "seed=1,delay=1.0,delay-seconds=0.3"]
        )
        sweep_cli.kill_mid_sweep(victim, journal)
        total = len(values.split(","))
        completed = sweep_cli.completed(journal)
        assert 1 <= completed < total, (
            f"kill landed outside the sweep: {completed}/{total} points"
        )
        # Resume: same journal, no chaos; replays the completed prefix
        # and finishes the rest.
        out = tmp_path / "resumed.json"
        resumed = sweep_cli.start(common + ["--output", str(out)])
        assert resumed.wait(timeout=180) == 0
        assert out.read_bytes() == sweep_baselines[case]
        assert sweep_cli.completed(journal) == total
