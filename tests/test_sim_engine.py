"""Tests for the discrete-event (GSMP) simulation engine."""

import numpy as np
import pytest

from repro.aemilia import generate_lts, parse_architecture
from repro.aemilia.rates import (
    ExpRate,
    GeneralRate,
    ImmediateRate,
    PassiveRate,
)
from repro.ctmc import (
    build_ctmc,
    evaluate_measure,
    measure,
    state_clause,
    steady_state,
    trans_clause,
)
from repro.distributions import Deterministic, Exponential
from repro.errors import SimulationError
from repro.lts import LTS
from repro.sim import (
    EventTraceRecorder,
    Simulator,
    make_generator,
    simulate,
)


def rated_lts(entries, initial=0):
    lts = LTS(initial)
    states = 1 + max(max(s, t) for s, _, t, _ in entries)
    for _ in range(states):
        lts.add_state()
    for source, label, target, rate in entries:
        lts.add_transition(source, label, target, rate, event=f"E{label}")
    return lts


class TestBasicRuns:
    def test_two_state_time_split(self):
        """Exp(2)/Exp(3) alternation: 60% of time in state 0."""
        lts = rated_lts(
            [(0, "up", 1, ExpRate(2.0)), (1, "down", 0, ExpRate(3.0))]
        )
        m = measure("in0", state_clause("up", 1.0))
        result = simulate(lts, [m], 50_000.0, make_generator(7))
        assert result.measures["in0"] == pytest.approx(0.6, rel=0.02)

    def test_trans_measure_is_rate(self):
        lts = rated_lts(
            [(0, "up", 1, ExpRate(2.0)), (1, "down", 0, ExpRate(3.0))]
        )
        m = measure("ups", trans_clause("up", 1.0))
        result = simulate(lts, [m], 50_000.0, make_generator(7))
        # Cycle rate = 1/(1/2 + 1/3) = 1.2 per time unit.
        assert result.measures["ups"] == pytest.approx(1.2, rel=0.02)

    def test_deterministic_alternation_exact(self):
        lts = rated_lts(
            [
                (0, "up", 1, GeneralRate(Deterministic(2.0))),
                (1, "down", 0, GeneralRate(Deterministic(3.0))),
            ]
        )
        m = measure("in0", state_clause("up", 1.0))
        result = simulate(lts, [m], 50_000.0, make_generator(1))
        assert result.measures["in0"] == pytest.approx(0.4, abs=0.001)

    def test_deadlock_ends_run(self):
        lts = rated_lts([(0, "die", 1, ExpRate(1.0))])
        m = measure("alive", state_clause("die", 1.0))
        result = simulate(lts, [m], 1_000.0, make_generator(3))
        assert result.deadlocked
        # Time in state 0 is ~1 time unit out of 1000.
        assert result.measures["alive"] < 0.01

    def test_immediate_chain_resolved_in_zero_time(self):
        lts = rated_lts(
            [
                (0, "fire", 1, ExpRate(1.0)),
                (1, "hopA", 2, ImmediateRate(1, 1.0)),
                (2, "hopB", 0, ImmediateRate(1, 1.0)),
            ]
        )
        fires = measure("fires", trans_clause("fire", 1.0))
        hops = measure("hops", trans_clause("hopA", 1.0))
        result = simulate(lts, [fires, hops], 20_000.0, make_generator(5))
        assert result.measures["hops"] == pytest.approx(
            result.measures["fires"], rel=1e-9
        )

    def test_immediate_branch_weights(self):
        lts = LTS(0)
        for _ in range(4):
            lts.add_state()
        lts.add_transition(0, "fire", 1, ExpRate(5.0), "fire")
        lts.add_transition(1, "left", 2, ImmediateRate(1, 3.0), "branch")
        lts.add_transition(1, "right", 3, ImmediateRate(1, 1.0), "branch")
        lts.add_transition(2, "backL", 0, ExpRate(5.0), "backL")
        lts.add_transition(3, "backR", 0, ExpRate(5.0), "backR")
        lefts = measure("lefts", trans_clause("left", 1.0))
        rights = measure("rights", trans_clause("right", 1.0))
        result = simulate(lts, [lefts, rights], 30_000.0, make_generator(11))
        ratio = result.measures["lefts"] / result.measures["rights"]
        assert ratio == pytest.approx(3.0, rel=0.05)

    def test_timeless_divergence_detected(self):
        lts = rated_lts(
            [
                (0, "a", 1, ImmediateRate(1, 1.0)),
                (1, "b", 0, ImmediateRate(1, 1.0)),
            ]
        )
        with pytest.raises(SimulationError, match="immediate"):
            simulate(lts, [], 10.0, make_generator(1))

    def test_passive_transition_rejected(self):
        lts = rated_lts(
            [(0, "a", 1, PassiveRate()), (1, "b", 0, ExpRate(1.0))]
        )
        with pytest.raises(SimulationError, match="passive"):
            simulate(lts, [], 10.0, make_generator(1))

    def test_run_length_must_be_positive(self):
        lts = rated_lts([(0, "a", 0, ExpRate(1.0))])
        with pytest.raises(SimulationError):
            simulate(lts, [], 0.0, make_generator(1))


class TestClockSemantics:
    def _interrupt_model(self):
        """A deterministic timer racing a fast exponential disturbance.

        State 0: timer det(10) to state 2; disturbance exp(1) to state 1.
        State 1: recovery exp(10) back to state 0 (timer still enabled? no:
        in state 1 the timer is NOT enabled, so enabling memory discards
        it — both semantics resample).  To expose the difference we keep
        the timer enabled in both states by wiring it from both.
        """
        lts = LTS(0)
        for _ in range(3):
            lts.add_state()
        # Timer event shared by states 0 and 1 (same event name).
        lts.add_transition(0, "timeout", 2, GeneralRate(Deterministic(10.0)), "timer")
        lts.add_transition(1, "timeout", 2, GeneralRate(Deterministic(10.0)), "timer")
        lts.add_transition(0, "disturb", 1, ExpRate(1.0), "disturb")
        lts.add_transition(1, "recover", 0, ExpRate(1.0), "recover")
        lts.add_transition(2, "reset", 0, ExpRate(100.0), "reset")
        return lts

    def test_enabling_memory_timer_unaffected_by_disturbance(self):
        lts = self._interrupt_model()
        timeouts = measure("t", trans_clause("timeout", 1.0))
        result = simulate(
            lts, [timeouts], 50_000.0, make_generator(2),
            clock_semantics="enabling_memory",
        )
        # Timer stays armed through disturb/recover: fires every ~10+eps.
        assert result.measures["t"] == pytest.approx(0.1, rel=0.05)

    def test_restart_semantics_starves_the_timer(self):
        lts = self._interrupt_model()
        timeouts = measure("t", trans_clause("timeout", 1.0))
        result = simulate(
            lts, [timeouts], 50_000.0, make_generator(2),
            clock_semantics="restart",
        )
        # Every disturbance restarts the det(10) timer: far fewer firings.
        assert result.measures["t"] < 0.02

    def test_restart_equals_memory_for_exponentials(self):
        """Memorylessness: both semantics agree for all-exp models."""
        lts = rated_lts(
            [(0, "up", 1, ExpRate(2.0)), (1, "down", 0, ExpRate(3.0))]
        )
        m = measure("in0", state_clause("up", 1.0))
        mem = simulate(
            lts, [m], 30_000.0, make_generator(9),
            clock_semantics="enabling_memory",
        )
        re = simulate(
            lts, [m], 30_000.0, make_generator(9), clock_semantics="restart"
        )
        assert mem.measures["in0"] == pytest.approx(
            re.measures["in0"], rel=0.03
        )

    def test_unknown_semantics_rejected(self):
        lts = rated_lts([(0, "a", 0, ExpRate(1.0))])
        with pytest.raises(SimulationError):
            Simulator(lts, [], clock_semantics="quantum")


class TestClockCarryAcrossRuns:
    """``final_clocks`` / ``start_clocks``: resuming a trajectory keeps
    the residual event clocks instead of resampling them."""

    @staticmethod
    def _cycle():
        lts = LTS(0)
        for _ in range(2):
            lts.add_state()
        lts.add_transition(
            0, "tick", 1, GeneralRate(Deterministic(150.0)), "tick"
        )
        lts.add_transition(
            1, "tock", 0, GeneralRate(Deterministic(50.0)), "tock"
        )
        return lts

    def test_final_clocks_hold_the_residuals(self):
        lts = self._cycle()
        m = measure("armed", state_clause("tick", 1.0))
        simulator = Simulator(lts, [m])
        result = simulator.run(100.0, make_generator(1))
        assert result.final_state == 0
        assert result.final_clocks == pytest.approx({"tick": 50.0})

    def test_resumed_run_matches_one_long_run(self):
        lts = self._cycle()
        m = measure("armed", state_clause("tick", 1.0))
        simulator = Simulator(lts, [m])
        rng = make_generator(1)
        state, clocks = None, None
        firings = []
        offset = 0.0

        def observe(time, label, target):
            firings.append((offset + time, label))

        for _ in range(5):
            result = simulator.run(
                90.0, rng, start_state=state, start_clocks=clocks,
                observer=observe,
            )
            state = result.final_state
            clocks = result.final_clocks
            offset += 90.0
        # One uninterrupted trajectory: tick at 150, tock at 200, ...
        assert [
            (pytest.approx(t), label) for t, label in
            [(150.0, "tick"), (200.0, "tock"), (350.0, "tick"),
             (400.0, "tock")]
        ] == firings


class TestAgainstAnalyticSolution:
    def test_exponential_model_matches_ctmc(self, mm1k):
        """Statistical agreement between the simulator and the solver."""
        lts = generate_lts(mm1k)
        ctmc = build_ctmc(lts)
        pi = steady_state(ctmc)
        served = measure("served", trans_clause("Q.serve", 1.0))
        analytic = evaluate_measure(ctmc, pi, served)
        result = simulate(lts, [served], 100_000.0, make_generator(13))
        assert result.measures["served"] == pytest.approx(analytic, rel=0.03)

    def test_warmup_removes_initial_bias(self):
        """A long initial delay distorts short runs unless cut off."""
        lts = LTS(0)
        for _ in range(3):
            lts.add_state()
        lts.add_transition(0, "boot", 1, GeneralRate(Deterministic(500.0)), "boot")
        lts.add_transition(1, "work", 2, ExpRate(1.0), "work")
        lts.add_transition(2, "rest", 1, ExpRate(1.0), "rest")
        m = measure("working", state_clause("rest", 1.0))
        biased = simulate(lts, [m], 1_000.0, make_generator(3))
        unbiased = simulate(lts, [m], 1_000.0, make_generator(3), warmup=600.0)
        assert unbiased.measures["working"] == pytest.approx(0.5, abs=0.08)
        assert biased.measures["working"] < unbiased.measures["working"]


class TestObserverAndTrace:
    def test_observer_sees_every_firing(self):
        lts = rated_lts(
            [(0, "up", 1, ExpRate(2.0)), (1, "down", 0, ExpRate(3.0))]
        )
        events = []
        simulator = Simulator(lts, [])
        result = simulator.run(
            100.0, make_generator(4),
            observer=lambda t, label, target: events.append(label),
        )
        assert len(events) == result.events_fired
        assert set(events) == {"up", "down"}

    def test_trace_recorder_caps_entries(self):
        lts = rated_lts(
            [(0, "up", 1, ExpRate(2.0)), (1, "down", 0, ExpRate(3.0))]
        )
        recorder = EventTraceRecorder(lts, capacity=10)
        recorder.run(1_000.0, make_generator(4))
        assert len(recorder.entries) == 10
        assert "capped" in recorder.format()

    def test_trace_times_are_monotone(self):
        lts = rated_lts(
            [(0, "up", 1, ExpRate(2.0)), (1, "down", 0, ExpRate(3.0))]
        )
        recorder = EventTraceRecorder(lts, capacity=50)
        recorder.run(1_000.0, make_generator(4))
        times = [entry.time for entry in recorder.entries]
        assert times == sorted(times)


class TestSelfLoopOptimisation:
    def test_unobserved_selfloops_skipped(self):
        lts = LTS(0)
        for _ in range(2):
            lts.add_state()
        lts.add_transition(0, "monitor", 0, ExpRate(1000.0), "monitor")
        lts.add_transition(0, "go", 1, ExpRate(1.0), "go")
        lts.add_transition(1, "back", 0, ExpRate(1.0), "back")
        # Only a STATE measure references the monitor: no need to fire it.
        m = measure("marked", state_clause("monitor", 1.0))
        simulator = Simulator(lts, [m])
        result = simulator.run(1_000.0, make_generator(6))
        # Events fired should be ~2 per cycle, far below the 1000/unit
        # monitor rate.
        assert result.events_fired < 3_000
        assert result.measures["marked"] == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize(
        "label, pattern",
        [
            ("tick", "tick"),
            ("M.tick#S.obs", "M.*"),
            ("M.tick#S.obs", "S.obs"),
        ],
        ids=["whole-label", "wildcard", "sync-participant"],
    )
    def test_trans_observed_selfloops_still_fire(self, label, pattern):
        lts = LTS(0)
        lts.add_state()
        lts.add_transition(0, label, 0, ExpRate(10.0), label)
        m = measure("ticks", trans_clause(pattern, 1.0))
        result = simulate(lts, [m], 5_000.0, make_generator(8))
        assert result.measures["ticks"] == pytest.approx(10.0, rel=0.05)
