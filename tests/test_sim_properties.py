"""Property-based tests of the simulation engine (hypothesis).

Three laws the engine on per-event-type streams and the run streams
must obey on *randomly generated* models and parameters, not just the
case studies:

* **Clock carry.**  Splitting a trajectory at an arbitrary batch
  boundary (``start_state``/``start_clocks``) continues it — same
  firings, same final state, same residual clocks — so batch-means
  boundaries are never spurious regeneration points.
* **Enabling memory.**  An event that stays enabled across state
  changes keeps counting down (a deterministic timer fires at its
  scheduled absolute time no matter how many other events interleave);
  ``restart`` semantics resamples and fires late.
* **Stream identity.**  Stream draws depend only on
  ``(seed, run index, event-type name)`` — never on the order in which
  event types are first touched, or on which other event types exist.

Plus the pinned-value regression for :mod:`repro.sim.random`'s
name-keyed substream derivation: the CRN pairing contract
(docs/SIMULATION.md) makes these bytes part of the public interface, so
a refactor that shifts them must fail loudly here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aemilia.rates import GeneralRate
from repro.ctmc import measure, state_clause, trans_clause
from repro.distributions import (
    Deterministic,
    Exponential,
    Normal,
    Uniform,
)
from repro.lts import LTS
from repro.sim import (
    RunStreams,
    Simulator,
    event_generator,
    event_stream_key,
)

MEASURES = [
    measure("time_in_0", state_clause("a", 1.0)),
    measure("a_rate", trans_clause("a", 1.0)),
]


def _streamed(simulator, run_length, streams, resume=None):
    """One run on *streams*, continuing *resume* if given."""
    if resume is None:
        return simulator.run(run_length, streams)
    return simulator.run(
        run_length,
        streams,
        start_state=resume.final_state,
        start_clocks=resume.final_clocks,
    )


@st.composite
def cycle_model(draw, states=3):
    """A random timed cycle: state i fires event ``e{i}`` to state i+1.

    Distribution families are drawn per state from the same mix the
    case studies use (deterministic timeouts, Gaussian service times,
    uniform and exponential phases), so the property runs cover every
    clock-arithmetic path of the engine.
    """
    lts = LTS(0)
    for _ in range(states):
        lts.add_state()
    for source in range(states):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            dist = Deterministic(draw(st.floats(0.1, 5.0)))
        elif kind == 1:
            dist = Exponential(draw(st.floats(0.2, 4.0)))
        elif kind == 2:
            dist = Normal(draw(st.floats(0.5, 4.0)), draw(st.floats(0.05, 0.5)))
        else:
            low = draw(st.floats(0.1, 2.0))
            dist = Uniform(low, low + draw(st.floats(0.1, 2.0)))
        label = "a" if source == 0 else f"e{source}"
        lts.add_transition(
            source, label, (source + 1) % states, GeneralRate(dist), label
        )
    return lts


class TestClockCarry:
    @given(model=cycle_model(), seed=st.integers(0, 2**16), split=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_split_trajectory_continues_the_full_one(
        self, model, seed, split
    ):
        """run(L) == run(s) ∘ run(L−s) when clocks are carried across."""
        horizon = 40.0
        boundary = split * horizon
        simulator = Simulator(model, MEASURES)
        full = _streamed(simulator, horizon, RunStreams(seed, 0))
        streams = RunStreams(seed, 0)
        head = _streamed(simulator, boundary, streams)
        tail = _streamed(simulator, horizon - boundary, streams, head)
        assert head.events_fired + tail.events_fired == full.events_fired
        assert tail.final_state == full.final_state
        assert set(tail.final_clocks) == set(full.final_clocks)
        for name, residual in full.final_clocks.items():
            # Carried clocks decrement in two steps instead of one, so
            # the residuals agree to rounding, not to the bit.
            assert tail.final_clocks[name] == pytest.approx(
                residual, rel=1e-9, abs=1e-9
            )

    def test_timer_due_exactly_at_the_horizon(self):
        """A deterministic 0.2/0.2/0.5 cycle fires ``a`` exactly at the
        split point 20 and ``e1`` exactly at the horizon 40.  Whole and
        split runs round those sums differently; both must still agree
        on what fired."""
        lts = LTS(0)
        for _ in range(3):
            lts.add_state()
        for source, (label, delay) in enumerate(
            [("a", 0.2), ("e1", 0.2), ("e2", 0.5)]
        ):
            lts.add_transition(
                source,
                label,
                (source + 1) % 3,
                GeneralRate(Deterministic(delay)),
                label,
            )
        simulator = Simulator(lts, MEASURES)
        full = _streamed(simulator, 40.0, RunStreams(0, 0))
        streams = RunStreams(0, 0)
        head = _streamed(simulator, 20.0, streams)
        tail = _streamed(simulator, 20.0, streams, head)
        assert head.events_fired + tail.events_fired == full.events_fired
        assert tail.final_state == full.final_state


def _timer_race(hop_rate: float, timeout: float) -> LTS:
    """Two states; a det ``tick`` enabled in both races an exp ``hop``."""
    lts = LTS(0)
    lts.add_state()
    lts.add_state()
    tick = GeneralRate(Deterministic(timeout))
    hop = GeneralRate(Exponential(hop_rate))
    lts.add_transition(0, "tick", 0, tick, "tick")
    lts.add_transition(1, "tick", 1, tick, "tick")
    lts.add_transition(0, "hop", 1, hop, "hop")
    lts.add_transition(1, "hop", 0, hop, "hop")
    return lts


TIMER_MEASURES = [measure("ticks", trans_clause("tick", 1.0))]


class TestEnablingMemory:
    @given(
        hop_rate=st.floats(0.5, 8.0),
        timeout=st.floats(1.0, 10.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_persistent_timer_fires_on_schedule(
        self, hop_rate, timeout, seed
    ):
        """The det timer keeps its clock across hops: first firing at
        exactly ``timeout`` under enabling memory, strictly later under
        restart whenever a hop pre-empted it."""
        model = _timer_race(hop_rate, timeout)
        firings = []

        def observer(when, label, target):
            if label == "tick" and not firings:
                firings.append(when)

        Simulator(model, TIMER_MEASURES).run(
            timeout * 3,
            RunStreams(seed, 0),
            observer=observer,
        )
        assert firings, "det timer never fired within 3 timeouts"
        assert firings[0] == pytest.approx(timeout, rel=1e-12)

        restarted = []

        def restart_observer(when, label, target):
            restarted.append((when, label))

        Simulator(model, TIMER_MEASURES, "restart").run(
            timeout * 3,
            RunStreams(seed, 0),
            observer=restart_observer,
        )
        hops_before = [
            when for when, label in restarted if label == "hop"
        ]
        ticks = [when for when, label in restarted if label == "tick"]
        if hops_before and hops_before[0] < timeout:
            # The hop resampled the timer: its first firing (if any
            # within the horizon) comes strictly after the schedule.
            assert not ticks or ticks[0] > timeout


class TestStreamIdentity:
    @given(
        seed=st.integers(0, 2**20),
        run=st.integers(0, 64),
        names=st.lists(
            st.sampled_from(
                ["C.req", "S.serve", "DPM.shutdown", "S.awake", "RCS.prop"]
            ),
            min_size=2,
            max_size=5,
            unique=True,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_draws_independent_of_touch_order(self, seed, run, names):
        """Touching event types in any order yields identical streams."""
        dist = Exponential(1.0)
        forward = RunStreams(seed, run)
        backward = RunStreams(seed, run)
        first = {
            name: [forward.duration(name, dist) for _ in range(3)]
            for name in names
        }
        second = {
            name: [backward.duration(name, dist) for _ in range(3)]
            for name in reversed(names)
        }
        assert first == second

    @given(seed=st.integers(0, 2**20), run=st.integers(0, 64))
    @settings(max_examples=50, deadline=None)
    def test_streams_unaffected_by_other_event_types(self, seed, run):
        """Adding an event type to a model reshuffles nobody else."""
        dist = Uniform(0.0, 1.0)
        small = RunStreams(seed, run)
        large = RunStreams(seed, run)
        large.duration("Z.newcomer", dist)
        assert [small.duration("S.serve", dist) for _ in range(4)] == [
            large.duration("S.serve", dist) for _ in range(4)
        ]


class TestStreamRegression:
    """Pinned bytes: the (seed, run, name) -> stream map is an interface.

    Checkpoints, CRN pairing and the differential contract all assume
    these derivations never drift; if an intentional change moves them,
    update the pins and bump the checkpoint fingerprints' story in
    docs/SIMULATION.md.
    """

    def test_event_stream_key_pinned(self):
        assert event_stream_key("C.process_result_packet") == (
            7172991918175249518,
            14445653606099387599,
        )

    def test_event_generator_pinned(self):
        first = event_generator(20040628, 0, "C.process_result_packet")
        np.testing.assert_allclose(
            first.random(3),
            [0.5936360607730822, 0.19066939154478357, 0.9266602261026605],
            rtol=0.0,
            atol=0.0,
        )
        other = event_generator(20040628, 3, "S.awake")
        np.testing.assert_allclose(
            other.random(3),
            [0.48976447856706007, 0.22387966799078407, 0.4219161832524123],
            rtol=0.0,
            atol=0.0,
        )

    def test_run_and_name_both_matter(self):
        base = event_generator(1, 0, "E.a").random(4).tolist()
        assert event_generator(1, 1, "E.a").random(4).tolist() != base
        assert event_generator(1, 0, "E.b").random(4).tolist() != base
        assert event_generator(2, 0, "E.a").random(4).tolist() != base
