"""Discrete-event (GSMP) simulation of generally-timed models.

The engine runs on the same state space the Markovian phase analyses — the
rate-labelled LTS produced by :mod:`repro.aemilia.semantics` — but accepts
generally distributed rates.  Semantics:

* Every *timed* transition belongs to an **event** (its active activity,
  e.g. ``S.serve``).  When an event first becomes enabled, its duration is
  sampled from the rate's distribution; the clock then runs down across
  states as long as the event stays enabled (**enabling memory**).  An event
  that becomes disabled loses its clock; re-enabling samples afresh.
* The event with the smallest residual clock fires.  If the event has
  several branch transitions (probabilistic delivery to one of several
  passive partners), one branch is selected by branch weight.
* States whose transitions are **immediate** are vanishing: one immediate
  transition is selected by weight and fired in zero time.  Unboundedly
  long immediate chains indicate a timeless divergence and abort the run.
* Deadlock states simply let the remaining horizon elapse.
* An event due within a relative ``HORIZON_TIE`` of the horizon counts as
  due *at* the horizon and does not fire in this run.  Float sums of the
  same delays round differently when a trajectory is split into resumed
  segments, so without this rule a timer landing exactly on the horizon
  (a deterministic cycle) fires in one segmentation and not in another.

The enabling-memory rule is what gives deterministic timeouts their correct
semantics (the DPM's periodic wake-up keeps counting down while the system
moves); for exponential models it coincides with resampling (memorylessness)
so the cross-validation against the CTMC (Sect. 5.1) is exact in
distribution.  The ablation benchmark compares against restart semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..aemilia.rates import (
    ExpRate,
    GeneralRate,
    ImmediateRate,
    PassiveRate,
)
from ..ctmc.measures import Measure, RewardTable
from ..errors import SimulationError
from ..lts.lts import LTS, Transition
from ..distributions import Distribution, Exponential
from ..obs import metrics as obs_metrics

#: Abort a run after this many consecutive zero-time firings.
_MAX_IMMEDIATE_CHAIN = 100_000

#: Relative tolerance below the horizon inside which a due event is
#: treated as due at the horizon (see the module docstring).
HORIZON_TIE = 1e-12


def horizon_due(end: float) -> float:
    """Earliest firing time that counts as reaching horizon *end*."""
    return end - end * HORIZON_TIE


@dataclass
class _Event:
    """A schedulable activity of one state: distribution + branches."""

    name: str
    distribution: Distribution
    branches: List[Transition]
    total_weight: float


@dataclass
class _StateSchedule:
    """Compiled per-state view: either vanishing or a set of timed events."""

    immediate: Optional[List[Transition]]
    immediate_total_weight: float
    events: Dict[str, _Event]
    #: Per-measure reward rate earned while sojourning in the state.
    rewards: Tuple[float, ...]


@dataclass
class SimulationResult:
    """Outcome of a single simulation run."""

    measures: Dict[str, float]
    horizon: float
    events_fired: int
    final_state: int
    deadlocked: bool
    #: Residual clocks of the events enabled when the horizon was
    #: reached.  Feeding them back via ``run(..., start_clocks=...)``
    #: continues the trajectory without perturbing enabling-memory
    #: schedules — what batch-means needs so a batch boundary is not a
    #: spurious regeneration point for deterministic/Gaussian timers.
    final_clocks: Dict[str, float] = field(default_factory=dict)


class Simulator:
    """Reusable simulator for one model (LTS) and measure set."""

    def __init__(
        self,
        lts: LTS,
        measures: Sequence[Measure],
        clock_semantics: str = "enabling_memory",
    ):
        if clock_semantics not in ("enabling_memory", "restart"):
            raise SimulationError(
                f"unknown clock semantics {clock_semantics!r} "
                f"(use enabling_memory or restart)"
            )
        self.lts = lts
        self.measures = list(measures)
        self.clock_semantics = clock_semantics
        #: Shared by every run (and by the fast engine's compiled model).
        self.rewards = RewardTable(self.measures)
        self._schedules: Dict[int, _StateSchedule] = {}

    # -- schedule compilation ---------------------------------------------

    def _compile(self, state: int) -> _StateSchedule:
        schedule = self._schedules.get(state)
        if schedule is not None:
            return schedule
        transitions = self.lts.outgoing(state)
        rewards = self.rewards.state_rewards(
            frozenset(t.label for t in transitions)
        )
        immediate = [
            t for t in transitions if isinstance(t.rate, ImmediateRate)
        ]
        if immediate:
            if len(immediate) != len(transitions):
                raise SimulationError(
                    f"state {self.lts.state_info(state)} mixes immediate "
                    f"and timed transitions"
                )
            total = sum(t.rate.weight for t in immediate)
            schedule = _StateSchedule(immediate, total, {}, rewards)
            self._schedules[state] = schedule
            return schedule
        events: Dict[str, _Event] = {}
        for transition in transitions:
            rate = transition.rate
            if isinstance(rate, PassiveRate):
                raise SimulationError(
                    f"passive transition {transition.label!r} in state "
                    f"{self.lts.state_info(state)}: the timed model must "
                    f"close every passive action"
                )
            if isinstance(rate, ExpRate):
                distribution: Distribution = Exponential(rate.rate)
            elif isinstance(rate, GeneralRate):
                distribution = rate.distribution
            else:
                raise SimulationError(
                    f"transition {transition.label!r} has no usable rate "
                    f"({rate!r})"
                )
            event_name = transition.event or transition.label
            if isinstance(rate, ExpRate):
                # The generator pre-splits exponential activities across
                # probabilistic branches (exact for CTMCs).  A race of the
                # split exponentials is statistically identical to the
                # original activity (memorylessness), so each branch can
                # be its own event; clock persistence is immaterial for
                # exponentials.
                event_name = f"{event_name}::exp{len(events)}"
            event = events.get(event_name)
            if event is None:
                events[event_name] = _Event(
                    event_name, distribution, [transition], transition.weight
                )
            else:
                if event.distribution != distribution:
                    raise SimulationError(
                        f"event {event_name!r} in state "
                        f"{self.lts.state_info(state)} has branches with "
                        f"different distributions ({event.distribution} vs "
                        f"{distribution})"
                    )
                event.branches.append(transition)
                event.total_weight += transition.weight
        # Self-loops that no TRANS_REWARD clause counts never change the
        # state: skip scheduling them entirely (pure speed-up).
        # STATE_REWARD clauses look at *enabled* labels, which needs no
        # firing.
        events = {
            name: event
            for name, event in events.items()
            if not all(
                branch.source == branch.target
                and not self.rewards.observes(branch.label)
                for branch in event.branches
            )
        }
        schedule = _StateSchedule(None, 0.0, events, rewards)
        self._schedules[state] = schedule
        return schedule

    # -- running -------------------------------------------------------------

    def run(
        self,
        run_length: float,
        rng: Optional[np.random.Generator],
        warmup: float = 0.0,
        start_state: Optional[int] = None,
        observer=None,
        start_clocks: Optional[Dict[str, float]] = None,
        streams=None,
    ) -> SimulationResult:
        """Simulate one trajectory and estimate the measures.

        ``run_length`` is the *measured* horizon: the trajectory lasts
        ``warmup + run_length`` model time units and statistics collected
        during the warm-up are discarded.  An optional *observer* callable
        receives ``(time, label, target_state)`` at every firing.
        ``start_clocks`` (with ``start_state``) resumes a trajectory from
        a previous run's ``final_clocks``: events still enabled keep
        their residual clocks instead of being resampled.

        ``streams`` (a :class:`repro.sim.streams.RunStreams`) switches
        randomness from the single shared ``rng`` to per-event-type
        substreams — the common-random-numbers discipline shared with the
        vectorized kernel (docs/SIMULATION.md).  With ``streams`` set the
        trajectory is bit-identical to the fast engine's for the same
        allocator parameters, and ``rng`` may be ``None``.
        """
        if run_length <= 0:
            raise SimulationError(f"run_length must be positive, got {run_length}")
        if warmup < 0:
            raise SimulationError(f"warmup must be >= 0, got {warmup}")
        if rng is None and streams is None:
            raise SimulationError("run() needs an rng or a streams sampler")
        started = time.perf_counter()
        time_weighted = [0.0] * len(self.measures)
        impulses = [0.0] * len(self.measures)
        state = self.lts.initial if start_state is None else start_state
        now = 0.0
        end = warmup + run_length
        due = horizon_due(end)
        clocks: Dict[str, float] = dict(start_clocks or {})
        fired = 0
        immediate_chain = 0
        deadlocked = False
        while now < end:
            schedule = self._compile(state)
            if schedule.immediate is not None:
                immediate_chain += 1
                if immediate_chain > _MAX_IMMEDIATE_CHAIN:
                    raise SimulationError(
                        f"more than {_MAX_IMMEDIATE_CHAIN} consecutive "
                        f"immediate firings: timeless divergence near "
                        f"{self.lts.state_info(state)}"
                    )
                transition = self._choose_weighted(
                    schedule.immediate,
                    schedule.immediate_total_weight,
                    rng,
                    streams,
                )
                if now >= warmup:
                    self._collect_impulses(impulses, transition.label)
                if observer is not None:
                    observer(now, transition.label, transition.target)
                state = transition.target
                fired += 1
                continue
            immediate_chain = 0
            events = schedule.events
            if not events:
                deadlocked = True
                elapsed = end - now
                self._accumulate_time(
                    time_weighted, schedule.rewards, now, elapsed, warmup
                )
                now = end
                break
            if self.clock_semantics == "restart":
                clocks = {}
            # Keep clocks of still-enabled events, sample the new ones.
            clocks = {
                name: remaining
                for name, remaining in clocks.items()
                if name in events
            }
            for name, event in events.items():
                if name not in clocks:
                    clocks[name] = (
                        streams.duration(name, event.distribution)
                        if streams is not None
                        else event.distribution.sample(rng)
                    )
            # Exact clock ties (deterministic timers) break by event name,
            # matching the fast engine's lexicographic event order.
            winner = min(clocks, key=lambda name: (clocks[name], name))
            elapsed = clocks[winner]
            if now + elapsed >= due:
                # Horizon reached before the next firing: let the
                # remaining clocks run down to the horizon so a resumed
                # run carries the correct residuals (never negative: an
                # event tied with the horizon fires first thing on resume).
                remaining = end - now
                self._accumulate_time(
                    time_weighted, schedule.rewards, now, remaining, warmup
                )
                for name in clocks:
                    clocks[name] = max(clocks[name] - remaining, 0.0)
                now = end
                break
            self._accumulate_time(
                time_weighted, schedule.rewards, now, elapsed, warmup
            )
            now += elapsed
            for name in clocks:
                clocks[name] -= elapsed
            del clocks[winner]
            event = events[winner]
            transition = self._choose_weighted(
                event.branches, event.total_weight, rng, streams
            )
            if now >= warmup:
                self._collect_impulses(impulses, transition.label)
            if observer is not None:
                observer(now, transition.label, transition.target)
            state = transition.target
            fired += 1
        values = {
            measure.name: (time_weighted[j] + impulses[j]) / run_length
            for j, measure in enumerate(self.measures)
        }
        self._record_run_metrics(
            fired, deadlocked, start_clocks, time.perf_counter() - started
        )
        return SimulationResult(
            values, run_length, fired, state, deadlocked, dict(clocks)
        )

    @staticmethod
    def _record_run_metrics(
        fired: int,
        deadlocked: bool,
        start_clocks: Optional[Dict[str, float]],
        elapsed: float,
    ) -> None:
        """Always-on aggregate metrics for one completed run.

        A handful of counter bumps after the trajectory is done — the
        event loop itself is untouched, and the RNG stream never sees
        the instrumentation (docs/OBSERVABILITY.md).
        """
        registry = obs_metrics.get_registry()
        if not registry.enabled:
            return
        obs_metrics.SIM_RUNS.on(registry).inc()
        obs_metrics.SIM_EVENTS.on(registry).inc(fired)
        if deadlocked:
            obs_metrics.SIM_DEADLOCKS.on(registry).inc()
        if start_clocks:
            obs_metrics.SIM_CLOCK_CARRIES.on(registry).inc(
                len(start_clocks)
            )
        obs_metrics.SIM_RUN_SECONDS.on(registry).observe(elapsed)
        if elapsed > 0.0:
            obs_metrics.SIM_EVENT_RATE.on(registry).set(fired / elapsed)

    def _collect_impulses(self, impulses: List[float], label: str) -> None:
        """Credit the impulses of one firing of a *label* transition."""
        for j, reward in enumerate(self.rewards.impulses(label)):
            if reward:
                impulses[j] += reward

    @staticmethod
    def _accumulate_time(
        time_weighted: List[float],
        rewards: Tuple[float, ...],
        now: float,
        elapsed: float,
        warmup: float,
    ) -> None:
        """Credit sojourn time at reward rates *rewards*, clipping the
        warm-up."""
        if elapsed <= 0:
            return
        measured_start = max(now, warmup)
        measured_elapsed = now + elapsed - measured_start
        if measured_elapsed <= 0:
            return
        for j, reward in enumerate(rewards):
            if reward:
                time_weighted[j] += reward * measured_elapsed

    @staticmethod
    def _choose_weighted(
        transitions: List[Transition],
        total_weight: float,
        rng: Optional[np.random.Generator],
        streams=None,
    ) -> Transition:
        if len(transitions) == 1:
            return transitions[0]
        if streams is not None:
            pick = streams.branch() * total_weight
        else:
            pick = rng.uniform(0.0, total_weight)
        acc = 0.0
        for transition in transitions:
            weight = (
                transition.rate.weight
                if isinstance(transition.rate, ImmediateRate)
                else transition.weight
            )
            acc += weight
            if pick <= acc:
                return transition
        return transitions[-1]


def simulate(
    lts: LTS,
    measures: Sequence[Measure],
    run_length: float,
    rng: np.random.Generator,
    warmup: float = 0.0,
    clock_semantics: str = "enabling_memory",
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulator`."""
    simulator = Simulator(lts, measures, clock_semantics)
    return simulator.run(run_length, rng, warmup)
