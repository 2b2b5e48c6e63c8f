"""Reference implementations the tests and benchmarks compare against.

:func:`gauss_seidel_reference` is the historical pure-Python
Gauss-Seidel sweep, verbatim.  It is not a solver backend: the sor
fixed-point pin in ``tests/test_solvers.py`` checks that the vectorized
``sor`` backend reaches its fixed point, and
``benchmarks/bench_solvers.py`` times it to quantify the speedup.

:func:`build_ctmc_reference` is the historical one-pass LTS -> CTMC
construction, verbatim: it classifies and eliminates the vanishing
states on every call.  ``tests/test_ctmc_plan.py`` pins the cached
:class:`~repro.ctmc.build.EliminationPlan` path of
:func:`~repro.ctmc.build.build_ctmc` to it with ``==``.

:class:`ReferenceStateSpaceGenerator` is the historical per-global-state
move classification, verbatim: for every reachable state it re-derives
each local move's direction and attachments, builds fresh global moves
and re-renders every instance's description.
``tests/test_generation_tables.py`` pins the per-local-state move tables
of :class:`~repro.aemilia.semantics.StateSpaceGenerator` to it with
``==``.

:class:`ReferenceSimulator` is the historical reference simulation
engine, verbatim: it compiles each state into transition lists, scans
branch weights linearly and credits impulses and sojourn rewards
through per-firing helpers.  ``tests/test_sim_tables.py`` pins the
single event loop over compiled per-state tables of
:class:`~repro.sim.engine.Simulator` to it with ``==``.

:func:`gth_eliminate_reference` is the historical parametric GTH
elimination, verbatim: a linear Markowitz ``min`` over the remaining
states at every pivot and one numpy update per (source, target) fill
pair.  ``tests/test_parametric_elimination.py`` pins the heap-ordered,
gather/scatter :func:`~repro.ctmc.parametric._eliminate` to it:
``x`` byte-equal and the fill count ``==``.
"""

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.aemilia.elemtypes import Direction
from repro.aemilia.rates import (
    ExpRate,
    GeneralRate,
    ImmediateRate,
    PassiveRate,
)
from repro.aemilia.semantics import StateSpaceGenerator, _GlobalMove
from repro.ctmc.build import _check_timed, _VanishingResolver, classify_states
from repro.ctmc.chain import CTMC
from repro.ctmc.measures import Measure, RewardTable
from repro.ctmc.solvers import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE
from repro.distributions import Distribution, Exponential
from repro.ctmc.parametric import ParametricOptions
from repro.errors import (
    MarkovianError,
    ParametricError,
    SimulationError,
    SolverError,
)
from repro.lts.labels import local_label
from repro.lts.lts import LTS, Transition
from repro.obs import metrics as obs_metrics
from repro.sim.engine import (
    _MAX_IMMEDIATE_CHAIN,
    SimulationResult,
    horizon_due,
)


def build_ctmc_reference(lts: LTS) -> CTMC:
    """Turn the rate-labelled LTS of a Markovian model into a CTMC."""
    tangible, vanishing = classify_states(lts)
    if not tangible:
        raise MarkovianError(
            "the model has no tangible state: every state is vanishing"
        )
    is_vanishing = {state: False for state in lts.states()}
    for state in vanishing:
        is_vanishing[state] = True
    for state in tangible:
        _check_timed(lts, state)
    tangible_index = {state: i for i, state in enumerate(tangible)}
    resolver = _VanishingResolver(lts, is_vanishing)

    # Initial distribution: a vanishing initial state spreads over the
    # tangible states it resolves to.
    initial = np.zeros(len(tangible))
    if is_vanishing[lts.initial]:
        for target, probability, _ in resolver.resolve(lts.initial):
            initial[tangible_index[target]] += probability
    else:
        initial[tangible_index[lts.initial]] = 1.0

    ctmc = CTMC(len(tangible), initial)
    for state in tangible:
        source = tangible_index[state]
        ctmc.set_state_info(source, lts.state_info(state))
        ctmc.set_enabled_labels(
            source,
            frozenset(t.label for t in lts.outgoing(state)),
        )
        for transition in lts.outgoing(state):
            rate: ExpRate = transition.rate  # _check_timed guarantees this
            base_counts = {transition.label: 1.0}
            if not is_vanishing[transition.target]:
                ctmc.add_transition(
                    source,
                    tangible_index[transition.target],
                    rate.rate,
                    base_counts,
                )
                continue
            for target, probability, counts in resolver.resolve(
                transition.target
            ):
                merged = {
                    label: count / probability
                    for label, count in counts.items()
                }
                merged[transition.label] = merged.get(
                    transition.label, 0.0
                ) + 1.0
                ctmc.add_transition(
                    source,
                    tangible_index[target],
                    rate.rate * probability,
                    merged,
                )
    return ctmc


def gauss_seidel_reference(
    q: sparse.csr_matrix,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> np.ndarray:
    """The historical pure-Python Gauss-Seidel sweep, verbatim.

    Note it retains the historical *absolute* convergence test.
    """
    size = q.shape[0]
    qt = q.transpose().tocsr()
    diag = qt.diagonal()
    if np.any(diag == 0):
        raise SolverError(
            "Gauss-Seidel needs non-zero diagonal entries (absorbing state?)"
        )
    pi = np.full(size, 1.0 / size)
    indptr, indices, data = qt.indptr, qt.indices, qt.data
    for _ in range(max_iterations):
        old = pi.copy()
        for row in range(size):
            acc = 0.0
            for position in range(indptr[row], indptr[row + 1]):
                column = indices[position]
                if column != row:
                    acc += data[position] * pi[column]
            pi[row] = -acc / diag[row]
        total = pi.sum()
        if total <= 0:
            raise SolverError("Gauss-Seidel diverged to a non-positive vector")
        pi /= total
        if np.max(np.abs(pi - old)) < tolerance:
            return pi
    raise SolverError(
        f"Gauss-Seidel did not converge within {max_iterations} iterations"
    )


class ReferenceStateSpaceGenerator(StateSpaceGenerator):
    """The generator with the historical per-state move classification."""

    # -- classification helpers -------------------------------------------

    def _direction(self, instance_index: int, action: str) -> Optional[Direction]:
        elem_type = self._instances[instance_index].elem_type
        if elem_type.has_interaction(action):
            return elem_type.interaction(action).direction
        return None

    def _is_attached_input(self, instance_index: int, action: str) -> bool:
        return (instance_index, action) in self._attached_inputs

    # -- move computation --------------------------------------------------

    def _global_moves(self, state: Tuple[int, ...]) -> List[_GlobalMove]:
        moves: List[_GlobalMove] = []
        for index, semantics in enumerate(self._instances):
            instance_name = semantics.name
            for move in semantics.moves(state[index]):
                direction = self._direction(index, move.action)
                if direction is Direction.INPUT:
                    if self._is_attached_input(index, move.action):
                        continue  # fires only through its output partner
                    # Open input: observable passive action.
                    moves.append(
                        _GlobalMove(
                            label=local_label(instance_name, move.action),
                            rate=move.rate,
                            event=local_label(instance_name, move.action),
                            weight=1.0,
                            targets=((index, move.target),),
                            provenance=self._move_provenance(move),
                        )
                    )
                    continue
                if direction is Direction.OUTPUT:
                    attachments = self._attachments_from.get(
                        (index, move.action), []
                    )
                    if attachments:
                        moves.extend(
                            self._sync_moves(state, index, move, attachments)
                        )
                        continue
                # Internal action or open output: autonomous move.
                moves.append(
                    _GlobalMove(
                        label=local_label(instance_name, move.action),
                        rate=move.rate,
                        event=local_label(instance_name, move.action),
                        weight=1.0,
                        targets=((index, move.target),),
                        provenance=self._move_provenance(move),
                    )
                )
        return moves

    def _describe(self, state: Tuple[int, ...]) -> str:
        parts = []
        for semantics, local_state in zip(self._instances, state):
            parts.append(
                f"{semantics.name}:{semantics.state_summary(local_state)}"
            )
        return " | ".join(parts)


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


class ReferenceSimulator:
    """The reference engine with the historical per-firing helpers."""

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
        #: Shared by every run.
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
        substreams — the common-random-numbers discipline
        (docs/SIMULATION.md); with ``streams`` set, ``rng`` may be
        ``None``.
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
            # lexicographically.
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


def gth_eliminate_reference(
    capture, options: ParametricOptions
) -> Tuple[np.ndarray, int]:
    """GTH state elimination; returns (x matrix, fill ops used).

    *capture* holds ``recurrent`` (its length is the state count),
    ``out_edges`` (position -> {target: node vector}, in insertion
    order), ``in_edges`` (position -> set of sources) and
    ``atom_values`` (its second axis is the node count); the edge maps
    are consumed.

    ``x[i]`` is the unnormalised steady-state weight vector of position
    ``i`` over the sample nodes.  Elimination order is Markowitz
    min-fill (in-degree x out-degree product, smallest index as the
    deterministic tie-break); every update is the subtraction-free GTH
    rule, so no cancellation can occur at any node.
    """
    out_edges = capture.out_edges
    in_edges = capture.in_edges
    size = len(capture.recurrent)
    node_count = capture.atom_values.shape[1] if size else 0
    remaining = set(range(size))
    eliminations: List[Tuple[int, np.ndarray, Dict[int, np.ndarray]]] = []
    ops = 0
    while len(remaining) > 1:
        k = min(
            remaining,
            key=lambda s: (len(in_edges[s]) * len(out_edges[s]), s),
        )
        outs = out_edges.pop(k)
        sources = in_edges.pop(k)
        outs.pop(k, None)
        sources.discard(k)
        if not outs:
            raise ParametricError(
                "a recurrent state lost all outgoing rates during "
                "elimination (inconsistent chain)",
                reason="structure",
            )
        exit_total = np.add.reduce(list(outs.values()))
        saved: Dict[int, np.ndarray] = {}
        for i in sorted(sources):
            q_ik = out_edges[i].pop(k)
            saved[i] = q_ik
            factor = q_ik / exit_total
            row = out_edges[i]
            for j, q_kj in outs.items():
                if j == i:
                    continue  # the diagonal stays implicit in GTH
                ops += 1
                existing = row.get(j)
                if existing is None:
                    row[j] = factor * q_kj
                    in_edges[j].add(i)
                else:
                    row[j] = existing + factor * q_kj
            if ops > options.max_fill_ops:
                raise ParametricError(
                    f"GTH fill-in exceeded the budget of "
                    f"{options.max_fill_ops} update operations",
                    reason="budget",
                )
        for j in outs:
            in_edges[j].discard(k)
        remaining.discard(k)
        eliminations.append((k, exit_total, saved))
    x = np.zeros((size, node_count))
    if remaining:
        x[remaining.pop()] = 1.0
    for k, exit_total, saved in reversed(eliminations):
        acc = np.zeros(node_count)
        for i, q_ik in saved.items():
            acc += x[i] * q_ik
        x[k] = acc / exit_total
    return x, ops
