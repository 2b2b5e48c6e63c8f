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

Each state is compiled once per skeleton, on its first visit by any
simulator over it, into a table: per event its distribution, branch
targets, prefix-summed branch weights and each branch label's nonzero
impulses, plus the state's nonzero reward rates.  The tables are read
from the LTS columns and kept in one store per LTS and measure set; the
points of a rate sweep re-rated from one skeleton share its store for
every row they do not re-rate, and compile the others per point.
:meth:`Simulator.run` is one loop over those tables (docs/SIMULATION.md).

The enabling-memory rule is what gives deterministic timeouts their correct
semantics (the DPM's periodic wake-up keeps counting down while the system
moves); for exponential models it coincides with resampling (memorylessness)
so the cross-validation against the CTMC (Sect. 5.1) is exact in
distribution.  The ablation benchmark compares against restart semantics.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
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
from ..lts.lts import LTS
from ..distributions import Distribution, Exponential
from ..obs import metrics as obs_metrics
from ..obs import tracing
from .streams import GeneratorSampler

#: Abort a run after this many consecutive zero-time firings.
_MAX_IMMEDIATE_CHAIN = 100_000

#: Relative tolerance below the horizon inside which a due event is
#: treated as due at the horizon (see the module docstring).
HORIZON_TIE = 1e-12


def horizon_due(end: float) -> float:
    """Earliest firing time that counts as reaching horizon *end*."""
    return end - end * HORIZON_TIE


def check_horizon(run_length: float, warmup: float) -> None:
    """Reject a run horizon the event loop cannot reach or measure.

    A NaN or infinite ``run_length`` or ``warmup`` would otherwise make
    the loop run forever or return NaN/zero measures silently.
    """
    if not math.isfinite(run_length):
        raise SimulationError(f"run_length must be finite, got {run_length}")
    if run_length <= 0:
        raise SimulationError(f"run_length must be positive, got {run_length}")
    if not math.isfinite(warmup):
        raise SimulationError(f"warmup must be finite, got {warmup}")
    if warmup < 0:
        raise SimulationError(f"warmup must be >= 0, got {warmup}")


#: Nonzero ``(measure index, value)`` pairs of a per-measure tuple.
_Pairs = Tuple[Tuple[int, float], ...]


def _nonzero(values: Tuple[float, ...]) -> _Pairs:
    """The nonzero ``(index, value)`` pairs of *values*, in order."""
    return tuple((j, value) for j, value in enumerate(values) if value)


class _Choice:
    """One weighted choice, compiled: the branches of a timed event
    (with its ``distribution``) or the immediate transitions of a
    vanishing state.

    ``cum`` holds the prefix sums of the branch weights, accumulated
    left to right exactly as a linear scan would, so ``bisect_left(cum,
    pick)`` finds the branch the scan ``pick <= acc`` stops at (the
    weights are positive, so ``cum`` is increasing).  ``impulses[k]``
    lists the nonzero ``(measure, impulse)`` pairs of branch *k*'s
    label; ``label_ids`` index :attr:`Simulator.labels`.
    """

    __slots__ = (
        "distribution", "count", "total", "cum", "targets", "label_ids",
        "impulses",
    )

    def __init__(
        self, distribution, count, total, cum, targets, label_ids, impulses
    ):
        self.distribution: Optional[Distribution] = distribution
        self.count: int = count
        self.total: float = total
        self.cum: Tuple[float, ...] = cum
        self.targets: Tuple[int, ...] = targets
        self.label_ids: Tuple[int, ...] = label_ids
        self.impulses: Tuple[_Pairs, ...] = impulses


class _StateTable:
    """One state, compiled: vanishing (``immediate`` set) or a set of
    timed events by name (``names`` is their key view).

    ``rewards`` is the state's per-measure reward rate, ``rates`` its
    nonzero ``(measure, rate)`` pairs.
    """

    __slots__ = ("immediate", "events", "names", "rewards", "rates")

    def __init__(self, immediate, events, rewards):
        self.immediate: Optional[_Choice] = immediate
        self.events: Dict[str, _Choice] = events
        self.names = events.keys()
        self.rewards: Tuple[float, ...] = rewards
        self.rates: _Pairs = _nonzero(rewards)


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


class _TableStore:
    """The compiled state tables of one LTS and measure set, filled on
    first request and shared by every :class:`Simulator` over that LTS
    (:func:`_table_store`).

    A store over an LTS that shares a base's columns
    (:meth:`~repro.lts.lts.LTS.rerated_from`) compiles only the rows
    holding a re-rated position; every other row's table comes from the
    base's store, so it is compiled once per skeleton however many
    points re-rate it.  Tables are compiled from the LTS columns; the
    root store computes, once per label id, the label's nonzero
    ``(measure, impulse)`` pairs and whether some ``TRANS_REWARD``
    clause observes it, and counts the tables compiled (``compiled``).
    """

    __slots__ = (
        "columns", "order", "offsets", "base", "rerated_rows",
        "tables", "compiled", "rewards", "impulses", "observes",
    )

    def __init__(
        self,
        lts: LTS,
        measures: Tuple[Measure, ...],
        base: Optional["_TableStore"] = None,
        rerated_rows: frozenset = frozenset(),
    ):
        # The columns, not the LTS: the store lives in the LTS's memo.
        self.columns = lts.columns
        self.order, self.offsets = lts.row_lists()
        self.base = base
        self.rerated_rows = rerated_rows
        self.tables: Dict[int, _StateTable] = {}
        if base is not None:
            self.rewards = base.rewards
            self.impulses = base.impulses
            self.observes = base.observes
            return
        self.compiled = 0
        self.rewards = RewardTable(measures)
        labels = self.columns.labels
        self.impulses: List[_Pairs] = [
            _nonzero(self.rewards.impulses(label)) for label in labels
        ]
        self.observes: List[bool] = [
            self.rewards.observes(label) for label in labels
        ]

    @property
    def root(self) -> "_TableStore":
        """The store of the skeleton, which counts every compile.

        Computed, not kept: a root store naming itself would be a
        reference cycle, and its tables would outlive the sweep until
        the next full collection."""
        return self if self.base is None else self.base.root

    def table(self, state: int, simulated: LTS) -> _StateTable:
        """The table of *state*, compiled on its first request
        (*simulated*, the LTS being run, names the state in an error)."""
        base = self.base
        if base is None or state in self.rerated_rows:
            table = self._compile(state, simulated)
            self.root.compiled += 1
        else:
            table = base.tables.get(state)
            if table is None:
                table = base.table(state, simulated)
        self.tables[state] = table
        return table

    def _choice(
        self,
        distribution: Optional[Distribution],
        positions: List[int],
        weights: List[float],
        total: float,
    ) -> _Choice:
        cum: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight
            cum.append(acc)
        columns = self.columns
        targets = columns.targets
        label_ids = tuple([columns.label_ids[p] for p in positions])
        impulses = self.impulses
        return _Choice(
            distribution,
            len(cum),
            total,
            tuple(cum),
            tuple([targets[p] for p in positions]),
            label_ids,
            tuple([impulses[i] for i in label_ids]),
        )

    def _compile(self, state: int, simulated: LTS) -> _StateTable:
        columns = self.columns
        labels, label_ids, rates = (
            columns.labels, columns.label_ids, columns.rates
        )
        positions = self.order[self.offsets[state]:self.offsets[state + 1]]
        rewards = self.rewards.state_rewards(
            frozenset([labels[label_ids[p]] for p in positions])
        )
        immediate = [p for p in positions if type(rates[p]) is ImmediateRate]
        if immediate:
            if len(immediate) != len(positions):
                raise SimulationError(
                    f"state {simulated.state_info(state)} mixes immediate "
                    f"and timed transitions"
                )
            weights = [rates[p].weight for p in immediate]
            choice = self._choice(None, immediate, weights, sum(weights))
            return _StateTable(choice, {}, rewards)
        events = columns.events
        grouped: Dict[str, Tuple[Distribution, List[int]]] = {}
        for p in positions:
            kind = type(rates[p])
            if kind is PassiveRate:
                raise SimulationError(
                    f"passive transition {labels[label_ids[p]]!r} in state "
                    f"{simulated.state_info(state)}: the timed model must "
                    f"close every passive action"
                )
            if kind is ExpRate:
                distribution: Distribution = Exponential(rates[p].rate)
            elif kind is GeneralRate:
                distribution = rates[p].distribution
            else:
                raise SimulationError(
                    f"transition {labels[label_ids[p]]!r} has no usable "
                    f"rate ({rates[p]!r})"
                )
            event_name = events[p] or labels[label_ids[p]]
            if kind is ExpRate:
                # The generator pre-splits exponential activities across
                # probabilistic branches (exact for CTMCs).  A race of the
                # split exponentials is statistically identical to the
                # original activity (memorylessness), so each branch can
                # be its own event; clock persistence is immaterial for
                # exponentials.
                event_name = f"{event_name}::exp{len(grouped)}"
            event = grouped.get(event_name)
            if event is None:
                grouped[event_name] = (distribution, [p])
            else:
                if event[0] != distribution:
                    raise SimulationError(
                        f"event {event_name!r} in state "
                        f"{simulated.state_info(state)} has branches with "
                        f"different distributions ({event[0]} vs "
                        f"{distribution})"
                    )
                event[1].append(p)
        # Self-loops that no TRANS_REWARD clause counts never change the
        # state: skip scheduling them entirely (pure speed-up).
        # STATE_REWARD clauses look at *enabled* labels, which needs no
        # firing.
        targets, weights_column = columns.targets, columns.weights
        observes = self.observes
        scheduled = {}
        for name, (distribution, branches) in grouped.items():
            if all(
                targets[p] == state and not observes[label_ids[p]]
                for p in branches
            ):
                continue
            weights = [weights_column[p] for p in branches]
            total = weights[0]
            for weight in weights[1:]:
                total += weight
            scheduled[name] = self._choice(
                distribution, branches, weights, total
            )
        return _StateTable(None, scheduled, rewards)


def _table_store(lts: LTS, measures: Tuple[Measure, ...]) -> _TableStore:
    """The one table store of *lts* and *measures* (kept in the LTS's
    :meth:`~repro.lts.lts.LTS.memo`, so forgotten when the LTS changes).

    An LTS re-rated from a base gets a store over the base's store.
    Keying on the LTS object, not on its
    :meth:`~repro.lts.lts.LTS.structure_owner`, matters: the points of
    a rate sweep share their skeleton's elimination plan while their
    exponential distributions differ.
    """
    memo = lts.memo()
    key = (_TableStore, measures)
    store = memo.get(key)
    if store is None:
        rerated = lts.rerated_from()
        if rerated is None:
            store = _TableStore(lts, measures)
        else:
            base, rows = rerated
            store = _TableStore(
                lts, measures, _table_store(base, measures), rows
            )
        memo[key] = store
    return store


class Simulator:
    """Reusable simulator for one model (LTS) and measure set.

    Its per-state tables live in a store shared by every simulator over
    the same LTS and measure set, and (for the rows not re-rated) over
    every LTS re-rated from the same skeleton (:class:`_TableStore`).
    """

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
        self._bind()

    def _bind(self) -> None:
        """Take the table store of the LTS as it is now."""
        self._memo = self.lts.memo()
        self._store = _table_store(self.lts, tuple(self.measures))
        #: Shared by every run.
        self.rewards = self._store.rewards
        #: The LTS label table; compiled branches carry its label ids.
        self.labels: List[str] = self.lts.columns.labels

    # -- table compilation ---------------------------------------------------

    def _compile(self, state: int) -> _StateTable:
        """The table of *state*, compiled on its first visit by any
        simulator sharing the store."""
        table = self._store.tables.get(state)
        if table is None:
            table = self._store.table(state, self.lts)
        return table

    # -- running -------------------------------------------------------------

    def run(
        self,
        run_length: float,
        rng,
        warmup: float = 0.0,
        start_state: Optional[int] = None,
        observer=None,
        start_clocks: Optional[Dict[str, float]] = None,
    ) -> SimulationResult:
        """Simulate one trajectory and estimate the measures.

        ``run_length`` is the *measured* horizon: the trajectory lasts
        ``warmup + run_length`` model time units and statistics collected
        during the warm-up are discarded.  An optional *observer* callable
        receives ``(time, label, target_state)`` at every firing.
        ``start_clocks`` (with ``start_state``) resumes a trajectory from
        a previous run's ``final_clocks``: events still enabled keep
        their residual clocks instead of being resampled.

        ``rng`` is the run's one source of randomness: a sampler with
        ``duration(name, distribution)`` and ``branch()`` methods — a
        :class:`~repro.sim.streams.RunStreams` gives per-event-type
        substreams, the common-random-numbers discipline of the paired
        replications and the splitting trees (docs/SIMULATION.md) — or
        a :class:`numpy.random.Generator`, which is wrapped in a
        :class:`~repro.sim.streams.GeneratorSampler`.

        One loop over the compiled per-state tables: sojourn crediting,
        weighted branch choice and impulse collection are inlined.
        """
        check_horizon(run_length, warmup)
        if start_state is not None and not (
            0 <= start_state < self.lts.num_states
        ):
            raise SimulationError(
                f"start_state {start_state} is not a state of the model "
                f"(states 0..{self.lts.num_states - 1})"
            )
        if self.lts.memo() is not self._memo:
            # The LTS changed since this simulator took its store.
            self._bind()
        started = time.perf_counter()
        store = self._store
        compiled_before = store.root.compiled
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
        restart = self.clock_semantics == "restart"
        tables = store.tables
        compile_state = self._compile
        if isinstance(rng, np.random.Generator):
            rng = GeneratorSampler(rng)
        duration = rng.duration
        branch_uniform = rng.branch
        while now < end:
            try:
                table = tables[state]
            except KeyError:
                table = compile_state(state)
            choice = table.immediate
            if choice is not None:
                immediate_chain += 1
                if immediate_chain > _MAX_IMMEDIATE_CHAIN:
                    raise SimulationError(
                        f"more than {_MAX_IMMEDIATE_CHAIN} consecutive "
                        f"immediate firings: timeless divergence near "
                        f"{self.lts.state_info(state)}"
                    )
            else:
                immediate_chain = 0
                events = table.events
                if not events:
                    deadlocked = True
                    _credit(time_weighted, table.rates, now, end - now, warmup)
                    now = end
                    break
                if restart:
                    clocks = {}
                elif not clocks.keys() <= table.names:
                    # Keep clocks of still-enabled events only.
                    clocks = {
                        name: remaining
                        for name, remaining in clocks.items()
                        if name in events
                    }
                if len(clocks) != len(events):
                    for name, event in events.items():
                        if name not in clocks:
                            clocks[name] = duration(
                                name, event.distribution
                            )
                # Exact clock ties (deterministic timers) break by event
                # name, lexicographically.
                elapsed, winner = min(zip(clocks.values(), clocks))
                if now + elapsed >= due:
                    # Horizon reached before the next firing: let the
                    # remaining clocks run down to the horizon so a
                    # resumed run carries the correct residuals (never
                    # negative: an event tied with the horizon fires
                    # first thing on resume).
                    remaining = end - now
                    _credit(time_weighted, table.rates, now, remaining, warmup)
                    for name in clocks:
                        clocks[name] = max(clocks[name] - remaining, 0.0)
                    now = end
                    break
                # _credit, inlined (``not x <= 0`` keeps its NaN handling).
                if not elapsed <= 0:
                    measured = now + elapsed - (
                        warmup if warmup > now else now
                    )
                    if not measured <= 0:
                        for j, rate in table.rates:
                            time_weighted[j] += rate * measured
                now += elapsed
                clocks = {
                    name: remaining - elapsed
                    for name, remaining in clocks.items()
                    if name != winner
                }
                choice = events[winner]
            if choice.count == 1:
                k = 0
            else:
                k = bisect_left(choice.cum, branch_uniform() * choice.total)
                if k == choice.count:
                    k -= 1
            collected = choice.impulses[k]
            if collected and now >= warmup:
                for j, reward in collected:
                    impulses[j] += reward
            state = choice.targets[k]
            if observer is not None:
                observer(now, self.labels[choice.label_ids[k]], state)
            fired += 1
        values = {
            measure.name: (time_weighted[j] + impulses[j]) / run_length
            for j, measure in enumerate(self.measures)
        }
        self._record_run_metrics(
            fired,
            deadlocked,
            start_clocks,
            time.perf_counter() - started,
            store.root.compiled - compiled_before,
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
        compiled: int,
    ) -> None:
        """Always-on aggregate metrics (and a trace span) for one
        completed run; the span's ``compiled`` counts the state tables
        the run compiled (0 when every state it visited was in the
        store).

        A handful of counter bumps after the trajectory is done — the
        event loop itself is untouched, and the RNG stream never sees
        the instrumentation (docs/OBSERVABILITY.md).
        """
        tracing.record_span(
            "engine:run",
            elapsed,
            events=fired,
            deadlocked=deadlocked,
            compiled=compiled,
        )
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


def _credit(
    time_weighted: List[float],
    rates: Tuple[Tuple[int, float], ...],
    now: float,
    elapsed: float,
    warmup: float,
) -> None:
    """Credit a sojourn of *elapsed* from *now* at the nonzero reward
    *rates*, clipping the warm-up."""
    if elapsed <= 0:
        return
    measured_elapsed = now + elapsed - max(now, warmup)
    if measured_elapsed <= 0:
        return
    for j, rate in rates:
        time_weighted[j] += rate * measured_elapsed


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
