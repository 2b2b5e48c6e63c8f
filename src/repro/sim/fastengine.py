"""Vectorized GSMP kernel: many replications advanced in lock-step.

:class:`FastSimulator` runs the same generalized semi-Markov process the
pure-Python reference engine (:mod:`repro.sim.engine`) runs, but batches
*across replications*: clock sampling, minimum-clock selection, branch
choice and reward accumulation are numpy operations over all runs at
once, so the per-event cost amortises the interpreter overhead that
dominates the reference loop.  Design (docs/SIMULATION.md):

* **Compilation.**  :class:`CompiledModel` reuses the reference engine's
  per-state tables verbatim (same event naming, self-loop skipping,
  vanishing-state rules, prefix-summed branch weights and label ids),
  then lays them out as dense arrays — event types in *lexicographic
  name order*, per-state enabled masks, padded cumulative branch
  weights, per-state reward rows.
* **Bit-exactness by construction.**  Both engines draw durations and
  branch uniforms from the same :class:`~repro.sim.streams
  .EventStreamAllocator` substreams, in the same per-stream order, and
  replay the reference engine's floating-point operations (sojourn
  crediting, clock decrements, warm-up clipping) operation for
  operation.  For the same ``(seed, run index)`` the two engines produce
  identical event sequences and identical measure values — this is what
  the differential suite pins.
* **Tie-breaking.**  Exact clock ties (deterministic timers) resolve by
  event name in both engines: the reference picks the lexicographically
  smallest name, the kernel's ``argmin`` picks the lowest event id, and
  ids are assigned in sorted-name order.

The reference engine stays the semantics oracle; this module must never
redefine behaviour, only reproduce it faster.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..ctmc.measures import Measure
from ..errors import SimulationError
from ..lts.lts import LTS
from ..obs import metrics as obs_metrics
from ..obs import tracing
from .engine import (
    SimulationResult,
    Simulator,
    _MAX_IMMEDIATE_CHAIN,
    check_horizon,
    horizon_due,
)
from .streams import EventStreamAllocator, normalize_stream_index

__all__ = ["CompiledModel", "FastSimulator"]

_KIND_TIMED = 0
_KIND_IMMEDIATE = 1
_KIND_DEADLOCK = 2

#: Observer callback: ``(run_row, time, label, target_state)``.
Observer = Callable[[int, float, str, int], None]


class CompiledModel:
    """Dense arrays of one model's per-state tables, shared across batches."""

    def __init__(
        self,
        lts: LTS,
        measures: Sequence[Measure],
        clock_semantics: str = "enabling_memory",
    ):
        self.lts = lts
        self.measures = list(measures)
        self.clock_semantics = clock_semantics
        #: The reference engine whose compiled per-state tables define
        #: the semantics (and fill the dense arrays below).
        self.reference = Simulator(lts, measures, clock_semantics)
        states = list(lts.states())
        n_states = len(states)
        tables = [self.reference._compile(s) for s in states]

        names = sorted({name for table in tables for name in table.events})
        self.event_names: List[str] = names
        self.event_ids: Dict[str, int] = {
            name: e for e, name in enumerate(names)
        }
        n_events = len(names)
        self.n_states = n_states
        self.n_events = n_events

        n_measures = len(self.measures)
        self.state_rewards = np.array(
            [table.rewards for table in tables], float
        ).reshape(n_states, n_measures)

        max_kt = 1
        max_ki = 1
        for table in tables:
            if table.immediate is not None:
                max_ki = max(max_ki, table.immediate.count)
            else:
                for choice in table.events.values():
                    max_kt = max(max_kt, choice.count)

        self.kind = np.full(n_states, _KIND_TIMED, np.int8)
        self.enabled = np.zeros((n_states, n_events), bool)
        self.dist_ids = np.zeros((n_states, n_events), np.int64)
        self.dists: List = []
        dist_ids: Dict = {}

        # Cumulative branch weights are padded with +inf so the branch
        # pick `(cum < pick).sum()` can never select a padding slot.
        self.br_cum = np.full((n_states, n_events, max_kt), np.inf)
        self.br_target = np.zeros((n_states, n_events, max_kt), np.int64)
        self.br_label = np.zeros((n_states, n_events, max_kt), np.int64)
        self.br_count = np.zeros((n_states, n_events), np.int64)
        self.br_total = np.zeros((n_states, n_events))

        self.im_cum = np.full((n_states, max_ki), np.inf)
        self.im_target = np.zeros((n_states, max_ki), np.int64)
        self.im_label = np.zeros((n_states, max_ki), np.int64)
        self.im_count = np.zeros(n_states, np.int64)
        self.im_total = np.zeros(n_states)

        for state, table in zip(states, tables):
            choice = table.immediate
            if choice is not None:
                self.kind[state] = _KIND_IMMEDIATE
                count = choice.count
                self.im_count[state] = count
                self.im_total[state] = choice.total
                self.im_cum[state, :count] = choice.cum
                self.im_target[state, :count] = choice.targets
                self.im_label[state, :count] = choice.label_ids
                continue
            if not table.events:
                self.kind[state] = _KIND_DEADLOCK
                continue
            for name, choice in table.events.items():
                e = self.event_ids[name]
                self.enabled[state, e] = True
                did = dist_ids.get(choice.distribution)
                if did is None:
                    did = len(self.dists)
                    dist_ids[choice.distribution] = did
                    self.dists.append(choice.distribution)
                self.dist_ids[state, e] = did
                count = choice.count
                self.br_count[state, e] = count
                self.br_total[state, e] = choice.total
                self.br_cum[state, e, :count] = choice.cum
                self.br_target[state, e, :count] = choice.targets
                self.br_label[state, e, :count] = choice.label_ids

        # Reward rows come from the reference engine's reward table:
        # ``state_rewards[s, j]`` is measure j's rate in state s, and
        # ``label_rewards[label_id, j]`` its impulse per firing.
        # Batched adds of the zero entries contribute ``+0.0``, which
        # IEEE addition leaves invisible, so the sums stay the reference
        # engine's (it skips zero rewards) bit for bit.
        self.labels: List[str] = self.reference.labels
        self.label_rewards = np.zeros((max(1, len(self.labels)), n_measures))
        for row, label in enumerate(self.labels):
            self.label_rewards[row] = self.reference.rewards.impulses(label)

        # Per-event distribution shortcut: almost every event type has
        # the same distribution in every state that enables it, letting
        # the sampling loop skip the per-state distribution grouping.
        self.col_dist = np.full(n_events, -1, np.int64)
        for e in range(n_events):
            mask = self.enabled[:, e]
            if mask.any():
                ids = np.unique(self.dist_ids[mask, e])
                if ids.size == 1:
                    self.col_dist[e] = ids[0]


class FastSimulator:
    """Reusable vectorized simulator for one model and measure set."""

    def __init__(
        self,
        lts: LTS,
        measures: Sequence[Measure],
        clock_semantics: str = "enabling_memory",
        model: Optional[CompiledModel] = None,
    ):
        if model is not None:
            self.model = model
        else:
            self.model = CompiledModel(lts, measures, clock_semantics)

    @property
    def lts(self) -> LTS:
        return self.model.lts

    @property
    def measures(self) -> List[Measure]:
        return self.model.measures

    @property
    def clock_semantics(self) -> str:
        return self.model.clock_semantics

    def run_many(
        self,
        run_length: float,
        seed: Optional[int] = None,
        runs: Optional[int] = None,
        warmup: float = 0.0,
        run_indices: Optional[Sequence[int]] = None,
        start_states: Optional[Sequence[int]] = None,
        start_clocks: Optional[Sequence[Optional[Dict[str, float]]]] = None,
        allocator: Optional[EventStreamAllocator] = None,
        observer: Optional[Observer] = None,
    ) -> List[SimulationResult]:
        """Simulate a batch of replications, one result per run.

        Randomness comes from per-``(run, event type)`` substreams: pass
        ``seed`` (+ ``runs`` or ``run_indices``) to build the allocator,
        or pass a prepared ``allocator`` (CRN pairing shares stream
        parameters between two allocators — see
        :func:`repro.sim.streams.paired_allocators`).  ``run_indices``
        name the absolute replication indices, so a worker processing a
        slice produces exactly the serial batch's runs.

        ``start_states``/``start_clocks`` (one entry per run) resume
        trajectories from previous results — the batch-means clock-carry
        contract of the reference engine, batched.  ``observer`` is
        called as ``(run_row, time, label, target_state)`` at every
        firing, in a deterministic order (runs ascending within a step).
        """
        check_horizon(run_length, warmup)
        if run_indices is None:
            if runs is None:
                if allocator is not None:
                    run_indices = list(allocator.run_indices)
                else:
                    raise SimulationError(
                        "run_many() needs runs= or run_indices="
                    )
            else:
                run_indices = list(range(runs))
        else:
            run_indices = [
                normalize_stream_index(i) for i in run_indices
            ]
        n_runs = len(run_indices)
        if n_runs == 0:
            return []
        if allocator is None:
            if seed is None:
                raise SimulationError(
                    "run_many() needs a seed or an allocator"
                )
            allocator = EventStreamAllocator(seed, run_indices)
        elif allocator.run_indices != run_indices:
            raise SimulationError(
                f"allocator run indices {allocator.run_indices} do not "
                f"match requested {run_indices}"
            )

        model = self.model
        started = time.perf_counter()
        refills_before = allocator.refills

        states = np.full(n_runs, model.lts.initial, np.int64)
        if start_states is not None:
            states = np.asarray(list(start_states), np.int64).copy()
            if states.shape != (n_runs,):
                raise SimulationError(
                    f"start_states must have one entry per run "
                    f"({n_runs}), got shape {states.shape}"
                )
        clocks = np.full((n_runs, model.n_events), np.inf)
        if start_clocks is not None:
            for row, carried in enumerate(start_clocks):
                if not carried:
                    continue
                for name, value in carried.items():
                    e = model.event_ids.get(name)
                    if e is not None:
                        clocks[row, e] = value

        now = np.zeros(n_runs)
        end = warmup + run_length
        due = horizon_due(end)
        finished = np.zeros(n_runs, bool)
        deadlocked = np.zeros(n_runs, bool)
        fired = np.zeros(n_runs, np.int64)
        imm_chain = np.zeros(n_runs, np.int64)
        n_measures = len(model.measures)
        time_weighted = np.zeros((n_runs, n_measures))
        impulses = np.zeros((n_runs, n_measures))
        steps = 0
        all_rows = np.arange(n_runs)
        restart = model.clock_semantics == "restart"

        kind = model.kind
        enabled = model.enabled
        dist_ids = model.dist_ids
        col_dist = model.col_dist
        event_names = model.event_names
        dists = model.dists
        state_rewards = model.state_rewards
        label_rewards = model.label_rewards

        live = all_rows
        while live.size:
            steps += 1
            k = kind[states[live]]

            # -- vanishing states: fire immediates until none remain ----
            rows = first_rows = live[k == _KIND_IMMEDIATE]
            while rows.size:
                imm_chain[rows] += 1
                over = imm_chain[rows] > _MAX_IMMEDIATE_CHAIN
                if over.any():
                    culprit = int(states[rows[over][0]])
                    raise SimulationError(
                        f"more than {_MAX_IMMEDIATE_CHAIN} consecutive "
                        f"immediate firings: timeless divergence near "
                        f"{model.lts.state_info(culprit)}"
                    )
                st = states[rows]
                choice = np.zeros(rows.size, np.int64)
                multi = model.im_count[st] > 1
                if multi.any():
                    pick = (
                        allocator.branch_uniforms(rows[multi])
                        * model.im_total[st[multi]]
                    )
                    choice[multi] = (
                        model.im_cum[st[multi]] < pick[:, None]
                    ).sum(axis=1)
                labels = model.im_label[st, choice]
                targets = model.im_target[st, choice]
                measuring = now[rows] >= warmup
                if measuring.any():
                    # Row indices are unique within a step, so plain
                    # fancy-index accumulation is safe (and fast).
                    impulses[rows[measuring]] += label_rewards[
                        labels[measuring]
                    ]
                if observer is not None:
                    for i, row in enumerate(rows):
                        observer(
                            int(row),
                            float(now[row]),
                            model.labels[labels[i]],
                            int(targets[i]),
                        )
                states[rows] = targets
                fired[rows] += 1
                rows = rows[kind[targets] == _KIND_IMMEDIATE]
            if first_rows.size:
                imm_chain[first_rows] = 0
                k = kind[states[live]]

            # -- deadlock states: let the remaining horizon elapse ------
            rows = live[k == _KIND_DEADLOCK]
            if rows.size:
                elapsed = end - now[rows]
                measured_start = np.maximum(now[rows], warmup)
                measured = np.maximum(
                    now[rows] + elapsed - measured_start, 0.0
                )
                time_weighted[rows] += (
                    state_rewards[states[rows]] * measured[:, None]
                )
                now[rows] = end
                deadlocked[rows] = True
                finished[rows] = True
                dead = True
            else:
                dead = False

            # -- timed states: one firing (or horizon) per run ----------
            rows = live[k == _KIND_TIMED]
            if dead:
                live = live[~finished[live]]
            if rows.size == 0:
                continue
            st = states[rows]
            ena = enabled[st]
            if restart:
                c = np.full(ena.shape, np.inf)
                need = ena
            else:
                c = np.where(ena, clocks[rows], np.inf)
                need = ena & np.isinf(c)
            if need.any():
                for e in np.nonzero(need.any(axis=0))[0]:
                    sel = np.nonzero(need[:, e])[0]
                    did = col_dist[e]
                    if did >= 0:
                        c[sel, e] = allocator.take(
                            event_names[e], dists[did], rows[sel]
                        )
                    else:
                        dids = dist_ids[st[sel], e]
                        for did in np.unique(dids):
                            subset = sel[dids == did]
                            c[subset, e] = allocator.take(
                                event_names[e], dists[did], rows[subset]
                            )
            winner = np.argmin(c, axis=1)
            local = np.arange(rows.size)
            elapsed = c[local, winner]
            new_now = now[rows] + elapsed
            over = new_now >= due
            used = np.where(over, end - now[rows], elapsed)
            measured_start = np.maximum(now[rows], warmup)
            measured = np.maximum(now[rows] + used - measured_start, 0.0)
            time_weighted[rows] += state_rewards[st] * measured[:, None]
            c -= used[:, None]
            np.maximum(c, 0.0, out=c)
            firing = ~over
            c[local[firing], winner[firing]] = np.inf
            clocks[rows] = c
            now[rows] = np.where(over, end, new_now)
            done = rows[over]
            if done.size:
                finished[done] = True
                live = live[~finished[live]]
            if firing.any():
                frows = rows[firing]
                fst = st[firing]
                fwin = winner[firing]
                choice = np.zeros(frows.size, np.int64)
                multi = model.br_count[fst, fwin] > 1
                if multi.any():
                    pick = (
                        allocator.branch_uniforms(frows[multi])
                        * model.br_total[fst[multi], fwin[multi]]
                    )
                    choice[multi] = (
                        model.br_cum[fst[multi], fwin[multi]]
                        < pick[:, None]
                    ).sum(axis=1)
                labels = model.br_label[fst, fwin, choice]
                targets = model.br_target[fst, fwin, choice]
                fire_now = new_now[firing]
                measuring = fire_now >= warmup
                if measuring.any():
                    impulses[frows[measuring]] += label_rewards[
                        labels[measuring]
                    ]
                if observer is not None:
                    for i in range(frows.size):
                        observer(
                            int(frows[i]),
                            float(fire_now[i]),
                            model.labels[labels[i]],
                            int(targets[i]),
                        )
                states[frows] = targets
                fired[frows] += 1

        values_matrix = (time_weighted + impulses) / run_length
        results = []
        for row in range(n_runs):
            residual = clocks[row]
            final_clocks = {
                model.event_names[e]: float(residual[e])
                for e in np.nonzero(np.isfinite(residual))[0]
            }
            values = {
                measure.name: float(values_matrix[row, j])
                for j, measure in enumerate(model.measures)
            }
            results.append(
                SimulationResult(
                    values,
                    run_length,
                    int(fired[row]),
                    int(states[row]),
                    bool(deadlocked[row]),
                    final_clocks,
                )
            )
        self._record_batch_metrics(
            n_runs,
            int(fired.sum()),
            steps,
            allocator.refills - refills_before,
            time.perf_counter() - started,
        )
        return results

    @staticmethod
    def _record_batch_metrics(
        runs: int, events: int, steps: int, refills: int, elapsed: float
    ) -> None:
        """Aggregate counters (and a trace span) per completed batch."""
        tracing.record_span(
            "fastengine:batch",
            elapsed,
            runs=runs,
            events=events,
            steps=steps,
        )
        registry = obs_metrics.get_registry()
        if not registry.enabled:
            return
        obs_metrics.FASTSIM_RUNS.on(registry).inc(runs)
        obs_metrics.FASTSIM_EVENTS.on(registry).inc(events)
        obs_metrics.FASTSIM_STEPS.on(registry).inc(steps)
        obs_metrics.FASTSIM_REFILLS.on(registry).inc(refills)
        obs_metrics.FASTSIM_BATCH_SECONDS.on(registry).observe(elapsed)
        if elapsed > 0.0:
            obs_metrics.FASTSIM_EVENT_RATE.on(registry).set(
                events / elapsed
            )
