"""Rare-event multilevel importance splitting (RESTART / fixed effort).

The paper's QoS measures turn into *rare events* at production-grade
DPM settings: a frame-loss or timeout probability around 1e-6 means a
naive replication protocol observes the event a handful of times per
million simulated time units — the estimate is noise at any engine
speed (docs/SIMULATION.md).  This module layers RESTART-style
multilevel splitting over both engines:

* An **importance function** maps every state to an integer level
  ``0..levels``; by default it is derived from the rare measure's
  reward support — the states where the measure collects reward are the
  top level, and graph distance over the LTS (a reverse BFS) places the
  intermediate levels — and it is user-overridable by any
  ``state -> level`` callable.
* Each replication grows a **trajectory tree**.  Trajectories run in
  segments; at every segment boundary they are checkpointed (state +
  residual clocks via ``SimulationResult.final_clocks``) and resampled
  with *fixed effort per level*: a level bin above the base holding
  fewer than ``splits`` trajectories splits its heaviest member (the
  clone inherits the checkpoint minus the *memoryless* exponential
  residuals — those are redrawn so siblings decorrelate immediately —
  and occupies a fresh allocator slot whose substreams are keyed by the
  clone's globally unique ident under the namespaced
  :func:`repro.sim.random.splitting_event_generator`), and any bin
  holding more than ``splits`` merges its two lightest members with a
  weight-proportional coin.  Splitting halves weights, merging sums
  them, so total weight is conserved at exactly 1 per tree and every
  weighted estimate stays **unbiased** — merging is the
  weight-conserving form of the Russian-roulette down-crossing control
  of classic RESTART.
* The estimator: each tree reports the weighted time average of every
  measure (one i.i.d. sample per replication), and the per-level
  boundary occupancies, whose telescoping ratios are the per-level
  conditional probabilities ``P(level >= l | level >= l-1)`` — their
  product is the rare-set probability, with variance propagated on the
  log scale by :func:`repro.sim.output.summarize_rare`.

Determinism: every stream — event durations of any slot, and the
per-tree resample coin — is a pure function of ``(seed, run index,
slot key, name)``; slot keys are the spawning clone's ident, which is
never reused within a tree, and each tree is one executor task, so
results are bit-identical for any worker count and across checkpoint
resume.

Degenerate configuration: with ``splits=1`` no clone and no merge can
ever happen, so the layer collapses to a *single* engine call per
replication on the per-event-type stream discipline — bit-identical to
``replicate(engine="fast")`` from either engine (the differential test
pins this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..aemilia.rates import ExpRate, GeneralRate
from ..ctmc.measures import Measure, RewardTable
from ..distributions import Exponential
from ..errors import SimulationError
from ..lts.lts import LTS
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..runtime.executor import ParallelExecutor, RetryPolicy
from ..runtime.faults import FaultInjector
from .engine import Simulator
from .fastengine import FastSimulator
from .output import (
    Estimate,
    RareEstimate,
    resolve_engine,
    summarize,
    summarize_rare,
)
from .random import splitting_event_generator
from .streams import EventStreamAllocator

__all__ = [
    "ImportanceFunction",
    "RESAMPLE_STREAM",
    "SplittingResult",
    "reward_importance",
    "split_replicate",
    "tabulate_importance",
]

#: Reserved stream name for the per-tree resample coin (split/merge
#: decisions).  NUL-prefixed like the branch-pick stream, so it can
#: never collide with an action label from a specification.
RESAMPLE_STREAM = "\x00resample-picks"


@dataclass(frozen=True)
class ImportanceFunction:
    """A tabulated ``state -> level`` map over one LTS.

    ``levels`` is the index of the top (rare) level; every state maps
    into ``0..levels``.  The table is materialised up front so workers
    can share it by pickling a tuple instead of a closure.
    """

    levels: int
    table: Tuple[int, ...]

    def level(self, state: int) -> int:
        """The importance level of *state*."""
        return self.table[state]


def tabulate_importance(
    lts: LTS, fn: Callable[[int], int], levels: int
) -> ImportanceFunction:
    """Materialise a user importance callable into a table."""
    if levels < 1:
        raise SimulationError(f"need levels >= 1, got {levels}")
    table = []
    for state in lts.states():
        level = int(fn(state))
        if not 0 <= level <= levels:
            raise SimulationError(
                f"importance function returned level {level} for state "
                f"{state}; levels must lie in [0, {levels}]"
            )
        table.append(level)
    return ImportanceFunction(levels, tuple(table))


def reward_importance(
    lts: LTS, measure: Measure, levels: int
) -> ImportanceFunction:
    """Importance from a measure's reward support via LTS distance.

    The *target set* is every state where the measure collects reward —
    states whose enabled-label set earns a ``STATE_REWARD``, and source
    states of transitions earning a ``TRANS_REWARD`` impulse.  A
    reverse BFS over the transition graph gives each state its distance
    (in transitions) to the nearest target; distances are scaled
    linearly onto ``0..levels`` with the targets at the top level and
    the farthest (or unreachable-from) states at level 0.  This is the
    default level placement; hand-tuned importance callables are passed
    through :func:`tabulate_importance` instead.
    """
    if levels < 1:
        raise SimulationError(f"need levels >= 1, got {levels}")
    n = lts.num_states
    table = RewardTable([measure])
    targets = set()
    for state in lts.states():
        outgoing = lts.outgoing(state)
        enabled = frozenset(t.label for t in outgoing)
        if table.state_rewards(enabled)[0] != 0.0 or any(
            table.impulses(label)[0] != 0.0 for label in enabled
        ):
            targets.add(state)
    if not targets:
        raise SimulationError(
            f"measure {measure.name!r} has no reward support on this "
            f"model: cannot derive an importance function from it"
        )
    reverse: List[List[int]] = [[] for _ in range(n)]
    for state in lts.states():
        for transition in lts.outgoing(state):
            reverse[transition.target].append(state)
    distance = [-1] * n
    frontier = sorted(targets)
    for state in frontier:
        distance[state] = 0
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for state in frontier:
            for predecessor in reverse[state]:
                if distance[predecessor] < 0:
                    distance[predecessor] = depth
                    next_frontier.append(predecessor)
        frontier = sorted(set(next_frontier))
    horizon = max(d for d in distance if d >= 0)
    table = []
    for state in lts.states():
        d = distance[state]
        if d < 0:
            table.append(0)  # cannot reach the rare set at all
        elif horizon == 0:
            table.append(levels)
        else:
            table.append((levels * (horizon - d)) // horizon)
    return ImportanceFunction(levels, tuple(table))


@dataclass
class SplittingResult:
    """Splitting estimates for every measure plus tree diagnostics."""

    #: Student-t summaries of the per-tree weighted averages.
    estimates: Dict[str, Estimate]
    #: Rare-probability summaries (Wilson / log-scale intervals) of the
    #: same samples, for the measures where they apply (nonnegative).
    rare: Dict[str, RareEstimate]
    #: Raw per-tree samples, one per replication index.
    samples: Dict[str, List[float]]
    #: Per-tree boundary occupancy samples: ``occupancy[l]`` holds one
    #: value per run — the weighted fraction of segment boundaries the
    #: tree spent at importance level >= ``l``  (``occupancy[0]`` is the
    #: conserved total weight, identically 1).
    occupancy: List[List[float]]
    levels: int
    splits: int
    segments: int
    confidence: float
    #: Events fired across all trees (the splitting run's event budget).
    events: int
    clones: int
    merges: int
    peak_trajectories: int

    def __getitem__(self, name: str) -> Estimate:
        return self.estimates[name]

    @property
    def level_conditionals(self) -> List[float]:
        """``P(level >= l | level >= l-1)`` for ``l = 1..levels``.

        Telescoping ratios of the mean boundary occupancies: their
        product is exactly the top-level occupancy, so the rare-set
        probability decomposes into per-level conditional probabilities
        — the classic multilevel-splitting estimator form.
        """
        means = [
            float(np.mean(samples)) for samples in self.occupancy
        ]
        conditionals = []
        for level in range(1, self.levels + 1):
            below = means[level - 1]
            conditionals.append(
                means[level] / below if below > 0 else 0.0
            )
        return conditionals

    def rare_probability(
        self, confidence: Optional[float] = None
    ) -> RareEstimate:
        """The rare-set (top level) probability with a log-scale CI.

        The point estimate is the product of the per-level conditional
        probabilities (equivalently the mean top-level occupancy); the
        interval comes from :func:`repro.sim.output.summarize_rare` on
        the per-tree samples, so the variance of the product propagates
        on the log scale instead of the symmetric t construction that
        goes negative near zero.
        """
        return summarize_rare(
            self.occupancy[self.levels],
            self.confidence if confidence is None else confidence,
        )


class _Trajectory:
    """One live trajectory of a splitting tree.

    ``row`` is the trajectory's row in the tree's shared
    :class:`EventStreamAllocator` — the per-row cursors give every
    trajectory continuous substreams across segments, while the batched
    kernel advances all of them in one ``run_many`` call per segment.
    """

    __slots__ = ("ident", "weight", "state", "clocks", "row")

    def __init__(self, ident, weight, state, clocks, row):
        self.ident = ident
        self.weight = weight
        self.state = state
        self.clocks = clocks
        self.row = row


def _memoryless_events(lts: LTS) -> frozenset:
    """Event names whose durations are exponential (memoryless).

    A clone may *redraw* these clocks instead of inheriting the
    parent's residuals — by memorylessness the redraw has exactly the
    residual's distribution, and it is what makes splitting effective:
    clones sharing every residual clock all fire the same first
    transition at the same instant, so an all-exponential excursion
    would collapse back in lock-step and the split would explore
    nothing.  Non-exponential residuals (deterministic timeouts,
    Gaussian service times) are genuinely part of the GSMP state and
    are always inherited verbatim.
    """
    names = set()
    for transition in lts.transitions:
        rate = transition.rate
        if isinstance(rate, ExpRate) or (
            isinstance(rate, GeneralRate)
            and isinstance(rate.distribution, Exponential)
        ):
            names.add(transition.event or transition.label)
    return frozenset(names)


def _resample(
    trajectories: List[_Trajectory],
    table: Sequence[int],
    splits: int,
    coin: np.random.Generator,
    next_ident: int,
    run_index: int,
    allocator: EventStreamAllocator,
    memoryless: frozenset,
) -> Tuple[List[_Trajectory], int, int, int]:
    """Fixed-effort resampling at one segment boundary.

    Bins trajectories by current level, then runs two deterministic
    passes:

    1. **Merge** every bin down to its cap — ``splits`` for rare bins,
       1 for the base bin (the event budget belongs to excursions, not
       to redundant copies of the typical behaviour a naive estimator
       already covers cheaply).  A merge is weight-conserving roulette
       between the two lightest members: the survivor is chosen with
       probability proportional to weight and takes the summed weight,
       so every weighted estimate stays unbiased.
    2. **Split** every non-empty rare bin up to ``splits`` members: the
       heaviest member halves its weight into a clone that inherits the
       checkpoint (state + residual clocks, with memoryless residuals
       redrawn — see :func:`_memoryless_events`).

    Clones draw from *slot* streams: allocator rows are a pool of
    independent substreams keyed ``(run, slot)``, and a clone simply
    occupies a free slot (or grows the pool), continuing that slot's
    stream where its previous occupant left off.  A continuation of an
    i.i.d. stream is fresh randomness never observed before, so the
    clone's future is independent of everything else in the tree —
    statistically identical to a per-clone stream, but without paying
    a generator construction and a block refill for every short-lived
    clone.  Compaction keeps live slots exactly ``0..n-1`` so the
    batched kernel never simulates a merged-away trajectory.

    All ordering is by weight then trajectory id, so the resample — and
    therefore the whole tree — is deterministic.
    """
    bins: Dict[int, List[_Trajectory]] = {}
    for trajectory in trajectories:
        bins.setdefault(table[trajectory.state], []).append(trajectory)
    free_rows: List[int] = []
    spawned = merged = 0
    for level in sorted(bins):
        group = bins[level]
        cap = 1 if level == 0 else splits
        while len(group) > cap:
            group.sort(key=lambda t: (t.weight, t.ident))
            light, other = group[0], group[1]
            total = light.weight + other.weight
            pick = float(coin.random())
            keep = light if pick * total < light.weight else other
            lost = other if keep is light else light
            keep.weight = total
            free_rows.append(lost.row)
            group = [keep] + group[2:]
            merged += 1
        bins[level] = group
    free_rows.sort()
    for level in sorted(bins):
        if level == 0:
            continue
        group = bins[level]
        while 0 < len(group) < splits:
            group.sort(key=lambda t: (-t.weight, t.ident))
            parent = group[0]
            parent.weight /= 2.0
            if free_rows:
                row = free_rows.pop(0)
            else:
                # New slot keys are the spawning clone's ident — unique
                # for the tree's whole life, so a slot position freed by
                # truncation can never resurrect an earlier slot's
                # stream (which would replay observed randomness).
                row = allocator.add_row((run_index, next_ident))
            clone = _Trajectory(
                next_ident,
                parent.weight,
                parent.state,
                {
                    name: value
                    for name, value in parent.clocks.items()
                    if name not in memoryless
                },
                row,
            )
            next_ident += 1
            group.append(clone)
            spawned += 1
    survivors = [t for level in sorted(bins) for t in bins[level]]
    survivors.sort(key=lambda t: t.ident)
    # Compact slots to 0..n-1: a survivor on a high slot adopts a free
    # low slot (continuing that slot's stream — same independence
    # argument as clone placement), and the tail is dropped.
    n = len(survivors)
    holes = sorted(row for row in free_rows if row < n)
    movers = sorted(
        (t for t in survivors if t.row >= n), key=lambda t: t.row
    )
    for hole, trajectory in zip(holes, movers):
        trajectory.row = hole
    allocator.truncate_rows(n)
    return survivors, spawned, merged, next_ident


# Per-process simulator reuse across the trees of one batch (the same
# memo discipline as repro.sim.output's replication workers).
_WORKER_SPLIT: Optional[Tuple[Any, Any]] = None


def _tree_task(shared: Any, run_index: int) -> Dict[str, Any]:
    """Grow and estimate one splitting tree (one replication index).

    Everything the tree draws is a pure function of ``(seed,
    run_index, trajectory id, event name)``, so this task returns the
    same bytes whichever worker runs it, however many times it is
    retried, and whatever the batch composition is.
    """
    with tracing.span("splitting:tree", index=run_index) as tree_span:
        tree = _grow_tree(shared, run_index)
        tree_span.set_attributes(
            events=tree["events"],
            clones=tree["clones"],
            merges=tree["merges"],
        )
        return tree


def _grow_tree(shared: Any, run_index: int) -> Dict[str, Any]:
    global _WORKER_SPLIT
    (
        lts, measures, clock_semantics, run_length, warmup, seed,
        engine, levels, splits, segments, table, memoryless,
    ) = shared
    if _WORKER_SPLIT is None or _WORKER_SPLIT[0] is not shared:
        simulator = (
            FastSimulator(lts, measures, clock_semantics)
            if engine == "fast"
            else Simulator(lts, measures, clock_semantics)
        )
        _WORKER_SPLIT = (shared, simulator)
    simulator = _WORKER_SPLIT[1]
    names = [m.name for m in measures]

    if splits <= 1:
        # Degenerate configuration: no clone or merge can ever happen,
        # so skip the segment machinery entirely — one engine call,
        # bit-identical to naive replication on the fast-engine stream
        # discipline (the differential test pins this).
        if engine == "fast":
            [result] = simulator.run_many(
                run_length,
                seed=seed,
                warmup=warmup,
                run_indices=[run_index],
            )
        else:
            allocator = EventStreamAllocator(seed, [run_index])
            result = simulator.run(
                run_length,
                None,
                warmup,
                streams=allocator.run_view(0),
            )
        top = table[result.final_state]
        occupancy = [
            1.0 if level <= top else 0.0 for level in range(levels + 1)
        ]
        return {
            "measures": dict(result.measures),
            "occupancy": occupancy,
            "events": result.events_fired,
            "clones": 0,
            "merges": 0,
            "peak": 1,
        }

    segment_length = run_length / segments
    coin = splitting_event_generator(
        seed, run_index, 0, RESAMPLE_STREAM
    )
    allocator = EventStreamAllocator(seed, [(run_index, 0)])
    trajectories = [_Trajectory(0, 1.0, None, None, 0)]
    next_ident = 1
    totals = {name: 0.0 for name in names}
    occupancy = [0.0] * (levels + 1)
    events = clones = merges = 0
    peak = 1
    for segment in range(segments):
        segment_warmup = warmup if segment == 0 else 0.0
        # run_many indexes its batch by allocator row, so feed the
        # trajectories in row order (rows and live trajectories are
        # one-to-one — _resample compacts after every boundary).
        ordered = sorted(trajectories, key=lambda t: t.row)
        if engine == "fast":
            restart = {}
            if segment > 0:
                restart = {
                    "start_states": [t.state for t in ordered],
                    "start_clocks": [t.clocks for t in ordered],
                }
            results = simulator.run_many(
                segment_length,
                warmup=segment_warmup,
                allocator=allocator,
                **restart,
            )
        else:
            results = [
                simulator.run(
                    segment_length,
                    None,
                    segment_warmup,
                    start_state=t.state,
                    start_clocks=t.clocks,
                    streams=allocator.run_view(t.row),
                )
                for t in ordered
            ]
        for trajectory, result in zip(ordered, results):
            trajectory.state = result.final_state
            trajectory.clocks = result.final_clocks
            events += result.events_fired
            for name in names:
                totals[name] += (
                    trajectory.weight * result.measures[name]
                )
            top = table[trajectory.state]
            for level in range(top + 1):
                occupancy[level] += trajectory.weight / segments
        if segment < segments - 1:
            trajectories, spawned, removed, next_ident = _resample(
                trajectories, table, splits, coin, next_ident,
                run_index, allocator, memoryless,
            )
            clones += spawned
            merges += removed
            peak = max(peak, len(trajectories))
    return {
        # Each segment contributes 1/segments of the measured horizon,
        # so the per-tree estimate is the segment-mean of the weighted
        # time averages.
        "measures": {
            name: totals[name] / segments for name in names
        },
        "occupancy": occupancy,
        "events": events,
        "clones": clones,
        "merges": merges,
        "peak": peak,
    }


def split_replicate(
    lts: LTS,
    measures: Sequence[Measure],
    run_length: float,
    levels: int = 4,
    splits: int = 4,
    segments: int = 32,
    importance: Union[
        ImportanceFunction, Callable[[int], int], None
    ] = None,
    rare_measure: Optional[str] = None,
    runs: int = 30,
    warmup: float = 0.0,
    seed: int = 20040628,
    confidence: float = 0.90,
    clock_semantics: str = "enabling_memory",
    engine: Optional[str] = "fast",
    workers: int = 1,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultInjector] = None,
) -> SplittingResult:
    """Rare-event splitting estimation of all measures.

    Grows one splitting tree per replication index (``runs`` trees),
    each an independent unbiased estimate, and summarises them like
    :func:`repro.sim.output.replicate` — plus the rare-probability
    intervals and per-level diagnostics of :class:`SplittingResult`.

    *importance* may be a prebuilt :class:`ImportanceFunction`, a
    ``state -> level`` callable, or ``None`` to derive levels from the
    reward support of the measure named *rare_measure* (default: the
    first measure).  Trees are one executor task each and all streams
    are pure functions of ``(seed, run index, slot key, event name)``,
    so the estimates are bit-identical for any ``workers``.
    """
    if runs < 2:
        raise SimulationError("need at least two runs for an interval")
    if levels < 1:
        raise SimulationError(f"need levels >= 1, got {levels}")
    if splits < 1:
        raise SimulationError(f"need splits >= 1, got {splits}")
    if segments < 1:
        raise SimulationError(f"need segments >= 1, got {segments}")
    if run_length <= 0:
        raise SimulationError(
            f"run_length must be positive, got {run_length}"
        )
    resolved_engine = resolve_engine(engine)
    if isinstance(importance, ImportanceFunction):
        if len(importance.table) != lts.num_states:
            raise SimulationError(
                f"importance table covers {len(importance.table)} "
                f"states but the model has {lts.num_states}"
            )
        if importance.levels != levels:
            raise SimulationError(
                f"importance function has {importance.levels} levels "
                f"but the splitting run asked for {levels}"
            )
        resolved = importance
    elif callable(importance):
        resolved = tabulate_importance(lts, importance, levels)
    else:
        by_name = {m.name: m for m in measures}
        if rare_measure is None:
            target = measures[0]
        elif rare_measure in by_name:
            target = by_name[rare_measure]
        else:
            raise SimulationError(
                f"unknown rare measure {rare_measure!r} (have "
                f"{', '.join(by_name)})"
            )
        resolved = reward_importance(lts, target, levels)

    executor = ParallelExecutor(workers)
    resilience = {}
    if retry is not None or faults is not None:
        resilience = {
            "retry": retry, "faults": faults,
            "phase": "split-replicate",
        }
    shared = (
        lts, tuple(measures), clock_semantics, run_length, warmup,
        seed, resolved_engine, levels, splits, segments,
        resolved.table, _memoryless_events(lts),
    )
    names = [m.name for m in measures]
    samples: Dict[str, List[float]] = {name: [] for name in names}
    occupancy: List[List[float]] = [[] for _ in range(levels + 1)]
    events = clones = merges = 0
    peak = 0
    with tracing.span(
        "splitting:replicate",
        runs=runs,
        levels=levels,
        splits=splits,
        segments=segments,
        workers=workers,
    ) as split_span:
        for tree in executor.map(
            _tree_task, range(runs), shared=shared, chunksize=1,
            **resilience,
        ):
            for name in names:
                samples[name].append(tree["measures"][name])
            for level in range(levels + 1):
                occupancy[level].append(tree["occupancy"][level])
            events += tree["events"]
            clones += tree["clones"]
            merges += tree["merges"]
            peak = max(peak, tree["peak"])
        split_span.set_attributes(
            events=events, clones=clones, merges=merges, peak=peak,
        )
    estimates = {
        name: summarize(values, confidence)
        for name, values in samples.items()
    }
    rare = {
        name: summarize_rare(values, confidence)
        for name, values in samples.items()
        if all(value >= 0.0 for value in values)
    }
    registry = obs_metrics.get_registry()
    if registry.enabled:
        obs_metrics.SPLITTING_TREES.on(registry).inc(runs)
        obs_metrics.SPLITTING_CLONES.on(registry).inc(clones)
        obs_metrics.SPLITTING_MERGES.on(registry).inc(merges)
        obs_metrics.SPLITTING_EVENTS.on(registry).inc(events)
    return SplittingResult(
        estimates=estimates,
        rare=rare,
        samples=samples,
        occupancy=occupancy,
        levels=levels,
        splits=splits,
        segments=segments,
        confidence=confidence,
        events=events,
        clones=clones,
        merges=merges,
        peak_trajectories=peak,
    )
