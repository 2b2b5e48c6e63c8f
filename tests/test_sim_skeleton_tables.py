"""Per-skeleton simulator tables ≡ per-point compilation ≡ the oracles.

:class:`repro.sim.engine.Simulator` takes its per-state tables from one
store per LTS and measure set; a point re-rated from a skeleton
(:meth:`~repro.lts.lts.LTS.rerated`) compiles only the rows holding a
re-rated position and shares every other table with the skeleton's
store.  Every test here runs the points of a sweep in order, so later
points are served tables an earlier point (or the skeleton) compiled,
and checks each run with ``==`` — the whole
:class:`~repro.sim.engine.SimulationResult`, residual clocks in order,
and the observer's call sequence — against a fresh simulator on a
base-less copy of the point (an unpickled LTS, as a pool worker gets,
compiles every state itself) and :class:`tests.oracles.ReferenceSimulator`.

Cases: the rpc and streaming general DPM/NO-DPM families swept over a
rate parameter, the exponential plug-in re-rated where it shares its
elimination plan, a paired CRN chunk and a splitting tree.  The compiled
tables themselves are pinned to the historical per-simulator compile
from :class:`~repro.lts.lts.Transition` views
(:class:`tests.oracles.TransitionTableSimulator`), and a skeleton
edited after a run is never served the tables of its old structure.
"""

import gc
import pickle
from functools import lru_cache

import numpy as np
import pytest

from repro.aemilia.rates import ExpRate, GeneralRate
from repro.casestudies import rpc, streaming
from repro.core.validation import exponential_plugin
from repro.ctmc.build import elimination_plan
from repro.distributions import Deterministic
from repro.obs import tracing
from repro.obs.tracing import Tracer
from repro.runtime import generate_parametric
from repro.sim import RunStreams, Simulator
from repro.sim.output import _paired_chunk
from repro.sim.splitting import _grow_tree, _memoryless_events
from repro.sim.splitting import reward_importance
from tests.oracles import ReferenceSimulator, TransitionTableSimulator

SEED = 20040628
FAMILIES = {"rpc": rpc.family, "streaming": streaming.family}
#: (case, variant): a rate-only parameter and the values swept over it.
SWEEPS = {
    ("rpc", "dpm"): ("shutdown_timeout", (0.5, 4.0, 11.0)),
    ("rpc", "nodpm"): ("proc_time", (4.0, 15.0)),
    ("streaming", "dpm"): ("awake_period", (13.351, 49.778, 477.989)),
    ("streaming", "nodpm"): ("frame_period", (40.0, 120.0)),
}
#: Measured horizon and warm-up per case.
HORIZON = {"rpc": (300.0, 30.0), "streaming": (1_500.0, 100.0)}


@lru_cache(maxsize=None)
def _family(case):
    return FAMILIES[case]()


def _points(case, variant):
    """A fresh skeleton and its sweep points (skeleton first)."""
    archi = getattr(_family(case), f"general_{variant}")
    parameter, values = SWEEPS[case, variant]
    skeleton = generate_parametric(archi)
    return [skeleton.lts] + [
        skeleton.relabel(archi.bind_constants({parameter: value}))
        for value in values
    ]


def _baseless(lts):
    copy = pickle.loads(pickle.dumps(lts))
    assert copy.rerated_from() is None
    return copy


def _observed(simulator, *args, **kwargs):
    """``simulator.run(...)`` plus the observer's calls."""
    calls = []
    result = simulator.run(
        *args, observer=lambda *call: calls.append(call), **kwargs
    )
    return result, list(result.final_clocks), calls


def _reference_run(reference, run_length, rng, warmup=0.0, **kwargs):
    """A run of the historical engine, which takes a ``RunStreams`` as
    ``streams=``."""
    if isinstance(rng, RunStreams):
        return reference.run(run_length, None, warmup, streams=rng, **kwargs)
    return reference.run(run_length, rng, warmup, **kwargs)


class _Reference:
    """:class:`ReferenceSimulator` behind the engine's ``run`` call."""

    def __init__(self, lts, measures):
        self.simulator = ReferenceSimulator(lts, measures)

    def run(self, run_length, rng, warmup=0.0, **kwargs):
        return _reference_run(self.simulator, run_length, rng, warmup,
                              **kwargs)


def _three(lts, measures):
    """The shared-table simulator, a per-point one on a base-less copy
    and the oracle."""
    return (
        Simulator(lts, measures),
        Simulator(_baseless(lts), measures),
        _Reference(lts, measures),
    )


def _assert_all_same(simulators, run_length, randomness, warmup=0.0):
    """Each simulator runs on its own copy of the randomness:
    ``randomness()`` makes a fresh generator or ``RunStreams``."""
    shared, *others = [
        _observed(s, run_length, randomness(), warmup) for s in simulators
    ]
    for other in others:
        assert shared == other
    return shared[0]


@pytest.mark.parametrize("case, variant", sorted(SWEEPS))
def test_sweep_points_match_per_point_compile_and_oracle(case, variant):
    measures = _family(case).measures
    run_length, warmup = HORIZON[case]
    points = _points(case, variant)
    results = []
    for index, lts in enumerate(points):
        simulators = _three(lts, measures)
        results.append(_assert_all_same(
            simulators, run_length,
            lambda: np.random.default_rng(index), warmup,
        ))
        results.append(_assert_all_same(
            simulators, run_length, lambda: RunStreams(SEED, index), warmup
        ))
    # The points differ (a store keyed on structure alone would not).
    assert len({str(result.measures) for result in results}) > len(points)


@pytest.mark.parametrize("case, variant", sorted(SWEEPS))
def test_only_rerated_rows_compile_per_point(case, variant):
    """A point compiles the visited rows holding a re-rated position;
    every other visited row is compiled once, by whichever point (or
    the skeleton) reaches it first, and shared from then on."""
    measures = _family(case).measures
    run_length, warmup = HORIZON[case]
    points = _points(case, variant)
    compiled = per_point = 0
    for index, lts in enumerate(points):
        simulator = Simulator(lts, measures)
        store = simulator._store
        root = store.root
        assert root is Simulator(points[0], measures)._store
        known, counted = set(root.tables), root.compiled
        simulator.run(run_length, RunStreams(SEED, index), warmup)
        rerated = lts.rerated_from()
        rows = frozenset() if rerated is None else rerated[1]
        assert rerated is None or rerated[0] is points[0]
        local = {s for s in store.tables if s in rows}
        shared = set(store.tables) - local
        assert root.compiled - counted == len(local) + len(shared - known)
        for state in shared:
            assert store.tables[state] is root.tables[state]
        compiled += root.compiled - counted
        alone = Simulator(_baseless(lts), measures)
        alone.run(run_length, RunStreams(SEED, index), warmup)
        assert alone._store.tables.keys() == store.tables.keys()
        per_point += alone._store.compiled
    assert compiled < per_point


def test_plugin_points_sharing_the_plan_keep_their_rates():
    """The exponential plug-in re-rated at exponential positions shares
    its CTMC elimination plan: each point's exponentials are its own."""
    case = "rpc"
    measures = _family(case).measures
    plugin = exponential_plugin(
        generate_parametric(_family(case).general_dpm).lts
    )
    rates = plugin.columns.rates
    sources = plugin.columns.sources
    positions = [
        p for p, rate in enumerate(rates)
        if isinstance(rate, ExpRate) and sources[p] % 3 == 0
    ]
    points = [plugin]
    for scale in (0.25, 4.0):
        scaled = list(rates)
        for p in positions:
            scaled[p] = ExpRate(rates[p].rate * scale)
        points.append(plugin.rerated(positions, scaled))
    assert all(
        elimination_plan(point) is elimination_plan(plugin)
        for point in points
    )
    run_length, warmup = HORIZON[case]
    means = []
    for lts in points:
        result = _assert_all_same(
            _three(lts, measures), run_length,
            lambda: RunStreams(SEED, 7), warmup,
        )
        means.append(result.measures)
    assert means[0] != means[1] != means[2]


def test_paired_crn_chunk_matches():
    """Two points of one skeleton run on the same ``RunStreams`` per
    run index, as a CRN chunk runs them."""
    case = "streaming"
    measures = _family(case).measures
    run_length, warmup = HORIZON[case]
    _, first, second = _points(case, "dpm")[:3]
    pairs = [_three(first, measures), _three(second, measures)]
    for index in range(3):
        for simulators in pairs:
            _assert_all_same(
                simulators, run_length,
                lambda: RunStreams(SEED, index), warmup,
            )
    chunk = (0, 1, 2)
    settings = (measures, "enabling_memory", run_length, warmup, SEED, True)
    assert _paired_chunk((first, second) + settings, chunk) == _paired_chunk(
        (_baseless(first), _baseless(second)) + settings, chunk
    )


class _Recording:
    """A simulator whose runs (results and observer calls) are kept."""

    def __init__(self, simulator):
        self.simulator = simulator
        self.runs = []

    def run(self, run_length, rng, warmup=0.0, **kwargs):
        calls = []
        result = self.simulator.run(
            run_length, rng, warmup,
            observer=lambda *call: calls.append(call), **kwargs
        )
        self.runs.append((result, list(result.final_clocks), calls))
        return result


def test_splitting_tree_matches():
    """A splitting tree resumes many segments from carried clocks on
    one simulator; every segment run and the tree agree."""
    case = "rpc"
    measures = tuple(_family(case).measures)
    levels, splits, segments = 2, 3, 6
    _, point = _points(case, "dpm")[:2]
    table = reward_importance(point, measures[0], levels).table
    shared = (
        point, measures, "enabling_memory", 400.0, 20.0, SEED,
        levels, splits, segments, table, _memoryless_events(point),
    )
    trees = []
    recordings = []
    for simulator in _three(point, measures):
        recording = _Recording(simulator)
        trees.append([_grow_tree(recording, shared, run) for run in (0, 1)])
        recordings.append(recording.runs)
    assert trees[0] == trees[1] == trees[2]
    assert recordings[0] == recordings[1] == recordings[2]
    assert len(recordings[0]) > 2 * segments


@pytest.mark.parametrize("case", sorted(FAMILIES))
def test_tables_match_the_transition_view_compile(case):
    """Every state's table, label ids read through each engine's own
    label table, is the table the historical engine compiled."""
    measures = _family(case).measures
    points = _points(case, "dpm")
    for lts in points:
        simulator = Simulator(lts, measures)
        oracle = TransitionTableSimulator(lts, measures)
        assert simulator.labels is lts.columns.labels
        for state in lts.states():
            assert _table(simulator, state) == _table(oracle, state)


def _table(simulator, state):
    table = simulator._compile(state)
    choices = dict(table.events)
    if table.immediate is not None:
        choices[None] = table.immediate
    return (
        table.rewards,
        table.rates,
        list(table.names),
        {
            name: (
                choice.distribution, choice.count, choice.total,
                choice.cum, choice.targets,
                [simulator.labels[i] for i in choice.label_ids],
                choice.impulses,
            )
            for name, choice in choices.items()
        },
    )


def test_an_edited_skeleton_is_never_served_stale_tables():
    """``add_transition`` on a skeleton after a run: a simulator made
    before the edit and a new one both see the edited row; a point
    re-rated before the edit keeps the structure it was made from."""
    measures = _family("rpc").measures
    skeleton, point = _points("rpc", "dpm")[:2]
    before = Simulator(skeleton, measures)
    _, _, calls = _observed(before, 200.0, RunStreams(SEED, 0))
    old_point = Simulator(point, measures)
    old_point.run(200.0, RunStreams(SEED, 0))
    state = next(
        target for _, _, target in calls
        if before._compile(target).events
    )
    skeleton.add_transition(
        state, "detour", skeleton.initial,
        GeneralRate(Deterministic(1e-3)), "detour",
    )
    assert point.rerated_from() is None  # the skeleton copied its columns
    for simulator in (before, Simulator(skeleton, measures)):
        result, _, calls = _observed(simulator, 50.0, RunStreams(SEED, 1))
        assert "detour" in simulator._compile(state).events
        assert any(label == "detour" for _, label, _ in calls)
        assert result == _reference_run(
            ReferenceSimulator(skeleton, measures), 50.0, RunStreams(SEED, 1)
        )
    assert "detour" not in old_point._compile(state).events
    assert _observed(old_point, 80.0, RunStreams(SEED, 2)) == _observed(
        Simulator(_baseless(point), measures), 80.0, RunStreams(SEED, 2)
    )


def test_each_run_span_counts_the_tables_it_compiled():
    """The ``engine:run`` span's ``compiled`` is the number of tables
    the run compiled: every visited state on a fresh skeleton, none on
    a repeat, and on a second point only what the first left out."""
    measures = _family("rpc").measures
    points = _points("rpc", "dpm")
    tracer = Tracer()
    previous = tracing.set_tracer(tracer)
    expected, visited = [], []
    try:
        for lts in points[:2]:
            simulator = Simulator(lts, measures)
            for _ in range(2):
                root = simulator._store.root
                counted = root.compiled
                simulator.run(200.0, RunStreams(SEED, 0))
                expected.append(root.compiled - counted)
                visited.append(len(simulator._store.tables))
    finally:
        tracing.set_tracer(previous)
        tracer.close()
    compiled = [
        r["attrs"]["compiled"] for r in tracer.records()
        if r["name"] == "engine:run"
    ]
    assert compiled == expected
    assert compiled[0] == visited[0]
    assert compiled[1] == compiled[3] == 0
    assert 0 < compiled[2] < compiled[0]


def test_stores_are_freed_without_the_cycle_collector():
    """A skeleton's and its points' stores hold no reference cycle, so
    the tables of a finished sweep go when its last LTS does, not at the
    next full collection."""
    measures = _family("rpc").measures
    points = _points("rpc", "dpm")
    gc.collect()
    gc.disable()
    try:
        for index, lts in enumerate(points):
            Simulator(lts, measures).run(100.0, RunStreams(SEED, index))
        del points, lts
        assert gc.collect() == 0
    finally:
        gc.enable()
