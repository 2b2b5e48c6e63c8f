"""The reference engine's compiled-table loop ≡ the historical engine.

:class:`repro.sim.engine.Simulator` runs one event loop over per-state
tables compiled once per state: prefix-summed branch weights searched
with ``bisect_left``, nonzero reward-rate and impulse pairs, sojourn
crediting and branch choice inlined.  :class:`tests.oracles.ReferenceSimulator`
is the engine it replaced, verbatim (per-firing ``_compile``,
``_choose_weighted``, ``_collect_impulses`` and ``_accumulate_time``).
Every test here checks the two with ``==``: the whole
:class:`~repro.sim.engine.SimulationResult` (measures, horizon, events
fired, final state, deadlock flag, residual clocks in order) and the
observer's call sequence — or, for a bad model or horizon, the same
error type and message.

Models: the rpc and streaming general DPM/NO-DPM families, their
exponential plug-in, a trace-replay workload, and hand-built LTSs for
immediate branch weights, deadlock, warm-ups spanning several sojourns
and each compile-time error.  Non-finite horizons, which the historical
engine accepted silently, are rejected by the engine and by
``split_replicate`` (one test per case).
"""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aemilia.rates import (
    ExpRate,
    GeneralRate,
    ImmediateRate,
    PassiveRate,
)
from repro.aemilia.semantics import generate_lts
from repro.casestudies import rpc, streaming
from repro.core.validation import exponential_plugin
from repro.ctmc import measure, state_clause, trans_clause
from repro.distributions import Deterministic, Normal, Uniform
from repro.errors import SimulationError
from repro.lts import LTS
from repro.obs import tracing
from repro.obs.tracing import Tracer
from repro.sim import (
    RunStreams,
    Simulator,
    split_replicate,
)
from repro.workload import TraceReplay, apply_workload, parse_generator_spec
from tests.oracles import ReferenceSimulator, spawn_generators

SEED = 20040628
CASES = {"rpc": rpc.family, "streaming": streaming.family}
#: Measured horizon and warm-up per case: a few hundred to a few
#: thousand firings per run.
HORIZON = {"rpc": (400.0, 40.0), "streaming": (3_000.0, 250.0)}


@lru_cache(maxsize=None)
def _family(case):
    return CASES[case]()


@lru_cache(maxsize=None)
def _model(case, variant):
    """The general model of *case*: ``dpm``, ``nodpm``, ``exp`` (the
    exponential plug-in of the DPM model) or ``replay`` (a trace-replay
    workload at the case's workload hook)."""
    family = _family(case)
    archi = family.general_nodpm if variant == "nodpm" else family.general_dpm
    lts = generate_lts(archi, None, 200_000)
    if variant == "exp":
        return exponential_plugin(lts)
    if variant == "replay":
        trace = parse_generator_spec("poisson:0.12").generate(300, seed=7)
        return apply_workload(
            lts, family.workload_pattern, TraceReplay(trace, "cycle")
        )
    return lts


def _both(lts, measures, clock_semantics="enabling_memory"):
    return (
        Simulator(lts, measures, clock_semantics),
        ReferenceSimulator(lts, measures, clock_semantics),
    )


def _run(simulator, *args, **kwargs):
    """``simulator.run(...)`` plus the observer's calls."""
    calls = []
    result = simulator.run(
        *args, observer=lambda *call: calls.append(call), **kwargs
    )
    return result, calls


def _assert_same(new, old):
    (new_result, new_calls), (old_result, old_calls) = new, old
    assert new_result == old_result
    assert list(new_result.final_clocks) == list(old_result.final_clocks)
    assert new_calls == old_calls


def _same_error(new_call, old_call):
    with pytest.raises(SimulationError) as new_error:
        new_call()
    with pytest.raises(SimulationError) as old_error:
        old_call()
    assert str(new_error.value) == str(old_error.value)


@pytest.mark.parametrize("semantics", ["enabling_memory", "restart"])
@pytest.mark.parametrize("variant", ["dpm", "nodpm", "exp"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_case_studies_match_oracle(case, variant, semantics):
    lts = _model(case, variant)
    new, old = _both(lts, _family(case).measures, semantics)
    run_length, warmup = HORIZON[case]
    for new_rng, old_rng in zip(
        spawn_generators(SEED, 3), spawn_generators(SEED, 3)
    ):
        _assert_same(
            _run(new, run_length, new_rng, warmup),
            _run(old, run_length, old_rng, warmup),
        )


@pytest.mark.parametrize("variant", ["dpm", "replay"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_shared_streams_match_oracle(case, variant):
    """CRN streams: each run draws from its own ``RunStreams``."""
    lts = _model(case, variant)
    new, old = _both(lts, _family(case).measures)
    run_length, warmup = HORIZON[case]
    for run in range(3):
        _assert_same(
            _run(new, run_length, RunStreams(SEED, run), warmup),
            _run(
                old, run_length, None, warmup,
                streams=RunStreams(SEED, run),
            ),
        )


@pytest.mark.parametrize("semantics", ["enabling_memory", "restart"])
def test_resume_from_final_clocks_matches_oracle(semantics):
    """Segments chained through ``start_state``/``start_clocks``."""
    lts = _model("rpc", "dpm")
    new, old = _both(lts, _family("rpc").measures, semantics)
    new_rng = spawn_generators(SEED, 2)[1]
    old_rng = spawn_generators(SEED, 2)[1]
    new_state = old_state = None
    new_clocks = old_clocks = None
    for segment in range(6):
        warmup = 30.0 if segment == 0 else 0.0
        new_out = _run(
            new, 75.0, new_rng, warmup,
            start_state=new_state, start_clocks=new_clocks,
        )
        old_out = _run(
            old, 75.0, old_rng, warmup,
            start_state=old_state, start_clocks=old_clocks,
        )
        _assert_same(new_out, old_out)
        new_state = new_out[0].final_state
        new_clocks = new_out[0].final_clocks
        old_state, old_clocks = old_out[0].final_state, old_out[0].final_clocks


def test_stale_start_clocks_are_filtered_like_oracle():
    """Carried clocks of events the start state does not enable are
    dropped; the enabled ones keep their residuals."""
    lts = _model("rpc", "dpm")
    measures = _family("rpc").measures
    probe = Simulator(lts, measures).run(50.0, np.random.default_rng(3))
    carried = dict(probe.final_clocks, **{"no such event": 0.5})
    new, old = _both(lts, measures)
    _assert_same(
        _run(
            new, 80.0, np.random.default_rng(4),
            start_state=probe.final_state, start_clocks=carried,
        ),
        _run(
            old, 80.0, np.random.default_rng(4),
            start_state=probe.final_state, start_clocks=dict(carried),
        ),
    )


def _branching_lts():
    """Weighted immediate branches (3:1:2) and a two-branch timed event
    (weights 0.25/0.75, deterministic), plus a self-loop impulse."""
    lts = LTS(0)
    for _ in range(6):
        lts.add_state()
    lts.add_transition(0, "fire", 1, ExpRate(5.0), "fire")
    lts.add_transition(1, "left", 2, ImmediateRate(1, 3.0), "pick")
    lts.add_transition(1, "mid", 3, ImmediateRate(1, 1.0), "pick")
    lts.add_transition(1, "right", 4, ImmediateRate(1, 2.0), "pick")
    timer = GeneralRate(Deterministic(0.5))
    lts.add_transition(2, "split", 0, timer, "split", weight=0.25)
    lts.add_transition(2, "split", 5, timer, "split", weight=0.75)
    lts.add_transition(2, "tick", 2, ExpRate(2.0), "tick")
    lts.add_transition(3, "back", 0, GeneralRate(Uniform(0.1, 0.9)), "back")
    lts.add_transition(4, "back", 0, GeneralRate(Normal(0.4, 0.1)), "back")
    lts.add_transition(5, "back", 0, ExpRate(3.0), "back")
    return lts


BRANCH_MEASURES = [
    measure("lefts", trans_clause("left", 1.0)),
    measure("mids", trans_clause("mid", 2.0)),
    measure("ticks", trans_clause("tick", 1.0)),
    measure("in2", state_clause("split", 1.0), state_clause("back", 0.5)),
]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_immediate_and_event_branch_weights_match_oracle(seed):
    new, old = _both(_branching_lts(), BRANCH_MEASURES)
    _assert_same(
        _run(new, 300.0, np.random.default_rng(seed), 7.3),
        _run(old, 300.0, np.random.default_rng(seed), 7.3),
    )
    _assert_same(
        _run(new, 300.0, RunStreams(seed, 0), 7.3),
        _run(old, 300.0, None, 7.3, streams=RunStreams(seed, 0)),
    )


class _ScriptedStreams:
    """A sampler stand-in: every duration is its distribution's mean
    and the branch uniforms cycle through *uniforms*."""

    def __init__(self, uniforms):
        self._uniforms = itertools.cycle(uniforms)

    def duration(self, name, distribution):
        return distribution.mean

    def branch(self):
        return next(self._uniforms)


def test_branch_picks_on_prefix_sum_boundaries_match_oracle():
    """A pick equal to a prefix sum takes that branch (the scan stops at
    ``pick <= acc``), and a pick past the total takes the last one.
    Immediate weights 3:1:2 put boundaries at picks 3 and 4 (uniforms
    1/2 and 2/3 of 6); the timed split 0.25/0.75 at pick 0.25."""
    uniforms = [0.5, 0.25, 2 / 3, 0.0, 1.0, 1.5, 0.25, 0.9]
    new, old = _both(_branching_lts(), BRANCH_MEASURES)
    new_out = _run(new, 60.0, _ScriptedStreams(uniforms))
    old_out = _run(old, 60.0, None, streams=_ScriptedStreams(uniforms))
    _assert_same(new_out, old_out)
    labels = {label for _, label, _ in new_out[1]}
    assert {"left", "mid", "right", "split"} <= labels


def test_compiled_tables_hold_only_nonzero_pairs():
    """Every compiled state carries its reward rates, and its branches
    their label impulses, as exactly the nonzero (measure, value) pairs
    of the shared reward table."""
    lts = _model("rpc", "dpm")
    simulator = Simulator(lts, _family("rpc").measures)
    rewards = simulator.rewards
    skipped = 0
    for state in lts.states():
        table = simulator._compile(state)
        expected = [(j, r) for j, r in enumerate(table.rewards) if r]
        assert list(table.rates) == expected
        skipped += len(table.rewards) - len(expected)
        choices = list(table.events.values())
        if table.immediate is not None:
            choices.append(table.immediate)
        for choice in choices:
            for label_id, pairs in zip(choice.label_ids, choice.impulses):
                impulses = rewards.impulses(simulator.labels[label_id])
                expected = [(j, r) for j, r in enumerate(impulses) if r]
                assert list(pairs) == expected
                skipped += len(impulses) - len(expected)
    assert skipped > 0


def test_deadlock_matches_oracle():
    lts = LTS(0)
    for _ in range(3):
        lts.add_state()
    lts.add_transition(0, "work", 1, GeneralRate(Deterministic(2.0)), "work")
    lts.add_transition(1, "die", 2, ImmediateRate(1, 1.0), "die")
    measures = [
        measure("working", state_clause("work", 1.0)),
        measure("deaths", trans_clause("die", 1.0)),
    ]
    new, old = _both(lts, measures)
    for warmup in (0.0, 1.5, 5.0):
        new_out = _run(new, 10.0, np.random.default_rng(0), warmup)
        old_out = _run(old, 10.0, np.random.default_rng(0), warmup)
        _assert_same(new_out, old_out)
        assert new_out[0].deadlocked


@pytest.mark.parametrize("warmup", [0.0, 4.0, 11.5, 12.0, 23.25])
def test_warmup_spanning_several_sojourns_matches_oracle(warmup):
    """Deterministic 2/3 alternation: the warm-up ends mid-sojourn, on a
    firing instant, or several cycles in; impulses inside it are
    dropped."""
    lts = LTS(0)
    for _ in range(2):
        lts.add_state()
    lts.add_transition(0, "up", 1, GeneralRate(Deterministic(2.0)), "up")
    lts.add_transition(1, "down", 0, GeneralRate(Deterministic(3.0)), "down")
    measures = [
        measure("in0", state_clause("up", 1.0)),
        measure("downs", trans_clause("down", 1.0)),
    ]
    new, old = _both(lts, measures)
    _assert_same(
        _run(new, 37.0, np.random.default_rng(0), warmup),
        _run(old, 37.0, np.random.default_rng(0), warmup),
    )


def _cycle(entries, states):
    lts = LTS(0)
    for _ in range(states):
        lts.add_state()
    for source, label, target, rate in entries:
        lts.add_transition(source, label, target, rate, f"E{label}")
    return lts


ERROR_MODELS = {
    "divergence": lambda: _cycle(
        [
            (0, "a", 1, ImmediateRate(1, 1.0)),
            (1, "b", 0, ImmediateRate(1, 1.0)),
        ],
        2,
    ),
    "passive": lambda: _cycle(
        [(0, "a", 1, ExpRate(1.0)), (1, "b", 0, PassiveRate())], 2
    ),
    "mixed": lambda: _cycle(
        [
            (0, "a", 1, ExpRate(1.0)),
            (1, "b", 0, ImmediateRate(1, 1.0)),
            (1, "c", 0, ExpRate(1.0)),
        ],
        2,
    ),
    "no rate": lambda: _cycle(
        [(0, "a", 1, ExpRate(1.0)), (1, "b", 0, None)], 2
    ),
}


@pytest.mark.parametrize("kind", sorted(ERROR_MODELS))
def test_model_errors_match_oracle(kind):
    new, old = _both(ERROR_MODELS[kind](), [])
    _same_error(
        lambda: new.run(10.0, np.random.default_rng(1)),
        lambda: old.run(10.0, np.random.default_rng(1)),
    )


def test_mismatched_branch_distributions_match_oracle():
    lts = LTS(0)
    for _ in range(3):
        lts.add_state()
    lts.add_transition(0, "go", 1, GeneralRate(Deterministic(1.0)), "go")
    lts.add_transition(0, "go", 2, GeneralRate(Deterministic(2.0)), "go")
    new, old = _both(lts, [])
    _same_error(
        lambda: new.run(10.0, np.random.default_rng(1)),
        lambda: old.run(10.0, np.random.default_rng(1)),
    )


@pytest.mark.parametrize(
    "run_length, warmup", [(0.0, 0.0), (-5.0, 0.0), (10.0, -1.0)]
)
def test_horizon_errors_match_oracle(run_length, warmup):
    new, old = _both(_model("rpc", "dpm"), _family("rpc").measures)
    _same_error(
        lambda: new.run(run_length, np.random.default_rng(1), warmup),
        lambda: old.run(run_length, np.random.default_rng(1), warmup),
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    run_length=st.floats(1.0, 400.0),
    warmup=st.floats(0.0, 100.0),
    shared_streams=st.booleans(),
)
def test_hypothesis_draws_match_oracle(
    seed, run_length, warmup, shared_streams
):
    lts = _model("rpc", "dpm")
    new, old = _both(lts, _family("rpc").measures)
    if shared_streams:
        new_out = _run(new, run_length, RunStreams(seed, 0), warmup)
        old_out = _run(
            old, run_length, None, warmup, streams=RunStreams(seed, 0)
        )
    else:
        new_out = _run(new, run_length, np.random.default_rng(seed), warmup)
        old_out = _run(old, run_length, np.random.default_rng(seed), warmup)
    _assert_same(new_out, old_out)


# -- non-finite horizons -----------------------------------------------------

NON_FINITE = [math.nan, math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
def test_reference_rejects_non_finite_run_length(value):
    simulator = Simulator(_model("rpc", "dpm"), _family("rpc").measures)
    with pytest.raises(SimulationError, match="run_length must be finite"):
        simulator.run(value, np.random.default_rng(1))


@pytest.mark.parametrize("value", NON_FINITE)
def test_reference_rejects_non_finite_warmup(value):
    simulator = Simulator(_model("rpc", "dpm"), _family("rpc").measures)
    with pytest.raises(SimulationError, match="warmup must be finite"):
        simulator.run(100.0, np.random.default_rng(1), warmup=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_split_replicate_rejects_non_finite_run_length(value):
    with pytest.raises(SimulationError, match="run_length must be finite"):
        split_replicate(
            _model("rpc", "dpm"), _family("rpc").measures, value, runs=2
        )


@pytest.mark.parametrize("value", NON_FINITE)
def test_split_replicate_rejects_non_finite_warmup(value):
    with pytest.raises(SimulationError, match="warmup must be finite"):
        split_replicate(
            _model("rpc", "dpm"), _family("rpc").measures, 100.0,
            runs=2, warmup=value,
        )


# -- observability -----------------------------------------------------------


def test_each_run_records_one_engine_span():
    """One ``engine:run`` span per run, carrying its events and deadlock
    flag, in the totals and (when tracing) in the trace."""
    simulator = Simulator(_model("rpc", "dpm"), _family("rpc").measures)
    tracer = Tracer()
    previous = tracing.set_tracer(tracer)
    before = tracing.totals()
    try:
        results = [
            simulator.run(50.0, rng) for rng in spawn_generators(SEED, 2)
        ]
    finally:
        tracing.set_tracer(previous)
        tracer.close()
    assert tracing.totals().since(before).timings()["engine:run"]["count"] == 2
    records = [r for r in tracer.records() if r["name"] == "engine:run"]
    assert [
        (r["attrs"]["events"], r["attrs"]["deadlocked"]) for r in records
    ] == [(result.events_fired, result.deadlocked) for result in results]


def test_tracing_does_not_perturb_runs():
    lts, measures = _model("rpc", "dpm"), _family("rpc").measures
    untraced = Simulator(lts, measures).run(200.0, np.random.default_rng(5))
    tracer = Tracer()
    previous = tracing.set_tracer(tracer)
    try:
        traced = Simulator(lts, measures).run(200.0, np.random.default_rng(5))
    finally:
        tracing.set_tracer(previous)
        tracer.close()
    assert traced == untraced
