"""The rate rewrites re-rate the LTS ≡ the historical full rebuilds.

:func:`~repro.core.validation.exponential_plugin` and
:func:`~repro.workload.hooks.apply_workload` return a re-rated copy
(:meth:`~repro.lts.lts.LTS.rerated`) instead of rebuilding the LTS from
its transition views.  Each result must be ``==`` to the historical
rebuild of ``tests.oracles``
(:func:`~tests.oracles.exponential_plugin_reference`,
:func:`~tests.oracles.apply_workload_reference`): every column with its
labels resolved, every state's description, the CTMC entries (or the
error that stops the build) and one replication, errors included.  The
cases are the rpc and streaming general DPM/NO-DPM models, a relabeled
point of each, and a trace-replay workload on top of the plug-in.
"""

from functools import lru_cache

import pytest

from repro.aemilia.rates import ExpRate, ImmediateRate, PassiveRate
from repro.casestudies import rpc, streaming
from repro.core.validation import exponential_plugin
from repro.ctmc import build_ctmc
from repro.distributions import Deterministic, Exponential
from repro.errors import MarkovianError, WorkloadError
from repro.lts import LTS
from repro.runtime import generate_parametric
from repro.sim import RunStreams, Simulator
from repro.sim.output import replicate
from repro.workload import PoissonGenerator, TraceReplay, apply_workload
from tests.oracles import (
    apply_workload_reference,
    exponential_plugin_reference,
)

FAMILIES = {"rpc": rpc.family, "streaming": streaming.family}
#: (case, variant): a rate-only parameter and a value to relabel it to.
POINTS = {
    ("rpc", "dpm"): ("shutdown_timeout", 4.0),
    ("rpc", "nodpm"): ("proc_time", 15.0),
    ("streaming", "dpm"): ("awake_period", 49.778),
    ("streaming", "nodpm"): ("frame_period", 120.0),
}
#: Replication horizon and warm-up per case.
HORIZON = {"rpc": (300.0, 30.0), "streaming": (600.0, 50.0)}


@lru_cache(maxsize=None)
def _family(case):
    return FAMILIES[case]()


@lru_cache(maxsize=None)
def _models(case, variant):
    """The general model's skeleton and a relabeled point of it."""
    archi = getattr(_family(case), f"general_{variant}")
    parameter, value = POINTS[case, variant]
    skeleton = generate_parametric(archi)
    return skeleton.lts, skeleton.relabel(
        archi.bind_constants({parameter: value})
    )


@lru_cache(maxsize=None)
def _replay():
    return TraceReplay(PoissonGenerator(0.1).generate(300, seed=11))


def _columns(lts):
    """Every column, labels resolved, and every state's description."""
    c = lts.columns
    return (
        lts.initial,
        lts.num_states,
        list(c.sources),
        [c.labels[i] for i in c.label_ids],
        list(c.targets),
        list(c.rates),
        list(c.events),
        list(c.weights),
        [lts.state_info(s) for s in lts.states()],
    )


def _ctmc(lts):
    try:
        return [
            (t.source, t.target, t.rate, list(t.label_counts.items()))
            for t in build_ctmc(lts).transitions
        ]
    except MarkovianError as error:
        return type(error), str(error)


def _assert_same(case, got, expected):
    assert got.rerated_from() is not None
    assert _columns(got) == _columns(expected)
    assert _ctmc(got) == _ctmc(expected)
    run_length, warmup = HORIZON[case]
    measures = _family(case).measures
    assert replicate(
        got, measures, run_length, runs=2, warmup=warmup, seed=5
    ) == replicate(
        expected, measures, run_length, runs=2, warmup=warmup, seed=5
    )


@pytest.mark.parametrize("case, variant", sorted(POINTS))
@pytest.mark.parametrize("relabeled", [False, True])
def test_the_plugin_matches_the_rebuild(case, variant, relabeled):
    lts = _models(case, variant)[relabeled]
    _assert_same(
        case, exponential_plugin(lts), exponential_plugin_reference(lts)
    )


@pytest.mark.parametrize("case, variant", sorted(POINTS))
@pytest.mark.parametrize("relabeled", [False, True])
def test_a_replayed_workload_matches_the_rebuild(case, variant, relabeled):
    plugin = exponential_plugin(_models(case, variant)[relabeled])
    pattern = _family(case).workload_pattern
    _assert_same(
        case,
        apply_workload(plugin, pattern, _replay()),
        apply_workload_reference(
            exponential_plugin_reference(
                _models(case, variant)[relabeled]
            ),
            pattern,
            _replay(),
        ),
    )


def _untimed(rate):
    """``P.a`` (exponential), then ``P.b`` with *rate*, then ``P.c``."""
    lts = LTS(0)
    lts.add_state()
    lts.add_state()
    lts.add_transition(0, "P.a", 1, ExpRate(1.0))
    lts.add_transition(0, "P.b", 1, rate)
    lts.add_transition(1, "P.c", 0, ExpRate(1.0))
    return lts


@pytest.mark.parametrize(
    "lts, pattern",
    [
        (_untimed(ExpRate(2.0)), "Q.missing"),
        (_untimed(None), "P.b"),
        (_untimed(PassiveRate(1, 1.0)), "P.*"),
        (_untimed(ImmediateRate(1, 1.0)), "P.b"),
    ],
)
def test_workload_errors_match_the_rebuild(lts, pattern):
    messages = []
    for rewrite in (apply_workload, apply_workload_reference):
        with pytest.raises(WorkloadError) as info:
            rewrite(lts, pattern, Exponential(1.0))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("case", sorted(FAMILIES))
def test_workload_points_compile_fewer_tables_than_the_rebuild(case):
    """A workload point compiles only the rows holding a hooked
    position; the rebuild compiles every row it visits."""
    family = _family(case)
    skeleton = generate_parametric(family.general_dpm)
    parameter, value = POINTS[case, "dpm"]
    workload = Deterministic(2.0)
    run_length, warmup = HORIZON[case]
    root = Simulator(skeleton.lts, family.measures)._store
    shared = rebuilt = 0
    for index, point in enumerate([
        skeleton.lts,
        skeleton.relabel(
            family.general_dpm.bind_constants({parameter: value})
        ),
    ]):
        got = apply_workload(point, family.workload_pattern, workload)
        expected = apply_workload_reference(
            point, family.workload_pattern, workload
        )
        counted = root.compiled
        simulator = Simulator(got, family.measures)
        assert simulator._store.root is root
        result = simulator.run(run_length, RunStreams(5, index), warmup)
        shared += root.compiled - counted
        oracle = Simulator(expected, family.measures)
        assert result == oracle.run(
            run_length, RunStreams(5, index), warmup
        )
        rebuilt += oracle._store.compiled
    assert shared < rebuilt
