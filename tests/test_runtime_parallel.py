"""Parallel execution and structural caching must never change results.

The contract of :mod:`repro.runtime`: any sweep or replication run with
``workers=4`` is *identical* to ``workers=1`` — exact for the analytic
(CTMC) pipeline, bit-identical seeds and estimates for simulation — and a
cached (relabeled) state space is exactly the freshly generated one.
"""

import pytest

from repro.aemilia.semantics import generate_lts
from repro.casestudies import rpc, streaming
from repro.core.methodology import IncrementalMethodology
from repro.runtime import (
    ParallelExecutor,
    StructuralStateSpaceCache,
    generate_parametric,
    structural_params,
)
from repro.sim.output import replicate
from repro.sim.random import generator_for_run
from tests.oracles import spawn_generators

CASES = {
    "rpc": (rpc.family, "shutdown_timeout", [0.5, 2.0, 11.0, 25.0]),
    "streaming": (streaming.family, "awake_period", [10.0, 100.0]),
}


def _square(shared, item):
    return (shared or 0) + item * item


class TestParallelExecutor:
    def test_serial_and_parallel_map_agree(self):
        items = list(range(20))
        serial = ParallelExecutor(1).map(_square, items, shared=3)
        parallel = ParallelExecutor(4).map(_square, items, shared=3)
        assert serial == parallel == [3 + i * i for i in items]

    def test_empty_input(self):
        assert ParallelExecutor(4).map(_square, []) == []

    def test_order_is_input_order(self):
        items = [5, 1, 4, 2, 3]
        assert ParallelExecutor(4).map(_square, items) == [
            i * i for i in items
        ]


class TestSeedDerivation:
    def test_indexed_stream_matches_spawn(self):
        streams = spawn_generators(99, 6)
        for index, stream in enumerate(streams):
            clone = generator_for_run(99, index)
            assert clone.random(5).tolist() == stream.random(5).tolist()


@pytest.mark.parametrize("case", sorted(CASES))
class TestSweepEquivalence:
    def test_sweep_markovian_parallel_identical(self, case):
        family_fn, parameter, values = CASES[case]
        serial = IncrementalMethodology(family_fn()).sweep_markovian(
            parameter, values
        )
        parallel = IncrementalMethodology(
            family_fn(), workers=4
        ).sweep_markovian(parameter, values, workers=4)
        assert serial == parallel  # exact, not approximate

    def test_sweep_general_parallel_identical(self, case):
        family_fn, parameter, values = CASES[case]
        kwargs = dict(runs=3, run_length=400.0, warmup=50.0, seed=11)
        serial = IncrementalMethodology(family_fn()).sweep_general(
            parameter, values, **kwargs
        )
        parallel = IncrementalMethodology(
            family_fn(), workers=4
        ).sweep_general(parameter, values, workers=4, **kwargs)
        assert serial == parallel  # bit-identical streams by run index

    def test_cached_sweep_equals_uncached(self, case):
        family_fn, parameter, values = CASES[case]
        cached = IncrementalMethodology(family_fn()).sweep_markovian(
            parameter, values
        )
        uncached = IncrementalMethodology(
            family_fn(),
            statespace_cache=StructuralStateSpaceCache(enabled=False),
        ).sweep_markovian(parameter, values)
        assert cached == uncached


@pytest.mark.parametrize("case", sorted(CASES))
class TestStructuralCache:
    def test_swept_parameter_is_rate_only(self, case):
        family_fn, parameter, _ = CASES[case]
        family = family_fn()
        assert parameter not in structural_params(family.markovian_dpm)
        assert parameter not in structural_params(family.general_dpm)

    def test_relabel_is_bit_identical_to_regeneration(self, case):
        family_fn, parameter, values = CASES[case]
        archi = family_fn().markovian_dpm
        skeleton = generate_parametric(archi, {parameter: values[0]})
        for value in values[1:]:
            expected = generate_lts(archi, {parameter: value})
            relabeled = skeleton.relabel(
                archi.bind_constants({parameter: value})
            )
            assert relabeled.num_states == expected.num_states
            ours = [
                (t.source, t.label, t.target, repr(t.rate), t.weight)
                for t in relabeled.transitions
            ]
            theirs = [
                (t.source, t.label, t.target, repr(t.rate), t.weight)
                for t in expected.transitions
            ]
            assert ours == theirs

    def test_sweep_reuses_one_skeleton(self, case):
        family_fn, parameter, values = CASES[case]
        methodology = IncrementalMethodology(family_fn())
        methodology.sweep_markovian(parameter, values)
        stats = methodology.cache.stats
        assert stats.misses == 1  # state space generated once
        assert stats.relabels >= len(values) - 1


class TestParallelReplication:
    @pytest.fixture(scope="class")
    def rpc_general(self):
        methodology = IncrementalMethodology(rpc.family())
        return methodology.build_lts("general", "dpm"), list(
            methodology.family.measures
        )

    def test_replicate_bit_identical(self, rpc_general):
        lts, measures = rpc_general
        serial = replicate(lts, measures, 800.0, runs=5, warmup=50.0, seed=3)
        parallel = replicate(
            lts, measures, 800.0, runs=5, warmup=50.0, seed=3, workers=4
        )
        assert serial.samples == parallel.samples
        assert serial.estimates == parallel.estimates

    def test_runtime_stats_reported(self):
        methodology = IncrementalMethodology(rpc.family(), workers=4)
        methodology.sweep_markovian("shutdown_timeout", [1.0, 5.0])
        stats = methodology.runtime_stats()
        assert stats["workers"] == 4
        assert stats["cache"]["misses"] == 1
        assert set(stats["timings"]) >= {"statespace", "sweep:markovian"}


@pytest.mark.parametrize("phase", ["markovian", "general"])
def test_worker_spans_reach_the_parent_totals(phase, rpc_family):
    """Every span a worker closes is counted in the parent's
    ``runtime_stats()["timings"]``: the counts per name at
    ``workers=2`` are those of ``workers=1``, plus one pool-only
    ``queue-wait`` span per submitted point.  The elimination plan is
    compiled once per process that builds a chain (plans are never
    pickled), so ``ctmc:plan`` counts the worker processes that ran a
    Markovian point."""
    values = [0.5, 2.0, 11.0]
    counts = {}
    for workers in (1, 2):
        methodology = IncrementalMethodology(
            rpc_family,
            workers=workers,
            statespace_cache=StructuralStateSpaceCache(),
        )
        if phase == "markovian":
            methodology.sweep_markovian(
                "shutdown_timeout", values, "dpm", workers=workers
            )
        else:
            methodology.sweep_general(
                "shutdown_timeout", values, "dpm", run_length=50.0,
                runs=2, warmup=5.0, seed=3, workers=workers,
            )
        timings = methodology.runtime_stats()["timings"]
        counts[workers] = {
            name: timing["count"] for name, timing in timings.items()
        }
    assert counts[2].pop("queue-wait") == len(values)
    if phase == "markovian":
        assert counts[1]["ctmc:plan"] == 1
        assert 1 <= counts[2].pop("ctmc:plan") <= 2
        counts[1].pop("ctmc:plan")
    assert counts[2] == counts[1]
    assert counts[1]["relabel"] == len(values)
