"""One :class:`~repro.sim.streams.RunStreams` per run ≡ the multi-row
allocator it replaced.

:class:`tests.oracles.EventStreamAllocator` is the historical store of
every run's streams in 2-D block pools, with rows added and truncated
as a splitting tree grows.  Each test here checks the per-run streams
against it with ``==``: the raw draws (durations over several names and
distributions sharing a name, branch picks across block refills, ``int``
and ``(run, slot)`` indices), the paired-replication chunks (with and
without common random numbers) and whole splitting trees, whose slot
lists must reproduce the allocator's row reuse and truncation exactly.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aemilia.rates import ExpRate, GeneralRate
from repro.aemilia.semantics import generate_lts
from repro.casestudies import rpc, streaming
from repro.distributions import Deterministic, Exponential, Normal, Uniform
from repro.sim import RunStreams, Simulator, reward_importance
from repro.sim.output import _paired_chunk
from repro.sim.splitting import _grow_tree, _memoryless_events
from repro.sim.streams import GeneratorSampler
from tests.oracles import (
    EventStreamAllocator,
    grow_tree_reference,
    paired_chunk_reference,
)
from tests.test_sim_pins import _rpc_model
from tests.test_splitting import abort_measures, cascade_lts

NAMES = ["C.req", "S.serve", "\x00resample-picks"]
DISTRIBUTIONS = [
    Exponential(1.5),
    Normal(2.0, 0.3),
    Uniform(0.5, 1.0),
    Deterministic(0.25),
]

INDEX = st.one_of(
    st.integers(0, 2**16),
    st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
)
#: ``(row, name, distribution, count)`` — or a branch pick with
#: ``name is None`` — drawn *count* times; counts up to a block and a
#: half make every buffer refill mid-sequence.
DRAW = st.tuples(
    st.integers(0, 2),
    st.one_of(st.none(), st.integers(0, len(NAMES) - 1)),
    st.integers(0, len(DISTRIBUTIONS) - 1),
    st.integers(1, 400),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    indices=st.lists(INDEX, min_size=3, max_size=3, unique=True),
    draws=st.lists(DRAW, min_size=1, max_size=12),
)
# Two distributions under one name refill their own buffers from the
# one generator of that name, interleaved across refills.
@example(
    seed=11,
    indices=[4, (4, 0), (4, 1)],
    draws=[(0, 1, d % 2, 150) for d in range(6)] + [(0, None, 0, 300)],
)
def test_run_streams_match_the_allocator_rows(seed, indices, draws):
    allocator = EventStreamAllocator(seed, indices)
    streams = [RunStreams(seed, index) for index in indices]
    for row, name, distribution, count in draws:
        if name is None:
            expected = [allocator.branch_one(row) for _ in range(count)]
            drawn = [streams[row].branch() for _ in range(count)]
        else:
            args = (NAMES[name], DISTRIBUTIONS[distribution])
            expected = [
                allocator.take_one(row, *args) for _ in range(count)
            ]
            drawn = [streams[row].duration(*args) for _ in range(count)]
        assert drawn == expected


@pytest.mark.parametrize("seed", [0, 7])
def test_generator_sampler_draws_what_the_generator_draws(seed):
    """``rng.random() * total`` is ``rng.uniform(0.0, total)`` to the
    bit, and durations are one ``sample`` each, in call order."""
    sampler = GeneratorSampler(np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    for step in range(200):
        total = 0.1 + step / 7.0
        assert sampler.branch() * total == rng.uniform(0.0, total)
        distribution = DISTRIBUTIONS[step % len(DISTRIBUTIONS)]
        assert sampler.duration("any", distribution) == (
            distribution.sample(rng)
        )


@pytest.mark.parametrize("crn", [True, False], ids=["crn", "independent"])
def test_paired_chunk_matches_the_allocator_chunk(crn):
    shared = (
        _rpc_model("dpm", 15.0), _rpc_model("nodpm"), rpc.family().measures,
        "enabling_memory", 300.0, 50.0, 20040628, crn,
    )
    chunk = (3, 4, 5)
    assert _paired_chunk(shared, chunk) == paired_chunk_reference(
        shared, chunk
    )


@pytest.mark.parametrize("case", ["rpc", "streaming"])
def test_memoryless_events_read_from_columns_match_the_transitions(case):
    """The column scan finds the event names the historical walk over
    every :class:`~repro.lts.lts.Transition` view found."""
    family = {"rpc": rpc.family, "streaming": streaming.family}[case]()
    lts = generate_lts(family.general_dpm, None, 200_000)
    walked = frozenset(
        transition.event or transition.label
        for transition in lts.transitions
        if isinstance(transition.rate, ExpRate)
        or (
            isinstance(transition.rate, GeneralRate)
            and isinstance(transition.rate.distribution, Exponential)
        )
    )
    assert walked
    assert _memoryless_events(lts) == walked


#: ``name -> (cascade depth, levels, splits, segments, seed, warmup)``;
#: depth ``None`` is the rpc general DPM model.
TREES = {
    # Cascades of depth 3 and 5: many clones and merges, so slots are
    # reused, appended and cut.
    "cascade": (3, 3, 3, 24, 5, 0.0),
    "deep": (5, 5, 4, 40, 11, 10.0),
    # Deterministic timeouts and Gaussian service times.
    "rpc": (None, 2, 2, 16, 20040628, 20.0),
    # splits=1: one engine call on the run's plain streams.
    "one": (3, 3, 1, 17, 97, 20.0),
}


@pytest.mark.parametrize("name", sorted(TREES))
def test_splitting_tree_matches_the_allocator_tree(name):
    depth, levels, splits, segments, seed, warmup = TREES[name]
    if depth is None:
        lts, measures = _rpc_model("dpm"), rpc.family().measures
    else:
        lts, measures = cascade_lts(depth), abort_measures()
    shared = (
        lts, tuple(measures), "enabling_memory", 400.0, warmup, seed,
        levels, splits, segments,
        reward_importance(lts, measures[0], levels).table,
        _memoryless_events(lts),
    )
    simulator = Simulator(lts, measures)
    for run in range(3):
        tree = _grow_tree(simulator, shared, run)
        assert tree == grow_tree_reference(simulator, shared, run)
        if splits > 1 and name != "rpc":
            assert tree["clones"] > 0 and tree["merges"] > 0
