"""Differential tests of the parametric GTH elimination.

:func:`repro.ctmc.parametric._eliminate` pivots through a heap and
updates each pivot's fill with one gather/scatter over a 2-D entry
store.  It must reproduce the historical per-pair elimination
(:func:`tests.oracles.gth_eliminate_reference`) exactly: ``x`` byte for
byte, the same fill-op count and the same :class:`ParametricError` at
the same budget.  The cases are the rpc and streaming captures and a
hypothesis corpus of random irreducible chains.
"""

import hashlib
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc import parametric
from repro.ctmc.parametric import (
    ParametricOptions,
    _AtomBuilder,
    _capture_chain,
    _chebyshev_nodes,
    _eliminate,
    _EntryStore,
    dependent_consts,
)
from repro.errors import ParametricError
from repro.runtime import StructuralStateSpaceCache
from tests.oracles import gth_eliminate_reference

#: (parameter, low, high) per case: the rpc figure range and the
#: streaming range of the dense awake-period workload.
DOMAINS = {
    "rpc": ("shutdown_timeout", 0.5, 25.0),
    "streaming": ("awake_period", 10.0, 800.0),
}

#: SHA-256 of every measure's ``const_rewards`` bytes and
#: ``param_rewards`` repr, recorded with the per-measure
#: ``has_trans_clauses()`` test inside the contribution loop that the
#: hoisted measure list replaced.  The sums are plain Python floats.
REWARD_DIGESTS = {
    "rpc": "07a0945f68894fdd816a3e744cbe46719cacd33f3ba77a673cdecf188af576f0",
    "streaming": (
        "a07ab50664783f24f6bec5f5928348792cdfc8176d2b19d7609c5718d616c8f3"
    ),
}


def _capture(family, case):
    archi = family.markovian_dpm
    parameter, low, high = DOMAINS[case]
    skeleton = StructuralStateSpaceCache().skeleton(archi, None, 200_000)
    env = archi.bind_constants(None)
    dependent = dependent_consts(archi, parameter)
    atoms = _AtomBuilder(
        parameter, env, {p.name: p.default for p in archi.const_params},
        dependent, ParametricOptions().atom_degree_limit,
    )
    nodes = _chebyshev_nodes(low, high, ParametricOptions().nodes)
    return _capture_chain(
        skeleton.lts, skeleton.provenance, atoms, dependent, parameter,
        family.measures, nodes, ParametricOptions(),
    )


@pytest.fixture(scope="module")
def captures(rpc_family, streaming_family):
    return {
        "rpc": _capture(rpc_family, "rpc"),
        "streaming": _capture(streaming_family, "streaming"),
    }


def _copy_store(entries):
    """A fresh store with the same entries (the elimination consumes
    its input)."""
    size = len(entries.out_edges)
    copy = _EntryStore(size, entries.values.shape[1], entries.used)
    for source, row in enumerate(entries.out_edges):
        for target, entry in row.items():
            copy.values[copy.add(source, target)] = entries.values[entry]
    return copy


def _reference_capture(entries):
    """The store as the reference's input: per-source {target: vector}
    dicts in the same insertion order, and the source sets."""
    size = len(entries.out_edges)
    return SimpleNamespace(
        recurrent=range(size),
        out_edges={
            source: {
                target: entries.values[entry].copy()
                for target, entry in row.items()
            }
            for source, row in enumerate(entries.out_edges)
        },
        in_edges={
            target: set(sources)
            for target, sources in enumerate(entries.in_edges)
        },
        atom_values=np.empty((0, entries.values.shape[1])),
    )


def _outcome(eliminate, capture, options):
    try:
        x, ops = eliminate(capture, options)
    except ParametricError as error:
        return ("error", error.reason, str(error))
    return (x.tobytes(), x.shape, ops)


def _assert_same(entries, options=ParametricOptions()):
    reference = _outcome(
        gth_eliminate_reference, _reference_capture(entries), options
    )
    assert _outcome(_eliminate, _copy_store(entries), options) == reference
    return reference


@pytest.mark.parametrize("case", sorted(DOMAINS))
def test_case_study_matches_reference(captures, case):
    entries, capture = captures[case]
    _, shape, ops = _assert_same(entries)
    assert shape[0] == len(capture.recurrent)
    if case == "streaming":
        assert (len(capture.recurrent), ops) == (891, 137_327)


@pytest.mark.parametrize("case", sorted(DOMAINS))
def test_budget_error_matches_reference(captures, case):
    entries, _ = captures[case]
    _, _, needed = _assert_same(entries)
    outcome = _assert_same(entries, ParametricOptions(max_fill_ops=needed - 1))
    assert outcome[:2] == ("error", "budget")
    _assert_same(entries, ParametricOptions(max_fill_ops=needed))


@pytest.mark.parametrize("case", sorted(DOMAINS))
def test_capture_rewards_are_unchanged(captures, case):
    _, capture = captures[case]
    digest = hashlib.sha256()
    for name in sorted(capture.const_rewards):
        digest.update(name.encode())
        digest.update(capture.const_rewards[name].tobytes())
        digest.update(repr(capture.param_rewards[name]).encode())
    assert digest.hexdigest() == REWARD_DIGESTS[case]


def test_state_without_outgoing_rates_matches_reference():
    """State 2 only absorbs, so it pivots first and has nothing to
    redistribute."""
    entries = _EntryStore(3, 2, 4)
    for source, target in [(0, 1), (0, 2), (1, 0), (1, 2)]:
        entries.values[entries.add(source, target)] = [1.0, 2.0]
    outcome = _assert_same(entries)
    assert outcome[:2] == ("error", "structure")


@st.composite
def chains(draw):
    """A random irreducible chain over 1-4 nodes: a random cycle
    through every state plus random extra edges, with rates spread over
    six decades so the rounding of every update is exercised."""
    size = draw(st.integers(2, 40))
    node_count = draw(st.integers(1, 4))
    cycle = draw(st.permutations(range(size)))
    pairs = {
        (cycle[index], cycle[(index + 1) % size]) for index in range(size)
    }
    pairs |= draw(
        st.sets(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
            max_size=3 * size,
        )
    )
    pairs = sorted((i, j) for i, j in pairs if i != j)
    seed = draw(st.integers(0, 2**32 - 1))
    rates = 10.0 ** np.random.default_rng(seed).uniform(
        -3.0, 3.0, (len(pairs), node_count)
    )
    # A small initial capacity exercises the store's growth.
    entries = _EntryStore(size, node_count, max(1, len(pairs) // 4))
    for (source, target), rate in zip(pairs, rates):
        entry = entries.add(source, target)
        entries.reserve()[entry] = rate
    return entries


@settings(max_examples=150, deadline=None)
@given(chains(), st.sampled_from([1, 5, parametric._FILL_BLOCK_ROWS]))
def test_random_chain_matches_reference(entries, block_rows):
    """Byte-equal ``x`` and equal fill count, whatever the block size;
    one op under the count, both refuse with the same budget error."""
    with mock.patch.object(parametric, "_FILL_BLOCK_ROWS", block_rows):
        _, _, ops = _assert_same(entries)
        if ops:
            outcome = _assert_same(
                entries, ParametricOptions(max_fill_ops=ops - 1)
            )
            assert outcome[:2] == ("error", "budget")
