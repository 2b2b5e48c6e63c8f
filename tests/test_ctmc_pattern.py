"""Differential tests of the compiled CTMC pattern.

A chain is rate and label-count values over a
:class:`~repro.ctmc.chain.ChainPattern` compiled once per elimination
plan; the bottom components, the recurrent submatrix's index arrays and
the reward rows are cached on the pattern.  Everything a point computes
from it must be ``==`` to the historical object-store chain of
``tests.oracles`` (:class:`~tests.oracles.ReferenceCTMC`, replayed by
:func:`~tests.oracles.instantiate_reference`): the entries in order
(rates, label counts and their order), the BSCC member sets, ``pi``
byte for byte under every solver backend with the same
:class:`~repro.ctmc.solvers.SolverReport`, and each measure's value and
Python type.  The cases are both case studies (DPM and NO-DPM) at the
skeleton and three relabeled points, the battery extension, the
synthetic measure chain of ``tests/test_measures.py`` and a hypothesis
corpus of hand-built chains, errors included.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aemilia import parse_architecture
from repro.aemilia.rates import PassiveRate
from repro.casestudies.rpc import battery
from repro.casestudies.rpc import markovian as rpc_markovian
from repro.ctmc import (
    CTMC,
    build_ctmc,
    evaluate_measures,
    measure,
    state_clause,
    steady_state_solution,
    trans_clause,
)
from repro.ctmc.build import elimination_plan
from repro.ctmc.measures import _pattern_rewards
from repro.ctmc.steady_state import recurrent_generator
from repro.errors import MarkovianError, SolverError
from repro.runtime import generate_parametric
from tests.oracles import (
    ReferenceCTMC,
    build_ctmc_reference,
    evaluate_measures_reference,
    instantiate_reference,
    pattern_terms_reference,
    steady_state_reference,
    submatrix_reference,
)
from tests.test_measures import _synthetic_case

METHODS = ("direct", "sor", "gmres", "power")


def entries(ctmc):
    """Every entry with its label counts in order, compared with ``==``."""
    return [
        (t.source, t.target, t.rate, list(t.label_counts.items()))
        for t in ctmc.transitions
    ]


def csr_bytes(matrix):
    return (
        matrix.shape,
        matrix.data.tobytes(),
        matrix.indices.tobytes(),
        matrix.indptr.tobytes(),
    )


def solve_outcome(solve, chain, method):
    """``pi`` bytes and the report, or the error type and message."""
    try:
        solution = solve(chain, method=method)
    except SolverError as error:
        return type(error), str(error)
    return solution.pi.tobytes(), solution.report


def assert_same_terms(pattern, measures):
    """The per-measure transition terms, dtype and bytes."""
    got = _pattern_rewards(pattern, tuple(measures)).terms
    expected = pattern_terms_reference(pattern, measures)
    assert len(got) == len(expected) == len(measures)
    for arrays, reference in zip(got, expected):
        for array, oracle in zip(arrays, reference):
            assert array.dtype == oracle.dtype
            assert array.tobytes() == oracle.tobytes()


def typed(values):
    return {name: (value, type(value)) for name, value in values.items()}


def assert_same_chain(chain, reference, measures, methods=METHODS):
    """The whole differential contract on one (chain, reference) pair."""
    assert entries(chain) == entries(reference)
    assert chain.bottom_strongly_connected_components() == (
        reference.bottom_strongly_connected_components()
    )
    for state in range(chain.num_states):
        assert chain.enabled_labels(state) == reference.enabled_labels(state)
        assert chain.exit_rate(state) == reference.exit_rate(state)
    assert csr_bytes(chain.generator_matrix()) == csr_bytes(
        reference.generator_matrix()
    )
    bsccs = reference.bottom_strongly_connected_components()
    if len(bsccs) == 1 and len(bsccs[0]) > 1:
        recurrent = sorted(bsccs[0])
        index = {state: i for i, state in enumerate(recurrent)}
        assert csr_bytes(recurrent_generator(chain)) == csr_bytes(
            submatrix_reference(reference, recurrent, index)
        )
    rng = np.random.default_rng(7)
    noisy = rng.random(chain.num_states)
    noisy[rng.random(chain.num_states) < 0.2] = 0.0  # zero weights
    distributions = [noisy / max(noisy.sum(), 1.0)]
    for method in methods:
        got = solve_outcome(steady_state_solution, chain, method)
        assert got == solve_outcome(steady_state_reference, reference, method)
        if isinstance(got[0], bytes):
            distributions.append(np.frombuffer(got[0]))
    for pi in distributions:
        assert typed(evaluate_measures(chain, pi, measures)) == typed(
            evaluate_measures_reference(reference, pi, measures)
        )


# ---------------------------------------------------------------------------
# Case studies: skeleton and three relabeled points.
# ---------------------------------------------------------------------------

CASES = {
    # case: (rate-only parameter, three sweep values)
    "rpc-dpm": ("shutdown_timeout", (0.5, 2.0, 11.0)),
    "rpc-nodpm": ("proc_time", (4.0, 15.0, 20.0)),
    "streaming-dpm": ("awake_period", (13.351, 49.778, 477.989)),
    "streaming-nodpm": ("frame_period", (40.0, 90.0, 120.0)),
    "battery-dpm": ("shutdown_timeout", (1.0, 4.0, 9.0)),
}


def _case(case, rpc_family, streaming_family):
    if case == "battery-dpm":
        return battery.dpm_architecture(), rpc_markovian.measures()
    family = rpc_family if case.startswith("rpc") else streaming_family
    return getattr(family, "markovian_" + case.split("-")[1]), family.measures


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_study_points_match_the_object_store(
    case, rpc_family, streaming_family
):
    archi, measures = _case(case, rpc_family, streaming_family)
    parameter, values = CASES[case]
    skeleton = generate_parametric(archi)
    plan = elimination_plan(skeleton.lts)
    points = [skeleton.lts] + [
        skeleton.relabel(archi.bind_constants({parameter: value}))
        for value in values
    ]
    for lts in points:
        chain = build_ctmc(lts)
        assert chain.pattern is plan.pattern  # one pattern per skeleton
        assert_same_chain(chain, instantiate_reference(plan, lts), measures)


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_study_reward_terms_match_the_per_label_loop(
    case, rpc_family, streaming_family
):
    """Each distinct label-key tuple's impulses, repeated over its
    entries, give the terms the per-entry, per-label loop gave."""
    archi, measures = _case(case, rpc_family, streaming_family)
    pattern = elimination_plan(generate_parametric(archi).lts).pattern
    assert len(set(pattern.label_keys)) < len(pattern.label_keys)
    assert_same_terms(pattern, measures)


def test_a_chain_reads_its_own_rates_from_a_shared_pattern(rpc_family):
    """Two points share the pattern, caches included, and still differ."""
    archi = rpc_family.markovian_dpm
    skeleton = generate_parametric(archi)
    low, high = (
        build_ctmc(skeleton.relabel(archi.bind_constants(
            {"shutdown_timeout": value}
        )))
        for value in (0.5, 11.0)
    )
    first = evaluate_measures(
        low, steady_state_solution(low).pi, rpc_family.measures
    )
    second = evaluate_measures(
        high, steady_state_solution(high).pi, rpc_family.measures
    )
    assert low.pattern is high.pattern
    assert low.pattern.recurrent_class() is high.pattern.recurrent_class()
    assert len(low.pattern.rewards) == 1
    assert first != second


TINY_SPEC = """
ARCHI_TYPE Tiny(const real fire_rate := 1.0)
ARCHI_ELEM_TYPES
ELEM_TYPE T_Type(void)
  BEHAVIOR
    Main(void; void) = <fire, exp(fire_rate)> . Branch();
    Branch(void; void) = choice {
      <rare, inf(1, 1e-9)> . Main(),
      <common, inf(1, 1.0)> . Rest()
    };
    Rest(void; void) = <back, exp(1.0)> . Main()
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    X : T_Type()
END
"""


def build_outcome(build, lts):
    try:
        return entries(build(lts))
    except MarkovianError as error:
        return type(error), str(error)


@pytest.mark.parametrize("untimed", [None, "X.fire", "X.back"])
@pytest.mark.parametrize("fire_rate", [1.0, 1e-300, 1e-320])
def test_rate_and_timing_errors_match_the_object_store(fire_rate, untimed):
    """``rate * probability`` underflows to 0 on the 1e-9 branch at
    ``fire_rate=1e-320``.  A relabeled point shares its skeleton's plan
    and raises the underflow as the fresh build does; a point re-rated
    to a passive rate gets a plan of its own, which rejects the passive
    rate as the fresh build does."""
    archi = parse_architecture(TINY_SPEC)
    skeleton = generate_parametric(archi)
    plan = elimination_plan(skeleton.lts)
    lts = skeleton.relabel(archi.bind_constants({"fire_rate": fire_rate}))
    if untimed is not None:
        index = next(
            i for i, t in enumerate(lts.transitions) if t.label == untimed
        )
        rates = list(lts.columns.rates)
        rates[index] = PassiveRate()
        lts = lts.rerated([index], rates)
    got = build_outcome(build_ctmc, lts)
    assert got == build_outcome(build_ctmc_reference, lts)
    assert (elimination_plan(lts) is plan) if untimed is None else (
        lts.structure_owner() is lts
    )
    underflow = fire_rate == 1e-320
    assert isinstance(got, list) is (not underflow and untimed is None)
    if isinstance(got, tuple):
        assert ("positive" in got[1]) is (underflow and untimed is None)
        assert ("passive" in got[1]) is (untimed is not None)


def test_an_edited_plan_chain_matches_the_same_edits(rpc_family):
    """``add_transition`` on a built chain continues from its entries."""
    lts = generate_parametric(rpc_family.markovian_dpm).lts
    chain = build_ctmc(lts)
    reference = instantiate_reference(elimination_plan(lts), lts)
    for edited in (chain, reference):
        edited.add_transition(0, 1, 0.25, {"extra": 2.0})
        edited.add_transition(1, 0, 0.5, {"extra": 1.0})
        edited.set_enabled_labels(0, frozenset({"extra"}))
    assert_same_chain(chain, reference, rpc_family.measures, ("direct",))
    assert build_ctmc(lts).pattern is elimination_plan(lts).pattern


# ---------------------------------------------------------------------------
# Hand-built chains.
# ---------------------------------------------------------------------------


def test_synthetic_measure_chain_matches_the_object_store():
    """Negative and zero clauses, wildcards and sync participants."""
    chain, measures = _synthetic_case()
    reference, _ = _synthetic_case(ReferenceCTMC)
    assert_same_chain(chain, reference, measures)


LABEL_POOL = [
    {"M.tick#S.obs": 1.0},
    {"M.tock": 0.5, "C.send#S.recv": 1 / 3},
    {"S.recv": 0.98, "M.tick": 0.02},
    {},
]
MEASURES = [
    measure("ticks", trans_clause("M.*", 1.0), trans_clause("S.obs", 0.5)),
    measure("received", trans_clause("S.recv", 2.0), state_clause("S.*", 1.5)),
    measure(
        "mixed",
        state_clause("M.*", -0.75),
        trans_clause("M.tock", -1.25),
        trans_clause("C.send", 0.0),
    ),
    measure("idle", state_clause("S.idle", 1.0)),
]

#: One drawn add: (source, target, rate, label pool index).  Parallel
#: adds merge, sources come in any order, self-loops occur, and a rate
#: of 0 or below must raise where it creates an entry.
_adds = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 5),
        st.sampled_from([0.5, 1.0, 2.5, 1e-3, 7.0, 0.0, -1.0]),
        st.integers(0, len(LABEL_POOL) - 1),
    ),
    min_size=1,
    max_size=24,
)


def _hand_built(chain_class, size, adds, enabled):
    chain = chain_class(size)
    for source, target, rate, labels in adds:
        chain.add_transition(
            source % size, target % size, rate, LABEL_POOL[labels]
        )
    for state in range(size):
        if enabled[state % len(enabled)]:
            chain.set_enabled_labels(state, frozenset({"S.idle", "M.tock"}))
    return chain


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6), _adds, st.lists(st.booleans(), min_size=1, max_size=6)
)
def test_hand_built_chains_match_the_object_store(size, adds, enabled):
    """Several BSCCs raise the same text, and a rate <= 0 the same error
    (a merge whose rates cancel divides by zero, as it always did)."""
    try:
        reference = _hand_built(ReferenceCTMC, size, adds, enabled)
    except (MarkovianError, ZeroDivisionError) as error:
        with pytest.raises(type(error)) as raised:
            _hand_built(CTMC, size, adds, enabled)
        assert str(raised.value) == str(error)
        return
    chain = _hand_built(CTMC, size, adds, enabled)
    assert_same_chain(chain, reference, MEASURES, ("direct", "power"))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6), _adds, st.lists(st.booleans(), min_size=1, max_size=6)
)
def test_hand_built_reward_terms_match_the_per_label_loop(
    size, adds, enabled
):
    try:
        chain = _hand_built(CTMC, size, adds, enabled)
    except (MarkovianError, ZeroDivisionError):
        return
    assert_same_terms(chain.pattern, MEASURES)
    assert_same_terms(chain.pattern, MEASURES[1:2])
