"""Differential tests of the cached CTMC elimination plan.

:func:`repro.ctmc.build.build_ctmc` compiles the vanishing-state
elimination once per LTS structure and replays only the rates per call;
a rate-only relabeling shares its skeleton's plan.  Every CTMC it builds
must be ``==`` to the historical one-pass construction
(:func:`tests.oracles.build_ctmc_reference`): transitions in order
(source, target, rate, label counts), the initial distribution, the
enabled labels and the state descriptions.  The cases are both case
studies (DPM and NO-DPM), the battery extension and a fuzz corpus of
specimen models and random rate-labelled LTSs, each at its skeleton and
at three relabeled points.

The plan itself (its flat contribution arrays, the interned label-count
maps, the entry numbering and the compiled pattern) is pinned with
``==`` to the historical plan (:class:`tests.oracles.ReferenceEliminationPlan`:
a depth-first resolver per call, a tuple of contributions per tangible
state and a second walk compiling the pattern), errors included.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aemilia import parse_architecture
from repro.aemilia.expressions import BinaryOp, Literal, Variable
from repro.aemilia.rates import ExpSpec, ImmediateSpec
from repro.aemilia.semantics import RateProvenance, generate_lts
from repro.casestudies.rpc import battery
from repro.ctmc.build import EliminationPlan, build_ctmc, elimination_plan
from repro.aemilia.rates import ImmediateRate, PassiveRate
from repro.errors import (
    ImmediateCycleError,
    MarkovianError,
    SemanticsError,
    SpecificationError,
)
from repro.lts import LTS, LTSColumns
from repro.runtime import ParametricLTS, generate_parametric
from tests.oracles import (
    ReferenceEliminationPlan,
    build_ctmc_reference,
    relabel_reference,
)

TINY_SPEC = """
ARCHI_TYPE Tiny(const real fire_rate := 1.0)
ARCHI_ELEM_TYPES
ELEM_TYPE T_Type(void)
  BEHAVIOR
    Main(void; void) = <fire, exp(fire_rate)> . Branch();
    Branch(void; void) = choice {
      <rare, inf(1, 1e-9)> . Main(),
      <common, inf(1, 1.0)> . Main()
    }
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    X : T_Type()
END
"""


def ctmc_bits(ctmc):
    """Everything a CTMC carries, in a form ``==`` compares exactly."""
    return (
        ctmc.num_states,
        [
            (t.source, t.target, t.rate, t.label_counts)
            for t in ctmc.transitions
        ],
        ctmc.initial_distribution.tolist(),
        [ctmc.enabled_labels(s) for s in range(ctmc.num_states)],
        [ctmc.state_info(s) for s in range(ctmc.num_states)],
    )


def outcome(build, lts):
    """The CTMC's bits, or the error type and message it raised."""
    try:
        return ctmc_bits(build(lts))
    except MarkovianError as error:
        return type(error), str(error)


def _archi(case, rpc_family, streaming_family, mm1k):
    family = {"rpc": rpc_family, "streaming": streaming_family}.get(
        case.split("-")[0]
    )
    if family is not None:
        return getattr(family, "markovian_" + case.split("-")[1])
    return {
        "battery-dpm": battery.dpm_architecture,
        "battery-nodpm": battery.nodpm_architecture,
        "mm1k": lambda: mm1k,
        "tiny": lambda: parse_architecture(TINY_SPEC),
    }[case]()


CASES = {
    # case: (rate-only parameter, three sweep values)
    "rpc-dpm": ("shutdown_timeout", (0.5, 2.0, 11.0)),
    "rpc-nodpm": ("proc_time", (4.0, 15.0, 20.0)),
    "streaming-dpm": ("awake_period", (13.351, 49.778, 477.989)),
    "streaming-nodpm": ("frame_period", (40.0, 90.0, 120.0)),
    "battery-dpm": ("shutdown_timeout", (1.0, 4.0, 9.0)),
    "battery-nodpm": ("drain_scale", (0.02, 0.1, 0.3)),
    "mm1k": ("service_rate", (0.5, 1.0, 7.5)),
    "tiny": ("fire_rate", (0.25, 3.0, 1e3)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_plan_matches_reference_at_skeleton_and_relabeled_points(
    case, rpc_family, streaming_family, mm1k
):
    archi = _archi(case, rpc_family, streaming_family, mm1k)
    parameter, values = CASES[case]
    skeleton = generate_parametric(archi)
    assert ctmc_bits(build_ctmc(skeleton.lts)) == ctmc_bits(
        build_ctmc_reference(skeleton.lts)
    )
    plan = elimination_plan(skeleton.lts)
    for value in values:
        env = archi.bind_constants({parameter: value})
        relabeled = skeleton.relabel(env)
        assert relabeled is not skeleton.lts
        # A rate-only relabeling reuses the skeleton's plan ...
        assert elimination_plan(relabeled) is plan
        # ... and still builds exactly the historical CTMC, which is also
        # the CTMC of a fresh generation at that point.
        built = ctmc_bits(build_ctmc(relabeled))
        assert built == ctmc_bits(build_ctmc_reference(relabeled))
        assert built == ctmc_bits(
            build_ctmc_reference(generate_lts(archi, {parameter: value}))
        )


# ---------------------------------------------------------------------------
# Fuzz corpus: random rate-labelled LTSs with provenance.
# ---------------------------------------------------------------------------

#: One drawn transition: (source, target, label, coefficient).
_transitions = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 5),
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    ),
    min_size=1,
    max_size=14,
)
#: States whose transitions are immediate; a few drawn transitions are
#: flipped to the other kind, so mixed states occur too.
_vanishing = st.sets(st.integers(0, 5), max_size=4)
_flipped = st.sets(st.integers(0, 13), max_size=1)


def _skeleton(drawn, vanishing, flipped, initial):
    """A hand-built skeleton: exponential rates ``k * c`` and immediate
    weights ``w + c``, both recorded as relabelable provenance (no
    structural constants, so a changed ``w`` is relabeled too and shifts
    the branch probabilities)."""
    env = {"k": 1.0, "w": 1.0}
    lts = LTS(initial)
    for _ in range(6):
        lts.add_state()
    provenance = []
    for index, (source, target, label, coefficient) in enumerate(drawn):
        if (source in vanishing) != (index in flipped):
            spec = ImmediateSpec(
                Literal(1), BinaryOp("+", Variable("w"), Literal(coefficient))
            )
        else:
            spec = ExpSpec(BinaryOp("*", Variable("k"), Literal(coefficient)))
        lts.add_transition(
            source, label, target, spec.evaluate(env), label
        )
        provenance.append(
            RateProvenance(spec, (), spec.free_variables())
        )
    return ParametricLTS(lts, provenance, env, frozenset())


@settings(max_examples=150, deadline=None)
@given(
    _transitions, _vanishing, _flipped, st.integers(0, 5),
    st.lists(st.sampled_from([0.25, 2.0, 9.0]), min_size=3, max_size=3),
)
def test_random_lts_plan_matches_reference(
    drawn, vanishing, flipped, initial, ks
):
    """Skeleton and three rate points: the same CTMC or the same error
    (mixed states, immediate cycles, no tangible state)."""
    skeleton = _skeleton(drawn, vanishing, flipped, initial)
    assert outcome(build_ctmc, skeleton.lts) == outcome(
        build_ctmc_reference, skeleton.lts
    )
    for k in ks:
        env = {"k": k, "w": 1.0}
        relabeled = skeleton.relabel(env)
        assert lts_bits(relabeled) == lts_bits(
            relabel_reference(skeleton, env)
        )
        assert outcome(build_ctmc, relabeled) == outcome(
            build_ctmc_reference, relabeled
        )


@settings(max_examples=100, deadline=None)
@given(
    _transitions, _vanishing, _flipped, st.integers(0, 5),
    st.sampled_from([0.1, 3.0]),
)
def test_relabeled_immediate_weights_get_a_fresh_plan(
    drawn, vanishing, flipped, initial, w
):
    """A relabel that replaces an immediate rate must not reuse the
    skeleton's elimination: its CTMC is the reference's for the new
    weights."""
    skeleton = _skeleton(drawn, vanishing, flipped, initial)
    outcome(build_ctmc, skeleton.lts)  # compile the skeleton's plan
    relabeled = skeleton.relabel({"k": 2.0, "w": w})
    assert lts_bits(relabeled) == lts_bits(
        relabel_reference(skeleton, {"k": 2.0, "w": w})
    )
    assert outcome(build_ctmc, relabeled) == outcome(
        build_ctmc_reference, relabeled
    )


# ---------------------------------------------------------------------------
# Relabel contract.
# ---------------------------------------------------------------------------


def test_relabel_of_a_structural_constant_raises(streaming_family):
    archi = streaming_family.markovian_dpm
    skeleton = generate_parametric(archi)
    assert "b_capacity" in skeleton.structural
    with pytest.raises(SemanticsError, match="b_capacity"):
        skeleton.relabel(archi.bind_constants({"b_capacity": 4}))


def test_relabel_replacing_an_immediate_weight_builds_a_fresh_plan():
    """One exponential state feeding a weighted immediate choice."""
    skeleton = _skeleton(
        [(0, 1, "go", 1.0), (1, 0, "a", 1.0), (1, 2, "b", 3.0),
         (2, 0, "back", 2.0)],
        {1}, set(), 0,
    )
    base_plan = elimination_plan(skeleton.lts)
    relabeled = skeleton.relabel({"k": 1.0, "w": 5.0})
    replaced = [
        (old, new)
        for old, new in zip(skeleton.lts.transitions, relabeled.transitions)
        if old is not new
    ]
    assert [old.label for old, _ in replaced] == ["a", "b"]
    plan = elimination_plan(relabeled)
    assert plan is not base_plan
    assert ctmc_bits(build_ctmc(relabeled)) == ctmc_bits(
        build_ctmc_reference(relabeled)
    )


def lts_bits(lts):
    """Everything an LTS shows, in a form ``==`` compares exactly."""
    return (
        lts.initial,
        lts.num_states,
        lts.transitions,
        [list(lts.outgoing(s)) for s in lts.states()],
        [lts.state_info(s) for s in lts.states()],
    )


def test_relabel_reuses_unchanged_transitions(streaming_family):
    """Only the positions whose rate reads the swept constant get a new
    rate: every other column is the skeleton's, and so are the views of
    the other positions.  The relabeled LTS as a whole still equals a
    fresh generation and the historical relabel."""
    archi = streaming_family.markovian_dpm
    skeleton = generate_parametric(archi)
    overrides = {"awake_period": 28.185}
    env = archi.bind_constants(overrides)
    relabeled = skeleton.relabel(env)
    readers = [
        position
        for position, prov in enumerate(skeleton.provenance)
        if prov is not None and "awake_period" in prov.free_consts
    ]
    assert 0 < len(readers) < skeleton.lts.num_transitions
    old, new = skeleton.lts.columns, relabeled.columns
    for name in LTSColumns._fields:
        assert (getattr(new, name) is getattr(old, name)) is (
            name != "rates"
        )
    assert [
        p for p, (a, b) in enumerate(zip(old.rates, new.rates)) if a is not b
    ] == readers
    reread = set(readers)
    for p, (a, b) in enumerate(
        zip(skeleton.lts.transitions, relabeled.transitions)
    ):
        assert (a is b) is (p not in reread)
    assert lts_bits(relabeled) == lts_bits(generate_lts(archi, overrides))
    assert lts_bits(relabeled) == lts_bits(relabel_reference(skeleton, env))


@pytest.mark.parametrize("case", sorted(CASES))
def test_relabel_matches_the_historical_relabel(
    case, rpc_family, streaming_family, mm1k
):
    archi = _archi(case, rpc_family, streaming_family, mm1k)
    parameter, values = CASES[case]
    skeleton = generate_parametric(archi)
    for value in values:
        env = archi.bind_constants({parameter: value})
        assert lts_bits(skeleton.relabel(env)) == lts_bits(
            relabel_reference(skeleton, env)
        )


def test_a_grown_lts_gets_a_fresh_plan():
    skeleton = _skeleton(
        [(0, 1, "go", 1.0), (1, 0, "back", 2.0)], set(), set(), 0
    )
    lts = skeleton.lts
    before = elimination_plan(lts)
    lts.add_transition(0, "stay", 0, lts.transitions[0].rate)
    assert elimination_plan(lts) is not before
    assert ctmc_bits(build_ctmc(lts)) == ctmc_bits(build_ctmc_reference(lts))


def test_plans_are_not_pickled(mm1k):
    """A pickled skeleton (as shipped to sweep workers) carries no plan:
    the receiving process compiles its own once."""
    skeleton = generate_parametric(mm1k)
    plan = elimination_plan(skeleton.lts)
    payload = pickle.dumps(skeleton)
    assert b"EliminationPlan" not in payload
    shipped = pickle.loads(payload)
    assert elimination_plan(shipped.lts) is not plan
    relabeled = shipped.relabel(mm1k.bind_constants({"service_rate": 3.0}))
    assert elimination_plan(relabeled) is elimination_plan(shipped.lts)


# ---------------------------------------------------------------------------
# The plan's arrays against the historical plan.
# ---------------------------------------------------------------------------


def plan_bits(plan):
    """Everything a plan holds, in a form ``==`` compares exactly: the
    flat contributions as ``(walk index, target, probability, label
    counts in order)``, the entry numbering and merge replay, and every
    field of the compiled pattern."""
    pattern = plan.pattern
    return (
        plan.tangible,
        plan.initial_distribution.tobytes(),
        plan.enabled,
        plan.walk.tobytes(),
        [
            (read, target, probability, tuple(plan.count_maps[i].items()))
            for read, target, probability, i in zip(
                plan.reads.tolist(), plan.targets.tolist(),
                plan.probabilities.tolist(), plan.count_ids.tolist(),
            )
        ],
        plan.reads.tobytes(),
        plan.probabilities.tobytes(),
        plan.entries.tobytes(),
        plan._firsts.tobytes(),
        plan._base_counts.tobytes(),
        [
            [(c, tuple(counts.items())) for c, counts in contributions]
            for contributions in plan._merged
        ],
        plan._merged_slots.tobytes(),
        pattern.num_states,
        pattern.sources.tobytes(),
        pattern.targets.tobytes(),
        pattern.label_keys,
        pattern.count_offsets.tobytes(),
        pattern.enabled,
        pattern.order.tobytes(),
        pattern.row_offsets.tobytes(),
    )


def reference_plan_bits(plan):
    """:func:`plan_bits` of the historical plan, whose contributions are
    a tuple per tangible state of a tuple per transition."""
    walked = 0
    contributions = []
    for row in plan.contributions:
        for resolved in row:
            contributions.extend(
                (walked, target, probability, tuple(counts.items()))
                for target, probability, counts in resolved
            )
            walked += 1
    pattern = plan.pattern
    return (
        plan.tangible,
        plan.initial_distribution.tobytes(),
        plan.enabled,
        plan.walk.tobytes(),
        contributions,
        plan._reads.tobytes(),
        plan._probabilities.tobytes(),
        plan._entries.tobytes(),
        plan._firsts.tobytes(),
        plan._base_counts.tobytes(),
        [
            [(c, tuple(counts.items())) for c, counts in contributions]
            for contributions in plan._merged
        ],
        plan._merged_slots.tobytes(),
        pattern.num_states,
        pattern.sources.tobytes(),
        pattern.targets.tobytes(),
        pattern.label_keys,
        pattern.count_offsets.tobytes(),
        pattern.enabled,
        pattern.order.tobytes(),
        pattern.row_offsets.tobytes(),
    )


def plan_outcome(lts):
    """(new plan's bits or error, historical plan's bits or error)."""
    outcomes = []
    for make, bits in (
        (EliminationPlan, plan_bits),
        (ReferenceEliminationPlan, reference_plan_bits),
    ):
        try:
            outcomes.append(bits(make(lts)))
        except MarkovianError as error:
            outcomes.append((type(error), str(error)))
    return outcomes


@pytest.mark.parametrize("case", sorted(CASES))
def test_plan_arrays_match_the_reference_plan(
    case, rpc_family, streaming_family, mm1k
):
    lts = generate_parametric(
        _archi(case, rpc_family, streaming_family, mm1k)
    ).lts
    new, reference = plan_outcome(lts)
    assert new == reference
    plan = elimination_plan(lts)
    # Each distinct label-count map is stored once.
    assert len({tuple(m.items()) for m in plan.count_maps}) == len(
        plan.count_maps
    )
    assert sorted(set(plan.count_ids.tolist())) == list(
        range(len(plan.count_maps))
    )


@settings(max_examples=150, deadline=None)
@given(_transitions, _vanishing, _flipped, st.integers(0, 5))
def test_random_plan_arrays_match_the_reference_plan(
    drawn, vanishing, flipped, initial
):
    """Cycles (reachable or not), a vanishing initial state, several
    bottom components, mixed states and no tangible state: the same
    arrays or the same error."""
    new, reference = plan_outcome(
        _skeleton(drawn, vanishing, flipped, initial).lts
    )
    assert new == reference


def _immediate_lts(transitions, initial=0):
    """An LTS from ``(source, target, label, rate)`` rows, rates given as
    ``("exp", r)`` or ``("inf", w)``."""
    skeleton = _skeleton([], set(), set(), initial)
    lts = skeleton.lts
    for source, target, label, (kind, value) in transitions:
        spec = ExpSpec(Literal(value)) if kind == "exp" else ImmediateSpec(
            Literal(1), Literal(value)
        )
        lts.add_transition(source, label, target, spec.evaluate({}), label)
    return lts


def test_a_vanishing_initial_state_and_two_bottom_components():
    """State 0 is vanishing and splits over two absorbing tangible
    cycles {1, 2} and {3, 4}, one reached through a second vanishing
    state."""
    lts = _immediate_lts([
        (0, 1, "left", ("inf", 1.0)),
        (0, 5, "right", ("inf", 3.0)),
        (5, 3, "down", ("inf", 1.0)),
        (1, 2, "a", ("exp", 1.0)),
        (2, 1, "b", ("exp", 2.0)),
        (3, 4, "c", ("exp", 1.0)),
        (4, 5, "d", ("exp", 4.0)),
    ])
    new, reference = plan_outcome(lts)
    assert new == reference
    assert elimination_plan(lts).initial_distribution.tolist() == [
        0.25, 0.0, 0.75, 0.0
    ]
    assert len(build_ctmc(lts).pattern.bsccs) == 2


def test_an_immediate_cycle_names_the_state_the_depth_first_walk_meets():
    """Two tangible transitions enter the vanishing cycle 2 -> 3 -> 4 -> 2
    at different states; the error names the state the historical walk
    from the first of them closes the cycle on."""
    lts = _immediate_lts([
        (0, 3, "into", ("exp", 1.0)),
        (0, 2, "other", ("exp", 1.0)),
        (1, 0, "back", ("exp", 1.0)),
        (2, 3, "x", ("inf", 1.0)),
        (3, 4, "y", ("inf", 1.0)),
        (4, 2, "z", ("inf", 1.0)),
        (4, 1, "out", ("inf", 1.0)),
    ])
    new, reference = plan_outcome(lts)
    assert new == reference
    assert new[0] is ImmediateCycleError
    assert "state 3" in new[1]


def test_an_unreachable_immediate_cycle_is_not_an_error():
    lts = _immediate_lts([
        (0, 1, "go", ("exp", 1.0)),
        (1, 0, "back", ("exp", 2.0)),
        (2, 3, "x", ("inf", 1.0)),
        (3, 2, "y", ("inf", 1.0)),
    ])
    new, reference = plan_outcome(lts)
    assert new == reference
    assert isinstance(new, tuple) and len(new) > 2


# ---------------------------------------------------------------------------
# Immediate weights that cannot make a distribution.
# ---------------------------------------------------------------------------

WEIGHTS_SPEC = """
ARCHI_TYPE Weights(const real rare_weight := 1.0,
                   const real common_weight := 1.0)
ARCHI_ELEM_TYPES
ELEM_TYPE T_Type(void)
  BEHAVIOR
    Main(void; void) = <fire, exp(1.0)> . Branch();
    Branch(void; void) = choice {
      <rare, inf(1, rare_weight)> . Main(),
      <common, inf(1, common_weight)> . Rest()
    };
    Rest(void; void) = <back, exp(1.0)> . Main()
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    X : T_Type()
END
"""


@pytest.mark.parametrize("weight", [float("inf"), float("nan")])
def test_non_finite_weights_are_rejected_at_construction(weight):
    with pytest.raises(SpecificationError, match="positive and finite"):
        ImmediateRate(1, weight)
    with pytest.raises(SpecificationError, match="positive and finite"):
        PassiveRate(0, weight)
    with pytest.raises(SpecificationError, match="positive and finite"):
        generate_lts(
            parse_architecture(WEIGHTS_SPEC), {"rare_weight": weight}
        )


def test_a_branch_probability_that_underflows_names_its_state_and_label():
    """``1e-300 / (1e-300 + 1e300)`` is 0.0.  The historical elimination
    divided by it (``ZeroDivisionError``); the plan rejects the model."""
    lts = generate_lts(
        parse_architecture(WEIGHTS_SPEC),
        {"rare_weight": 1e-300, "common_weight": 1e300},
    )
    with pytest.raises(ZeroDivisionError):
        ReferenceEliminationPlan(lts)
    with pytest.raises(MarkovianError) as raised:
        build_ctmc(lts)
    message = str(raised.value)
    assert "'X.rare'" in message and "probability 0.0" in message
    assert lts.state_info(lts.transitions[1].source) in message


def test_a_path_probability_that_underflows_names_its_states():
    """Each branch probability is 1e-200, but the path through both is
    1e-400, which underflows to 0.0."""
    lts = _immediate_lts([
        (0, 1, "fire", ("exp", 1.0)),
        (1, 2, "rare", ("inf", 1e-200)),
        (1, 0, "common", ("inf", 1.0)),
        (2, 3, "rarer", ("inf", 1e-200)),
        (2, 0, "usual", ("inf", 1.0)),
        (3, 0, "back", ("exp", 1.0)),
    ])
    with pytest.raises(MarkovianError, match="probability 0.0") as raised:
        build_ctmc(lts)
    assert "state 1" in str(raised.value) and "state 3" in str(raised.value)
