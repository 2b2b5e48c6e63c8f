"""Tests for the LTS structure, label matching, operators, reachability."""

import pickle

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
from repro.ctmc.build import elimination_plan
from repro.distributions import Deterministic
from repro.errors import AnalysisError, MarkovianError
from repro.lts import (
    LTS,
    LTSColumns,
    Transition,
    TAU,
    build_lts,
    disjoint_union,
    hide,
    local_label,
    matches,
    matches_any,
    reachable_states,
    relabel,
    restrict,
    restrict_to_reachable,
    sync_label,
)
from tests.oracles import (
    ReferenceLTS,
    disjoint_union_reference,
    hide_reference,
    rate_kinds_reference,
    relabel_labels_reference,
    restrict_reference,
    restrict_to_reachable_reference,
)
from repro.runtime import StructuralStateSpaceCache


class TestLabels:
    def test_sync_label_format(self):
        assert sync_label("A.push", "B.pull") == "A.push#B.pull"

    def test_local_label(self):
        assert local_label("S", "serve") == "S.serve"

    def test_exact_match(self):
        assert matches("A.push", "A.push")

    def test_participant_match(self):
        assert matches("A.push", "A.push#B.pull")
        assert matches("B.pull", "A.push#B.pull")

    def test_non_participant_no_match(self):
        assert not matches("A.pull", "A.push#B.pull")

    def test_instance_wildcard(self):
        assert matches("DPM.*", "DPM.send_shutdown#S.receive_shutdown")
        assert matches("DPM.*", "DPM.tick")
        assert not matches("DPM.*", "S.receive#C.send")

    def test_tau_only_matches_itself(self):
        assert matches(TAU, TAU)
        assert not matches("A.push", TAU)
        assert not matches("tau.*", TAU)

    def test_matches_any(self):
        assert matches_any(["X.a", "Y.b"], "Y.b#Z.c")
        assert not matches_any([], "Y.b")


class TestLTSStructure:
    def test_add_states_and_transitions(self):
        lts = LTS()
        s0, s1 = lts.add_state("zero"), lts.add_state("one")
        lts.add_transition(s0, "a", s1, ExpRate(2.0), "E", 0.5)
        assert lts.num_states == 2
        assert lts.num_transitions == 1
        transition = lts.transitions[0]
        assert transition.event == "E"
        assert transition.weight == 0.5
        assert lts.state_info(0) == "zero"

    def test_dangling_transition_rejected(self):
        lts = LTS()
        lts.add_state()
        with pytest.raises(AnalysisError):
            lts.add_transition(0, "a", 7)

    def test_successors(self):
        lts = build_lts(3, [(0, "a", 1), (0, "a", 2), (0, "b", 1)])
        assert sorted(lts.successors(0, "a")) == [1, 2]
        assert lts.successors(1, "a") == []

    def test_deadlock_detection(self):
        lts = build_lts(2, [(0, "a", 1)])
        assert lts.has_deadlock()
        assert lts.deadlock_states() == [1]

    def test_copy_is_independent(self):
        lts = build_lts(2, [(0, "a", 1)])
        clone = lts.copy()
        clone.add_state()
        assert lts.num_states == 2
        assert clone.num_states == 3

    def test_rerated_keeps_order_and_shares_the_rest(self):
        lts = build_lts(2, [(0, "a", 1), (0, "b", 1), (1, "c", 0)])
        before = lts.transitions
        rates = list(lts.columns.rates)
        rates[1] = ExpRate(2.0)
        clone = lts.rerated([1], rates)
        new = Transition(0, "b", 1, ExpRate(2.0))
        assert clone.transitions == [before[0], new, before[2]]
        assert list(clone.outgoing(0)) == [before[0], new]
        # Every column but the rates is shared, and so are the views of
        # the positions and rows without a new rate.
        for name in LTSColumns._fields:
            shared = getattr(clone.columns, name) is getattr(lts.columns, name)
            assert shared is (name != "rates")
        assert clone.columns.rates is rates
        assert clone.transitions[0] is lts.transitions[0]
        assert clone.transitions[2] is lts.transitions[2]
        assert clone.outgoing(1) is lts.outgoing(1)
        assert lts.transitions[1].rate is None

    def test_rerated_copies_shared_columns_on_write(self):
        lts = build_lts(2, [(0, "a", 1), (1, "c", 0)])
        clone = lts.rerated([], list(lts.columns.rates))
        clone.add_transition(1, "d", 1)
        lts.add_transition(1, "e", 0)
        assert [t.label for t in clone.outgoing(1)] == ["c", "d"]
        assert [t.label for t in lts.outgoing(1)] == ["c", "e"]
        assert lts.columns.sources is not clone.columns.sources

    @staticmethod
    def _timed():
        lts = LTS()
        for _ in range(3):
            lts.add_state()
        for source, label, target in ((0, "a", 1), (1, "b", 2), (2, "c", 0)):
            lts.add_transition(source, label, target, ExpRate(1.0))
        return lts

    @staticmethod
    def _rerate(lts, position, rate):
        rates = list(lts.columns.rates)
        rates[position] = rate
        return lts.rerated([position], rates)

    def test_an_exponential_rerate_shares_the_plan(self):
        lts = self._timed()
        plan = elimination_plan(lts)
        point = self._rerate(lts, 1, ExpRate(2.0))
        again = self._rerate(point, 2, ExpRate(3.0))
        assert point.structure_owner() is lts
        assert again.structure_owner() is lts
        assert elimination_plan(point) is plan
        assert elimination_plan(again) is plan
        assert elimination_plan(lts) is plan

    @pytest.mark.parametrize(
        "rate", [PassiveRate(), GeneralRate(Deterministic(1.0))]
    )
    def test_a_rerate_off_exponential_does_not_share_the_plan(self, rate):
        lts = self._timed()
        elimination_plan(lts)
        point = self._rerate(lts, 1, rate)
        assert point.structure_owner() is point
        with pytest.raises(MarkovianError):
            elimination_plan(point)
        # Back to exponential: the re-rated position was not before.
        back = self._rerate(point, 1, ExpRate(2.0))
        assert back.structure_owner() is back
        assert elimination_plan(back) is not elimination_plan(lts)

    def test_an_edited_skeleton_or_point_compiles_a_new_plan(self):
        lts = self._timed()
        plan = elimination_plan(lts)
        point = self._rerate(lts, 1, ExpRate(2.0))
        lts.add_state()
        assert elimination_plan(lts) is not plan
        assert point.structure_owner() is point
        assert elimination_plan(point) is not plan
        edited = self._timed()
        plan = elimination_plan(edited)
        grown = self._rerate(edited, 1, ExpRate(2.0))
        grown.add_transition(2, "d", 1, ExpRate(1.0))
        assert grown.structure_owner() is grown
        assert elimination_plan(grown) is not plan
        assert elimination_plan(edited) is plan
        edited.add_transition(2, "d", 1, ExpRate(1.0))
        assert elimination_plan(edited) is not plan

    def test_copies_do_not_share_the_plan(self):
        lts = self._timed()
        plan = elimination_plan(lts)
        point = self._rerate(lts, 1, ExpRate(2.0))
        for copy in (
            lts.copy(),
            point.copy(),
            pickle.loads(pickle.dumps(lts)),
            pickle.loads(pickle.dumps(point)),
        ):
            assert copy.structure_owner() is copy
            assert elimination_plan(copy) is not plan

    def test_visible_labels_excludes_tau(self):
        lts = build_lts(2, [(0, "a", 1), (1, TAU, 0)])
        assert lts.visible_labels() == {"a"}


class TestOperators:
    def test_hide_by_pattern(self):
        lts = build_lts(2, [(0, "X.a", 1), (1, "Y.b", 0)])
        hidden = hide(lts, ["X.a"])
        assert {t.label for t in hidden.transitions} == {TAU, "Y.b"}

    def test_hide_by_predicate(self):
        lts = build_lts(2, [(0, "X.a", 1), (1, "Y.b", 0)])
        hidden = hide(lts, lambda label: label.startswith("Y"))
        assert {t.label for t in hidden.transitions} == {"X.a", TAU}

    def test_hide_preserves_rates_and_events(self):
        lts = LTS()
        lts.add_state()
        lts.add_state()
        lts.add_transition(0, "X.a", 1, ExpRate(2.0), "X.a", 0.5)
        hidden = hide(lts, ["X.a"])
        assert hidden.transitions[0].rate == ExpRate(2.0)
        assert hidden.transitions[0].weight == 0.5

    def test_restrict_removes_and_prunes(self):
        lts = build_lts(3, [(0, "keep", 1), (0, "drop", 2), (2, "keep", 0)])
        restricted = restrict(lts, ["drop"])
        assert restricted.num_states == 2  # state 2 unreachable now
        assert {t.label for t in restricted.transitions} == {"keep"}

    def test_restrict_without_pruning(self):
        lts = build_lts(3, [(0, "keep", 1), (0, "drop", 2)])
        restricted = restrict(lts, ["drop"], prune=False)
        assert restricted.num_states == 3

    def test_restrict_matches_sync_participants(self):
        lts = build_lts(2, [(0, "DPM.kill#S.die", 1), (1, "S.work", 0)])
        restricted = restrict(lts, ["DPM.kill"])
        assert {t.label for t in restricted.transitions} == set()

    def test_relabel(self):
        lts = build_lts(2, [(0, "a", 1)])
        renamed = relabel(lts, lambda label: label.upper())
        assert {t.label for t in renamed.transitions} == {"A"}

    def test_disjoint_union_offsets(self):
        first = build_lts(2, [(0, "a", 1)])
        second = build_lts(3, [(0, "b", 1), (1, "b", 2)], initial=1)
        union, init_a, init_b = disjoint_union(first, second)
        assert union.num_states == 5
        assert init_a == 0
        assert init_b == 3  # 1 + offset 2
        assert union.num_transitions == 3


class TestReachability:
    def test_reachable_states(self):
        lts = build_lts(4, [(0, "a", 1), (1, "b", 0), (2, "c", 3)])
        assert reachable_states(lts) == {0, 1}
        assert reachable_states(lts, 2) == {2, 3}

    def test_restrict_to_reachable_renumbers(self):
        lts = build_lts(4, [(0, "a", 2), (2, "b", 0), (1, "x", 3)])
        trimmed = restrict_to_reachable(lts)
        assert trimmed.num_states == 2
        assert {t.label for t in trimmed.transitions} == {"a", "b"}
        assert trimmed.initial == 0


# ---------------------------------------------------------------------------
# The columnar LTS and its operators against the historical object store.
# ---------------------------------------------------------------------------

_LABELS = ["a", "b", "X.c", "X.c#Y.d", "Y.d", TAU]
_RATES = [None, ExpRate(1.0), ExpRate(2.5), ImmediateRate(1, 2.0)]
_edges = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.sampled_from(_LABELS),
        st.integers(0, 5),
        st.sampled_from(_RATES),
        st.sampled_from([None, "E"]),
        st.sampled_from([1.0, 0.25]),
    ),
    max_size=24,
)


def _build(cls, edges, initial, described, read_at):
    """Six states (the *described* ones with a description) and *edges*;
    rows are read once part-way, so the LTS grows after a read."""
    lts = cls(initial)
    for state in range(6):
        lts.add_state(f"s{state}" if state in described else None)
    for index, edge in enumerate(edges):
        if index == read_at:
            lts.outgoing(edge[0])
        lts.add_transition(*edge)
    return lts


def _bits(lts):
    states = range(-1, lts.num_states + 1)
    return {
        "initial": lts.initial,
        "states": lts.num_states,
        "transitions": lts.transitions,
        "count": lts.num_transitions,
        "outgoing": [list(lts.outgoing(s)) for s in states],
        "state_info": [lts.state_info(s) for s in states],
        "labels": lts.labels(),
        "visible": lts.visible_labels(),
        "successors": [lts.successors(s, "a") for s in states],
        "deadlocks": lts.deadlock_states(),
    }


_lts_args = (
    _edges,
    st.integers(0, 5),
    st.sets(st.integers(0, 5)),
    st.integers(0, 24),
)


@settings(max_examples=150, deadline=None)
@given(*_lts_args)
def test_columns_match_the_object_store(edges, initial, described, read_at):
    lts = _build(LTS, edges, initial, described, read_at)
    reference = _build(ReferenceLTS, edges, initial, described, read_at)
    assert _bits(lts) == _bits(reference)
    assert lts.has_deadlock() == bool(reference.deadlock_states())


@settings(max_examples=150, deadline=None)
@given(*_lts_args, _edges, st.booleans())
def test_operators_match_the_per_transition_ones(
    edges, initial, described, read_at, other_edges, prune
):
    lts = _build(LTS, edges, initial, described, read_at)
    other = _build(LTS, other_edges, 0, {1, 2}, -1)
    selector = ["X.c", "b"]
    cases = [
        (hide(lts, selector), hide_reference(lts, selector)),
        (
            hide(lts, lambda label: label.startswith("Y")),
            hide_reference(lts, lambda label: label.startswith("Y")),
        ),
        (
            restrict(lts, selector, prune=prune),
            restrict_reference(lts, selector, prune=prune),
        ),
        (
            relabel(lts, str.upper),
            relabel_labels_reference(lts, str.upper),
        ),
        (
            restrict_to_reachable(lts),
            restrict_to_reachable_reference(lts),
        ),
    ]
    union, *initials = disjoint_union(lts, other)
    expected, *expected_initials = disjoint_union_reference(lts, other)
    assert initials == expected_initials
    cases.append((union, expected))
    # Operators over operator results: descriptions chain on read.
    cases.append((
        hide(restrict(union, ["a"]), [TAU, "Y.d"]),
        hide_reference(restrict_reference(expected, ["a"]), [TAU, "Y.d"]),
    ))
    for got, want in cases:
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("variant", ["dpm", "nodpm"])
@pytest.mark.parametrize("phase", ["markovian", "general"])
@pytest.mark.parametrize("case", ["rpc", "streaming"])
def test_rate_kinds_match_the_per_position_loop(
    request, case, phase, variant
):
    """On every case-study skeleton, and on a re-rated copy whose patch
    changes kinds (exponential to passive, immediate and none)."""
    family = request.getfixturevalue(f"{case}_family")
    archi = getattr(family, f"{phase}_{variant}")
    skeleton = StructuralStateSpaceCache().skeleton(archi, None, 200_000)
    lts = skeleton.lts
    kinds = lts.rate_kinds()
    assert kinds.dtype == np.int8
    assert kinds.tolist() == rate_kinds_reference(lts).tolist()
    rates = list(lts.columns.rates)
    positions = [0, len(rates) // 2, len(rates) - 1]
    for position, rate in zip(
        positions, [PassiveRate(), ImmediateRate(), None]
    ):
        rates[position] = rate
    rerated = lts.rerated(positions, rates)
    assert rerated.rerated_from() is not None  # patches the base's column
    assert (
        rerated.rate_kinds().tolist() == rate_kinds_reference(rerated).tolist()
    )
    assert lts.rate_kinds() is kinds
