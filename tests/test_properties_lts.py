"""Property-based tests of the equivalence/aggregation layers (hypothesis).

Laws the reliability layer leans on when it reuses or collapses models:

* a tau-SCC condensation is weakly bisimilar to the original system, and
  hiding any (tau-free) label set preserves that equivalence — checked on
  guaranteed-equivalent pairs so the property is never vacuous;
* :meth:`ParametricLTS.relabel` round-trips: for random rate
  assignments, relabeling a cached skeleton is bit-identical to fresh
  generation, in both directions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lts import TAU, build_lts, check_weak_equivalence, hide
from repro.lts.weak import tau_condensation
from repro.runtime import generate_parametric

VISIBLE = ("a", "b", "c")


@st.composite
def random_lts(draw, max_states=5):
    n = draw(st.integers(1, max_states))
    transitions = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.sampled_from(list(VISIBLE) + [TAU]),
                st.integers(0, n - 1),
            ),
            max_size=12,
        )
    )
    return build_lts(n, transitions)


@settings(max_examples=60, deadline=None)
@given(random_lts())
def test_tau_condensation_is_weakly_bisimilar(lts):
    quotient, state_map = tau_condensation(lts)
    check = check_weak_equivalence(lts, quotient)
    assert check.equivalent
    assert state_map[lts.initial] == quotient.initial


@settings(max_examples=60, deadline=None)
@given(random_lts(), st.sets(st.sampled_from(VISIBLE)))
def test_hiding_preserves_weak_bisimilarity(lts, hidden):
    """Hiding a tau-free label set keeps equivalent systems equivalent.

    The pair (system, its tau-condensation) is weakly bisimilar by
    construction, so — unlike conditioning on two random systems being
    equivalent — every drawn example actually exercises the property.
    """
    assert TAU not in hidden
    quotient, _ = tau_condensation(lts)
    check = check_weak_equivalence(
        hide(lts, list(hidden)), hide(quotient, list(hidden))
    )
    assert check.equivalent


@pytest.fixture(scope="module")
def mm1k_skeleton(mm1k):
    """Default-rate parametric state space of the M/M/1/K specimen."""
    return generate_parametric(mm1k)


def _transition_bits(lts):
    return [
        (t.source, t.label, t.target, repr(t.rate), t.event, t.weight)
        for t in lts.transitions
    ]


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 50.0), st.floats(0.01, 50.0))
def test_relabel_round_trips_random_rates(mm1k, mm1k_skeleton, arrival,
                                          service):
    overrides = {"arrival_rate": arrival, "service_rate": service}
    env = mm1k.bind_constants(overrides)
    relabeled = mm1k_skeleton.relabel(env)
    fresh = generate_parametric(mm1k, overrides)
    # Forward: relabeling the cached skeleton is bit-identical to a
    # fresh generation under the same constants.
    assert _transition_bits(relabeled) == _transition_bits(fresh.lts)
    assert relabeled.num_states == fresh.lts.num_states
    assert relabeled.initial == fresh.lts.initial
    # Backward: relabeling the fresh skeleton to the default constants
    # recovers the original skeleton exactly.
    back = fresh.relabel(mm1k_skeleton.const_env)
    assert _transition_bits(back) == _transition_bits(mm1k_skeleton.lts)


def test_relabel_identity_returns_same_object(mm1k, mm1k_skeleton):
    """Relabeling to the skeleton's own environment is a no-op."""
    assert mm1k_skeleton.relabel(mm1k_skeleton.const_env) is mm1k_skeleton.lts
