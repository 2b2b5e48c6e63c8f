"""Cross-cutting property-based tests (hypothesis).

These check the algebraic laws that tie the subsystems together:

* weak bisimilarity is a congruence for hiding;
* hiding is idempotent and monotone in the hidden set;
* tau-SCC condensation preserves weak equivalence (also in weak.py tests);
* steady-state solutions satisfy the balance equations on random chains;
* the transient solution converges to the steady state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc import CTMC, steady_state_solution, transient_distribution
from repro.lts import (
    TAU,
    build_lts,
    check_weak_equivalence,
    hide,
    restrict,
)


@st.composite
def random_lts(draw, max_states=5, labels=("a", "b", "c")):
    n = draw(st.integers(1, max_states))
    transitions = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.sampled_from(list(labels) + [TAU]),
                st.integers(0, n - 1),
            ),
            max_size=12,
        )
    )
    return build_lts(n, transitions)


@st.composite
def random_irreducible_chain(draw, max_states=6):
    """A random CTMC made irreducible by a cycle through all states."""
    n = draw(st.integers(2, max_states))
    ctmc = CTMC(n)
    # Backbone cycle guarantees one BSCC covering everything.
    for state in range(n):
        rate = draw(st.floats(0.1, 5.0))
        ctmc.add_transition(state, (state + 1) % n, rate)
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(0.1, 5.0),
            ),
            max_size=8,
        )
    )
    for source, target, rate in extra:
        if source != target:
            ctmc.add_transition(source, target, rate)
    return ctmc


@settings(max_examples=50, deadline=None)
@given(random_lts(), random_lts(), st.sets(st.sampled_from(["a", "b", "c"])))
def test_weak_bisimilarity_congruence_for_hiding(first, second, hidden):
    """s ~weak~ t implies hide(L)(s) ~weak~ hide(L)(t)."""
    before = check_weak_equivalence(first, second).equivalent
    if before:
        after = check_weak_equivalence(
            hide(first, list(hidden)), hide(second, list(hidden))
        ).equivalent
        assert after


@settings(max_examples=50, deadline=None)
@given(random_lts(), st.sets(st.sampled_from(["a", "b", "c"])))
def test_hiding_is_idempotent(lts, hidden):
    once = hide(lts, list(hidden))
    twice = hide(once, list(hidden))
    assert [
        (t.source, t.label, t.target) for t in once.transitions
    ] == [(t.source, t.label, t.target) for t in twice.transitions]


@settings(max_examples=50, deadline=None)
@given(random_lts(), st.sets(st.sampled_from(["a", "b", "c"])))
def test_hiding_everything_then_some_is_hiding_everything(lts, hidden):
    """hide(all) == hide(all) . hide(some)."""
    all_labels = ["a", "b", "c"]
    direct = hide(lts, all_labels)
    staged = hide(hide(lts, list(hidden)), all_labels)
    assert {
        (t.source, t.label, t.target) for t in direct.transitions
    } == {(t.source, t.label, t.target) for t in staged.transitions}


@settings(max_examples=50, deadline=None)
@given(random_lts(), st.sets(st.sampled_from(["a", "b", "c"])))
def test_restriction_removes_only_matching(lts, removed):
    restricted = restrict(lts, list(removed), prune=False)
    kept_labels = {t.label for t in restricted.transitions}
    assert not (kept_labels & removed)
    assert restricted.num_transitions <= lts.num_transitions


@settings(max_examples=50, deadline=None)
@given(random_lts())
def test_restricting_nothing_is_identity(lts):
    restricted = restrict(lts, [], prune=False)
    assert restricted.num_transitions == lts.num_transitions


@settings(max_examples=40, deadline=None)
@given(random_irreducible_chain())
def test_steady_state_satisfies_balance(ctmc):
    pi = steady_state_solution(ctmc).pi
    q = ctmc.generator_matrix().toarray()
    residual = pi @ q
    assert np.abs(residual).max() < 1e-8
    assert pi.sum() == pytest.approx(1.0)
    assert (pi >= 0).all()


@settings(max_examples=20, deadline=None)
@given(random_irreducible_chain())
def test_transient_converges_to_steady_state(ctmc):
    pi_infinity = steady_state_solution(ctmc).pi
    # Mixing is governed by the slowest transitions: scale the horizon by
    # the smallest exit rate (the backbone guarantees it is >= 0.1).
    slowest = min(
        ctmc.exit_rate(state) for state in range(ctmc.num_states)
    )
    horizon = 400.0 / max(slowest, 1e-3)
    pi_t = transient_distribution(ctmc, horizon)
    assert np.abs(pi_t - pi_infinity).max() < 1e-5


@settings(max_examples=20, deadline=None)
@given(random_irreducible_chain(), st.floats(0.01, 5.0), st.floats(0.01, 5.0))
def test_transient_semigroup_property(ctmc, t1, t2):
    """pi(t1 + t2) == transient from pi(t1) for another t2."""
    via_two_steps = transient_distribution(
        ctmc, t2, initial=transient_distribution(ctmc, t1)
    )
    direct = transient_distribution(ctmc, t1 + t2)
    assert np.abs(via_two_steps - direct).max() < 1e-7


@settings(max_examples=15, deadline=None)
@given(random_irreducible_chain(), st.floats(0.05, 2.0), st.floats(0.05, 2.0))
def test_accumulated_reward_is_additive(ctmc, t1, t2):
    """Y(t1 + t2) = Y(t1) + Y'(t2) where Y' starts from pi(t1)."""
    from repro.ctmc.rewards import accumulated_state_reward

    rewards = np.arange(ctmc.num_states, dtype=float) + 1.0
    direct = accumulated_state_reward(ctmc, t1 + t2, rewards)
    first = accumulated_state_reward(ctmc, t1, rewards)
    middle = transient_distribution(ctmc, t1)
    second = accumulated_state_reward(ctmc, t2, rewards, initial=middle)
    assert direct == pytest.approx(first + second, rel=1e-6, abs=1e-8)

