"""Tests for steady-state solvers against closed-form results."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aemilia import generate_lts
from repro.ctmc import CTMC, build_ctmc, steady_state_solution
from repro.errors import MarkovianError, SolverError


def two_state(rate_up=2.0, rate_down=3.0):
    ctmc = CTMC(2)
    ctmc.add_transition(0, 1, rate_up)
    ctmc.add_transition(1, 0, rate_down)
    return ctmc


def birth_death(rates_up, rates_down):
    n = len(rates_up) + 1
    initial = np.zeros(n)
    initial[0] = 1.0
    ctmc = CTMC(n, initial)
    for i, rate in enumerate(rates_up):
        ctmc.add_transition(i, i + 1, rate)
    for i, rate in enumerate(rates_down):
        ctmc.add_transition(i + 1, i, rate)
    return ctmc


class TestTwoState:
    def test_direct(self):
        pi = steady_state_solution(two_state()).pi
        assert pi == pytest.approx([0.6, 0.4])

    def test_gauss_seidel(self):
        pi = steady_state_solution(two_state(), method="sor").pi
        assert pi == pytest.approx([0.6, 0.4], rel=1e-8)

    def test_power(self):
        pi = steady_state_solution(two_state(), method="power").pi
        assert pi == pytest.approx([0.6, 0.4], rel=1e-6)

    def test_unknown_method(self):
        with pytest.raises(SolverError, match="unknown"):
            steady_state_solution(two_state(), method="magic")


class TestBirthDeath:
    def test_mm1k_closed_form(self):
        """M/M/1/K: pi_n proportional to rho^n."""
        lam, mu, K = 1.0, 2.0, 4
        ctmc = birth_death([lam] * K, [mu] * K)
        pi = steady_state_solution(ctmc).pi
        rho = lam / mu
        expected = np.array([rho**n for n in range(K + 1)])
        expected /= expected.sum()
        assert pi == pytest.approx(expected, rel=1e-9)

    def test_solver_agreement(self):
        ctmc = birth_death([1.0, 2.0, 0.5], [3.0, 1.0, 2.0])
        direct = steady_state_solution(ctmc, method="direct").pi
        gauss = steady_state_solution(ctmc, method="sor").pi
        power = steady_state_solution(ctmc, method="power").pi
        assert direct == pytest.approx(gauss, abs=1e-8)
        assert direct == pytest.approx(power, abs=1e-6)


class TestStructureHandling:
    def test_transient_states_get_zero(self):
        ctmc = CTMC(3)
        ctmc.add_transition(0, 1, 1.0)  # 0 is transient
        ctmc.add_transition(1, 2, 2.0)
        ctmc.add_transition(2, 1, 3.0)
        pi = steady_state_solution(ctmc).pi
        assert pi[0] == 0.0
        assert pi[1] == pytest.approx(0.6)
        assert pi[2] == pytest.approx(0.4)

    def test_absorbing_state(self):
        ctmc = CTMC(2)
        ctmc.add_transition(0, 1, 1.0)
        pi = steady_state_solution(ctmc).pi
        assert pi == pytest.approx([0.0, 1.0])

    def test_multiple_bsccs_rejected(self):
        ctmc = CTMC(3)
        ctmc.add_transition(0, 1, 1.0)
        ctmc.add_transition(0, 2, 1.0)
        with pytest.raises(SolverError, match="bottom strongly connected"):
            steady_state_solution(ctmc)

    def test_self_loops_do_not_affect_solution(self):
        plain = two_state()
        loopy = two_state()
        loopy.add_transition(0, 0, 10.0)
        assert steady_state_solution(plain).pi == pytest.approx(
            steady_state_solution(loopy).pi
        )


class TestOnGeneratedModels:
    def test_mm1k_via_adl_matches_closed_form(self, mm1k):
        lts = generate_lts(mm1k, {"capacity": 3})
        ctmc = build_ctmc(lts)
        pi = steady_state_solution(ctmc).pi
        # Map states to queue levels via the recorded state info.
        rho = 1.0 / 2.0
        expected = np.array([rho**n for n in range(4)])
        expected /= expected.sum()
        by_level = {}
        for state in range(ctmc.num_states):
            info = ctmc.state_info(state)
            for level in range(4):
                if f"n={level}" in info or (level == 0 and "n=0" in info):
                    by_level[level] = pi[state]
        assert [by_level[n] for n in range(4)] == pytest.approx(
            list(expected), rel=1e-9
        )


class TestChainValidation:
    def test_bad_initial_distribution(self):
        with pytest.raises(MarkovianError):
            CTMC(2, np.array([0.5, 0.4]))

    def test_nonpositive_rate_rejected(self):
        ctmc = CTMC(2)
        with pytest.raises(MarkovianError):
            ctmc.add_transition(0, 1, 0.0)

    def test_out_of_range_state_rejected(self):
        ctmc = CTMC(2)
        with pytest.raises(MarkovianError):
            ctmc.add_transition(0, 5, 1.0)


@settings(max_examples=30, deadline=None)
@given(
    rates=st.lists(
        st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
        min_size=1,
        max_size=6,
    )
)
def test_birth_death_solution_properties(rates):
    """Any irreducible birth-death chain: pi >= 0, sums to 1, balances."""
    ups = [u for u, _ in rates]
    downs = [d for _, d in rates]
    ctmc = birth_death(ups, downs)
    pi = steady_state_solution(ctmc).pi
    assert pi.sum() == pytest.approx(1.0)
    assert (pi >= 0).all()
    # Detailed balance holds for birth-death chains.
    for i, (up, down) in enumerate(zip(ups, downs)):
        assert pi[i] * up == pytest.approx(pi[i + 1] * down, rel=1e-6)
