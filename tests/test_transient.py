"""Tests for transient analysis by uniformisation."""

import math

import numpy as np
import pytest

from repro.ctmc import (
    CTMC,
    expected_state_reward_at,
    steady_state_solution,
    transient_distribution,
)
from repro.errors import SolverError


def two_state(rate_up=2.0, rate_down=3.0):
    ctmc = CTMC(2)
    ctmc.add_transition(0, 1, rate_up)
    ctmc.add_transition(1, 0, rate_down)
    return ctmc


def closed_form_two_state(lam, mu, t):
    """P(state 1 at t | start in 0) for the two-state chain."""
    total = lam + mu
    return (lam / total) * (1.0 - math.exp(-total * t))


class TestTwoStateClosedForm:
    @pytest.mark.parametrize("t", [0.01, 0.1, 0.5, 1.0, 5.0])
    def test_matches_analytic(self, t):
        lam, mu = 2.0, 3.0
        pi = transient_distribution(two_state(lam, mu), t)
        assert pi[1] == pytest.approx(closed_form_two_state(lam, mu, t), abs=1e-8)

    def test_time_zero_returns_initial(self):
        pi = transient_distribution(two_state(), 0.0)
        assert pi == pytest.approx([1.0, 0.0])

    def test_long_horizon_converges_to_steady_state(self):
        ctmc = two_state()
        limit = steady_state_solution(ctmc).pi
        pi = transient_distribution(ctmc, 100.0)
        assert pi == pytest.approx(limit, abs=1e-9)

    def test_custom_initial_distribution(self):
        ctmc = two_state()
        pi = transient_distribution(ctmc, 0.0, initial=np.array([0.25, 0.75]))
        assert pi == pytest.approx([0.25, 0.75])


class TestPureDeathChain:
    def test_poisson_stage_probabilities(self):
        """A 3-stage Erlang clock: stage occupancy is a Poisson tail."""
        ctmc = CTMC(3)
        ctmc.add_transition(0, 1, 1.0)
        ctmc.add_transition(1, 2, 1.0)
        pi = transient_distribution(ctmc, 1.0)
        assert pi[0] == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert pi[1] == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert pi[2] == pytest.approx(1.0 - 2.0 * math.exp(-1.0), abs=1e-9)


class TestErrorsAndEdges:
    def test_negative_time_rejected(self):
        with pytest.raises(SolverError):
            transient_distribution(two_state(), -1.0)

    def test_wrong_initial_length_rejected(self):
        with pytest.raises(SolverError):
            transient_distribution(two_state(), 1.0, initial=np.ones(3) / 3)

    def test_frozen_chain_stays_put(self):
        ctmc = CTMC(2)  # no transitions at all
        pi = transient_distribution(ctmc, 10.0)
        assert pi == pytest.approx([1.0, 0.0])

    def test_mass_conserved(self):
        pi = transient_distribution(two_state(), 2.5)
        assert pi.sum() == pytest.approx(1.0)
        assert (pi >= 0).all()


class TestRewardAtTime:
    def test_expected_reward(self):
        ctmc = two_state(2.0, 3.0)
        rewards = np.array([0.0, 10.0])
        value = expected_state_reward_at(ctmc, 1.0, rewards)
        expected = 10.0 * closed_form_two_state(2.0, 3.0, 1.0)
        assert value == pytest.approx(expected, abs=1e-7)

    def test_reward_length_checked(self):
        with pytest.raises(SolverError):
            expected_state_reward_at(two_state(), 1.0, np.ones(3))
