"""Tests for accumulated rewards and absorption analysis."""

import math

import numpy as np
import pytest

from repro.ctmc import CTMC
from repro.ctmc.rewards import (
    absorption_probability,
    accumulated_state_reward,
    mean_time_to_absorption,
)
from repro.errors import SolverError


def two_state(lam=2.0, mu=3.0):
    ctmc = CTMC(2)
    ctmc.add_transition(0, 1, lam)
    ctmc.add_transition(1, 0, mu)
    return ctmc


def accumulated_closed_form(lam, mu, t):
    """Integral of P(state 1 at u), starting in state 0."""
    total = lam + mu
    weight = lam / total
    return weight * (t - (1.0 - math.exp(-total * t)) / total)


class TestAccumulatedReward:
    @pytest.mark.parametrize("t", [0.05, 0.3, 1.0, 4.0])
    def test_two_state_closed_form(self, t):
        lam, mu = 2.0, 3.0
        value = accumulated_state_reward(
            two_state(lam, mu), t, [0.0, 1.0]
        )
        assert value == pytest.approx(
            accumulated_closed_form(lam, mu, t), abs=1e-8
        )

    def test_zero_horizon(self):
        assert accumulated_state_reward(two_state(), 0.0, [1.0, 1.0]) == 0.0

    def test_constant_reward_accumulates_linearly(self):
        value = accumulated_state_reward(two_state(), 2.5, [4.0, 4.0])
        assert value == pytest.approx(10.0, rel=1e-9)

    def test_long_horizon_matches_steady_state_rate(self):
        """For large t, Y(t)/t -> steady-state reward rate."""
        from repro.ctmc import steady_state_solution

        ctmc = two_state()
        rewards = np.array([2.0, 5.0])
        pi = steady_state_solution(ctmc).pi
        t = 200.0
        value = accumulated_state_reward(ctmc, t, rewards)
        assert value / t == pytest.approx(float(pi @ rewards), rel=1e-3)

    def test_frozen_chain(self):
        ctmc = CTMC(2)
        value = accumulated_state_reward(ctmc, 3.0, [7.0, 0.0])
        assert value == pytest.approx(21.0)

    def test_negative_time_rejected(self):
        with pytest.raises(SolverError):
            accumulated_state_reward(two_state(), -1.0, [1.0, 1.0])

    def test_wrong_reward_length_rejected(self):
        with pytest.raises(SolverError):
            accumulated_state_reward(two_state(), 1.0, [1.0])


class TestAbsorptionTime:
    def test_single_hop(self):
        ctmc = CTMC(2)
        ctmc.add_transition(0, 1, 4.0)
        times = mean_time_to_absorption(ctmc, [1])
        assert times[0] == pytest.approx(0.25)
        assert times[1] == 0.0

    def test_chain_of_stages(self):
        """Erlang: k stages of rate r -> mean k/r."""
        ctmc = CTMC(4)
        for stage in range(3):
            ctmc.add_transition(stage, stage + 1, 2.0)
        times = mean_time_to_absorption(ctmc, [3])
        assert times[0] == pytest.approx(1.5)
        assert times[1] == pytest.approx(1.0)

    def test_with_backtracking(self):
        """Birth-death with absorption at the top: classic result."""
        ctmc = CTMC(3)
        ctmc.add_transition(0, 1, 1.0)
        ctmc.add_transition(1, 0, 1.0)
        ctmc.add_transition(1, 2, 1.0)
        times = mean_time_to_absorption(ctmc, [2])
        # m0 = 1 + m1 ; m1 = 1/2 + m0/2  =>  m0 = 3, m1 = 2.
        assert times[0] == pytest.approx(3.0)
        assert times[1] == pytest.approx(2.0)

    def test_unreachable_absorption_rejected(self):
        ctmc = CTMC(3)
        ctmc.add_transition(0, 1, 1.0)
        ctmc.add_transition(1, 0, 1.0)
        # State 2 is absorbing but unreachable; 0/1 never absorb.
        with pytest.raises(SolverError, match="cannot reach"):
            mean_time_to_absorption(ctmc, [2])

    def test_empty_absorbing_set_rejected(self):
        with pytest.raises(SolverError):
            mean_time_to_absorption(two_state(), [])


class TestAbsorptionProbability:
    def test_gamblers_ruin(self):
        """Symmetric walk on 0..3 with absorbing ends."""
        ctmc = CTMC(4)
        for state in (1, 2):
            ctmc.add_transition(state, state - 1, 1.0)
            ctmc.add_transition(state, state + 1, 1.0)
        probabilities = absorption_probability(ctmc, target=[3], avoid=[0])
        assert probabilities[1] == pytest.approx(1.0 / 3.0)
        assert probabilities[2] == pytest.approx(2.0 / 3.0)
        assert probabilities[0] == 0.0
        assert probabilities[3] == 1.0

    def test_biased_walk(self):
        ctmc = CTMC(3)
        ctmc.add_transition(1, 0, 1.0)
        ctmc.add_transition(1, 2, 3.0)
        probabilities = absorption_probability(ctmc, target=[2], avoid=[0])
        assert probabilities[1] == pytest.approx(0.75)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(SolverError):
            absorption_probability(two_state(), target=[0], avoid=[0])

    def test_battery_scenario(self):
        """A device that works (drains) and sleeps (drains slower):
        probability of finishing the job before the battery dies."""
        # States: 0 = working, 1 = done (target), 2 = battery dead (avoid).
        ctmc = CTMC(3)
        ctmc.add_transition(0, 1, 0.9)   # completion rate
        ctmc.add_transition(0, 2, 0.1)   # battery death rate
        probabilities = absorption_probability(ctmc, target=[1], avoid=[2])
        assert probabilities[0] == pytest.approx(0.9)
