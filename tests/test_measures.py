"""Tests for reward measures and the MEASURE companion language."""

import numpy as np
import pytest

from repro.ctmc import (
    CTMC,
    Measure,
    RewardKind,
    evaluate_measure,
    evaluate_measures,
    measure,
    parse_measures,
    state_clause,
    state_reward_vector,
    steady_state_solution,
    trans_clause,
)
from repro.errors import ParseError, SpecificationError


@pytest.fixture()
def small_chain():
    """Two-state chain with labelled transitions and enabled-label info."""
    ctmc = CTMC(2)
    ctmc.add_transition(0, 1, 2.0, {"S.work": 1.0})
    ctmc.add_transition(1, 0, 3.0, {"S.rest": 1.0})
    ctmc.set_enabled_labels(0, frozenset({"S.work", "S.monitor_idle"}))
    ctmc.set_enabled_labels(1, frozenset({"S.rest", "S.monitor_busy"}))
    return ctmc


class TestMeasureObjects:
    def test_state_reward_accumulates_matching_clauses(self):
        m = measure(
            "power",
            state_clause("S.monitor_idle", 2.0),
            state_clause("S.monitor_busy", 3.0),
        )
        assert m.state_reward({"S.monitor_idle"}) == 2.0
        assert m.state_reward({"S.monitor_busy"}) == 3.0
        assert m.state_reward({"other"}) == 0.0
        assert m.state_reward({"S.monitor_idle", "S.monitor_busy"}) == 5.0

    def test_trans_reward(self):
        m = measure("thr", trans_clause("S.work", 1.0))
        assert m.trans_reward("S.work") == 1.0
        assert m.trans_reward("S.work#C.take") == 1.0  # participant match
        assert m.trans_reward("S.rest") == 0.0

    def test_clause_kind_flags(self):
        m = measure("mixed", state_clause("a", 1.0), trans_clause("b", 1.0))
        assert m.has_state_clauses()
        assert m.has_trans_clauses()

    def test_empty_measure_rejected(self):
        with pytest.raises(SpecificationError):
            Measure("empty", ())

    def test_bad_name_rejected(self):
        with pytest.raises(SpecificationError):
            measure("not a name", state_clause("a", 1.0))


class TestEvaluation:
    def test_state_measure(self, small_chain):
        pi = steady_state_solution(small_chain).pi  # [0.6, 0.4]
        m = measure(
            "power",
            state_clause("S.monitor_idle", 2.0),
            state_clause("S.monitor_busy", 3.0),
        )
        value = evaluate_measure(small_chain, pi, m)
        assert value == pytest.approx(0.6 * 2.0 + 0.4 * 3.0)

    def test_trans_measure_is_frequency(self, small_chain):
        pi = steady_state_solution(small_chain).pi
        m = measure("work_rate", trans_clause("S.work", 1.0))
        value = evaluate_measure(small_chain, pi, m)
        assert value == pytest.approx(0.6 * 2.0)

    def test_trans_measure_with_fractional_counts(self):
        """Counts from vanishing elimination scale the frequency."""
        ctmc = CTMC(2)
        ctmc.add_transition(0, 1, 2.0, {"hop": 0.5})
        ctmc.add_transition(1, 0, 2.0, {})
        pi = steady_state_solution(ctmc).pi
        m = measure("hops", trans_clause("hop", 1.0))
        assert evaluate_measure(ctmc, pi, m) == pytest.approx(0.5 * 2.0 * 0.5)

    def test_reward_vector(self, small_chain):
        m = measure("idle", state_clause("S.monitor_idle", 1.0))
        vector = state_reward_vector(small_chain, m)
        assert vector == pytest.approx([1.0, 0.0])

    def test_evaluate_measures_bundle(self, small_chain):
        pi = steady_state_solution(small_chain).pi
        results = evaluate_measures(
            small_chain,
            pi,
            [
                measure("a", state_clause("S.monitor_idle", 1.0)),
                measure("b", trans_clause("S.rest", 2.0)),
            ],
        )
        assert set(results) == {"a", "b"}
        assert results["b"] == pytest.approx(0.4 * 3.0 * 2.0)

    def test_wrong_pi_length_rejected(self, small_chain):
        m = measure("a", state_clause("x", 1.0))
        with pytest.raises(SpecificationError):
            evaluate_measure(small_chain, np.ones(3) / 3, m)


def _oracle_reward_vector(ctmc, m):
    """Per-state rewards computed clause by clause (the code
    :class:`RewardTable` replaced), kept as the differential oracle."""
    rewards = np.zeros(ctmc.num_states)
    for state in range(ctmc.num_states):
        rewards[state] = m.state_reward(ctmc.enabled_labels(state))
    return rewards


def _oracle_measure(ctmc, pi, m):
    """Clause-by-clause steady-state evaluation of one measure."""
    pi = np.asarray(pi, float)
    value = 0.0
    if m.has_state_clauses():
        value += float(pi @ _oracle_reward_vector(ctmc, m))
    if m.has_trans_clauses():
        for transition in ctmc.transitions:
            weight = pi[transition.source] * transition.rate
            if weight == 0.0:
                continue
            for label, count in transition.label_counts.items():
                reward = m.trans_reward(label)
                if reward:
                    value += weight * count * reward
    return value


def _synthetic_case():
    """Wildcards, sync participants, fractional counts, negative and
    zero clauses, and states enabling two labels one clause matches."""
    pool = [
        {"M.tick#S.obs": 1.0},
        {"M.tock": 0.5, "C.send#S.recv": 1 / 3},
        {"S.recv": 0.98, "M.tick": 0.02},
        {"C.send#S.recv": 1.0},
        {},
    ]
    rng = np.random.default_rng(3)
    n = 40
    ctmc = CTMC(n)
    for state in range(n):
        enabled = {"S.idle"} if state % 3 == 0 else set()
        for step in (1, 2, 7):
            counts = pool[(state + step) % len(pool)]
            ctmc.add_transition(
                state, (state + step) % n, float(rng.uniform(0.1, 5.0)),
                counts,
            )
            enabled.update(counts)
        ctmc.set_enabled_labels(state, frozenset(enabled))
    measures = [
        measure("ticks", trans_clause("M.*", 1.0), trans_clause("S.obs", 0.5)),
        measure(
            "received",
            trans_clause("S.recv", 2.0),
            state_clause("S.recv", 1.5),
        ),
        measure(
            "mixed",
            state_clause("M.*", -0.75),
            state_clause("S.idle", 0.0),
            trans_clause("M.tock", -1.25),
            trans_clause("C.send", 0.0),
        ),
        measure("silent", trans_clause("nothing", 0.0)),
    ]
    return ctmc, measures


def _case_chain(case):
    from repro.aemilia import generate_lts
    from repro.casestudies.rpc import battery
    from repro.casestudies.rpc import markovian as rpc
    from repro.casestudies.streaming import markovian as streaming
    from repro.ctmc import build_ctmc

    if case == "synthetic":
        return _synthetic_case()
    if case == "rpc-battery":
        archi, measures = battery.dpm_architecture(), rpc.measures()
    else:
        module = rpc if case == "rpc" else streaming
        archi, measures = module.dpm_architecture(), module.measures()
    return build_ctmc(generate_lts(archi)), measures


class TestRewardTableDifferential:
    """``evaluate_measures`` through the shared reward table equals the
    clause-by-clause evaluation bit for bit (``==``, not approx)."""

    @pytest.mark.parametrize(
        "case", ["rpc", "streaming", "rpc-battery", "synthetic"]
    )
    def test_equals_clause_oracle(self, case):
        ctmc, measures = _case_chain(case)
        rng = np.random.default_rng(7)
        noisy = rng.random(ctmc.num_states)
        noisy[rng.random(ctmc.num_states) < 0.2] = 0.0  # zero weights
        distributions = [noisy / noisy.sum()]
        if case != "rpc-battery":  # the drained battery absorbs
            distributions.append(steady_state_solution(ctmc).pi)
        for pi in distributions:
            values = evaluate_measures(ctmc, pi, measures)
            assert values == {
                m.name: _oracle_measure(ctmc, pi, m) for m in measures
            }
            for m in measures:
                assert evaluate_measure(ctmc, pi, m) == values[m.name]
        for m in measures:
            assert np.array_equal(
                state_reward_vector(ctmc, m), _oracle_reward_vector(ctmc, m)
            )


class TestMeasureLanguage:
    def test_paper_syntax(self):
        measures = parse_measures("""
MEASURE throughput IS
  ENABLED(C.process_result_packet) -> TRANS_REWARD(1);
MEASURE waiting_time IS
  ENABLED(C.monitor_waiting_client) -> STATE_REWARD(1);
MEASURE energy IS
  ENABLED(S.monitor_idle_server) -> STATE_REWARD(2)
  ENABLED(S.monitor_busy_server) -> STATE_REWARD(3)
  ENABLED(S.monitor_awaking_server) -> STATE_REWARD(2)
""")
        assert [m.name for m in measures] == [
            "throughput", "waiting_time", "energy",
        ]
        energy = measures[2]
        assert len(energy.clauses) == 3
        assert energy.clauses[0].kind is RewardKind.STATE
        assert energy.clauses[0].value == 2.0

    def test_sync_pattern_allowed(self):
        measures = parse_measures(
            "MEASURE m IS ENABLED(A.push#B.pull) -> TRANS_REWARD(0.5);"
        )
        assert measures[0].clauses[0].pattern == "A.push#B.pull"

    def test_wildcard_pattern_allowed(self):
        measures = parse_measures(
            "MEASURE m IS ENABLED(DPM.*) -> TRANS_REWARD(1);"
        )
        assert measures[0].trans_reward("DPM.send#S.recv") == 1.0

    def test_comments_ignored(self):
        measures = parse_measures("""
// power draw per state
MEASURE power IS
  ENABLED(S.monitor) -> STATE_REWARD(2)  // idle watts
""")
        assert measures[0].name == "power"

    def test_negative_reward_value(self):
        measures = parse_measures(
            "MEASURE m IS ENABLED(a) -> STATE_REWARD(-1.5);"
        )
        assert measures[0].clauses[0].value == -1.5

    def test_missing_is_rejected(self):
        with pytest.raises(ParseError):
            parse_measures("MEASURE broken ENABLED(a) -> STATE_REWARD(1)")

    def test_measure_without_clauses_rejected(self):
        with pytest.raises(ParseError):
            parse_measures("MEASURE broken IS ;")

    def test_empty_spec_rejected(self):
        with pytest.raises(ParseError):
            parse_measures("   // nothing here\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError):
            parse_measures("MEASURE m IS ENABLED(a) -> IMPULSE(1)")

    def test_empty_pattern_rejected(self):
        with pytest.raises(ParseError):
            parse_measures("MEASURE m IS ENABLED() -> STATE_REWARD(1)")
