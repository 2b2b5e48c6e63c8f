"""Robustness tests: malformed input must fail with *library* errors.

A production front-end never leaks internal exceptions (KeyError,
RecursionError, ...) on bad input — every failure surfaces as a
:class:`~repro.errors.ReproError` subclass with a readable message.
Hypothesis throws token soup, truncations and mutations at the parser and
the measure language to enforce that.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aemilia import parse_architecture
from repro.casestudies.rpc.functional import REVISED_SPEC
from repro.ctmc.measure_lang import parse_measures
from repro.errors import ReproError

_TOKENS = [
    "ARCHI_TYPE", "ARCHI_ELEM_TYPES", "ELEM_TYPE", "BEHAVIOR",
    "INPUT_INTERACTIONS", "OUTPUT_INTERACTIONS", "ARCHI_TOPOLOGY",
    "ARCHI_ELEM_INSTANCES", "ARCHI_ATTACHMENTS", "FROM", "TO", "END",
    "UNI", "choice", "cond", "stop", "void", "const", "int", "real",
    "exp", "inf", "det", "normal", "Server", "x", "n", "42", "3.5",
    "(", ")", "{", "}", "<", ">", ",", ";", ".", ":=", "->", ":", "_",
    "+", "-", "*", "/", "=",
]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=40))
def test_parser_never_leaks_internal_errors(tokens):
    source = " ".join(tokens)
    try:
        parse_architecture(source)
    except ReproError:
        pass  # the only acceptable failure mode


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=80))
def test_parser_survives_arbitrary_text(text):
    try:
        parse_architecture(text)
    except ReproError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.integers(0, len(REVISED_SPEC) - 1), st.integers(1, 40))
def test_parser_survives_truncated_real_specs(start, length):
    """Cutting a window out of a real spec must fail cleanly (or parse,
    for the degenerate no-op cuts)."""
    mutated = REVISED_SPEC[:start] + REVISED_SPEC[start + length:]
    try:
        parse_architecture(mutated)
    except ReproError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=60))
def test_measure_language_survives_arbitrary_text(text):
    try:
        parse_measures(text)
    except ReproError:
        pass


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        ["MEASURE", "IS", "ENABLED", "STATE_REWARD", "TRANS_REWARD",
         "->", "(", ")", ";", "m", "S.act", "1", "2.5"]
    ).flatmap(lambda first: st.lists(
        st.sampled_from(
            ["MEASURE", "IS", "ENABLED", "STATE_REWARD", "TRANS_REWARD",
             "->", "(", ")", ";", "m", "S.act", "1", "2.5"]
        ),
        max_size=25,
    ).map(lambda rest: [first] + rest))
)
def test_measure_language_token_soup(tokens):
    try:
        parse_measures(" ".join(tokens))
    except ReproError:
        pass


class TestNumericalEdges:
    def test_extreme_rates_still_solve(self):
        """Rates spanning 12 orders of magnitude must not break the
        steady-state solver."""
        from repro.ctmc import CTMC, steady_state_solution

        ctmc = CTMC(2)
        ctmc.add_transition(0, 1, 1e-6)
        ctmc.add_transition(1, 0, 1e6)
        pi = steady_state_solution(ctmc).pi
        assert pi[0] == pytest.approx(1.0, rel=1e-9)

    def test_simulator_with_extreme_rates(self):
        from repro.aemilia.rates import ExpRate
        from repro.ctmc import measure, state_clause
        from repro.lts import LTS
        from repro.sim import make_generator, simulate

        lts = LTS(0)
        for _ in range(2):
            lts.add_state()
        lts.add_transition(0, "fast", 1, ExpRate(1e6), "fast")
        lts.add_transition(1, "slow", 0, ExpRate(1.0), "slow")
        m = measure("in1", state_clause("slow", 1.0))
        result = simulate(lts, [m], 200.0, make_generator(3))
        assert result.measures["in1"] == pytest.approx(1.0, abs=0.01)

    def test_tiny_probability_weights(self):
        from repro.aemilia import parse_architecture, generate_lts
        from repro.ctmc import build_ctmc, steady_state_solution

        archi = parse_architecture("""
ARCHI_TYPE Tiny(void)
ARCHI_ELEM_TYPES
ELEM_TYPE T_Type(void)
  BEHAVIOR
    Main(void; void) = <fire, exp(1.0)> . Branch();
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
""")
        ctmc = build_ctmc(generate_lts(archi))
        pi = steady_state_solution(ctmc).pi
        assert pi.sum() == pytest.approx(1.0)

    def test_deep_sequential_behaviour(self):
        """A long prefix chain must not hit recursion limits."""
        chain = " . ".join(f"<a{i}, _>" for i in range(300))
        archi = parse_architecture(f"""
ARCHI_TYPE Deep(void)
ARCHI_ELEM_TYPES
ELEM_TYPE T_Type(void)
  BEHAVIOR
    Main(void; void) = {chain} . Main()
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    X : T_Type()
END
""")
        from repro.aemilia import generate_lts

        lts = generate_lts(archi)
        assert lts.num_states == 300
