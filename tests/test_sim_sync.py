"""Simulation of OR/AND attachments and weighted passive branching.

The CTMC path of these constructs is covered in test_semantics /
test_ctmc_build; these tests drive the *simulator* through the same
synchronisation structures and check the branch statistics and broadcast
semantics against the analytic expectations.
"""

import pytest

from repro.aemilia import generate_lts, parse_architecture
from repro.ctmc import (
    build_ctmc,
    evaluate_measure,
    measure,
    steady_state_solution,
    trans_clause,
)
from repro.sim import make_generator, simulate


def or_model(weight_left=3.0, weight_right=1.0):
    return parse_architecture(f"""
ARCHI_TYPE Fanout(void)
ARCHI_ELEM_TYPES
ELEM_TYPE Prod_Type(void)
  BEHAVIOR
    P(void; void) = <push, exp(2.0)> . P()
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS OR push
ELEM_TYPE Cons_Type(void)
  BEHAVIOR
    C(void; void) = <pull, _(0, {weight_left})> . C()
  INPUT_INTERACTIONS UNI pull
  OUTPUT_INTERACTIONS void
ELEM_TYPE Cons2_Type(void)
  BEHAVIOR
    C(void; void) = <pull, _(0, {weight_right})> . C()
  INPUT_INTERACTIONS UNI pull
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    A : Prod_Type();
    B1 : Cons_Type();
    B2 : Cons2_Type()
  ARCHI_ATTACHMENTS
    FROM A.push TO B1.pull;
    FROM A.push TO B2.pull
END
""")


BROADCAST_SPEC = """
ARCHI_TYPE Cast(void)
ARCHI_ELEM_TYPES
ELEM_TYPE Prod_Type(void)
  BEHAVIOR
    P(void; void) = <push, exp(2.0)> . P()
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS AND push
ELEM_TYPE Cons_Type(void)
  BEHAVIOR
    C(void; void) = <pull, _> . <work, exp(5.0)> . C()
  INPUT_INTERACTIONS UNI pull
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    A : Prod_Type();
    B1 : Cons_Type();
    B2 : Cons_Type()
  ARCHI_ATTACHMENTS
    FROM A.push TO B1.pull;
    FROM A.push TO B2.pull
END
"""


class TestOrAttachmentSimulation:
    def test_branch_statistics_follow_weights(self):
        lts = generate_lts(or_model(3.0, 1.0))
        left = measure("left", trans_clause("B1.pull", 1.0))
        right = measure("right", trans_clause("B2.pull", 1.0))
        result = simulate(
            lts, [left, right], 20_000.0, make_generator(23)
        )
        ratio = result.measures["left"] / result.measures["right"]
        assert ratio == pytest.approx(3.0, rel=0.08)

    def test_total_rate_matches_ctmc(self):
        lts = generate_lts(or_model())
        pushes = measure("pushes", trans_clause("A.push", 1.0))
        ctmc = build_ctmc(lts)
        analytic = evaluate_measure(
            ctmc, steady_state_solution(ctmc).pi, pushes
        )
        result = simulate(lts, [pushes], 20_000.0, make_generator(29))
        assert result.measures["pushes"] == pytest.approx(
            analytic, rel=0.03
        )
        assert analytic == pytest.approx(2.0, rel=1e-9)


class TestAndAttachmentSimulation:
    def test_broadcast_delivers_to_all_partners(self):
        lts = generate_lts(parse_architecture(BROADCAST_SPEC))
        pushes = measure("pushes", trans_clause("A.push", 1.0))
        work1 = measure("w1", trans_clause("B1.work", 1.0))
        work2 = measure("w2", trans_clause("B2.work", 1.0))
        result = simulate(
            lts, [pushes, work1, work2], 20_000.0, make_generator(31)
        )
        # Every broadcast triggers exactly one work unit on each consumer.
        assert result.measures["w1"] == pytest.approx(
            result.measures["pushes"], rel=0.01
        )
        assert result.measures["w2"] == pytest.approx(
            result.measures["pushes"], rel=0.01
        )

    def test_broadcast_blocks_until_both_ready(self):
        """Effective cycle: exp(2) broadcast then both exp(5) works in
        parallel; the push rate must match the CTMC exactly."""
        lts = generate_lts(parse_architecture(BROADCAST_SPEC))
        pushes = measure("pushes", trans_clause("A.push", 1.0))
        ctmc = build_ctmc(lts)
        analytic = evaluate_measure(
            ctmc, steady_state_solution(ctmc).pi, pushes
        )
        result = simulate(lts, [pushes], 20_000.0, make_generator(37))
        assert result.measures["pushes"] == pytest.approx(
            analytic, rel=0.03
        )
