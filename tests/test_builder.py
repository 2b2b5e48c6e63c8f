"""Tests for the programmatic builder API (repro.aemilia.builder)."""

import pytest

from repro.aemilia import builder as b
from repro.aemilia import generate_lts
from repro.aemilia.elemtypes import Direction, Multiplicity
from repro.aemilia.expressions import DataType, Literal, Variable, binop
from repro.aemilia.rates import ExpRate
from repro.ctmc import build_ctmc, measure, steady_state_solution, trans_clause
from repro.ctmc.measures import evaluate_measure


class TestRateHelpers:
    def test_exp_coerces_literals(self):
        spec = b.exp(2.0)
        assert spec.evaluate({}) == ExpRate(2.0)

    def test_exp_accepts_expressions(self):
        spec = b.exp(binop("/", Literal(1), Variable("mean")))
        assert spec.evaluate({"mean": 2.0}) == ExpRate(0.5)

    def test_det_shorthand(self):
        rate = b.det(3.0).evaluate({})
        assert str(rate) == "det(3)"


class TestStructureHelpers:
    def test_attach_splits_dotted_ends(self):
        attachment = b.attach("A.out_x", "B.in_y")
        assert attachment.from_instance == "A"
        assert attachment.from_interaction == "out_x"
        assert attachment.to_instance == "B"
        assert attachment.to_interaction == "in_y"

    def test_const_infers_types(self):
        assert b.const("flag", True).type is DataType.BOOL
        assert b.const("n", 3).type is DataType.INT
        assert b.const("r", 2.5).type is DataType.REAL

    def test_elem_type_multiplicities(self):
        elem = b.elem_type(
            "T_Type",
            [
                b.process(
                    "Main",
                    b.choice(
                        b.prefix("take", b.passive(), b.call("Main")),
                        b.prefix("fan", b.exp(1.0), b.call("Main")),
                        b.prefix("cast", b.exp(1.0), b.call("Main")),
                    ),
                )
            ],
            inputs=["take"],
            or_outputs=["fan"],
            and_outputs=["cast"],
        )
        assert elem.interaction("take").direction is Direction.INPUT
        assert elem.interaction("fan").multiplicity is Multiplicity.OR
        assert elem.interaction("cast").multiplicity is Multiplicity.AND


class TestEndToEndBuiltModel:
    def test_build_solve_and_measure(self):
        """A complete model written only with the builder API."""
        worker = b.elem_type(
            "Worker_Type",
            [
                b.process(
                    "Rest",
                    b.prefix("start", b.exp(1.0), b.call("Work")),
                ),
                b.process(
                    "Work",
                    b.prefix("finish", b.exp(3.0), b.call("Rest")),
                ),
            ],
        )
        archi = b.archi(
            "Built", [worker], [b.instance("W", "Worker_Type")]
        )
        lts = generate_lts(archi)
        ctmc = build_ctmc(lts)
        pi = steady_state_solution(ctmc).pi
        finish_rate = evaluate_measure(
            ctmc, pi, measure("f", trans_clause("W.finish", 1.0))
        )
        # Cycle time 1 + 1/3 -> rate 0.75.
        assert finish_rate == pytest.approx(0.75, rel=1e-9)

    def test_built_model_with_data_and_consts(self):
        cell = b.elem_type(
            "Cell_Type",
            [
                b.process(
                    "Cell",
                    b.choice(
                        b.cond(
                            binop("<", Variable("n"), Variable("cap")),
                            b.prefix(
                                "up",
                                b.exp(1.0),
                                b.call("Cell", binop("+", Variable("n"), 1)),
                            ),
                        ),
                        b.cond(
                            binop(">", Variable("n"), 0),
                            b.prefix(
                                "down",
                                b.exp(2.0),
                                b.call("Cell", binop("-", Variable("n"), 1)),
                            ),
                        ),
                    ),
                    formals=[b.formal("n", DataType.INT, 0)],
                )
            ],
        )
        archi = b.archi(
            "Counter",
            [cell],
            [b.instance("X", "Cell_Type", 0)],
            const_params=[b.const("cap", 4)],
        )
        assert generate_lts(archi).num_states == 5
        assert generate_lts(archi, {"cap": 9}).num_states == 10

    def test_builder_and_parser_agree(self, pingpong):
        """The builder can replicate a parsed model exactly."""
        from repro.lts import strongly_bisimilar

        ping = b.elem_type(
            "Ping_Type",
            [
                b.process(
                    "Ping",
                    b.prefix(
                        "send_ping",
                        b.passive(),
                        b.prefix("receive_pong", b.passive(), b.call("Ping")),
                    ),
                )
            ],
            inputs=["receive_pong"],
            outputs=["send_ping"],
        )
        pong = b.elem_type(
            "Pong_Type",
            [
                b.process(
                    "Pong",
                    b.prefix(
                        "receive_ping",
                        b.passive(),
                        b.prefix("send_pong", b.passive(), b.call("Pong")),
                    ),
                )
            ],
            inputs=["receive_ping"],
            outputs=["send_pong"],
        )
        built = b.archi(
            "Ping_Pong",
            [ping, pong],
            [b.instance("P", "Ping_Type"), b.instance("Q", "Pong_Type")],
            [
                b.attach("P.send_ping", "Q.receive_ping"),
                b.attach("Q.send_pong", "P.receive_pong"),
            ],
        )
        assert strongly_bisimilar(
            generate_lts(built), generate_lts(pingpong)
        )
