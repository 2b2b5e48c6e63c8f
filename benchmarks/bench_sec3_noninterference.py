"""Sect. 3 artifact: the noninterference checks and diagnostic formula.

Regenerates: the negative verdict + modal-logic formula for the simplified
rpc model, the positive verdict for the revised rpc model (Sect. 3.1), and
the positive verdict for the streaming model (Sect. 3.2).
"""

from functools import partial

from conftest import run_once

from repro.experiments.figures import RPC, STREAMING, noninterference_figure


def test_sec3_rpc(benchmark):
    result = run_once(benchmark, partial(noninterference_figure, RPC))
    print()
    print(result.report())
    assert not result.simplified.holds
    assert result.revised.holds
    formula_text = result.simplified.formula.render()
    # The paper's exact diagnostic (Sect. 3.1).
    assert "LABEL(C.send_rpc_packet#RCS.get_packet)" in formula_text
    assert "LABEL(RSC.deliver_packet#C.receive_result_packet)" in formula_text
    assert "NOT(" in formula_text


def test_sec3_streaming(benchmark):
    result = run_once(benchmark, partial(noninterference_figure, STREAMING))
    print()
    print(result.report())
    assert result.result.holds
