"""Fig. 5: validation of the general rpc model against the Markovian one.

The paper's protocol: give the general model exponential distributions
consistent with the Markovian rates, simulate (30 runs, 90% confidence
intervals), and compare with the analytic solution.  The benchmark runs a
reduced-effort version and asserts every measure validates at every
swept shutdown timeout.
"""

from conftest import run_once

from repro.experiments.figures import RPC, validation_figure


def test_fig5_validation(benchmark, rpc_methodology):
    figure = run_once(
        benchmark,
        lambda: validation_figure(
            RPC,
            [5.0, 15.0, 25.0],
            methodology=rpc_methodology,
            run_length=10_000.0,
            runs=10,
            warmup=300.0,
        ),
    )
    print()
    print(figure.report())
    assert figure.passed
    for report in figure.reports.values():
        for validation in report.measures.values():
            assert validation.relative_error < 0.10
