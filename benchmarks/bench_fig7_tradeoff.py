"""Fig. 7: rpc energy-per-request vs waiting-time trade-off curves.

Regenerates the Markovian and general trade-off curves and checks the
paper's observation: many points of the general curve lie beyond the
Pareto front (DPM timeouts close to the idle period are dominated), while
the Markovian curve has no dominated points.
"""

from conftest import run_once

from repro.casestudies import rpc
from repro.experiments.figures import RPC, sweep_figure, tradeoff_figure


def test_fig7_tradeoff(benchmark, rpc_methodology):
    markov = sweep_figure(
        RPC, "markovian", RPC.quick_grid, methodology=rpc_methodology
    )
    general = sweep_figure(
        RPC,
        "general",
        [1.0, 3.0, 5.0, 8.0, 9.5, 10.5, 12.0, 15.0, 25.0],
        methodology=rpc_methodology,
        run_length=10_000.0,
        runs=5,
        warmup=300.0,
    )
    figure = run_once(
        benchmark,
        lambda: tradeoff_figure(RPC, markov, general),
    )
    print()
    print(figure.report())

    # Markovian curve: smooth monotone trade-off, nothing dominated.
    assert len(figure.markov.dominated_points()) == 0
    # General curve: dominated (counterproductive) points exist, and they
    # sit near the mean idle period.
    dominated = figure.general.dominated_points()
    assert dominated
    knee = rpc.DEFAULT_PARAMETERS.mean_idle_period
    assert any(
        abs(point.parameter - knee) < 3.5 for point in dominated
    )
