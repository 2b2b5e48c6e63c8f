"""Fig. 3 (left): rpc Markovian comparison, DPM vs NO-DPM.

Regenerates throughput, waiting time and energy-per-request as functions of
the DPM shutdown timeout, and checks the paper's shape claims: the DPM is
never counterproductive in energy, always costs throughput/waiting, and
both regimes converge as the timeout grows.
"""

from conftest import run_once

from repro.experiments.figures import RPC, sweep_figure


def test_fig3_markov(benchmark, rpc_methodology):
    figure = run_once(
        benchmark,
        lambda: sweep_figure(
            RPC, "markovian", RPC.quick_grid, methodology=rpc_methodology
        ),
    )
    print()
    print(figure.report())

    timeouts = figure.parameter_values
    dpm_energy = figure.dpm_series["energy_per_request"]
    nodpm_energy = figure.nodpm_series["energy_per_request"]
    dpm_throughput = figure.dpm_series["throughput"]
    nodpm_throughput = figure.nodpm_series["throughput"]
    dpm_waiting = figure.dpm_series["waiting_time"]
    nodpm_waiting = figure.nodpm_series["waiting_time"]

    # The DPM is never counterproductive in energy per request (paper).
    assert all(d < n for d, n in zip(dpm_energy, nodpm_energy))
    # Energy savings are paid in throughput and waiting time (paper).
    assert all(d < n for d, n in zip(dpm_throughput, nodpm_throughput))
    assert all(d > n for d, n in zip(dpm_waiting, nodpm_waiting))
    # The shorter the timeout, the larger the impact: monotone series.
    assert dpm_throughput == sorted(dpm_throughput)
    assert dpm_waiting == sorted(dpm_waiting, reverse=True)
    assert dpm_energy == sorted(dpm_energy)
    # Convergence towards NO-DPM at the long-timeout end of the sweep.
    gap_short = nodpm_throughput[0] - dpm_throughput[0]
    gap_long = nodpm_throughput[-1] - dpm_throughput[-1]
    assert gap_long < gap_short / 2
