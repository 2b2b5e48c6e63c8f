"""Fig. 3 (right): rpc general model with deterministic/Gaussian timing.

Regenerates the bimodal dependence on the shutdown timeout: below the mean
idle period (11.3 ms) energy grows with the timeout while throughput and
waiting time stay flat; above it the DPM has no effect; near the idle
period the DPM is counterproductive.
"""

import pytest
from conftest import run_once

from repro.casestudies import rpc
from repro.experiments.figures import RPC, sweep_figure

TIMEOUTS = [1.0, 5.0, 9.0, 11.0, 12.5, 15.0, 25.0]


def test_fig3_general(benchmark, rpc_methodology):
    figure = run_once(
        benchmark,
        lambda: sweep_figure(
            RPC,
            "general",
            TIMEOUTS,
            methodology=rpc_methodology,
            run_length=10_000.0,
            runs=5,
            warmup=300.0,
        ),
    )
    print()
    print(figure.report())

    by_timeout = dict(zip(TIMEOUTS, range(len(TIMEOUTS))))
    throughput = figure.dpm_series["throughput"]
    energy = figure.dpm_series["energy_per_request"]
    nodpm_throughput = figure.nodpm_series["throughput"][0]
    nodpm_energy = figure.nodpm_series["energy_per_request"][0]
    knee = rpc.DEFAULT_PARAMETERS.mean_idle_period

    # Below the knee: throughput flat (timeout-independent).
    low, mid = by_timeout[1.0], by_timeout[9.0]
    assert throughput[low] == pytest.approx(throughput[mid], rel=0.02)
    # ... while raw energy grows with the timeout.
    raw_energy_low = energy[low] * throughput[low]
    raw_energy_mid = energy[mid] * throughput[mid]
    assert raw_energy_mid > raw_energy_low * 1.5

    # Above the knee: indistinguishable from NO-DPM.
    high = by_timeout[25.0]
    assert throughput[high] == pytest.approx(nodpm_throughput, rel=0.02)
    assert energy[high] == pytest.approx(nodpm_energy, rel=0.03)

    # Counterproductive near the idle period, beneficial for short ones.
    assert energy[by_timeout[9.0]] > nodpm_energy
    assert energy[by_timeout[1.0]] < nodpm_energy
    assert knee == pytest.approx(11.3)
