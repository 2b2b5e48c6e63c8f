"""Fig. 6: streaming general model (deterministic CBR video, PSP NIC).

Regenerates the four indices by simulation and checks the Sect. 5.3
findings: no loss and no miss at the Aironet 350's 100 ms awake period
(the DPM is transparent there) while saving well over half of the NIC
energy; degradation appears at long awake periods.
"""

import pytest
from conftest import run_once

from repro.experiments.figures import STREAMING, sweep_figure

PERIODS = [25.0, 100.0, 200.0, 400.0, 800.0]


def test_fig6_general(benchmark, streaming_methodology):
    figure = run_once(
        benchmark,
        lambda: sweep_figure(
            STREAMING,
            "general",
            PERIODS,
            methodology=streaming_methodology,
            run_length=30_000.0,
            runs=3,
            warmup=1_500.0,
        ),
    )
    print()
    print(figure.report())

    by_period = dict(zip(PERIODS, range(len(PERIODS))))
    loss = figure.dpm_series["loss"]
    miss = figure.dpm_series["miss"]
    quality = figure.dpm_series["quality"]
    energy = figure.dpm_series["energy_per_frame"]
    nodpm_energy = figure.nodpm_series["energy_per_frame"][0]

    at_100 = by_period[100.0]
    # Transparency at 100 ms: no loss, (almost) no miss.
    assert loss[at_100] == pytest.approx(0.0, abs=1e-6)
    assert miss[at_100] < 0.03
    assert quality[at_100] > 0.97
    # ... with a large energy saving.
    assert 1.0 - energy[at_100] / nodpm_energy > 0.6
    # Energy per frame still decreases with the period.
    assert all(a >= b * 0.98 for a, b in zip(energy, energy[1:]))
    # Degradation at the long end (beyond the client-buffer horizon).
    assert miss[by_period[800.0]] > miss[at_100]
    assert loss[by_period[800.0]] > 0.0
