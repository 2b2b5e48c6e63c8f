"""Fig. 4: streaming Markovian comparison (energy/loss/miss/quality).

Regenerates the four indices as functions of the PSP awake period and
checks the paper's shapes: energy per frame falls steeply then flattens,
miss grows / quality falls, and around 50-100 ms the DPM saves most of the
NIC energy at moderate quality cost.
"""

from conftest import run_once

from repro.experiments.figures import STREAMING, sweep_figure

PERIODS = [10.0, 50.0, 100.0, 200.0, 400.0, 800.0]


def test_fig4_markov(benchmark, streaming_methodology):
    figure = run_once(
        benchmark,
        lambda: sweep_figure(
            STREAMING, "markovian", PERIODS,
            methodology=streaming_methodology,
        ),
    )
    print()
    print(figure.report())

    energy = figure.dpm_series["energy_per_frame"]
    miss = figure.dpm_series["miss"]
    quality = figure.dpm_series["quality"]
    nodpm_energy = figure.nodpm_series["energy_per_frame"][0]

    # Energy per frame falls steeply over the short-period regime...
    assert all(a > b for a, b in zip(energy[:4], energy[1:4]))
    # ... then flattens (paper: marginal savings become negligible above
    # ~100 ms; at the very long end the per-frame cost may tick up again
    # as AP overflow cuts into the delivered-frame count).
    drop_early = energy[0] - energy[2]            # 10 -> 100 ms
    drop_late = abs(energy[3] - energy[5])        # 200 -> 800 ms
    assert drop_early > 3 * drop_late
    # Miss grows, quality falls.
    assert miss[-1] > miss[0]
    assert quality[-1] < quality[0]
    # ~70% saving at 100 ms (paper's Sect. 4.2 conclusion at 50-100 ms).
    saving_100 = 1.0 - energy[2] / nodpm_energy
    assert saving_100 > 0.6
