"""Fig. 8: streaming energy-per-frame vs miss-rate trade-off curves.

Regenerates the Markovian and general curves.  Paper claims checked: the
two curves share their qualitative behaviour (energy falls as the awake
period — and hence the miss rate — grows), and the general model offers
sizeable energy savings at zero miss cost, making the DPM completely
transparent for small awake periods.
"""

from conftest import run_once

from repro.experiments.figures import (
    STREAMING,
    sweep_figure,
    tradeoff_figure,
)

PERIODS = [25.0, 50.0, 100.0, 200.0, 400.0, 800.0]


def test_fig8_tradeoff(benchmark, streaming_methodology):
    markov = sweep_figure(
        STREAMING, "markovian", PERIODS, methodology=streaming_methodology
    )
    general = sweep_figure(
        STREAMING,
        "general",
        PERIODS,
        methodology=streaming_methodology,
        run_length=30_000.0,
        runs=3,
        warmup=1_500.0,
    )
    figure = run_once(
        benchmark,
        lambda: tradeoff_figure(STREAMING, markov, general),
    )
    print()
    print(figure.report())

    # Both curves show decreasing energy as miss increases (same shape).
    for curve in (figure.markov, figure.general):
        front = curve.pareto_front()
        assert len(front) >= 3
    # General model: a point with sizeable savings at ~zero miss.
    nodpm_energy = general.nodpm_series["energy_per_frame"][0]
    transparent = [
        point
        for point in figure.general.points
        if point.performance < 0.03  # miss below 3%
        and point.energy < 0.4 * nodpm_energy
    ]
    assert transparent, "expected a transparent high-saving operating point"
