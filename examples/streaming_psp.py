"""The streaming case study: a PSP-managed 802.11b NIC (paper Sect. 2.2).

Reproduces the streaming half of the paper:

* Sect. 3.2 — the MAC-level DPM satisfies noninterference;
* Sect. 4.2 / Fig. 4 — Markovian energy/loss/miss/quality vs awake period;
* Sect. 5.3 / Fig. 6 — the realistic CBR model by simulation, including
  the CISCO Aironet 350 comparison (100 ms vs 200 ms listen intervals);
* Fig. 8 — the energy/miss trade-off.

Also prints a short event-trace excerpt so the PSP doze/wake cycle is
visible.

Run with:  python examples/streaming_psp.py  [--full]
"""

import sys

from repro.casestudies import streaming
from repro.core import IncrementalMethodology
from repro.experiments.figures import (
    STREAMING,
    noninterference_figure,
    sweep_figure,
    tradeoff_figure,
)
from repro.sim import EventTraceRecorder, make_generator


def show_trace(methodology):
    print("event-trace excerpt (awake period 100 ms):")
    lts = methodology.build_lts("general", "dpm", {"awake_period": 100.0})
    recorder = EventTraceRecorder(lts, capacity=25)
    recorder.run(2_000.0, make_generator(7), warmup=0.0)
    interesting = [
        entry
        for entry in recorder.entries
        if any(
            key in entry.label
            for key in ("shutdown", "wakeup", "get_", "store", "lose")
        )
    ]
    for entry in interesting[:12]:
        print(f"  t={entry.time:8.2f}  {entry.label}")
    print()


def aironet_comparison(methodology, sim_kwargs):
    print("CISCO Aironet 350 setting comparison (Sect. 5.3):")
    nodpm = methodology.simulate_general("nodpm", **sim_kwargs)
    nodpm_raw = {n: nodpm[n].mean for n in nodpm.estimates}
    base = STREAMING.derive(
        {k: [v] for k, v in nodpm_raw.items()}
    )
    print(
        f"  always-on : energy/frame "
        f"{base['energy_per_frame'][0]:7.1f} mJ, quality "
        f"{base['quality'][0]:.3f}"
    )
    for period in streaming.AIRONET_AWAKE_PERIODS:
        rep = methodology.simulate_general(
            "dpm", {"awake_period": period}, **sim_kwargs
        )
        raw = {n: rep[n].mean for n in rep.estimates}
        derived = STREAMING.derive(
            {k: [v] for k, v in raw.items()}
        )
        saving = (
            1.0
            - derived["energy_per_frame"][0] / base["energy_per_frame"][0]
        )
        print(
            f"  PSP {period:3.0f} ms: energy/frame "
            f"{derived['energy_per_frame'][0]:7.1f} mJ "
            f"(saves {saving:4.0%}), quality {derived['quality'][0]:.3f}, "
            f"loss {derived['loss'][0]:.4f}"
        )
    print()


def main(full: bool = False):
    methodology = IncrementalMethodology(streaming.family())
    sim_kwargs = dict(
        run_length=60_000.0 if full else 20_000.0,
        runs=6 if full else 3,
        warmup=2_000.0 if full else 1_000.0,
    )

    print("#" * 72)
    print("# Phase 1 - noninterference of the MAC-level DPM (Sect. 3.2)")
    print("#" * 72)
    verdict = noninterference_figure(STREAMING)
    print(verdict.report())
    print()

    print("#" * 72)
    print("# Phase 2 - Markovian model (Fig. 4)")
    print("#" * 72)
    periods = None if full else STREAMING.quick_grid
    markov = sweep_figure(
        STREAMING, "markovian", periods, methodology=methodology
    )
    print(markov.report(charts=full))
    print()

    print("#" * 72)
    print("# Phase 3 - general model (Fig. 6) + Aironet 350 settings")
    print("#" * 72)
    show_trace(methodology)
    aironet_comparison(methodology, sim_kwargs)
    general = sweep_figure(
        STREAMING, "general", periods, methodology=methodology, **sim_kwargs
    )
    print(general.report(charts=full))
    print()

    print("#" * 72)
    print("# Trade-off (Fig. 8)")
    print("#" * 72)
    tradeoff = tradeoff_figure(STREAMING, markov, general)
    print(tradeoff.report())


if __name__ == "__main__":
    main(full="--full" in sys.argv)
