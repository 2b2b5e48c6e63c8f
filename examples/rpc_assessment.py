"""Full walkthrough of the rpc case study (the paper's running example).

Reproduces, in order:

* Sect. 3.1 — the *simplified* model fails noninterference and the checker
  emits the paper's modal-logic diagnostic; the *revised* model passes;
* Sect. 4.1 / Fig. 3 left — analytic DPM vs NO-DPM comparison while
  sweeping the shutdown timeout;
* Sect. 5.1 / Fig. 5 — validation of the general model (exponential
  plug-in vs analytic);
* Sect. 5.2 / Fig. 3 right — simulation of the deterministic/Gaussian
  model, exposing the bimodal knee at the 11.3 ms mean idle period;
* Fig. 7 — the energy/waiting trade-off with its dominated points.

Run with:  python examples/rpc_assessment.py  [--full]
"""

import sys

from repro.casestudies import rpc
from repro.core import IncrementalMethodology
from repro.experiments.figures import (
    RPC,
    noninterference_figure,
    sweep_figure,
    tradeoff_figure,
    validation_figure,
)


def main(full: bool = False):
    methodology = IncrementalMethodology(rpc.family())

    print("#" * 72)
    print("# Phase 1 - functional transparency (Sect. 3.1)")
    print("#" * 72)
    verdict = noninterference_figure(RPC)
    print(verdict.report())
    print()

    print("#" * 72)
    print("# Phase 2 - Markovian comparison (Fig. 3 left)")
    print("#" * 72)
    timeouts = None if full else RPC.quick_grid
    markov = sweep_figure(RPC, "markovian", timeouts, methodology=methodology)
    print(markov.report(charts=full))
    print()

    print("#" * 72)
    print("# Phase 3a - validation (Fig. 5)")
    print("#" * 72)
    validation = validation_figure(
        RPC,
        None if full else [5.0, 15.0],
        methodology=methodology,
        runs=30 if full else 8,
        run_length=20_000.0 if full else 8_000.0,
        warmup=300.0,
    )
    print(validation.report())
    print()

    print("#" * 72)
    print("# Phase 3b - general model (Fig. 3 right)")
    print("#" * 72)
    general = sweep_figure(
        RPC,
        "general",
        timeouts,
        methodology=methodology,
        runs=8 if full else 4,
        run_length=20_000.0 if full else 8_000.0,
        warmup=300.0,
    )
    print(general.report(charts=full))
    print()

    print("#" * 72)
    print("# Trade-off (Fig. 7)")
    print("#" * 72)
    tradeoff = tradeoff_figure(RPC, markov, general)
    print(tradeoff.report())
    knee = tradeoff.general.knee_point()
    print()
    print(
        f"recommended DPM shutdown timeout (knee of the general curve): "
        f"{knee.parameter:g} ms"
    )
    print(
        f"(the server's mean idle period is "
        f"{rpc.DEFAULT_PARAMETERS.mean_idle_period:.1f} ms; timeouts near "
        f"it are counterproductive)"
    )


if __name__ == "__main__":
    main(full="--full" in sys.argv)
