"""Batch-means output analysis: one long run instead of replications.

The replication protocol of :mod:`repro.sim.output` pays the warm-up once
per run; the batch-means method pays it once in total, splitting a single
long trajectory into contiguous batches whose means are treated as
(approximately independent) samples.  For well-mixing models both agree —
asserted in tests — and batch means is preferable when the warm-up is
expensive.

The lag-1 autocorrelation of the batch means is reported so callers can
detect undersized batches (a standard diagnostic: values near zero are
good, large positive values mean the batches are still correlated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..ctmc.measures import Measure
from ..errors import SimulationError
from ..lts.lts import LTS
from ..obs import metrics as obs_metrics
from .engine import Simulator
from .output import Estimate, summarize
from .random import make_generator


@dataclass
class BatchMeansResult:
    """Per-measure estimates plus batch diagnostics."""

    estimates: Dict[str, Estimate]
    batch_means: Dict[str, List[float]]
    lag1_autocorrelation: Dict[str, float]
    #: Per-measure running confidence half-widths: entry ``k`` is the
    #: half-width over the first ``k + 2`` batches, so a flattening tail
    #: shows the estimator has converged and a still-shrinking one says
    #: more batches would pay (docs/OBSERVABILITY.md).
    convergence: Dict[str, List[float]] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Estimate:
        return self.estimates[name]


def _lag1_autocorrelation(values: Sequence[float]) -> float:
    array = np.asarray(values, float)
    if len(array) < 3:
        return 0.0
    centred = array - array.mean()
    denominator = float(centred @ centred)
    if denominator == 0.0:
        return 0.0
    return float(centred[:-1] @ centred[1:]) / denominator


def batch_means(
    lts: LTS,
    measures: Sequence[Measure],
    batch_length: float,
    batches: int = 20,
    warmup: float = 0.0,
    seed: int = 20040628,
    confidence: float = 0.90,
    clock_semantics: str = "enabling_memory",
) -> BatchMeansResult:
    """Single-run batch-means estimation of all measures.

    The trajectory lasts ``warmup + batches * batch_length`` model time
    units; statistics are collected per batch after the warm-up.
    """
    if batches < 2:
        raise SimulationError("need at least two batches for an interval")
    if batch_length <= 0:
        raise SimulationError(
            f"batch_length must be positive, got {batch_length}"
        )
    simulator = Simulator(lts, measures, clock_semantics)
    rng = make_generator(seed)

    # Run batch by batch, carrying both the state and the residual event
    # clocks across batch boundaries: the concatenated batches form ONE
    # trajectory of the model.  Discarding the clocks (as earlier
    # versions did) silently turned every boundary into a regeneration
    # point — exact for exponential models, but systematically biased
    # for deterministic/Gaussian timers longer than a batch, which then
    # never fired at all.
    samples: Dict[str, List[float]] = {m.name: [] for m in measures}
    state = None
    clocks: Dict[str, float] = {}
    first = True
    for _ in range(batches):
        result = simulator.run(
            batch_length,
            rng,
            warmup=warmup if first else 0.0,
            start_state=state,
            start_clocks=clocks,
        )
        first = False
        state = result.final_state
        clocks = result.final_clocks
        for name, value in result.measures.items():
            samples[name].append(value)
    estimates = {
        name: summarize(values, confidence)
        for name, values in samples.items()
    }
    autocorrelation = {
        name: _lag1_autocorrelation(values)
        for name, values in samples.items()
    }
    convergence = {
        name: [
            summarize(values[:count], confidence).half_width
            for count in range(2, len(values) + 1)
        ]
        for name, values in samples.items()
    }
    registry = obs_metrics.get_registry()
    if registry.enabled:
        obs_metrics.SIM_BATCHES.on(registry).inc(batches)
        lag_gauge = obs_metrics.SIM_BATCH_LAG1.on(registry)
        for name, value in autocorrelation.items():
            lag_gauge.labels(measure=name).set(value)
    return BatchMeansResult(
        estimates, samples, autocorrelation, convergence
    )

