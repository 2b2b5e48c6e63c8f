"""Output analysis: independent replications and confidence intervals.

The paper's simulation experiments average over 30 independent runs and
report 90% confidence intervals (Fig. 5).  :func:`replicate` reproduces
that protocol: independent seeded streams, optional warm-up deletion,
Student-t intervals per measure.

The replication protocol picks the random streams (docs/SIMULATION.md);
every protocol runs the one GSMP engine, :class:`~repro.sim.engine.Simulator`:

* :func:`replicate` gives each run its own generator derived from
  ``(seed, run index)`` — the seed discipline every committed
  independent-replication result was produced under;
* :func:`replicate_paired` evaluates two model variants (the paper's
  DPM-on vs DPM-off comparisons) on per-event-type streams, one
  :class:`~repro.sim.streams.RunStreams` per run and variant.  With **common
  random numbers** both variants draw identical streams, so the two
  trajectories are positively correlated and the per-run
  *differences* — what Sect. 5's tables actually report — have far
  smaller variance than independent runs would give.

Both protocols, and the splitting trees of :mod:`repro.sim.splitting`,
run in one task shape: the run indices are cut into contiguous chunks,
one per worker (:func:`~repro.runtime.executor.contiguous_chunks`),
and each executor task builds its simulator once and runs its chunk's
indices in order.  So a
replication map is one ``point`` span per chunk, and only the worker
count sets the number of chunks: a retry policy, a fault injector or a
tracer never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats

from ..ctmc.measures import Measure
from ..errors import SimulationError
from ..lts.lts import LTS
from ..runtime.executor import (
    ParallelExecutor,
    RetryPolicy,
    contiguous_chunks,
)
from ..runtime.faults import FaultInjector
from .engine import Simulator
from .estimators import log_scale_interval, wilson_interval
from .random import generator_for_run
from .streams import RunStreams


def resolve_engine(engine: Optional[str]) -> str:
    """Validate an engine name: ``None`` and ``"reference"`` both name
    :class:`~repro.sim.engine.Simulator`, the only engine."""
    if engine not in (None, "reference"):
        raise SimulationError(
            f"unknown simulation engine {engine!r} (the only engine is "
            f"'reference')"
        )
    return "reference"


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a symmetric confidence interval."""

    mean: float
    half_width: float
    std_dev: float
    runs: int
    confidence: float

    @property
    def low(self) -> float:
        """Lower confidence bound."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper confidence bound."""
        return self.mean + self.half_width

    def overlaps(self, value: float) -> bool:
        """True when *value* falls inside the confidence interval."""
        return self.low <= value <= self.high

    def overlaps_estimate(self, other: "Estimate") -> bool:
        """True when the two confidence intervals intersect."""
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:
        return (
            f"{self.mean:.6g} ± {self.half_width:.3g} "
            f"({self.confidence:.0%}, n={self.runs})"
        )


@dataclass(frozen=True)
class RareEstimate:
    """Point estimate of a *nonnegative* rare quantity with an
    asymmetric confidence interval.

    The symmetric Student-t interval of :class:`Estimate` is the wrong
    shape near zero: its lower bound goes negative (impossible for a
    probability) and, when no run observed the event at all, it
    collapses to zero width — reading "exactly zero, with certainty"
    off a finite sample.  A :class:`RareEstimate` carries explicit
    ``low``/``high`` bounds from a Wilson score interval (binary or
    all-zero samples) or a log-scale delta-method interval (positive
    continuous samples), so ``low >= 0`` always, and zero observed
    events still yield a strictly positive ``high``
    (docs/RELIABILITY.md).
    """

    mean: float
    low: float
    high: float
    std_dev: float
    runs: int
    confidence: float
    #: Interval construction used: ``"wilson"`` or ``"log-t"``.
    method: str

    def overlaps(self, value: float) -> bool:
        """True when *value* falls inside the confidence interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return (
            f"{self.mean:.6g} [{self.low:.3g}, {self.high:.3g}] "
            f"({self.confidence:.0%}, {self.method}, n={self.runs})"
        )


def summarize_rare(
    samples: Sequence[float], confidence: float = 0.95
) -> RareEstimate:
    """Rare-probability summary of i.i.d. nonnegative samples.

    Chooses the interval construction by the shape of the data:

    * **all samples zero** — no run observed the event; each run is
      treated as one Bernoulli trial of "saw it", and the Wilson score
      interval with zero successes gives the honest upper bound
      ``z²/(n+z²)`` instead of a zero-width interval;
    * **binary samples** (every value 0 or 1) — Wilson score interval
      on the success proportion;
    * **positive continuous samples** — Student-t interval on the log
      of the mean (delta method), i.e. a multiplicative interval
      ``mean · exp(±t·s/(√n·mean))`` whose lower bound stays positive.
    """
    values = np.asarray(list(samples), float)
    runs = len(values)
    if runs == 0:
        raise SimulationError("cannot summarise zero samples")
    if (values < 0).any():
        raise SimulationError(
            "rare-probability summaries need nonnegative samples"
        )
    mean = float(values.mean())
    std_dev = float(values.std(ddof=1)) if runs > 1 else math.inf
    binary = bool(np.isin(values, (0.0, 1.0)).all())
    if binary or not values.any():
        successes = int(np.count_nonzero(values))
        low, high = wilson_interval(successes, runs, confidence)
        return RareEstimate(
            mean, low, high, std_dev, runs, confidence, "wilson"
        )
    if runs == 1:
        return RareEstimate(
            mean, 0.0, math.inf, math.inf, 1, confidence, "log-t"
        )
    low, high = log_scale_interval(mean, std_dev, runs, confidence)
    return RareEstimate(
        mean, low, high, std_dev, runs, confidence, "log-t"
    )


@dataclass
class ReplicationResult:
    """Estimates for every measure plus the raw per-run samples."""

    estimates: Dict[str, Estimate]
    samples: Dict[str, List[float]]

    def __getitem__(self, name: str) -> Estimate:
        return self.estimates[name]


def summarize(
    samples: Sequence[float], confidence: float = 0.90
) -> Estimate:
    """Student-t summary of i.i.d. samples."""
    values = np.asarray(list(samples), float)
    runs = len(values)
    if runs == 0:
        raise SimulationError("cannot summarise zero samples")
    mean = float(values.mean())
    if runs == 1:
        return Estimate(mean, math.inf, math.inf, 1, confidence)
    std_dev = float(values.std(ddof=1))
    critical = float(stats.t.ppf(0.5 + confidence / 2.0, runs - 1))
    half_width = critical * std_dev / math.sqrt(runs)
    return Estimate(mean, half_width, std_dev, runs, confidence)


def _summaries(
    samples: Dict[str, List[float]], confidence: float
) -> Dict[str, Estimate]:
    """Student-t summary of every measure's samples."""
    return {
        name: summarize(values, confidence)
        for name, values in samples.items()
    }


def _replication_chunk(
    shared: Any, chunk: Tuple[int, ...]
) -> List[Dict[str, float]]:
    """Run one chunk of independent replications on one simulator.

    Run *k* draws ``generator_for_run(seed, k)`` and nothing else, so a
    run's value depends neither on its chunk, nor on the worker that
    runs it, nor on how many attempts the chunk took.
    """
    lts, measures, clock_semantics, run_length, warmup, seed = shared
    simulator = Simulator(lts, measures, clock_semantics)
    return [
        simulator.run(
            run_length, generator_for_run(seed, index), warmup
        ).measures
        for index in chunk
    ]


def _paired_chunk(
    shared: Any, chunk: Tuple[int, ...]
) -> List[Tuple[Dict[str, float], Dict[str, float]]]:
    """Run one chunk of paired replications (two model variants).

    Run *k* of each variant draws from its own ``RunStreams(seed, k)``.
    With ``crn`` both variants use the same seed, so shared event types
    see the same durations run by run; otherwise the second variant's
    seed is offset by ``0x5EEDC0DE``, which decorrelates its streams
    from the first's (the independent baseline the benchmarks compare
    against).
    """
    (
        lts_first, lts_second, measures, clock_semantics,
        run_length, warmup, seed, crn,
    ) = shared
    sim_first = Simulator(lts_first, measures, clock_semantics)
    sim_second = Simulator(lts_second, measures, clock_semantics)
    seed_second = seed if crn else seed ^ 0x5EEDC0DE
    return [
        (
            sim_first.run(
                run_length, RunStreams(seed, index), warmup
            ).measures,
            sim_second.run(
                run_length, RunStreams(seed_second, index), warmup
            ).measures,
        )
        for index in chunk
    ]


def replicate(
    lts: LTS,
    measures: Sequence[Measure],
    run_length: float,
    runs: int = 30,
    warmup: float = 0.0,
    seed: int = 20040628,
    confidence: float = 0.90,
    clock_semantics: str = "enabling_memory",
    workers: int = 1,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultInjector] = None,
    engine: Optional[str] = None,
) -> ReplicationResult:
    """Independent-replications estimation of all measures.

    The runs go to the executor in contiguous chunks of run indices,
    one chunk per worker
    (:func:`~repro.runtime.executor.contiguous_chunks`); ``workers > 1``
    runs the chunks on a process pool.  Each run draws its stream from the master
    seed by index, so the estimates are bit-identical for any worker
    count, and a chunk that *retry* re-executes after a fault recomputes
    the same values.

    *engine* accepts only ``None`` or ``"reference"``
    (:func:`resolve_engine`).
    """
    if runs < 2:
        raise SimulationError("need at least two runs for an interval")
    resolve_engine(engine)
    executor = ParallelExecutor(workers)
    shared = (lts, measures, clock_semantics, run_length, warmup, seed)
    samples: Dict[str, List[float]] = {m.name: [] for m in measures}
    for batch in executor.map(
        _replication_chunk,
        contiguous_chunks(runs, executor.workers),
        shared=shared,
        retry=retry,
        faults=faults,
        phase="replicate",
    ):
        for measured in batch:
            for name, value in measured.items():
                samples[name].append(value)
    return ReplicationResult(_summaries(samples, confidence), samples)


@dataclass
class PairedReplicationResult:
    """Two variants' estimates plus paired-delta intervals.

    ``delta`` summarises ``first - second`` run by run — with common
    random numbers these intervals are the headline: correlated noise
    cancels in the differences, so they are far narrower than what the
    two marginal intervals would suggest.
    """

    first: ReplicationResult
    second: ReplicationResult
    delta: Dict[str, Estimate]
    delta_samples: Dict[str, List[float]]
    #: Whether the variants shared common random numbers.
    crn: bool

    def __getitem__(self, name: str) -> Estimate:
        return self.delta[name]


def replicate_paired(
    lts_first: LTS,
    lts_second: LTS,
    measures: Sequence[Measure],
    run_length: float,
    runs: int = 30,
    warmup: float = 0.0,
    seed: int = 20040628,
    confidence: float = 0.90,
    clock_semantics: str = "enabling_memory",
    workers: int = 1,
    crn: bool = True,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultInjector] = None,
) -> PairedReplicationResult:
    """Paired replications of two model variants (CRN by default).

    Evaluates the same measures on two models — the paper's DPM-on vs
    DPM-off comparisons — with run *i* of one variant paired against run
    *i* of the other.  With ``crn`` (the default) both variants draw
    from identical per-event-type streams, so event types the models
    share (the workload, the service times) see the same durations run
    by run and the per-run deltas cancel their common noise; the
    benchmarks measure the resulting interval shrinkage.  ``crn=False``
    gives the independent baseline at the same event budget.

    Pairing happens inside each worker chunk, and streams are pure
    functions of ``(seed, run index, event type)``, so results are
    bit-identical for any worker count.
    """
    if runs < 2:
        raise SimulationError("need at least two runs for an interval")
    executor = ParallelExecutor(workers)
    shared = (
        lts_first, lts_second, measures, clock_semantics,
        run_length, warmup, seed, crn,
    )
    names = [m.name for m in measures]
    first_samples: Dict[str, List[float]] = {name: [] for name in names}
    second_samples: Dict[str, List[float]] = {name: [] for name in names}
    for batch in executor.map(
        _paired_chunk,
        contiguous_chunks(runs, executor.workers),
        shared=shared,
        retry=retry,
        faults=faults,
        phase="replicate-paired",
    ):
        for measured_first, measured_second in batch:
            for name in names:
                first_samples[name].append(measured_first[name])
                second_samples[name].append(measured_second[name])
    first = ReplicationResult(
        _summaries(first_samples, confidence), first_samples
    )
    second = ReplicationResult(
        _summaries(second_samples, confidence), second_samples
    )
    delta_samples = {
        name: [
            a - b
            for a, b in zip(first_samples[name], second_samples[name])
        ]
        for name in names
    }
    delta = _summaries(delta_samples, confidence)
    return PairedReplicationResult(
        first, second, delta, delta_samples, crn
    )
