"""Output analysis: independent replications and confidence intervals.

The paper's simulation experiments average over 30 independent runs and
report 90% confidence intervals (Fig. 5).  :func:`replicate` reproduces
that protocol: independent seeded streams, optional warm-up deletion,
Student-t intervals per measure.

The replication protocol picks the random streams (docs/SIMULATION.md);
every protocol runs the one GSMP engine, :class:`~repro.sim.engine.Simulator`:

* :func:`replicate` and :func:`replicate_until` give each run its own
  generator derived from ``(seed, run index)`` — the seed discipline
  every committed independent-replication result was produced under;
* :func:`replicate_paired` evaluates two model variants (the paper's
  DPM-on vs DPM-off comparisons) on per-event-type streams
  (:class:`~repro.sim.streams.EventStreamAllocator`).  With **common
  random numbers** both variants draw identical streams, so the two
  trajectories are positively correlated and the per-run
  *differences* — what Sect. 5's tables actually report — have far
  smaller variance than independent runs would give.
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
from ..runtime.executor import ParallelExecutor, RetryPolicy
from ..runtime.faults import FaultInjector
from .engine import Simulator
from .estimators import log_scale_interval, wilson_interval
from .random import generator_for_run, spawn_generators
from .streams import EventStreamAllocator, independent_allocator


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


class _RunningStat:
    """Welford running mean/variance — one instance per measure, updated
    in place so the convergence loop never rebuilds estimator state."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def std_dev(self) -> float:
        if self.count < 2:
            return math.inf
        return math.sqrt(self._m2 / (self.count - 1))


#: Scale below which a mean is "about zero" and a *relative* half-width
#: criterion stops being meaningful.
_ZERO_SCALE = 1e-12

# Per-process simulator reuse for parallel replications.  The shared
# payload is pickled into each worker once; every task in the same batch
# must then reuse the compiled simulator instead of rebuilding it per run.
_WORKER_SIM: Optional[Tuple[Any, Simulator]] = None


def _replication_run(shared: Any, run_index: int) -> Dict[str, float]:
    """Run replication *run_index* of the batch described by *shared*.

    Draws exactly the random stream the serial loop would assign to this
    index, so a parallel batch is bit-identical to the serial one — and a
    *retried* run is bit-identical to a first-try run, because the stream
    is derived from ``(seed, run_index)`` alone, never from how many
    attempts it took to get here.
    """
    global _WORKER_SIM
    lts, measures, clock_semantics, run_length, warmup, seed, start = shared
    if _WORKER_SIM is None or _WORKER_SIM[0] is not shared:
        _WORKER_SIM = (shared, Simulator(lts, measures, clock_semantics))
    simulator = _WORKER_SIM[1]
    rng = generator_for_run(seed, run_index)
    result = simulator.run(run_length, rng, warmup, start_state=start)
    return result.measures


def _seed_worker_sim(shared: Any, simulator: Simulator) -> None:
    """Pre-populate this process's simulator memo (serial path reuse)."""
    global _WORKER_SIM
    _WORKER_SIM = (shared, simulator)


# Per-process simulator pair reuse for paired replications.
_WORKER_PAIR: Optional[Tuple[Any, Tuple[Simulator, Simulator]]] = None


def _run_chunks(runs: int, workers: int) -> List[Tuple[int, ...]]:
    """Contiguous run-index chunks, one per worker (last may be short).

    Every stream is a pure function of ``(seed, run index, event
    type)``, so the chunking never changes any run's numbers.
    """
    if workers <= 1 or runs <= 1:
        return [tuple(range(runs))]
    size = math.ceil(runs / min(workers, runs))
    return [
        tuple(range(lo, min(lo + size, runs)))
        for lo in range(0, runs, size)
    ]


def _paired_batch(
    shared: Any, chunk: Tuple[int, ...]
) -> List[Tuple[Dict[str, float], Dict[str, float]]]:
    """Run one chunk of paired replications (two model variants).

    With ``crn`` the two variants draw from allocators with *identical*
    stream parameters, so shared event types see the same durations run
    by run; otherwise the second variant gets decorrelated streams (the
    independent baseline the benchmarks compare against).
    """
    global _WORKER_PAIR
    (
        lts_first, lts_second, measures, clock_semantics,
        run_length, warmup, seed, crn,
    ) = shared
    if _WORKER_PAIR is None or _WORKER_PAIR[0] is not shared:
        _WORKER_PAIR = (
            shared,
            (
                Simulator(lts_first, measures, clock_semantics),
                Simulator(lts_second, measures, clock_semantics),
            ),
        )
    sim_first, sim_second = _WORKER_PAIR[1]
    alloc_first = EventStreamAllocator(seed, chunk)
    alloc_second = (
        EventStreamAllocator(seed, chunk)
        if crn
        else independent_allocator(seed, chunk)
    )
    return [
        (
            sim_first.run(
                run_length, None, warmup, streams=alloc_first.run_view(row)
            ).measures,
            sim_second.run(
                run_length, None, warmup, streams=alloc_second.run_view(row)
            ).measures,
        )
        for row in range(len(chunk))
    ]


def replicate_until(
    lts: LTS,
    measures: Sequence[Measure],
    run_length: float,
    relative_half_width: float = 0.05,
    absolute_half_width: Optional[float] = None,
    min_runs: int = 5,
    max_runs: int = 200,
    warmup: float = 0.0,
    seed: int = 20040628,
    confidence: float = 0.90,
    clock_semantics: str = "enabling_memory",
    workers: int = 1,
    reuse_warmup_state: bool = True,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultInjector] = None,
) -> ReplicationResult:
    """Sequential replication: run until every measure's confidence
    interval is tight enough (half-width below ``relative_half_width`` of
    the mean), or ``max_runs`` is exhausted.

    Spends simulation effort where the variance is, instead of fixing the
    replication count up front.  With *retry*/*faults* set, a run that
    fails is re-executed (same stream index, hence the same value) before
    anything is recorded: the Welford accumulators and the convergence
    check only ever see each replication index **once**, so a retried run
    can neither double-count nor shift the stopping point — the estimates
    are identical to a fault-free execution.  Three more behaviours worth
    knowing:

    * A measure that is *exactly* constant across runs (zero sample
      standard deviation — e.g. a probability that is identically 0)
      counts as converged.  A measure that is merely *near* zero but
      noisy does **not**: its relative criterion is undefined, so it
      keeps the loop running rather than silently masking
      non-convergence.  That policy makes a *relative* target
      unreachable for a measure whose true value is ~0 (a rare-event
      probability): the loop runs to ``max_runs`` every time.
      ``absolute_half_width`` is the escape hatch — a measure whose
      interval half-width is already below that absolute floor counts
      as converged regardless of how small its mean is, which is the
      right stopping rule for rare probabilities ("know it to within
      1e-4" rather than "know it to within 5% of itself").
    * With ``reuse_warmup_state`` (and ``warmup > 0``) the warm-up
      transient is simulated once and every replication starts from the
      resulting state instead of re-paying the warm-up per run.  The
      warm-up trajectory uses stream index ``max_runs`` so it never
      collides with a replication stream.
    * ``workers > 1`` runs replications in worker-sized batches; the
      sequential stopping rule is applied in run order and any runs past
      the stopping point are discarded, so the estimates are identical
      to a serial execution that stopped at the same run.
    """
    if not 0 < relative_half_width < 1:
        raise SimulationError(
            f"relative_half_width must be in (0, 1), "
            f"got {relative_half_width}"
        )
    if absolute_half_width is not None and absolute_half_width <= 0:
        raise SimulationError(
            f"absolute_half_width must be positive, "
            f"got {absolute_half_width}"
        )
    if min_runs < 2 or max_runs < min_runs:
        raise SimulationError(
            f"need 2 <= min_runs <= max_runs, got {min_runs}, {max_runs}"
        )
    simulator = Simulator(lts, measures, clock_semantics)
    start_state: Optional[int] = None
    run_warmup = warmup
    if reuse_warmup_state and warmup > 0:
        warm = simulator.run(warmup, generator_for_run(seed, max_runs), 0.0)
        start_state = warm.final_state
        run_warmup = 0.0

    names = [m.name for m in measures]
    samples: Dict[str, List[float]] = {name: [] for name in names}
    running = {name: _RunningStat() for name in names}
    criticals: Dict[int, float] = {}

    def record(measured: Dict[str, float]) -> None:
        for name in names:
            value = measured[name]
            samples[name].append(value)
            running[name].add(value)

    def precise_enough() -> bool:
        for stat in running.values():
            if stat.std_dev == 0.0:
                continue  # exactly constant (e.g. identically zero)
            critical = criticals.get(stat.count)
            if critical is None:
                critical = float(
                    stats.t.ppf(0.5 + confidence / 2.0, stat.count - 1)
                )
                criticals[stat.count] = critical
            half_width = critical * stat.std_dev / math.sqrt(stat.count)
            if (
                absolute_half_width is not None
                and half_width <= absolute_half_width
            ):
                continue  # absolute floor reached: converged at any scale
            scale = abs(stat.mean)
            if scale < _ZERO_SCALE:
                return False  # noisy around zero: never call it converged
            if half_width > relative_half_width * scale:
                return False
        return True

    executor = ParallelExecutor(workers)
    shared = (
        lts, measures, clock_semantics, run_length, run_warmup, seed,
        start_state,
    )
    resilience = {}
    if retry is not None or faults is not None:
        resilience = {
            "retry": retry, "faults": faults,
            "phase": "replicate",
        }
        # The resilient serial path routes through _replication_run in
        # this very process: hand it the already-compiled simulator.
        _seed_worker_sim(shared, simulator)
    runs_done = 0
    stop = False
    while runs_done < max_runs and not stop:
        if executor.is_serial and not resilience:
            batch = [
                simulator.run(
                    run_length,
                    generator_for_run(seed, runs_done),
                    run_warmup,
                    start_state=start_state,
                ).measures
            ]
        else:
            span = (
                1
                if executor.is_serial
                else min(executor.workers, max_runs - runs_done)
            )
            batch = executor.map(
                _replication_run,
                range(runs_done, runs_done + span),
                shared=shared,
                chunksize=1,
                **resilience,
            )
        for measured in batch:
            # A run reaches this point exactly once: failed attempts are
            # retried *before* the result is surfaced, so the Welford
            # accumulators never see a replayed replication twice.
            record(measured)
            runs_done += 1
            if runs_done >= min_runs and precise_enough():
                stop = True
                break  # runs past the stopping point are discarded
    estimates = {
        name: summarize(values, confidence)
        for name, values in samples.items()
    }
    return ReplicationResult(estimates, samples)


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

    ``workers > 1`` distributes runs over a process pool.  Each run draws
    its stream from the master seed by index, so the estimates are
    bit-identical to the serial execution.  *retry*/*faults*
    engage the fault-tolerant executor path: failed runs are re-executed
    on the same stream index (same value), so faults and retries cannot
    change the estimates.

    *engine* accepts only ``None`` or ``"reference"``
    (:func:`resolve_engine`).
    """
    if runs < 2:
        raise SimulationError("need at least two runs for an interval")
    resolve_engine(engine)
    samples: Dict[str, List[float]] = {m.name: [] for m in measures}
    executor = ParallelExecutor(workers)
    resilience = {}
    if retry is not None or faults is not None:
        resilience = {
            "retry": retry, "faults": faults,
            "phase": "replicate",
        }
    if executor.is_serial and not resilience:
        simulator = Simulator(lts, measures, clock_semantics)
        for rng in spawn_generators(seed, runs):
            result = simulator.run(run_length, rng, warmup)
            for name, value in result.measures.items():
                samples[name].append(value)
    else:
        shared = (
            lts, measures, clock_semantics, run_length, warmup, seed, None,
        )
        for measured in executor.map(
            _replication_run,
            range(runs),
            shared=shared,
            chunksize=1,
            **resilience,
        ):
            for name, value in measured.items():
                samples[name].append(value)
    estimates = {
        name: summarize(values, confidence)
        for name, values in samples.items()
    }
    return ReplicationResult(estimates, samples)


def summarize_paired(
    first: Sequence[float],
    second: Sequence[float],
    confidence: float = 0.90,
) -> Estimate:
    """Student-t summary of the mean *difference* ``first - second``.

    The paired-t construction: the interval is computed on the per-run
    deltas, so whatever noise the two samples share (common random
    numbers) cancels before the variance is estimated.  With independent
    samples this degrades gracefully to an ordinary difference interval.
    """
    if len(first) != len(second):
        raise SimulationError(
            f"paired samples must align run by run "
            f"({len(first)} vs {len(second)})"
        )
    deltas = [a - b for a, b in zip(first, second)]
    return summarize(deltas, confidence)


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
    resilience = {}
    if retry is not None or faults is not None:
        resilience = {
            "retry": retry, "faults": faults,
            "phase": "replicate-paired",
        }
    shared = (
        lts_first, lts_second, measures, clock_semantics,
        run_length, warmup, seed, crn,
    )
    names = [m.name for m in measures]
    first_samples: Dict[str, List[float]] = {name: [] for name in names}
    second_samples: Dict[str, List[float]] = {name: [] for name in names}
    chunks = _run_chunks(runs, executor.workers)
    for batch in executor.map(
        _paired_batch,
        chunks,
        shared=shared,
        chunksize=1,
        **resilience,
    ):
        for measured_first, measured_second in batch:
            for name in names:
                first_samples[name].append(measured_first[name])
                second_samples[name].append(measured_second[name])
    first = ReplicationResult(
        {
            name: summarize(values, confidence)
            for name, values in first_samples.items()
        },
        first_samples,
    )
    second = ReplicationResult(
        {
            name: summarize(values, confidence)
            for name, values in second_samples.items()
        },
        second_samples,
    )
    delta_samples = {
        name: [
            a - b
            for a, b in zip(first_samples[name], second_samples[name])
        ]
        for name in names
    }
    delta = {
        name: summarize(values, confidence)
        for name, values in delta_samples.items()
    }
    return PairedReplicationResult(
        first, second, delta, delta_samples, crn
    )
