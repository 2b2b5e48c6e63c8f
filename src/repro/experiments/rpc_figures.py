"""Regeneration of the paper's rpc artifacts (Sect. 3.1, Figs. 3, 5, 7).

Each function returns a :class:`~repro.experiments.results.FigureResult`
(or a richer object) whose ``report()`` prints the same rows/series the
paper plots.  ``quick=True`` shrinks simulation effort for test/benchmark
runs; the shapes are stable either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..casestudies import rpc
from ..core.methodology import IncrementalMethodology
from ..core.noninterference import NoninterferenceResult, check_noninterference
from ..core.tradeoff import TradeoffCurve
from ..core.validation import ValidationReport
from ..distributions import Distribution, Exponential, Pareto
from ..workload import MMPPGenerator, TraceReplay, workload_fingerprint
from .results import (
    FigureResult,
    RunOptions,
    RuntimeStats,
    baseline_series,
    ratio_series,
)

#: Paper sweep: DPM shutdown timeout in ms (0..25 in the paper; exactly 0
#: would be an infinite exponential rate).
DEFAULT_TIMEOUTS = rpc.SHUTDOWN_TIMEOUT_SWEEP
QUICK_TIMEOUTS = [0.5, 2.0, 5.0, 9.0, 11.0, 12.5, 15.0, 25.0]


@dataclass
class NoninterferenceFigure:
    """The Sect. 3.1 experiment: simplified fails, revised passes."""

    simplified: NoninterferenceResult
    revised: NoninterferenceResult

    def report(self) -> str:
        lines = ["=== sec3-rpc: noninterference analysis of rpc ==="]
        lines.append("-- simplified model (Sect. 2.3, trivial DPM):")
        lines.append(self.simplified.diagnostic())
        lines.append("")
        lines.append("-- revised model (Sect. 3.1, state-aware DPM + timeout):")
        lines.append(self.revised.diagnostic())
        return "\n".join(lines)


def sec3_noninterference() -> NoninterferenceFigure:
    """Run the two functional checks of Sect. 3.1."""
    simplified = check_noninterference(
        rpc.functional.simplified_architecture(),
        rpc.functional.HIGH_PATTERNS,
        rpc.functional.LOW_PATTERNS,
    )
    revised = check_noninterference(
        rpc.functional.revised_architecture(),
        rpc.functional.HIGH_PATTERNS,
        rpc.functional.LOW_PATTERNS,
    )
    return NoninterferenceFigure(simplified, revised)


def _derive_rpc(series: Dict[str, List[float]]) -> Dict[str, List[float]]:
    """Add the paper's derived indices to raw measure series."""
    derived = dict(series)
    derived["energy_per_request"] = ratio_series(
        series["energy"], series["throughput"]
    )
    # Little's law: average waiting time = P(waiting) / throughput.
    derived["avg_waiting_time"] = ratio_series(
        series["waiting_time"], series["throughput"]
    )
    return derived


def fig3_markov(
    timeouts: Optional[Sequence[float]] = None,
    methodology: Optional[IncrementalMethodology] = None,
    workers: Optional[int] = None,
    options: Optional[RunOptions] = None,
) -> FigureResult:
    """Fig. 3 (left): rpc Markovian comparison, DPM vs NO-DPM."""
    timeouts = list(timeouts if timeouts is not None else DEFAULT_TIMEOUTS)
    options = RunOptions.resolve(options, workers)
    methodology = methodology or IncrementalMethodology(
        rpc.family(), **options.methodology_kwargs()
    )
    dpm = methodology.sweep_markovian(
        "shutdown_timeout", timeouts, "dpm", workers=workers
    )
    nodpm = baseline_series(
        methodology.solve_markovian("nodpm"), _derive_rpc, len(timeouts)
    )
    dpm = _derive_rpc(dpm)
    return FigureResult(
        figure_id="fig3-left",
        title="rpc Markovian model: throughput / waiting time / energy "
        "per request vs DPM shutdown timeout",
        parameter_name="shutdown timeout [ms]",
        parameter_values=timeouts,
        dpm_series={
            "throughput": dpm["throughput"],
            "waiting_time": dpm["waiting_time"],
            "energy_per_request": dpm["energy_per_request"],
        },
        nodpm_series={
            "throughput": nodpm["throughput"],
            "waiting_time": nodpm["waiting_time"],
            "energy_per_request": nodpm["energy_per_request"],
        },
        notes=[
            "expected shape: the shorter the timeout, the larger the DPM "
            "impact; energy/request below NO-DPM everywhere (the DPM is "
            "never counterproductive in the Markovian model); all curves "
            "converge to NO-DPM as the timeout grows",
        ],
        runtime=RuntimeStats.from_methodology(methodology),
    )


def fig3_general(
    timeouts: Optional[Sequence[float]] = None,
    methodology: Optional[IncrementalMethodology] = None,
    run_length: float = 20_000.0,
    runs: int = 8,
    warmup: float = 500.0,
    seed: int = 20040628,
    workers: Optional[int] = None,
    options: Optional[RunOptions] = None,
) -> FigureResult:
    """Fig. 3 (right): rpc general model (deterministic + Gaussian delays)."""
    timeouts = list(timeouts if timeouts is not None else DEFAULT_TIMEOUTS)
    options = RunOptions.resolve(options, workers)
    methodology = methodology or IncrementalMethodology(
        rpc.family(), **options.methodology_kwargs()
    )
    dpm = methodology.sweep_general(
        "shutdown_timeout",
        timeouts,
        "dpm",
        run_length=run_length,
        runs=runs,
        warmup=warmup,
        seed=seed,
        workers=workers,
    )
    nodpm_rep = methodology.simulate_general(
        "nodpm",
        run_length=run_length,
        runs=runs,
        warmup=warmup,
        seed=seed,
        workers=workers,
    )
    nodpm = baseline_series(
        {name: nodpm_rep[name].mean for name in nodpm_rep.estimates},
        _derive_rpc,
        len(timeouts),
    )
    dpm = _derive_rpc(dpm)
    mean_idle = rpc.DEFAULT_PARAMETERS.mean_idle_period
    return FigureResult(
        figure_id="fig3-right",
        title="rpc general model: deterministic timings, Gaussian channel",
        parameter_name="shutdown timeout [ms]",
        parameter_values=timeouts,
        dpm_series={
            "throughput": dpm["throughput"],
            "waiting_time": dpm["waiting_time"],
            "energy_per_request": dpm["energy_per_request"],
        },
        nodpm_series={
            "throughput": nodpm["throughput"],
            "waiting_time": nodpm["waiting_time"],
            "energy_per_request": nodpm["energy_per_request"],
        },
        notes=[
            f"expected shape: bimodal with the knee at the mean idle "
            f"period ({mean_idle:.1f} ms); below it energy grows linearly "
            f"with the timeout while throughput/waiting stay flat; above "
            f"it the DPM has no effect; the DPM is counterproductive "
            f"(energy/request above NO-DPM) for timeouts just below the "
            f"idle period",
        ],
        runtime=RuntimeStats.from_methodology(methodology),
    )


@dataclass
class ValidationFigure:
    """Fig. 5: general(exp) simulation vs Markovian analytic solution."""

    timeouts: List[float]
    reports: Dict[float, ValidationReport]
    runtime: Optional[RuntimeStats] = None

    @property
    def passed(self) -> bool:
        return all(report.passed for report in self.reports.values())

    def report(self) -> str:
        lines = [
            "=== fig5: validation of the rpc general model "
            "(exponential plug-in vs Markovian analytic) ==="
        ]
        for timeout in self.timeouts:
            lines.append(f"-- shutdown timeout {timeout} ms:")
            lines.append(str(self.reports[timeout]))
        lines.append(
            "overall: " + ("PASSED" if self.passed else "FAILED")
        )
        if self.runtime is not None:
            lines.append(self.runtime.describe())
        return "\n".join(lines)


def fig5_validation(
    timeouts: Optional[Sequence[float]] = None,
    methodology: Optional[IncrementalMethodology] = None,
    run_length: float = 20_000.0,
    runs: int = 30,
    warmup: float = 500.0,
    seed: int = 20040628,
    workers: Optional[int] = None,
    options: Optional[RunOptions] = None,
) -> ValidationFigure:
    """Fig. 5: cross-validation at several shutdown timeouts (30 runs,
    90% confidence intervals, as in the paper)."""
    timeouts = list(timeouts if timeouts is not None else [5.0, 15.0, 25.0])
    options = RunOptions.resolve(options, workers)
    methodology = methodology or IncrementalMethodology(
        rpc.family(), **options.methodology_kwargs()
    )
    reports = {}
    for timeout in timeouts:
        reports[timeout] = methodology.validate(
            {"shutdown_timeout": timeout},
            run_length=run_length,
            runs=runs,
            warmup=warmup,
            seed=seed,
            workers=workers,
        )
    return ValidationFigure(
        list(timeouts),
        reports,
        runtime=RuntimeStats.from_methodology(methodology),
    )


@dataclass
class TradeoffFigure:
    """Fig. 7: energy/waiting-time trade-off, Markov + general curves."""

    markov: TradeoffCurve
    general: TradeoffCurve

    def report(self) -> str:
        lines = [
            "=== fig7: rpc energy-per-request vs waiting-time trade-off ==="
        ]
        for curve in (self.markov, self.general):
            lines.append(curve.describe())
        lines.append(
            "expected: the general curve contains Pareto-dominated points "
            "(timeouts near the 11.3 ms idle period); the Markovian curve "
            "does not"
        )
        return "\n".join(lines)


def fig7_tradeoff(
    markov_figure: Optional[FigureResult] = None,
    general_figure: Optional[FigureResult] = None,
    workers: Optional[int] = None,
    options: Optional[RunOptions] = None,
    **general_kwargs,
) -> TradeoffFigure:
    """Fig. 7 from the fig3 sweeps (recomputing them if not supplied)."""
    options = RunOptions.resolve(options, workers)
    methodology = IncrementalMethodology(
        rpc.family(), **options.methodology_kwargs()
    )
    if markov_figure is None:
        markov_figure = fig3_markov(methodology=methodology)
    if general_figure is None:
        general_figure = fig3_general(
            methodology=methodology, **general_kwargs
        )
    markov = TradeoffCurve.from_sweep(
        "rpc Markov",
        markov_figure.parameter_values,
        markov_figure.dpm_series["waiting_time"],
        markov_figure.dpm_series["energy_per_request"],
    )
    general = TradeoffCurve.from_sweep(
        "rpc general",
        general_figure.parameter_values,
        general_figure.dpm_series["waiting_time"],
        general_figure.dpm_series["energy_per_request"],
    )
    return TradeoffFigure(markov, general)


def workload_classes(
    mean: float, seed: int = 20040628, trace_events: int = 4000
) -> Dict[str, Distribution]:
    """The three workload classes of the fig7 extension, mean-matched.

    All three have the same mean interarrival *mean* (the rpc client's
    processing time), so only the *shape* of the workload differs:

    * ``poisson`` — the Markovian assumption (cv2 = 1);
    * ``mmpp`` — a cycle-mode replay of a generated 2-state MMPP trace
      rescaled to the target mean (bursty, cv2 > 4, positively
      correlated — the kind of process Q-DPM measures on real devices);
    * ``pareto`` — Pareto(1.5, mean/3) heavy-tail (infinite variance).
    """
    trace = MMPPGenerator(2.0, 0.05, 5.0, 50.0).generate(
        trace_events, seed
    ).rescaled(mean)
    return {
        "poisson": Exponential(1.0 / mean),
        "mmpp": TraceReplay(trace, "cycle"),
        "pareto": Pareto(1.5, mean / 3.0),
    }


@dataclass
class WorkloadTradeoffFigure:
    """Fig. 7 extension: one trade-off curve per workload class."""

    curves: Dict[str, TradeoffCurve]
    workloads: Dict[str, str]
    parameter_values: List[float]
    runtime: Optional[RuntimeStats] = None

    def report(self) -> str:
        lines = [
            "=== fig7-workloads: rpc energy/waiting trade-off under "
            "Poisson vs MMPP-bursty vs Pareto heavy-tail workloads ==="
        ]
        for name, curve in self.curves.items():
            lines.append(f"-- workload {name} ({self.workloads[name]}):")
            lines.append(curve.describe())
        lines.append(
            "expected: all classes share the mean processing time, so "
            "differences are pure workload shape; the bursty and "
            "heavy-tail curves shift the counterproductive-timeout "
            "region relative to Poisson (cf. Q-DPM's trace-driven DPM "
            "evaluation)"
        )
        if self.runtime is not None:
            lines.append(self.runtime.describe())
        return "\n".join(lines)


def fig7_workloads(
    timeouts: Optional[Sequence[float]] = None,
    methodology: Optional[IncrementalMethodology] = None,
    run_length: float = 20_000.0,
    runs: int = 8,
    warmup: float = 500.0,
    seed: int = 20040628,
    trace_events: int = 4000,
    workers: Optional[int] = None,
    options: Optional[RunOptions] = None,
    checkpoint: Optional[str] = None,
) -> WorkloadTradeoffFigure:
    """The fig7 trade-off swept over three workload classes.

    One :meth:`~repro.core.methodology.IncrementalMethodology.sweep_workloads`
    grid (every (class, timeout) pair is one task, so ``--workers``
    parallelises across classes too); *checkpoint* enables bit-identical
    resume of the whole grid.
    """
    timeouts = list(timeouts if timeouts is not None else DEFAULT_TIMEOUTS)
    options = RunOptions.resolve(options, workers)
    methodology = methodology or IncrementalMethodology(
        rpc.family(), **options.methodology_kwargs()
    )
    classes = workload_classes(
        rpc.DEFAULT_PARAMETERS.processing_time, seed, trace_events
    )
    grid = methodology.sweep_workloads(
        classes,
        "shutdown_timeout",
        timeouts,
        run_length=run_length,
        runs=runs,
        warmup=warmup,
        seed=seed,
        workers=workers,
        checkpoint=checkpoint,
    )
    curves = {}
    for name, series in grid.items():
        derived = _derive_rpc(series)
        curves[name] = TradeoffCurve.from_sweep(
            f"rpc {name}",
            timeouts,
            derived["waiting_time"],
            derived["energy_per_request"],
        )
    return WorkloadTradeoffFigure(
        curves,
        {name: workload_fingerprint(dist) for name, dist in classes.items()},
        timeouts,
        runtime=RuntimeStats.from_methodology(methodology),
    )
