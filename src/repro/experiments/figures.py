"""The paper's assessment pipeline (Fig. 1), one builder per artifact kind.

Both case studies yield the same five kinds of artifact: the Sect. 3
noninterference check, a Markovian sweep (Fig. 3 left / Fig. 4), a
general-model sweep (Fig. 3 right / Fig. 6), a Sect. 5.1 validation
(Fig. 5 / streaming validation) and an energy trade-off (Fig. 7 /
Fig. 8).  A :class:`Case` declares what differs between the two studies
— the model family, the swept DPM parameter, the derived indices, and
per artifact its report text and effort — and four builders read it:
:func:`noninterference_figure`, :func:`sweep_figure` (Markovian, dense
parametric or general), :func:`validation_figure` and
:func:`tradeoff_figure`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..aemilia.architecture import ArchiType
from ..casestudies import rpc, streaming
from ..core.methodology import IncrementalMethodology, ModelFamily
from ..core.noninterference import NoninterferenceResult, check_noninterference
from ..core.tradeoff import TradeoffCurve
from ..core.validation import ValidationReport
from .results import (
    FigureResult,
    RunOptions,
    RuntimeStats,
    baseline_series,
    ratio_series,
)

Series = Dict[str, List[float]]


@dataclass(frozen=True)
class Figure:
    """Registry entry of one artifact: its ids, report text and effort.

    *title* and *note* are the report's heading and closing remark,
    under *figure_id* (default: the registry *id*; empty for none);
    *defaults* are the builder's keyword arguments for a full run and
    *quick* the ones ``--quick`` passes instead (CI-sized effort).
    """

    id: str
    artifact: str
    title: str
    figure_id: Optional[str] = None
    note: str = ""
    defaults: Mapping[str, object] = field(default_factory=dict)
    quick: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.figure_id is None:
            object.__setattr__(self, "figure_id", self.id)

    @property
    def heading(self) -> str:
        """The report's ``=== … ===`` line."""
        prefix = f"{self.figure_id}: " if self.figure_id else ""
        return f"=== {prefix}{self.title} ==="


@dataclass(frozen=True)
class FunctionalCheck:
    """One Sect. 3 noninterference check of a case study."""

    name: str
    #: ``-- heading:`` line before the diagnostic (``None``: no line).
    heading: Optional[str]
    architecture: Callable[[], ArchiType]
    const_overrides: Optional[Mapping[str, object]] = None


@dataclass(frozen=True)
class Case:
    """Everything in which the two case studies' pipelines differ."""

    name: str
    family: Callable[[], ModelFamily]
    #: The swept DPM constant and its axis label (without the unit, ms).
    parameter: str
    label: str
    grid: Tuple[float, ...]
    quick_grid: Tuple[float, ...]
    #: Raw measure series -> series including the paper's indices.
    derive: Callable[[Series], Series]
    #: The indices the sweep figures plot, in column order.
    indices: Tuple[str, ...]
    #: Trade-off axes: (performance index, energy index).
    tradeoff: Tuple[str, str]
    checks: Tuple[FunctionalCheck, ...]
    #: Artifact kind (``noninterference``, ``markovian``, ``general``,
    #: ``validation``, ``tradeoff`` and optionally ``dense``) -> entry.
    figures: Mapping[str, Figure]


def _methodology(
    case: Case,
    methodology: Optional[IncrementalMethodology],
    options: Optional[RunOptions],
) -> IncrementalMethodology:
    return methodology or IncrementalMethodology(
        case.family(), **RunOptions.resolve(options).methodology_kwargs()
    )


def _settings(
    case: Case,
    kind: str,
    values: Optional[Sequence[float]],
    overrides: Mapping[str, object],
) -> Tuple[List[float], Dict[str, object]]:
    """Grid and methodology keyword arguments of one *kind* of artifact."""
    settings = {**case.figures[kind].defaults, **overrides}
    default = settings.pop("values", case.grid)
    return list(default if values is None else values), settings


@dataclass
class NoninterferenceFigure:
    """Sect. 3: the verdict of each functional check of a case study.

    The verdicts are attributes named after their checks
    (``figure.simplified``); :attr:`result` is a lone check's verdict.
    """

    figure: Figure
    checks: Tuple[FunctionalCheck, ...]
    results: Dict[str, NoninterferenceResult]

    def __getattr__(self, name: str) -> NoninterferenceResult:
        results = self.__dict__.get("results", {})
        if name in results:
            return results[name]
        raise AttributeError(name)

    @property
    def result(self) -> NoninterferenceResult:
        (only,) = self.results.values()
        return only

    def report(self) -> str:
        lines = [self.figure.heading]
        for position, check in enumerate(self.checks):
            if position:
                lines.append("")
            if check.heading is not None:
                lines.append(f"-- {check.heading}:")
            lines.append(self.results[check.name].diagnostic())
        return "\n".join(lines)


def noninterference_figure(case: Case) -> NoninterferenceFigure:
    """Run the functional checks of Sect. 3 on *case*."""
    family = case.family()
    results = {
        check.name: check_noninterference(
            check.architecture(),
            family.high_patterns,
            family.low_patterns,
            const_overrides=check.const_overrides,
        )
        for check in case.checks
    }
    return NoninterferenceFigure(
        case.figures["noninterference"], case.checks, results
    )


def sweep_figure(
    case: Case,
    phase: str,
    values: Optional[Sequence[float]] = None,
    methodology: Optional[IncrementalMethodology] = None,
    options: Optional[RunOptions] = None,
    **simulation,
) -> FigureResult:
    """A DPM sweep over ``case.parameter`` against the NO-DPM baseline.

    *phase* ``markovian`` solves the CTMC per point, ``dense`` is the
    same sweep on a dense grid through the parametric fast path (the
    chain is eliminated once into rational functions), and ``general``
    simulates the general model (*simulation* overrides the run length,
    runs, warm-up and seed of the case's defaults).
    """
    values, settings = _settings(case, phase, values, simulation)
    methodology = _methodology(case, methodology, options)
    if phase == "general":
        dpm = methodology.sweep_general(
            case.parameter, values, "dpm", **settings
        )
        nodpm_rep = methodology.simulate_general("nodpm", **settings)
        nodpm = {name: nodpm_rep[name].mean for name in nodpm_rep.estimates}
    else:
        dpm = methodology.sweep_markovian(
            case.parameter, values, "dpm", **settings
        )
        nodpm = methodology.solve_markovian("nodpm")
    dpm = case.derive(dpm)
    baseline = baseline_series(nodpm, case.derive, len(values))
    figure = case.figures[phase]
    return FigureResult(
        figure_id=figure.figure_id,
        title=figure.title.format(points=len(values)),
        parameter_name=f"{case.label} [ms]",
        parameter_values=values,
        dpm_series={name: dpm[name] for name in case.indices},
        nodpm_series={name: baseline[name] for name in case.indices},
        notes=[figure.note],
        runtime=RuntimeStats.from_methodology(methodology),
    )


@dataclass
class ValidationFigure:
    """Sect. 5.1: general(exp) simulation vs Markovian analytic solution."""

    figure: Figure
    label: str
    values: List[float]
    reports: Dict[float, ValidationReport]
    runtime: Optional[RuntimeStats] = None

    @property
    def passed(self) -> bool:
        return all(report.passed for report in self.reports.values())

    def report(self) -> str:
        lines = [self.figure.heading]
        for value in self.values:
            lines.append(f"-- {self.label} {value} ms:")
            lines.append(str(self.reports[value]))
        lines.append("overall: " + ("PASSED" if self.passed else "FAILED"))
        if self.runtime is not None:
            lines.append(self.runtime.describe())
        return "\n".join(lines)


def validation_figure(
    case: Case,
    values: Optional[Sequence[float]] = None,
    methodology: Optional[IncrementalMethodology] = None,
    options: Optional[RunOptions] = None,
    **simulation,
) -> ValidationFigure:
    """Cross-validate the general model at several parameter values.

    *simulation* overrides the case's validation effort (the paper:
    30 runs, 90% confidence intervals).
    """
    values, settings = _settings(case, "validation", values, simulation)
    methodology = _methodology(case, methodology, options)
    reports = {
        value: methodology.validate({case.parameter: value}, **settings)
        for value in values
    }
    return ValidationFigure(
        case.figures["validation"], case.label, values, reports,
        runtime=RuntimeStats.from_methodology(methodology),
    )


@dataclass
class TradeoffFigure:
    """Figs. 7/8: energy vs performance, Markovian and general curves."""

    figure: Figure
    markov: TradeoffCurve
    general: TradeoffCurve

    def report(self) -> str:
        lines = [self.figure.heading]
        for curve in (self.markov, self.general):
            lines.append(curve.describe())
        lines.append(self.figure.note)
        return "\n".join(lines)


def tradeoff_figure(
    case: Case,
    markov: Optional[FigureResult] = None,
    general: Optional[FigureResult] = None,
    options: Optional[RunOptions] = None,
    values: Optional[Sequence[float]] = None,
    **simulation,
) -> TradeoffFigure:
    """The trade-off curves of the Markovian and general sweeps.

    A sweep not supplied is recomputed on *values* (default: the case's
    full grid), the general one with *simulation* overriding its effort.
    """
    if markov is None or general is None:
        methodology = _methodology(case, None, options)
        if markov is None:
            markov = sweep_figure(
                case, "markovian", values, methodology=methodology
            )
        if general is None:
            general = sweep_figure(
                case, "general", values, methodology=methodology,
                **simulation,
            )
    performance, energy = case.tradeoff
    curves = [
        TradeoffCurve.from_sweep(
            f"{case.name} {kind}",
            sweep.parameter_values,
            sweep.dpm_series[performance],
            sweep.dpm_series[energy],
        )
        for kind, sweep in (("Markov", markov), ("general", general))
    ]
    return TradeoffFigure(case.figures["tradeoff"], *curves)


# -- the two case studies ------------------------------------------------


def _derive_rpc(series: Series) -> Series:
    """Add the paper's derived rpc indices to raw measure series."""
    derived = dict(series)
    derived["energy_per_request"] = ratio_series(
        series["energy"], series["throughput"]
    )
    # Little's law: average waiting time = P(waiting) / throughput.
    derived["avg_waiting_time"] = ratio_series(
        series["waiting_time"], series["throughput"]
    )
    return derived


def _derive_streaming(series: Series) -> Series:
    """The paper's four streaming indices (Sect. 4.2): energy per frame
    (NIC power / frames received, mJ), loss (overflow drops / frames
    produced), miss (real-time violations / frame fetches) and quality
    (1 - miss)."""
    miss = ratio_series(series["frame_misses"], series["frame_gets"])
    return {
        "energy_per_frame": ratio_series(
            series["nic_power"], series["frames_received"]
        ),
        "loss": ratio_series(series["frames_lost"], series["frames_produced"]),
        "miss": miss,
        "quality": [1.0 - value for value in miss],
    }


def dense_grid(grid: Sequence[float], points: int) -> List[float]:
    """Uniform *points*-point grid over the range of *grid*."""
    low, high = min(grid), max(grid)
    step = (high - low) / (points - 1)
    return [low + index * step for index in range(points)]


#: CI-sized subsets of the paper grids (shutdown timeout and awake
#: period, ms); the full grids are the case studies' ``*_SWEEP``.
RPC_QUICK_GRID = (0.5, 2.0, 5.0, 9.0, 11.0, 12.5, 15.0, 25.0)
STREAMING_QUICK_GRID = (10.0, 50.0, 100.0, 200.0, 400.0, 800.0)

RPC = Case(
    name="rpc", family=rpc.family,
    parameter="shutdown_timeout", label="shutdown timeout",
    grid=tuple(rpc.SHUTDOWN_TIMEOUT_SWEEP), quick_grid=RPC_QUICK_GRID,
    derive=_derive_rpc,
    indices=("throughput", "waiting_time", "energy_per_request"),
    tradeoff=("waiting_time", "energy_per_request"),
    checks=(
        FunctionalCheck(
            "simplified", "simplified model (Sect. 2.3, trivial DPM)",
            rpc.functional.simplified_architecture,
        ),
        FunctionalCheck(
            "revised", "revised model (Sect. 3.1, state-aware DPM + timeout)",
            rpc.functional.revised_architecture,
        ),
    ),
    figures={
        "noninterference": Figure(
            "sec3-rpc",
            "Sect. 3.1 noninterference check + distinguishing formula",
            "noninterference analysis of rpc",
        ),
        "markovian": Figure(
            "fig3-markov", "Fig. 3 left: rpc Markovian sweep",
            "rpc Markovian model: throughput / waiting time / energy per "
            "request vs DPM shutdown timeout",
            figure_id="fig3-left",
            note=(
                "expected shape: the shorter the timeout, the larger the DPM "
                "impact; energy/request below NO-DPM everywhere (the DPM is "
                "never counterproductive in the Markovian model); all curves "
                "converge to NO-DPM as the timeout grows"
            ),
            quick={"values": RPC_QUICK_GRID},
        ),
        "general": Figure(
            "fig3-general", "Fig. 3 right: rpc general-model sweep",
            "rpc general model: deterministic timings, Gaussian channel",
            figure_id="fig3-right",
            note=(
                "expected shape: bimodal with the knee at the mean idle "
                f"period ({rpc.DEFAULT_PARAMETERS.mean_idle_period:.1f} ms); "
                "below it energy grows linearly with the timeout while "
                "throughput/waiting stay flat; above it the DPM has no "
                "effect; the DPM is counterproductive (energy/request above "
                "NO-DPM) for timeouts just below the idle period"
            ),
            defaults={"run_length": 20_000.0, "runs": 8, "warmup": 500.0},
            quick={
                "values": RPC_QUICK_GRID, "runs": 4, "run_length": 10_000.0,
            },
        ),
        "validation": Figure(
            "fig5", "Fig. 5: validation of the rpc general model",
            "validation of the rpc general model (exponential plug-in vs "
            "Markovian analytic)",
            defaults={
                "values": (5.0, 15.0, 25.0), "run_length": 20_000.0,
                "runs": 30, "warmup": 500.0,
            },
            quick={"values": (5.0, 15.0), "runs": 8, "run_length": 10_000.0},
        ),
        "tradeoff": Figure(
            "fig7", "Fig. 7: rpc energy/waiting trade-off",
            "rpc energy-per-request vs waiting-time trade-off",
            note=(
                "expected: the general curve contains Pareto-dominated "
                "points (timeouts near the 11.3 ms idle period); the "
                "Markovian curve does not"
            ),
            quick={
                "values": RPC_QUICK_GRID, "runs": 4, "run_length": 10_000.0,
            },
        ),
    },
)

STREAMING = Case(
    name="streaming", family=streaming.family,
    parameter="awake_period", label="awake period",
    grid=tuple(streaming.AWAKE_PERIOD_SWEEP), quick_grid=STREAMING_QUICK_GRID,
    derive=_derive_streaming,
    indices=("energy_per_frame", "loss", "miss", "quality"),
    tradeoff=("miss", "energy_per_frame"),
    # At the reduced buffer capacities of the functional module.
    checks=(
        FunctionalCheck(
            "psp", None, streaming.functional.functional_architecture,
            streaming.functional.FUNCTIONAL_CAPACITIES,
        ),
    ),
    figures={
        "noninterference": Figure(
            "sec3-streaming", "Sect. 3.2 noninterference check (streaming)",
            "noninterference analysis of the PSP-managed NIC",
        ),
        "markovian": Figure(
            "fig4", "Fig. 4: streaming Markovian sweep",
            "streaming Markovian model: energy per frame / loss / miss / "
            "quality vs PSP awake period",
            note=(
                "expected shape: energy per frame falls steeply then "
                "flattens; miss grows and quality falls with the awake "
                "period; loss is non-monotonic (client-side relief vs AP "
                "pressure); around 50 ms the DPM saves ~70% energy at small "
                "quality cost"
            ),
            quick={"values": STREAMING_QUICK_GRID},
        ),
        "dense": Figure(
            "fig4-dense",
            "Fig. 4 on a dense 1000-point grid (parametric fast path)",
            "streaming Markovian model on a dense {points}-point "
            "awake-period grid (parametric steady state)",
            note=(
                "same model and measures as fig4, evaluated on a dense "
                "uniform grid through the one-time rational-function "
                "elimination: the smooth curves resolve the knee of the "
                "energy/quality trade-off between the coarse grid's points"
            ),
            defaults={
                "values": dense_grid(streaming.AWAKE_PERIOD_SWEEP, 1000),
                "method": "parametric",
            },
            quick={"values": dense_grid(streaming.AWAKE_PERIOD_SWEEP, 250)},
        ),
        "general": Figure(
            "fig6", "Fig. 6: streaming general-model sweep",
            "streaming general model: deterministic CBR video, Gaussian "
            "channel, PSP NIC",
            note=(
                "expected shape (Sect. 5.3): no loss up to ~400 ms and no "
                "miss up to ~100 ms awake periods; quality unaffected below "
                "100 ms while energy saving exceeds 70% — the DPM is "
                "transparent at the Aironet 350's 100 ms setting; doubling "
                "to 200 ms degrades quality for negligible marginal saving"
            ),
            defaults={"run_length": 60_000.0, "runs": 6, "warmup": 2_000.0},
            quick={
                "values": STREAMING_QUICK_GRID, "runs": 3,
                "run_length": 30_000.0,
            },
        ),
        "validation": Figure(
            "streaming-validation",
            "Sect. 5.1 protocol applied to the streaming model",
            "streaming validation (exponential plug-in vs Markovian "
            "analytic)",
            figure_id="",
            defaults={
                "values": (50.0, 200.0), "run_length": 30_000.0, "runs": 10,
                "warmup": 1_000.0, "relative_tolerance": 0.15,
            },
            quick={"values": (50.0,), "runs": 6, "run_length": 20_000.0},
        ),
        "tradeoff": Figure(
            "fig8", "Fig. 8: streaming energy/miss trade-off",
            "streaming energy-per-frame vs miss-rate trade-off",
            note=(
                "expected: both curves share the qualitative shape; the "
                "general model offers sizeable energy savings at zero miss "
                "cost (DPM completely transparent for small awake periods)"
            ),
            quick={
                "values": STREAMING_QUICK_GRID, "runs": 3,
                "run_length": 30_000.0,
            },
        ),
    },
)
