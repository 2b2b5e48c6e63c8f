"""Result containers for the experiment harness.

Every figure of the paper is regenerated as a :class:`FigureResult`: the
swept parameter, the per-measure series with and without DPM, and a
rendered plain-text report (tables + ASCII charts).  Benchmarks print the
report; tests assert on the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..core.reporting import ascii_chart, format_table
from ..runtime import FaultInjector, RetryPolicy


@dataclass
class RunOptions:
    """Execution options threaded from the CLI into figure regeneration.

    Bundles everything the reliability layer can vary — worker count,
    retry policy and fault injection (chaos runs) — so the registry only
    ever forwards one object.  The defaults: serial, one attempt per
    task, no faults, no trace file.
    """

    workers: int = 1
    retry: Optional[RetryPolicy] = None
    faults: Optional[FaultInjector] = None
    #: Steady-state backend for Markovian solves (``--solver``); ``None``
    #: resolves through ``$REPRO_SOLVER`` to automatic selection.
    solver: Optional[str] = None
    #: Path prefix for metric exports (``--metrics-out``): the run writes
    #: ``<prefix>.prom`` + ``<prefix>.json`` from the default registry
    #: when it finishes (docs/OBSERVABILITY.md).  ``None`` skips export;
    #: the aggregate metrics are collected either way.
    metrics_out: Optional[str] = None
    #: ``--verbose`` count forwarded to the logging setup.
    verbose: int = 0
    #: Workload distribution injected at the case study's workload hook
    #: in the general phase (``--workload``, docs/WORKLOADS.md); a
    #: :class:`~repro.distributions.Distribution`, often a
    #: :class:`~repro.workload.replay.TraceReplay`.
    workload: Optional[object] = None
    #: Path for the hierarchical span trace (``--trace-out``); the run
    #: streams span records there as JSONL and writes Perfetto / OTLP
    #: views next to it when it finishes (docs/OBSERVABILITY.md).
    trace_out: Optional[str] = None
    #: Path of the persistent run ledger (``--ledger``): the finished
    #: run appends one entry there (``repro-experiments runs``).
    ledger: Optional[str] = None
    #: The installed :class:`repro.obs.tracing.Tracer` when
    #: ``--trace-out`` was given (internal; owned by the CLI).
    span_tracer: Optional[object] = None

    @classmethod
    def resolve(cls, options: Optional["RunOptions"]) -> "RunOptions":
        """*options*, or the defaults when none were given."""
        return options if options is not None else cls()

    def driver_kwargs(self) -> Dict[str, object]:
        """Constructor kwargs every :class:`~repro.core.sweep.SweepDriver`
        takes (also :class:`~repro.fleet.FleetAssessment`)."""
        return {
            "workers": self.workers,
            "retry": self.retry,
            "faults": self.faults,
            "solver": self.solver,
        }

    def methodology_kwargs(self) -> Dict[str, object]:
        """Constructor kwargs for :class:`IncrementalMethodology`."""
        return {
            **self.driver_kwargs(),
            "workload": self.workload,
        }


@dataclass
class RuntimeStats:
    """How an experiment executed: workers, cache effectiveness, phases.

    Snapshot of :meth:`IncrementalMethodology.runtime_stats` taken when
    the figure finished; attached to result objects so reports can show
    where the time went.  Timings and the retry / checkpoint counters
    come from the span totals of :mod:`repro.obs.tracing`.
    """

    workers: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    cache_relabels: int = 0
    timings: Dict[str, Dict[str, float]] = field(default_factory=dict)
    retries: int = 0
    checkpoint_hits: int = 0
    #: Aggregated steady-state solver reports (backend counts, residual
    #: maxima) when the experiment had a Markovian phase.
    solver: Optional[Dict[str, object]] = None

    @classmethod
    def from_methodology(cls, methodology) -> "RuntimeStats":
        snapshot = methodology.runtime_stats()
        cache = snapshot["cache"]
        return cls(
            workers=snapshot["workers"],
            cache_hits=cache["hits"],
            cache_misses=cache["misses"],
            cache_relabels=cache["relabels"],
            timings=snapshot["timings"],
            retries=snapshot["retries"],
            checkpoint_hits=snapshot["checkpoint_hits"],
            solver=snapshot.get("solver"),
        )

    def describe(self) -> str:
        phases = ", ".join(
            f"{name} {info['seconds']:.2f}s"
            for name, info in sorted(self.timings.items())
        )
        reliability = ""
        if self.retries or self.checkpoint_hits:
            reliability = (
                f", retries={self.retries} "
                f"checkpoint hits={self.checkpoint_hits}"
            )
        solver = ""
        if self.solver:
            backends = "+".join(
                f"{name}x{count}"
                for name, count in sorted(self.solver["backends"].items())
            )
            solver = (
                f", solver {backends} "
                f"max residual={self.solver['max_residual']:.2e}"
            )
        return (
            f"runtime: workers={self.workers}, state-space cache "
            f"hits={self.cache_hits} misses={self.cache_misses} "
            f"relabels={self.cache_relabels}"
            + reliability
            + solver
            + (f"; {phases}" if phases else "")
        )


@dataclass
class FigureResult:
    """Data regenerating one figure of the paper."""

    figure_id: str
    title: str
    parameter_name: str
    parameter_values: List[float]
    dpm_series: Dict[str, List[float]]
    nodpm_series: Dict[str, List[float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    runtime: Optional[RuntimeStats] = None

    def series(self, measure: str, variant: str = "dpm") -> List[float]:
        """One plotted series."""
        source = self.dpm_series if variant == "dpm" else self.nodpm_series
        return source[measure]

    def report(self, charts: bool = True) -> str:
        """Render tables (and optionally ASCII charts) for the figure."""
        lines = [f"=== {self.figure_id}: {self.title} ==="]
        headers = [self.parameter_name]
        columns: List[List[float]] = []
        for name, values in self.dpm_series.items():
            headers.append(f"{name} (DPM)")
            columns.append(values)
            if name in self.nodpm_series:
                headers.append(f"{name} (NO-DPM)")
                columns.append(self.nodpm_series[name])
        rows = []
        for position, value in enumerate(self.parameter_values):
            row: List[object] = [value]
            row.extend(column[position] for column in columns)
            rows.append(row)
        lines.append(format_table(headers, rows))
        if charts:
            for name, values in self.dpm_series.items():
                series = {f"{name} DPM": values}
                if name in self.nodpm_series:
                    series[f"{name} NO-DPM"] = self.nodpm_series[name]
                lines.append("")
                lines.append(
                    ascii_chart(
                        self.parameter_values,
                        series,
                        title=f"{self.figure_id} — {name}",
                        x_label=self.parameter_name,
                        y_label=name,
                    )
                )
        if self.notes:
            lines.append("")
            lines.extend(f"note: {note}" for note in self.notes)
        if self.runtime is not None:
            lines.append("")
            lines.append(self.runtime.describe())
        return "\n".join(lines)


def constant_series(value: float, length: int) -> List[float]:
    """Replicate a parameter-independent baseline across a sweep."""
    return [value] * length


def baseline_series(
    point: Mapping[str, float],
    derive: Callable[[Dict[str, List[float]]], Dict[str, List[float]]],
    length: int,
) -> Dict[str, List[float]]:
    """Series of a parameter-independent *point* (the NO-DPM variant):
    its measures plus the *derive*-d indices, each held constant across
    a sweep of *length* points."""
    derived = derive({name: [value] for name, value in point.items()})
    return {
        name: constant_series(values[0], length)
        for name, values in derived.items()
    }


def ratio_series(
    numerators: Sequence[float], denominators: Sequence[float]
) -> List[float]:
    """Element-wise ratio with 0/0 treated as 0."""
    result = []
    for numerator, denominator in zip(numerators, denominators):
        result.append(numerator / denominator if denominator else 0.0)
    return result
