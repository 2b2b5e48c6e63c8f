"""Extension experiments beyond the paper's evaluation.

* ``ext-battery`` — expected battery lifetime of the rpc server with and
  without DPM (first-passage analysis on the battery-extended model), the
  quantity the paper's steady-state energy rates ultimately stand for.
* ``ext-sensitivity`` — how the DPM's energy benefit responds to the
  workload parameters (client processing time and channel loss), the kind
  of what-if exploration the paper's Sect. 6 motivates ("guide the system
  designer in deciding whether it is worth introducing the DPM in a
  certain realistic scenario").
* ``fig7-workloads`` — the fig7 trade-off under Poisson, bursty MMPP and
  heavy-tailed Pareto workloads of the same mean, the trace-driven view
  Q-DPM motivates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


from ..aemilia.semantics import generate_lts
from ..casestudies import rpc
from ..casestudies.rpc import battery
from ..core.methodology import IncrementalMethodology
from ..core.reporting import ascii_chart, format_table
from ..core.tradeoff import TradeoffCurve
from ..ctmc.build import build_ctmc
from ..ctmc.transient import transient_distribution
from ..distributions import Distribution, Exponential, Pareto
from ..workload import MMPPGenerator, TraceReplay, workload_fingerprint
from .figures import RPC
from .results import RunOptions, RuntimeStats


@dataclass
class BatteryLifetimeResult:
    """Lifetime table for several DPM timeouts plus the baseline."""

    timeouts: List[float]
    lifetimes: Dict[float, float]
    nodpm_lifetime: float
    capacity: int

    def extension_factor(self, timeout: float) -> float:
        """Lifetime gain of the DPM at the given timeout."""
        return self.lifetimes[timeout] / self.nodpm_lifetime

    def report(self) -> str:
        rows = [
            [
                timeout,
                self.lifetimes[timeout],
                self.extension_factor(timeout),
            ]
            for timeout in self.timeouts
        ]
        rows.append(["NO-DPM", self.nodpm_lifetime, 1.0])
        table = format_table(
            ["shutdown timeout [ms]", "expected lifetime [ms]", "vs NO-DPM"],
            rows,
            f"=== ext-battery: rpc battery lifetime "
            f"(capacity {self.capacity} units) ===",
        )
        return table + (
            "\nexpected shape: shorter DPM timeouts extend the battery "
            "lifetime, mirroring the steady-state energy savings of fig3"
        )


def battery_lifetime(
    timeouts: Sequence[float] = (1.0, 5.0, 15.0),
    capacity: int = 25,
) -> BatteryLifetimeResult:
    """Run the first-passage lifetime analysis."""
    dpm_archi = battery.dpm_architecture()
    lifetimes = {
        timeout: battery.expected_lifetime(
            dpm_archi,
            {"shutdown_timeout": timeout, "battery_capacity": capacity},
        )
        for timeout in timeouts
    }
    nodpm = battery.expected_lifetime(
        battery.nodpm_architecture(), {"battery_capacity": capacity}
    )
    return BatteryLifetimeResult(list(timeouts), lifetimes, nodpm, capacity)


@dataclass
class SurvivalResult:
    """Battery survival curves: P(battery still alive at t)."""

    times: List[float]
    dpm_survival: List[float]
    nodpm_survival: List[float]
    capacity: int

    def report(self, charts: bool = True) -> str:
        """The survival table, then (with *charts*) its ASCII chart."""
        rows = [
            [t, dpm, nodpm]
            for t, dpm, nodpm in zip(
                self.times, self.dpm_survival, self.nodpm_survival
            )
        ]
        table = format_table(
            ["time [ms]", "P(alive) DPM", "P(alive) NO-DPM"],
            rows,
            f"=== ext-survival: battery survival curves "
            f"(capacity {self.capacity} units, transient analysis) ===",
        )
        if not charts:
            return table
        chart = ascii_chart(
            self.times,
            {"DPM": self.dpm_survival, "NO-DPM": self.nodpm_survival},
            title="battery survival probability over time",
            x_label="time [ms]",
            y_label="P(alive)",
        )
        return table + "\n\n" + chart


def battery_survival(
    times: Sequence[float] = (50.0, 100.0, 200.0, 300.0, 450.0, 600.0),
    capacity: int = 12,
    shutdown_timeout: float = 2.0,
) -> SurvivalResult:
    """P(battery not yet empty at t), DPM vs NO-DPM, by uniformisation.

    The empty-battery states are not absorbing in the model (the system
    idles on), but 'the battery has been empty at some point' equals
    'the battery is empty now' because the charge never increases — so the
    transient mass outside the empty states is exactly the survival
    probability.
    """
    def survival(archi, overrides):
        lts = generate_lts(archi, overrides)
        ctmc = build_ctmc(lts)
        empty = set(battery.empty_battery_states(ctmc))
        values = []
        for t in times:
            pi = transient_distribution(ctmc, t)
            values.append(
                float(sum(pi[s] for s in range(ctmc.num_states)
                          if s not in empty))
            )
        return values

    dpm = survival(
        battery.dpm_architecture(),
        {"battery_capacity": capacity, "shutdown_timeout": shutdown_timeout},
    )
    nodpm = survival(
        battery.nodpm_architecture(), {"battery_capacity": capacity}
    )
    return SurvivalResult(list(times), dpm, nodpm, capacity)


@dataclass
class SensitivityResult:
    """DPM energy saving across a workload-parameter grid."""

    parameter: str
    values: List[float]
    savings: Dict[float, float]
    throughput_costs: Dict[float, float]

    def report(self) -> str:
        rows = [
            [value, self.savings[value], self.throughput_costs[value]]
            for value in self.values
        ]
        return format_table(
            [self.parameter, "energy saving", "throughput cost"],
            rows,
            f"=== ext-sensitivity: DPM benefit vs {self.parameter} "
            f"(rpc Markovian, 5 ms timeout) ===",
        )


def sensitivity(
    parameter: str = "proc_time",
    values: Sequence[float] = (3.0, 6.0, 9.7, 20.0, 40.0),
    timeout: float = 5.0,
) -> SensitivityResult:
    """Sweep a workload parameter; report the DPM's benefit at each point.

    Longer client processing times mean longer server idle periods, hence
    more DPM opportunity; higher loss probabilities mean more
    retransmissions and less idle time.
    """
    methodology = IncrementalMethodology(rpc.family())
    savings: Dict[float, float] = {}
    costs: Dict[float, float] = {}
    for value in values:
        overrides = {parameter: value, "shutdown_timeout": timeout}
        baseline_overrides = {parameter: value}
        dpm = methodology.solve_markovian("dpm", overrides)
        nodpm = methodology.solve_markovian("nodpm", baseline_overrides)
        dpm_epr = dpm["energy"] / dpm["throughput"]
        nodpm_epr = nodpm["energy"] / nodpm["throughput"]
        savings[value] = 1.0 - dpm_epr / nodpm_epr
        costs[value] = 1.0 - dpm["throughput"] / nodpm["throughput"]
    return SensitivityResult(parameter, list(values), savings, costs)


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
    options: Optional[RunOptions] = None,
    checkpoint: Optional[str] = None,
) -> WorkloadTradeoffFigure:
    """The fig7 trade-off swept over three workload classes.

    One :meth:`~repro.core.methodology.IncrementalMethodology.sweep_workloads`
    grid (every (class, timeout) pair is one task, so ``--workers``
    parallelises across classes too); *checkpoint* enables bit-identical
    resume of the whole grid.
    """
    timeouts = list(timeouts if timeouts is not None else RPC.grid)
    options = RunOptions.resolve(options)
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
        checkpoint=checkpoint,
    )
    curves = {}
    for name, series in grid.items():
        derived = RPC.derive(series)
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
