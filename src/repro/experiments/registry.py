"""Registry mapping experiment ids to their regeneration functions.

The ids follow DESIGN.md's per-experiment index.  Every entry returns an
object with a ``report()`` method; ``quick`` selects a reduced sweep /
simulation effort suitable for CI.  The paper-pipeline entries are the
:class:`~repro.experiments.figures.Figure` records of the two case
declarations, which carry their report text and both efforts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..casestudies import rpc, streaming
from ..core.reporting import format_table
from . import extensions, figures, fleet_figures
from .figures import RPC, STREAMING, Case
from .results import RunOptions


@dataclass(frozen=True)
class Experiment:
    """One regenerable artifact of the paper."""

    id: str
    paper_artifact: str
    #: (quick, options) -> result with .report(); the RunOptions carry
    #: workers / retry / fault-injection / tracing and are ignored by
    #: experiments with no sweep or replication phase.
    run: Callable[[bool, RunOptions], object]


class _ParamsTable:
    """The in-text parameter 'tables' of Sect. 4.1/4.2."""

    def report(self) -> str:
        rpc_params = rpc.DEFAULT_PARAMETERS
        streaming_params = streaming.DEFAULT_PARAMETERS
        lines = ["=== tab-params: case-study parameters (paper Sect. 4) ==="]
        lines.append(
            format_table(
                ["rpc parameter", "value [ms]"],
                [
                    ["service time", rpc_params.service_time],
                    ["awaking time", rpc_params.awake_time],
                    ["propagation time", rpc_params.propagation_time],
                    ["loss probability", rpc_params.loss_probability],
                    ["client processing time", rpc_params.processing_time],
                    ["client timeout", rpc_params.timeout_time],
                    ["mean idle period", rpc_params.mean_idle_period],
                ],
            )
        )
        lines.append("")
        lines.append(
            format_table(
                ["streaming parameter", "value"],
                [
                    ["AP buffer size", streaming_params.ap_capacity],
                    ["client buffer size", streaming_params.b_capacity],
                    ["frame period [ms]", streaming_params.frame_period],
                    ["propagation time [ms]", streaming_params.propagation_time],
                    ["loss probability", streaming_params.loss_probability],
                    ["NIC checking time [ms]", streaming_params.check_time],
                    ["NIC awaking time [ms]", streaming_params.nic_awake_time],
                    ["initial client delay [ms]", streaming_params.initial_delay],
                    ["rendering time [ms]", streaming_params.render_period],
                    ["shutdown period [ms]", streaming_params.shutdown_period],
                ],
            )
        )
        return "\n".join(lines)


def _pipeline(case: Case, kind: str) -> Experiment:
    """The registry entry of one pipeline artifact of *case*."""
    figure = case.figures[kind]

    def run(quick: bool, options: Optional[RunOptions] = None) -> object:
        settings = dict(figure.quick) if quick else {}
        if kind == "noninterference":
            return figures.noninterference_figure(case)
        if kind == "validation":
            return figures.validation_figure(case, options=options, **settings)
        if kind == "tradeoff":
            return figures.tradeoff_figure(case, options=options, **settings)
        return figures.sweep_figure(case, kind, options=options, **settings)

    return Experiment(figure.id, figure.artifact, run)


def _experiments() -> List[Experiment]:
    return [
        *(
            _pipeline(case, kind)
            for case in (RPC, STREAMING)
            for kind in case.figures
        ),
        Experiment(
            "fig7-workloads",
            "Fig. 7 extension: rpc trade-off under Poisson / MMPP / "
            "Pareto workloads",
            lambda quick, options=None: extensions.fig7_workloads(
                RPC.quick_grid if quick else None,
                runs=3 if quick else 8,
                run_length=6_000.0 if quick else 20_000.0,
                trace_events=1500 if quick else 4000,
                options=options,
            ),
        ),
        Experiment(
            "tab-params",
            "Sect. 4.1/4.2 parameter sets",
            lambda quick, options=None: _ParamsTable(),
        ),
        Experiment(
            "ext-battery",
            "extension: battery lifetime by first-passage analysis",
            lambda quick, options=None: extensions.battery_lifetime(
                timeouts=(1.0, 5.0) if quick else (1.0, 5.0, 15.0),
                capacity=15 if quick else 25,
            ),
        ),
        Experiment(
            "ext-survival",
            "extension: battery survival curves by transient analysis",
            lambda quick, options=None: extensions.battery_survival(
                times=(
                    (50.0, 150.0, 300.0)
                    if quick
                    else (50.0, 100.0, 200.0, 300.0, 450.0, 600.0)
                ),
                capacity=8 if quick else 12,
            ),
        ),
        Experiment(
            "ext-fleet",
            "extension: N-device fleet coordinator policies "
            "(Kronecker/lumped matrix-free solves)",
            lambda quick, options=None: fleet_figures.fleet_policies(
                rates=fleet_figures.QUICK_RATES if quick else None,
                n=3 if quick else 4,
                options=options,
            ),
        ),
        Experiment(
            "ext-sensitivity",
            "extension: DPM benefit vs workload parameters",
            lambda quick, options=None: extensions.sensitivity(
                values=(6.0, 9.7, 20.0) if quick else (3.0, 6.0, 9.7, 20.0, 40.0),
            ),
        ),
    ]


def all_experiments() -> Dict[str, Experiment]:
    """Registry keyed by experiment id."""
    return {experiment.id: experiment for experiment in _experiments()}
