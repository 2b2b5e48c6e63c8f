"""Fleet-scale extension experiments (docs/FLEET.md).

``ext-fleet`` compares the coordinator policies of the N-device fleet
case study across an arrival-rate sweep, solved on the
exchangeability-lumped matrix-free operator, and shows the state-space
collapse the compositional engine buys: the flat product space grows as
``|C| * |S|^N`` while the lumped operator grows polynomially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..casestudies.fleet import (
    ARRIVAL_RATE_SWEEP,
    POLICIES,
    build_model,
)
from ..core.reporting import format_table
from ..fleet import FleetAssessment
from .results import RunOptions

#: Reduced sweep for --quick / CI runs.
QUICK_RATES = (0.5, 1.5, 3.0)
#: Columns worth comparing across policies in the report.
REPORT_MEASURES = (
    "power",
    "throughput",
    "queue_length",
    "job_loss",
    "sleeping_devices",
    "wakeups",
    "handoffs",
)


@dataclass
class FleetPoliciesResult:
    """Per-policy sweep series plus the state-space scaling table."""

    n: int
    rates: List[float]
    series: Dict[str, Dict[str, List[float]]]
    sizes: List[List[object]]

    def report(self) -> str:
        lines = [
            f"=== ext-fleet: {self.n}-device fleet, coordinator "
            "policies (lumped matrix-free solves) ==="
        ]
        for policy in sorted(self.series):
            rows = []
            for index, rate in enumerate(self.rates):
                rows.append(
                    [rate]
                    + [
                        round(self.series[policy][name][index], 6)
                        for name in REPORT_MEASURES
                    ]
                )
            lines.append(
                format_table(
                    ["arrival rate", *REPORT_MEASURES],
                    rows,
                    f"policy: {policy}",
                )
            )
            lines.append("")
        lines.append(
            format_table(
                ["devices", "product states", "lumped states", "ratio"],
                self.sizes,
                "state-space collapse (balanced policy topology)",
            )
        )
        lines.append(
            "expected shape: staggered wake-ups trade throughput for "
            "smoother power draw; the emergency policy's handoffs keep "
            "low-battery devices out of the busy states"
        )
        return "\n".join(lines)


def fleet_policies(
    rates: Optional[Sequence[float]] = None,
    n: int = 4,
    scaling_sizes: Sequence[int] = (2, 4, 7, 10, 16),
    options: Optional[RunOptions] = None,
) -> FleetPoliciesResult:
    """Sweep every coordinator policy over the arrival rate."""
    options = RunOptions.resolve(options)
    rates = list(rates if rates is not None else ARRIVAL_RATE_SWEEP)
    series: Dict[str, Dict[str, List[float]]] = {}
    for policy in sorted(POLICIES):
        assessment = FleetAssessment(
            n, policy=policy, **options.driver_kwargs()
        )
        series[policy] = assessment.sweep("arrival_rate", rates)
    sizes = []
    for size in scaling_sizes:
        topology = build_model(size, "balanced").topology
        sizes.append(
            [
                size,
                topology.product_states,
                topology.lumped_states,
                f"{topology.product_states / topology.lumped_states:.1f}x",
            ]
        )
    return FleetPoliciesResult(n=n, rates=rates, series=series, sizes=sizes)
