"""Fleet assessment: checkpointed, fault-tolerant parameter sweeps.

:class:`FleetAssessment` is the fleet counterpart of
:class:`repro.core.methodology.IncrementalMethodology`: one point solve
(:meth:`solve`) plus a parameter sweep (:meth:`sweep`) declared as a
:class:`~repro.core.sweep.SweepSpec` and run by the shared
:class:`~repro.core.sweep.SweepDriver` — workers-N bit-identical to
serial, with the full reliability surface: bounded retries,
deterministic chaos injection, span tracing and fingerprinted JSONL
checkpoints with SIGKILL-safe resume (docs/RELIABILITY.md).

Each sweep point rebuilds the two *component* automata (a handful of
states each — milliseconds) and solves the lumped or product operator
through the matrix-free registry; nothing of product-space size is ever
constructed.  The checkpoint fingerprint hashes the shared point
payload (fleet size, policy, representation, resolved solver method),
every point's overrides, the built component automata and sync events,
and the fleet measures — and nothing else (notably not the worker
count).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..core.sweep import SweepDriver, SweepSpec
from ..errors import SpecificationError
from ..obs import tracing
from ..runtime import FaultInjector, RetryPolicy
from .solve import REPRESENTATIONS, solve_fleet
from .topology import FleetTopology


class FleetPoint(NamedTuple):
    """Shared payload of a fleet sweep point; every field is identity."""

    n: int
    policy: str
    representation: str
    method: str


def _content(value: Any) -> Any:
    """JSON fallback for :func:`_topology_content`: arrays as nested
    lists, sets sorted (their iteration order varies between processes)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return repr(value)


def _topology_content(topology: FleetTopology) -> str:
    """Canonical printed content of a built fleet topology: both
    component automata (states, local rates, sync-hook matrices) and
    the sync events — everything the Kronecker operator is built from."""
    return json.dumps(asdict(topology), sort_keys=True, default=_content)


def _fleet_point(
    shared: FleetPoint, overrides: Dict[str, float]
) -> Dict[str, object]:
    """Solve one fleet point (executor task, must stay pickleable).

    Rebuilds the component automata with *overrides* folded into the
    Æmilia consts, then solves through
    :func:`repro.fleet.solve.solve_fleet`.
    """
    from ..casestudies.fleet import DEFAULT_PARAMETERS, build_model

    model = build_model(
        shared.n, shared.policy, DEFAULT_PARAMETERS.override(overrides)
    )
    with tracing.span(
        "fleet:solve", representation=shared.representation, **overrides
    ):
        solution = solve_fleet(
            model.topology,
            model.measures,
            representation=shared.representation,
            method=shared.method,
        )
    return {
        "measures": solution.measures,
        "solver": solution.report.as_dict(),
        "operator": {
            "representation": solution.representation,
            "states": solution.operator_states,
            "product_states": solution.product_states,
            "lumped_states": solution.lumped_states,
            "nnz_equivalent": solution.nnz_equivalent,
            "matvecs": solution.matvecs,
        },
    }


class FleetAssessment(SweepDriver):
    """Drives fleet solves and sweeps for one (size, policy) setting."""

    case = "fleet"

    def __init__(
        self,
        n: int,
        policy: str = "balanced",
        workers: Optional[int] = 1,
        representation: str = "lumped",
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        solver: Optional[str] = None,
    ):
        from ..casestudies.fleet import policy as resolve_policy

        resolve_policy(policy)  # fail fast on unknown names
        if representation not in REPRESENTATIONS:
            raise SpecificationError(
                f"unknown fleet representation {representation!r} "
                f"(have: {', '.join(REPRESENTATIONS)})"
            )
        super().__init__(workers, retry, faults, solver)
        self.n = int(n)
        self.policy = policy
        self.representation = representation
        #: Per-point operator diagnostics in execution order.
        self.operator_records: List[Dict[str, object]] = []

    def runtime_stats(self) -> Dict[str, object]:
        """The driver's stats plus the last point's operator shape."""
        stats = super().runtime_stats()
        if self.operator_records:
            stats["operator"] = dict(self.operator_records[-1])
        return stats

    # -- solving -----------------------------------------------------------

    def _point(self, method: Optional[str]) -> FleetPoint:
        return FleetPoint(
            self.n, self.policy, self.representation,
            self._solver_method(method),
        )

    def solve(
        self,
        const_overrides: Optional[Dict[str, float]] = None,
        method: Optional[str] = None,
    ) -> Dict[str, object]:
        """Solve one fleet point; returns the sweep point's payload."""
        result = _fleet_point(
            self._point(method), dict(const_overrides or {})
        )
        self.solver_records.append(result["solver"])
        return result

    def sweep(
        self,
        parameter: str,
        values: Sequence[float],
        const_overrides: Optional[Dict[str, float]] = None,
        method: Optional[str] = None,
        workers: Optional[int] = None,
        checkpoint: Optional[str] = None,
    ) -> Dict[str, List[float]]:
        """Sweep one fleet parameter; series keyed by measure name."""
        from ..casestudies.fleet import DEFAULT_PARAMETERS, build_model
        from ..casestudies.fleet import measures as fleet_measures

        shared = self._point(method)
        base = dict(const_overrides or {})
        items = [{**base, parameter: float(v)} for v in values]
        # Validate the parameter names before any worker sees them.
        first = DEFAULT_PARAMETERS.override(items[0])

        def fold(results: List[Dict[str, Any]]) -> Dict[str, List[float]]:
            series: Dict[str, List[float]] = {}
            for point_result in results:
                self.solver_records.append(point_result["solver"])
                self.operator_records.append(point_result["operator"])
                for name, value in point_result["measures"].items():
                    series.setdefault(name, []).append(value)
            return series

        spec = SweepSpec(
            kind="fleet",
            phase="solve",
            point=_fleet_point,
            shared=shared,
            items=items,
            fold=fold,
            identity={**shared._asdict(), "items": items},
            models=lambda: [
                _topology_content(
                    build_model(self.n, self.policy, first).topology
                )
            ],
            measures=fleet_measures(first),
            attributes={
                "parameter": parameter, "points": len(items),
                "fleet_size": self.n, "policy": self.policy,
                "representation": self.representation,
                "method": shared.method,
            },
        )
        return self.run_sweep(spec, workers, checkpoint)
