"""Event-trace recording for debugging and for the example scripts.

An :class:`EventTraceRecorder` runs a
:class:`~repro.sim.engine.Simulator` with an observer that keeps the
first ``capacity`` events as ``(time, label, state_info)`` triples —
enough to eyeball a trajectory without drowning in output.

Naming note (docs/OBSERVABILITY.md): this records *simulation event
trajectories*; the runtime's work spans are :mod:`repro.obs.tracing`
spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..ctmc.measures import Measure
from ..errors import SimulationError
from ..lts.lts import LTS
from .engine import SimulationResult, Simulator


@dataclass
class TraceEntry:
    """One recorded event firing."""

    time: float
    label: str
    state_info: str

    def __str__(self) -> str:
        return f"t={self.time:10.4f}  {self.label:<50} -> {self.state_info}"


class EventTraceRecorder:
    """Simulate while recording a bounded prefix of the event trace."""

    def __init__(
        self,
        lts: LTS,
        measures: Sequence[Measure] = (),
        capacity: int = 200,
    ):
        if capacity <= 0:
            raise SimulationError("trace capacity must be positive")
        self.lts = lts
        self.capacity = capacity
        self.entries: List[TraceEntry] = []
        self._simulator = Simulator(lts, measures)

    def run(
        self,
        run_length: float,
        rng: np.random.Generator,
        warmup: float = 0.0,
    ) -> SimulationResult:
        """Run a trajectory, recording up to ``capacity`` events."""
        self.entries = []

        def observer(time: float, label: str, target: int) -> None:
            if len(self.entries) < self.capacity:
                self.entries.append(
                    TraceEntry(time, label, self.lts.state_info(target))
                )

        return self._simulator.run(
            run_length, rng, warmup, observer=observer
        )

    def format(self) -> str:
        """Pretty-print the recorded prefix."""
        lines = [str(entry) for entry in self.entries]
        if len(self.entries) == self.capacity:
            lines.append(f"... (trace capped at {self.capacity} events)")
        return "\n".join(lines)
