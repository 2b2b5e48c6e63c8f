"""The per-iteration observer protocol of the iterative solvers.

:class:`IterationSeries` is the reference implementation of the
**per-iteration callback protocol**: any callable
``(iteration, residual, relative_change)`` can be handed to the
iterative steady-state solvers (``solve_steady_state(...,
iteration_callback=...)``) to watch convergence live;
``IterationSeries`` just records the triples.

The hook never touches the computation it observes — values are read
after they are produced, so results are bit-identical with it on or off
(asserted in ``tests/test_obs.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional


class IterationSeries:
    """Collects ``(iteration, residual, relative_change)`` triples."""

    def __init__(self) -> None:
        self.entries: List[Dict[str, object]] = []

    def __call__(
        self,
        iteration: int,
        residual: float,
        relative_change: Optional[float],
    ) -> None:
        self.entries.append(
            {
                "iteration": iteration,
                "residual": residual,
                "relative_change": relative_change,
            }
        )

    def __len__(self) -> int:
        return len(self.entries)

