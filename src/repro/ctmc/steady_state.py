"""Steady-state solution of CTMCs.

The numerical work lives in the pluggable backend registry of
:mod:`repro.ctmc.solvers` (``direct``, ``gmres``, ``sor``, ``power``,
or ``auto`` selection by chain size and sparsity — see
docs/SOLVERS.md).  This module handles the chain structure: all
solvers operate on the recurrent class of the chain, the
steady-state distribution assigns probability zero to transient states,
and chains with several bottom strongly connected components have no
unique steady state and are rejected with a descriptive error.

:func:`steady_state` returns the bare distribution;
:func:`steady_state_solution` additionally returns the
:class:`~repro.ctmc.solvers.SolverReport` — which backend solved the
chain, at what residual ``||pi Q||_inf``, in how many iterations — that
the sweep runtime records per point.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse

from ..errors import SolverError
from .chain import CTMC
from .solvers import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_RESIDUAL_TOLERANCE,
    DEFAULT_TOLERANCE,
    SolverReport,
    SteadyStateSolution,
    solve_steady_state,
)


def steady_state_solution(
    ctmc: CTMC,
    method: Optional[str] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOLERANCE,
    track_iterations: bool = False,
    iteration_callback=None,
) -> SteadyStateSolution:
    """Steady-state distribution of *ctmc* plus solver diagnostics.

    ``method=None`` resolves through ``$REPRO_SOLVER`` to ``auto``.  The
    returned distribution covers all states (transient states get
    probability zero); the report's residual is measured on the
    recurrent class.  ``track_iterations`` / ``iteration_callback``
    enable the opt-in per-iteration convergence observation of
    :func:`repro.ctmc.solvers.solve_steady_state` (no-ops for the
    single-state closed form).
    """
    bsccs = ctmc.bottom_strongly_connected_components()
    if len(bsccs) == 0:
        raise SolverError("chain has no bottom strongly connected component")
    if len(bsccs) > 1:
        sizes = ", ".join(str(len(b)) for b in bsccs)
        raise SolverError(
            f"chain has {len(bsccs)} bottom strongly connected components "
            f"(sizes {sizes}); the steady state depends on the initial "
            f"distribution and is not unique"
        )
    recurrent = sorted(bsccs[0])
    if len(recurrent) == 1:
        pi = np.zeros(ctmc.num_states)
        pi[recurrent[0]] = 1.0
        report = SolverReport(
            method="closed_form",
            size=1,
            nnz=0,
            iterations=0,
            residual=0.0,
            mass_defect=0.0,
        )
        return SteadyStateSolution(pi, report)
    index = {state: i for i, state in enumerate(recurrent)}
    sub_q = _submatrix(ctmc, recurrent, index)
    solution = solve_steady_state(
        sub_q,
        method=method,
        tolerance=tolerance,
        residual_tolerance=residual_tolerance,
        max_iterations=max_iterations,
        track_iterations=track_iterations,
        iteration_callback=iteration_callback,
    )
    pi = np.zeros(ctmc.num_states)
    for state, position in index.items():
        pi[state] = solution.pi[position]
    return SteadyStateSolution(pi, solution.report)


def steady_state(
    ctmc: CTMC,
    method: Optional[str] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOLERANCE,
) -> np.ndarray:
    """Compute the steady-state distribution of *ctmc*.

    Returns a probability vector over all states; transient states get
    probability zero.  Use :func:`steady_state_solution` to also obtain
    the solver report (backend, residual, iterations).
    """
    return steady_state_solution(
        ctmc,
        method=method,
        tolerance=tolerance,
        max_iterations=max_iterations,
        residual_tolerance=residual_tolerance,
    ).pi


def _submatrix(ctmc: CTMC, recurrent, index) -> sparse.csr_matrix:
    size = len(recurrent)
    rows, cols, data = [], [], []
    diagonal = np.zeros(size)
    for state in recurrent:
        for transition in ctmc.outgoing(state):
            if transition.target == state:
                continue
            rows.append(index[state])
            cols.append(index[transition.target])
            data.append(transition.rate)
            diagonal[index[state]] -= transition.rate
    for position in range(size):
        rows.append(position)
        cols.append(position)
        data.append(diagonal[position])
    return sparse.csr_matrix((data, (rows, cols)), shape=(size, size))
