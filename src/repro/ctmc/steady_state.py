"""Steady-state solution of CTMCs.

The numerical work lives in the pluggable backend registry of
:mod:`repro.ctmc.solvers` (``direct``, ``gmres``, ``sor``, ``power``,
or ``auto`` selection by chain size and sparsity — see
docs/SOLVERS.md).  This module handles the chain structure: all
solvers operate on the recurrent class of the chain, the
steady-state distribution assigns probability zero to transient states,
and chains with several bottom strongly connected components have no
unique steady state and are rejected with a descriptive error.  The
components and the recurrent submatrix's index arrays are cached on the
chain's :class:`~repro.ctmc.chain.ChainPattern`, so the sweep points of
one elimination plan find them once.

:func:`steady_state_solution` returns the distribution (``.pi``) with
the :class:`~repro.ctmc.solvers.SolverReport` — which backend solved the
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
    iteration_callback=None,
) -> SteadyStateSolution:
    """Steady-state distribution of *ctmc* plus solver diagnostics.

    ``method=None`` resolves through ``$REPRO_SOLVER`` to ``auto``.  The
    returned distribution covers all states (transient states get
    probability zero); the report's residual is measured on the
    recurrent class.  ``iteration_callback`` enables the opt-in
    per-iteration convergence observation of
    :func:`repro.ctmc.solvers.solve_steady_state` (a no-op for the
    single-state closed form).
    """
    bsccs = ctmc.pattern.bsccs
    if len(bsccs) > 1:
        sizes = ", ".join(str(len(b)) for b in bsccs)
        raise SolverError(
            f"chain has {len(bsccs)} bottom strongly connected components "
            f"(sizes {sizes}); the steady state depends on the initial "
            f"distribution and is not unique"
        )
    recurrent = ctmc.pattern.recurrent_class().states
    pi = np.zeros(ctmc.num_states)
    if len(recurrent) == 1:
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
    solution = solve_steady_state(
        recurrent_generator(ctmc),
        method=method,
        tolerance=tolerance,
        residual_tolerance=residual_tolerance,
        max_iterations=max_iterations,
        iteration_callback=iteration_callback,
    )
    pi[recurrent] = solution.pi
    return SteadyStateSolution(pi, solution.report)


def recurrent_generator(ctmc: CTMC) -> sparse.csr_matrix:
    """The generator over the chain's (first) recurrent class, in its
    sorted state order.

    The index arrays are cached on the chain's pattern; the diagonal
    sums each row's rates in entry order (``bincount`` adds
    sequentially) and ``0.0 - sum`` never yields ``-0.0``.
    """
    recurrent = ctmc.pattern.recurrent_class()
    size = len(recurrent.states)
    rates = ctmc.rates[recurrent.entries]
    diagonal = 0.0 - np.bincount(recurrent.rows, weights=rates, minlength=size)
    positions = np.arange(size)
    return sparse.csr_matrix(
        (
            np.concatenate((rates, diagonal)),
            (
                np.concatenate((recurrent.rows, positions)),
                np.concatenate((recurrent.cols, positions)),
            ),
        ),
        shape=(size, size),
    )
