"""Reference implementations the tests and benchmarks compare against.

:func:`gauss_seidel_reference` is the historical pure-Python
Gauss-Seidel sweep, verbatim.  It is not a solver backend: the sor
fixed-point pin in ``tests/test_solvers.py`` checks that the vectorized
``sor`` backend reaches its fixed point, and
``benchmarks/bench_solvers.py`` times it to quantify the speedup.
"""

import numpy as np
from scipy import sparse

from repro.ctmc.solvers import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE
from repro.errors import SolverError


def gauss_seidel_reference(
    q: sparse.csr_matrix,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> np.ndarray:
    """The historical pure-Python Gauss-Seidel sweep, verbatim.

    Note it retains the historical *absolute* convergence test.
    """
    size = q.shape[0]
    qt = q.transpose().tocsr()
    diag = qt.diagonal()
    if np.any(diag == 0):
        raise SolverError(
            "Gauss-Seidel needs non-zero diagonal entries (absorbing state?)"
        )
    pi = np.full(size, 1.0 / size)
    indptr, indices, data = qt.indptr, qt.indices, qt.data
    for _ in range(max_iterations):
        old = pi.copy()
        for row in range(size):
            acc = 0.0
            for position in range(indptr[row], indptr[row + 1]):
                column = indices[position]
                if column != row:
                    acc += data[position] * pi[column]
            pi[row] = -acc / diag[row]
        total = pi.sum()
        if total <= 0:
            raise SolverError("Gauss-Seidel diverged to a non-positive vector")
        pi /= total
        if np.max(np.abs(pi - old)) < tolerance:
            return pi
    raise SolverError(
        f"Gauss-Seidel did not converge within {max_iterations} iterations"
    )
