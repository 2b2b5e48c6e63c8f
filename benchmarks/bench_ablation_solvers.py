"""Ablation: steady-state solver choice (DESIGN.md decision #4).

Compares every registered backend (direct sparse LU, ILU-preconditioned
GMRES, vectorized Gauss-Seidel and uniformised power iteration) on the
streaming Markovian chain — the largest CTMC in the repository — for
both speed and agreement.  Since the Gauss-Seidel sweeps were vectorized
(see docs/SOLVERS.md and benchmarks/bench_solvers.py) they run on the
full chain; the historical pure-Python loop needed a reduced-buffer
variant here.
"""

import numpy as np
import pytest

from repro.casestudies.streaming import family
from repro.core import IncrementalMethodology
from repro.ctmc import build_ctmc, steady_state_solution
from repro.ctmc.solvers import available_solvers


@pytest.fixture(scope="module")
def streaming_ctmc():
    methodology = IncrementalMethodology(family())
    lts = methodology.build_lts("markovian", "dpm", {"awake_period": 100.0})
    return build_ctmc(lts)


@pytest.mark.parametrize("method", available_solvers())
def test_solver(benchmark, streaming_ctmc, method):
    pi = benchmark.pedantic(
        lambda: steady_state_solution(
            streaming_ctmc, method=method, tolerance=1e-10
        ).pi,
        rounds=1,
        iterations=1,
    )
    reference = steady_state_solution(streaming_ctmc, method="direct").pi
    assert np.abs(pi - reference).max() < 1e-6
    assert pi.sum() == pytest.approx(1.0)
