"""Steady-state solver backend benchmark (docs/SOLVERS.md).

Compares every registered backend on the case-study chains (the rpc
model and scaled-up variants of the streaming model) and quantifies the
speedup of the vectorized Gauss-Seidel sweeps over the historical
pure-Python per-row loop on a ~5k-state synthetic chain.  Writes
``BENCH_solvers.json`` next to the repo root.

Runs as a benchmark module (``pytest benchmarks/bench_solvers.py``) or
as a plain script (``python benchmarks/bench_solvers.py``).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
from scipy import sparse

from gates import AS_COMMITTED, RECHECK, Gate, record
from repro.casestudies import rpc, streaming
from repro.core.methodology import IncrementalMethodology
from repro.ctmc import build_ctmc
from repro.ctmc.solvers import available_solvers, solve_steady_state
from repro.ctmc.steady_state import steady_state_solution
from repro.errors import SolverError

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from tests.oracles import gauss_seidel_reference  # noqa: E402

OUTPUT_PATH = ROOT / "BENCH_solvers.json"

#: The chains every backend is compared on: the rpc model and the
#: streaming model at its default and enlarged buffer capacities (the
#: structural knobs that scale its state space).
CASES = [
    ("rpc", rpc.family, {}),
    ("streaming", streaming.family, {"awake_period": 100.0}),
    (
        "streaming-large",
        streaming.family,
        {"awake_period": 100.0, "ap_capacity": 20, "b_capacity": 20},
    ),
]

#: Size of the synthetic chain for the Gauss-Seidel speedup measurement.
SYNTHETIC_SIZE = 5_000

#: Sweep counts for the per-sweep timing (the reference loop is slow, so
#: it gets fewer; the vectorized backend amortises its factorisation).
REFERENCE_SWEEPS = 3
VECTORIZED_SWEEPS = 50

#: Every backend agrees on every chain and reports a small residual for
#: every solve; the vectorized sweeps beat the pure-Python loop >= 10x.
#: The re-measure keeps each state space exact, the direct solve at one
#: iteration, iteration counts within a 2x band (they drift with
#: library versions: ILU fill, GMRES restarts), residuals within 10x of
#: the committed ones (or 1e-9, whichever is looser) and probability
#: mass normalised to 1e-8.
GATES = [
    Gate("cases.*.backends.*.max_diff_vs_first", "<", 1e-9),
    Gate("cases.*.backends.*.residual", "<", 1e-8),
    Gate("gauss_seidel_vectorization.speedup", ">=", 10.0),
    Gate("cases.*.states", "==", AS_COMMITTED, RECHECK),
    Gate("cases.*.backends.direct.iterations", "==", 1, RECHECK),
    *(
        Gate(f"cases.*.backends.{method}.iterations", "band", (0.5, 2.0),
             RECHECK)
        for method in ("gmres", "power", "sor")
    ),
    Gate("cases.*.backends.*.residual", "band", (0.0, 10.0, 1e-9), RECHECK),
    Gate("cases.*.backends.*.mass_defect", ">=", -1e-8, RECHECK),
    Gate("cases.*.backends.*.mass_defect", "<=", 1e-8, RECHECK),
]


def _build_ctmc(family_fn, overrides):
    methodology = IncrementalMethodology(family_fn())
    return build_ctmc(
        methodology.build_lts("markovian", "dpm", overrides or None)
    )


def _case_report(name, family_fn, overrides):
    """Wall-clock, iterations and residual of every backend on one chain."""
    ctmc = _build_ctmc(family_fn, overrides)
    backends = {}
    reference = None
    for method in available_solvers():
        started = time.perf_counter()
        solution = steady_state_solution(ctmc, method=method)
        seconds = time.perf_counter() - started
        if reference is None:
            reference = solution.pi
        backends[method] = {
            "seconds": round(seconds, 5),
            "iterations": solution.report.iterations,
            "residual": solution.report.residual,
            "mass_defect": solution.report.mass_defect,
            "max_diff_vs_first": float(
                np.abs(solution.pi - reference).max()
            ),
        }
    return {
        "states": ctmc.num_states,
        "overrides": {k: v for k, v in overrides.items()},
        "backends": backends,
    }


def synthetic_chain(size: int = SYNTHETIC_SIZE) -> sparse.csr_matrix:
    """An irreducible ~3-transitions-per-state generator submatrix.

    A ring with skip transitions: state ``i`` moves to ``i+1`` (rate 1)
    and to ``i+3`` (rate 0.2), both modulo ``size`` — deterministic,
    sparse, and structurally similar to the layered DPM chains.
    """
    rows, cols, data = [], [], []
    diagonal = np.zeros(size)
    for i in range(size):
        for target, rate in (((i + 1) % size, 1.0), ((i + 3) % size, 0.2)):
            rows.append(i)
            cols.append(target)
            data.append(rate)
            diagonal[i] -= rate
    for i in range(size):
        rows.append(i)
        cols.append(i)
        data.append(diagonal[i])
    return sparse.csr_matrix((data, (rows, cols)), shape=(size, size))


def _per_sweep_seconds_reference(q, sweeps: int) -> float:
    """Time `sweeps` pure-Python Gauss-Seidel sweeps (never converges at
    tolerance 0, so the loop runs exactly `sweeps` times)."""
    started = time.perf_counter()
    try:
        gauss_seidel_reference(q, tolerance=0.0, max_iterations=sweeps)
    except SolverError:
        pass
    return (time.perf_counter() - started) / sweeps


def _per_sweep_seconds_vectorized(q, sweeps: int) -> float:
    """Time `sweeps` vectorized sweeps, factorisation amortised in."""
    started = time.perf_counter()
    try:
        solve_steady_state(
            q, method="sor", tolerance=1e-300, max_iterations=sweeps
        )
    except SolverError:
        pass
    return (time.perf_counter() - started) / sweeps


def _gauss_seidel_speedup_report():
    q = synthetic_chain()
    reference_sweep = _per_sweep_seconds_reference(q, REFERENCE_SWEEPS)
    vectorized_sweep = _per_sweep_seconds_vectorized(q, VECTORIZED_SWEEPS)
    # Fixed-point agreement of the two implementations on this chain.
    pinned = solve_steady_state(q, method="sor")
    return {
        "states": SYNTHETIC_SIZE,
        "nnz": int(q.nnz),
        "reference_seconds_per_sweep": round(reference_sweep, 6),
        "vectorized_seconds_per_sweep": round(vectorized_sweep, 6),
        "speedup": round(reference_sweep / max(vectorized_sweep, 1e-12), 1),
        "vectorized_iterations_to_converge": pinned.report.iterations,
        "vectorized_residual": pinned.report.residual,
    }


def recheck() -> dict:
    """Every backend on every case chain (the reduced re-measure of
    ``bench_regression.py``: no synthetic Gauss-Seidel timing)."""
    return {
        "cases": {
            name: _case_report(name, family_fn, overrides)
            for name, family_fn, overrides in CASES
        }
    }


def collect() -> dict:
    """Run every measurement and return the report dict."""
    return {
        **recheck(),
        "gauss_seidel_vectorization": _gauss_seidel_speedup_report(),
    }


def test_solver_backends(benchmark):
    report = benchmark.pedantic(collect, rounds=1, iterations=1)
    failed = record(GATES, report, OUTPUT_PATH)
    assert not failed, "\n".join(failed)
    vectorization = report["gauss_seidel_vectorization"]
    for name, case in report["cases"].items():
        times = ", ".join(
            f"{method} {record['seconds']}s"
            f" ({record['iterations']} it)"
            for method, record in sorted(case["backends"].items())
        )
        print(f"\n  {name} ({case['states']} states): {times}")
    print(
        f"  gauss-seidel vectorization: "
        f"{vectorization['speedup']}x per sweep on "
        f"{vectorization['states']} states"
    )


if __name__ == "__main__":
    sys.exit(1 if record(GATES, collect(), OUTPUT_PATH) else 0)
