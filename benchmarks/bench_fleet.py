"""Fleet-scale compositional benchmark (docs/FLEET.md).

Quantifies the two promises of the fleet engine:

* **scale** — a 7-device fleet whose flat product space holds
  10,485,760 states (coordinator x 8^7, far past anything a
  materialized generator could touch) must solve to the standard
  convergence contract through the exchangeability-lumped matrix-free
  operator, which collapses the chain to 17,160 states *before* any
  operator exists;
* **agreement** — at the sizes where the flat BFS oracle is tractable
  (N in {2, 3, 4}) the lumped and Kronecker-product representations
  must agree with the independently enumerated flat chain to 1e-9 on
  every reward measure.

Writes ``BENCH_fleet.json`` next to the repo root.  Runs as a
benchmark module (``pytest benchmarks/bench_fleet.py``) or as a plain
script (``python benchmarks/bench_fleet.py``).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from gates import ALL, AS_COMMITTED, RECHECK, Field, Gate, record
from repro.casestudies.fleet import build_model
from repro.ctmc.steady_state import steady_state_solution
from repro.fleet import build_flat_topology, evaluate_flat, solve_fleet

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

SCALE_FLEET_SIZE = 7
SCALE_POLICY = "balanced"

#: Sizes where the flat enumeration oracle stays tractable.
AGREEMENT_SIZES = (2, 3, 4)
#: The full Kronecker product is solved alongside the lumped operator
#: up to this size (beyond it the product solve adds minutes, and the
#: product-vs-flat differential is already pinned by tests).
PRODUCT_SIZES = (2, 3)

#: Acceptance gates of the fleet work (docs/FLEET.md): the scale
#: fleet's *pre-lumping* product space tops a million states, the solve
#: honours the convergence contract (residual <= 1e-10 times the
#: generator's diagonal scale) matrix-free, and every representation
#: agrees with the flat oracle to 1e-9 wherever the oracle is
#: tractable.  The re-measure keeps the recorded state-space structure,
#: the matvec count within a 2x band and the residual within 10x of the
#: committed one (or 1e-9, whichever is looser).
GATES = [
    Gate("scale.product_states", ">=", 1_000_000),
    Gate("scale.product_states", "==", AS_COMMITTED, RECHECK),
    Gate("scale.lumped_states", "==", AS_COMMITTED, RECHECK),
    Gate("scale.solver.method", "in", ("gmres", "power"), ALL),
    Gate(
        "scale.solver.residual", "<=", Field("scale.diagonal_scale", 1e-10)
    ),
    Gate("scale.solver.residual", "band", (0.0, 10.0, 1e-9), RECHECK),
    Gate("scale.solver.matvecs", "band", (0.5, 2.0), RECHECK),
    Gate("agreement.*.lumped_vs_flat", "<=", 1e-9, ALL),
    Gate("agreement.*.product_vs_flat", "<=", 1e-9),
]


def _flat_measures(model):
    """Measures from the independent flat-enumeration oracle.

    Solved with the SOR backend: the product-structured flat chain
    suffers catastrophic ILU/LU fill-in, and SOR is fully disjoint
    from the matrix-free gmres/power backends being benchmarked.
    """
    flat = build_flat_topology(model.topology)
    solution = steady_state_solution(flat.ctmc, method="sor")
    return evaluate_flat(model.measures, solution.pi, flat)


def _worst_gap(left, right) -> float:
    """Largest absolute disagreement across the shared measures."""
    assert set(left) == set(right)
    return max(abs(left[name] - right[name]) for name in left)


def _solution_record(solution, seconds: float) -> dict:
    return {
        "method": solution.report.method,
        "iterations": solution.report.iterations,
        "residual": solution.report.residual,
        "matvecs": solution.matvecs,
        "nnz_equivalent": solution.nnz_equivalent,
        "seconds": round(seconds, 4),
    }


def _scale_report() -> dict:
    """The million-state fleet solved matrix-free through lumping."""
    model = build_model(SCALE_FLEET_SIZE, SCALE_POLICY)
    topology = model.topology
    started = time.perf_counter()
    solution = solve_fleet(topology, model.measures)
    seconds = time.perf_counter() - started
    # The contract's scale factor: the lumped generator's largest
    # diagonal magnitude (recomputed here so the gate is explicit).
    from repro.fleet import LumpedFleet

    diagonal_scale = max(
        1.0, float(np.abs(LumpedFleet(topology).operator().diagonal()).max())
    )
    return {
        "fleet_size": SCALE_FLEET_SIZE,
        "policy": SCALE_POLICY,
        "representation": solution.representation,
        "product_states": topology.product_states,
        "lumped_states": topology.lumped_states,
        "compression": round(
            topology.product_states / topology.lumped_states, 1
        ),
        "diagonal_scale": diagonal_scale,
        "solver": _solution_record(solution, seconds),
        "measures": dict(sorted(solution.measures.items())),
    }


def _agreement_report() -> list:
    """Lumped (and product) representations vs the flat oracle."""
    entries = []
    for n in AGREEMENT_SIZES:
        model = build_model(n, "balanced")
        flat = _flat_measures(model)
        started = time.perf_counter()
        lumped = solve_fleet(model.topology, model.measures)
        lumped_seconds = time.perf_counter() - started
        entry = {
            "fleet_size": n,
            "product_states": model.topology.product_states,
            "lumped_states": model.topology.lumped_states,
            "lumped_vs_flat": _worst_gap(lumped.measures, flat),
            "lumped_solver": _solution_record(lumped, lumped_seconds),
        }
        if n in PRODUCT_SIZES:
            started = time.perf_counter()
            product = solve_fleet(
                model.topology, model.measures, representation="product"
            )
            product_seconds = time.perf_counter() - started
            entry["product_vs_flat"] = _worst_gap(product.measures, flat)
            entry["product_solver"] = _solution_record(
                product, product_seconds
            )
        entries.append(entry)
    return entries


def collect() -> dict:
    return {
        "generated_by": "benchmarks/bench_fleet.py",
        "scale": _scale_report(),
        "agreement": _agreement_report(),
    }


def recheck() -> dict:
    """Reduced re-measure for ``bench_regression.py``: the scale solve
    and the N=3 lumped-vs-flat differential."""
    small = build_model(3, "balanced")
    return {
        "scale": _scale_report(),
        "agreement": [
            {
                "fleet_size": 3,
                "lumped_vs_flat": _worst_gap(
                    solve_fleet(small.topology, small.measures).measures,
                    _flat_measures(small),
                ),
            }
        ],
    }


def test_bench_fleet():
    report = collect()
    failed = record(GATES, report, OUTPUT_PATH)
    assert not failed, "\n".join(failed)
    scale = report["scale"]
    print(
        f"\n  scale: N={scale['fleet_size']} "
        f"{scale['product_states']:,} product states -> "
        f"{scale['lumped_states']:,} lumped "
        f"({scale['compression']}x), solved by "
        f"{scale['solver']['method']} in {scale['solver']['seconds']}s "
        f"({scale['solver']['matvecs']} matvecs, residual "
        f"{scale['solver']['residual']:.2e})"
    )
    for entry in report["agreement"]:
        product = (
            f", product {entry['product_vs_flat']:.2e}"
            if "product_vs_flat" in entry
            else ""
        )
        print(
            f"  agreement N={entry['fleet_size']}: lumped "
            f"{entry['lumped_vs_flat']:.2e}{product} vs flat oracle"
        )


if __name__ == "__main__":
    test_bench_fleet()
