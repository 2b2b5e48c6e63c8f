"""Parametric steady-state benchmark (docs/SOLVERS.md, docs/PERFORMANCE.md).

Quantifies the two promises of the parametric fast path:

* **fig4 per-point cost** — after the one-time elimination of the
  streaming chain, evaluating the paper's awake-period sweep points
  must be at least 100x faster than a per-point ``direct`` solve while
  agreeing to 1e-9 at every point and measure;
* **dense sweeps for free** — a 1000-point dense fig3 sweep through the
  parametric path must finish in less wall-clock than the paper's
  classic 11-point sweep pays for per-point solves.

Writes ``BENCH_parametric.json`` next to the repo root.  Runs as a
benchmark module (``pytest benchmarks/bench_parametric.py``) or as a
plain script (``python benchmarks/bench_parametric.py``).
"""

from __future__ import annotations

import time
from pathlib import Path

from gates import ALL, AS_COMMITTED, RECHECK, Field, Gate, record
from repro.casestudies import rpc, streaming
from repro.core.methodology import IncrementalMethodology

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_parametric.json"

#: Dense fig3 grid size — the smooth-curve mode the coarse paper grid
#: could not afford.
DENSE_POINTS = 1_000

#: Evaluation repeats per point for a stable microsecond-scale timing.
EVAL_REPEATS = 50

#: The re-measure probes three fig4 points against direct solves.
RECHECK_POINTS = [25.0, 100.0, 400.0]

#: Acceptance gates of the parametric work (ROADMAP / docs/SOLVERS.md):
#: per-point evaluation after the one-time elimination beats per-point
#: direct solves by >= 100x while agreeing to 1e-9 at every point, and
#: the 1000-point dense sweep costs less wall-clock than the classic
#: 11-point sweep.  The re-measure also keeps the elimination's
#: structure exact, including the fill count that pins the Markowitz
#: pivot order, and lets the validated fit error drift 10x (or to
#: 1e-10, whichever is looser).
GATES = [
    Gate("fig4.max_relative_error", "<=", 1e-9, ALL),
    Gate("fig4.speedup", ">=", 100.0, ALL),
    Gate("fig4.recurrent", "==", AS_COMMITTED, RECHECK),
    Gate("fig4.parametric_transitions", "==", AS_COMMITTED, RECHECK),
    Gate("fig4.fill_ops", "==", AS_COMMITTED, RECHECK),
    Gate("fig4.max_fit_error", "band", (0.0, 10.0, 1e-10), RECHECK),
    Gate("dense_fig3.dense_backends.parametric", "==", DENSE_POINTS),
    Gate(
        "dense_fig3.dense_seconds", "<", Field("dense_fig3.coarse_seconds")
    ),
    Gate("dense_fig3.max_residual", "<", 1e-8),
]


def _relative_gap(parametric, direct):
    """Worst relative disagreement across all measures and points."""
    worst = 0.0
    for name, reference_series in direct.items():
        for ours, reference in zip(parametric[name], reference_series):
            scale = max(1.0, abs(reference))
            worst = max(worst, abs(ours - reference) / scale)
    return worst


def _fig4_report() -> dict:
    """Elimination cost + per-point eval vs per-point direct on fig4."""
    points = list(streaming.AWAKE_PERIOD_SWEEP)
    family = streaming.family()

    direct_methodology = IncrementalMethodology(family)
    started = time.perf_counter()
    direct = direct_methodology.sweep_markovian(
        "awake_period", points, method="direct"
    )
    direct_seconds = time.perf_counter() - started

    parametric_methodology = IncrementalMethodology(family)
    archi = family.markovian_dpm
    started = time.perf_counter()
    solution = parametric_methodology.cache.parametric_solution(
        archi,
        "awake_period",
        family.measures,
        (min(points), max(points)),
    )
    build_seconds = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(EVAL_REPEATS):
        evaluated = {name: [] for name in direct}
        for value in points:
            measures = solution.evaluate(value)
            for name in evaluated:
                evaluated[name].append(measures[name])
    eval_seconds = (time.perf_counter() - started) / EVAL_REPEATS

    per_point_direct = direct_seconds / len(points)
    per_point_eval = eval_seconds / len(points)
    return {
        "parameter": "awake_period",
        "points": len(points),
        "build_seconds": round(build_seconds, 5),
        "per_point_direct_seconds": round(per_point_direct, 7),
        "per_point_eval_seconds": round(per_point_eval, 7),
        "speedup": round(per_point_direct / per_point_eval, 1),
        "max_relative_error": _relative_gap(evaluated, direct),
        "max_fit_error": solution.max_fit_error,
        "recurrent": solution.size,
        "parametric_transitions": solution.diagnostics[
            "parametric_transitions"
        ],
        "fill_ops": solution.diagnostics["fill_ops"],
    }


def _dense_fig3_report() -> dict:
    """1000-point parametric fig3 sweep vs the classic 11-point sweep."""
    coarse = list(rpc.SHUTDOWN_TIMEOUT_SWEEP)
    low, high = min(coarse), max(coarse)
    step = (high - low) / (DENSE_POINTS - 1)
    dense = [low + index * step for index in range(DENSE_POINTS)]
    family = rpc.family()

    coarse_methodology = IncrementalMethodology(family)
    started = time.perf_counter()
    coarse_methodology.sweep_markovian("shutdown_timeout", coarse)
    coarse_seconds = time.perf_counter() - started

    # method=auto: the dense grid crosses the parametric threshold, so
    # this measures the end-to-end fast path (elimination included).
    dense_methodology = IncrementalMethodology(family)
    started = time.perf_counter()
    dense_methodology.sweep_markovian("shutdown_timeout", dense)
    dense_seconds = time.perf_counter() - started
    backends = dense_methodology.runtime_stats()["solver"]["backends"]
    return {
        "parameter": "shutdown_timeout",
        "coarse_points": len(coarse),
        "coarse_seconds": round(coarse_seconds, 5),
        "dense_points": DENSE_POINTS,
        "dense_seconds": round(dense_seconds, 5),
        "dense_backends": backends,
        "max_residual": dense_methodology.runtime_stats()["solver"][
            "max_residual"
        ],
    }


def collect() -> dict:
    return {
        "generated_by": "benchmarks/bench_parametric.py",
        "fig4": _fig4_report(),
        "dense_fig3": _dense_fig3_report(),
    }


def recheck() -> dict:
    """Reduced re-measure for ``bench_regression.py``: the fig4
    elimination once, then the probe points evaluated against per-point
    direct solves on the same (already explored) structure."""
    family = streaming.family()
    methodology = IncrementalMethodology(family)
    points = list(streaming.AWAKE_PERIOD_SWEEP)
    started = time.perf_counter()
    solution = methodology.cache.parametric_solution(
        family.markovian_dpm,
        "awake_period",
        family.measures,
        (min(points), max(points)),
    )
    build_seconds = time.perf_counter() - started
    started = time.perf_counter()
    direct = methodology.sweep_markovian(
        "awake_period", RECHECK_POINTS, method="direct"
    )
    direct_seconds = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(EVAL_REPEATS):
        evaluated = [solution.evaluate(value) for value in RECHECK_POINTS]
    eval_seconds = (time.perf_counter() - started) / EVAL_REPEATS
    return {
        "fig4": {
            "recurrent": solution.size,
            "parametric_transitions": solution.diagnostics[
                "parametric_transitions"
            ],
            "fill_ops": solution.diagnostics["fill_ops"],
            "max_fit_error": solution.max_fit_error,
            "max_relative_error": _relative_gap(
                {name: [row[name] for row in evaluated] for name in direct},
                direct,
            ),
            "speedup": direct_seconds / eval_seconds,
            "build_seconds": round(build_seconds, 5),
        }
    }


def test_bench_parametric():
    report = collect()
    failed = record(GATES, report, OUTPUT_PATH)
    assert not failed, "\n".join(failed)
    fig4 = report["fig4"]
    dense = report["dense_fig3"]
    print(
        f"\n  fig4: build {fig4['build_seconds']}s, then "
        f"{fig4['per_point_eval_seconds'] * 1e6:.0f}us/point vs "
        f"{fig4['per_point_direct_seconds'] * 1e3:.2f}ms/point direct "
        f"({fig4['speedup']}x, max rel err "
        f"{fig4['max_relative_error']:.2e})"
    )
    print(
        f"  dense fig3: {dense['dense_points']} points in "
        f"{dense['dense_seconds']}s vs {dense['coarse_points']} points "
        f"in {dense['coarse_seconds']}s"
    )


if __name__ == "__main__":
    test_bench_parametric()
