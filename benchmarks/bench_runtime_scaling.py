"""Runtime scaling: structural state-space caching + parallel execution.

Measures the three layers of :mod:`repro.runtime` on the paper's sweeps
and writes ``BENCH_runtime.json`` next to the repo root:

* **cache** — full Markovian sweeps with the structural cache disabled
  (every point re-explores the state space) vs enabled (one skeleton,
  per-point rate relabeling);
* **workers** — the same sweeps and a replication batch at 1 vs N worker
  processes (bit-identical results, so only wall-clock may differ);
* **phases** — per-span wall-clock (statespace, the sweep phase spans,
  solver and simulation spans) from the methodology's runtime stats,
  i.e. the span totals of :mod:`repro.obs.tracing`.

Runs as a benchmark module (``pytest benchmarks/bench_runtime_scaling.py``)
or as a plain script (``python benchmarks/bench_runtime_scaling.py``).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from gates import AS_COMMITTED, RECHECK, Field, Gate, record
from repro.casestudies import rpc, streaming
from repro.core.methodology import IncrementalMethodology
from repro.runtime import StructuralStateSpaceCache, resolve_workers
from repro.sim.output import replicate

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"

#: Worker count exercised by the parallel measurements.
PARALLEL_WORKERS = resolve_workers(None)

#: One skeleton per sweep, every further point a relabel; the cache
#: must pay for itself where generation dominates (the streaming model;
#: the rpc one is small enough to be noisy).  The re-measure must hit
#: the structural cache exactly as recorded over as many points.
GATES = [
    Gate("sweeps.fig3-markov.cache.misses", "==", 1),
    Gate(
        "sweeps.fig3-markov.cache.relabels", ">=",
        Field("sweeps.fig3-markov.points", offset=-1),
    ),
    Gate("sweeps.fig4-markov.cache.misses", "==", 1),
    Gate("sweeps.fig4-markov.cache_speedup", ">", 1.0),
    Gate("sweeps.fig3-markov.points", "==", AS_COMMITTED, RECHECK),
    *(
        Gate(f"sweeps.fig3-markov.cache.{counter}", "==", AS_COMMITTED,
             RECHECK)
        for counter in ("hits", "misses", "relabels")
    ),
]


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _sweep_case(family_fn, parameter, values, workers):
    """Cache off/on and serial/parallel wall-clock for one Markovian sweep."""
    uncached = IncrementalMethodology(
        family_fn(), statespace_cache=StructuralStateSpaceCache(enabled=False)
    )
    reference, uncached_seconds = _timed(
        lambda: uncached.sweep_markovian(parameter, values)
    )

    cached = IncrementalMethodology(family_fn())
    series, cached_seconds = _timed(
        lambda: cached.sweep_markovian(parameter, values)
    )
    assert series == reference, "cached sweep changed the results"
    # runtime_stats() counts every span this process closes after the
    # methodology was created, so read it before the next sweep runs.
    timings = cached.runtime_stats()["timings"]

    parallel = IncrementalMethodology(family_fn(), workers=workers)
    parallel_series, parallel_seconds = _timed(
        lambda: parallel.sweep_markovian(parameter, values, workers=workers)
    )
    assert parallel_series == reference, "parallel sweep changed the results"

    return {
        "parameter": parameter,
        "points": len(values),
        "serial_uncached_seconds": round(uncached_seconds, 4),
        "serial_cached_seconds": round(cached_seconds, 4),
        "parallel_cached_seconds": round(parallel_seconds, 4),
        "cache_speedup": round(uncached_seconds / max(cached_seconds, 1e-9), 2),
        "total_speedup": round(
            uncached_seconds / max(parallel_seconds, 1e-9), 2
        ),
        "cache": cached.cache.stats.as_dict(),
        "timings": timings,
    }


def _replication_case(workers):
    """Serial vs parallel wall-clock for one replication batch."""
    methodology = IncrementalMethodology(rpc.family())
    lts = methodology.build_lts("general", "dpm")
    measures = methodology.family.measures

    serial, serial_seconds = _timed(
        lambda: replicate(lts, measures, 5_000.0, runs=8, warmup=200.0)
    )
    parallel, parallel_seconds = _timed(
        lambda: replicate(
            lts, measures, 5_000.0, runs=8, warmup=200.0, workers=workers
        )
    )
    assert parallel.samples == serial.samples, (
        "parallel replications diverged from serial"
    )
    return {
        "runs": 8,
        "run_length": 5_000.0,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(serial_seconds / max(parallel_seconds, 1e-9), 2),
        "bit_identical": True,
    }


def _phase_case():
    """Per-phase timings of a quick general-model figure run."""
    methodology = IncrementalMethodology(rpc.family())
    methodology.sweep_markovian(
        "shutdown_timeout", [1.0, 5.0, 11.0, 15.0, 25.0]
    )
    methodology.sweep_general(
        "shutdown_timeout", [5.0, 15.0], runs=4, run_length=2_000.0,
        warmup=100.0,
    )
    return methodology.runtime_stats()


def collect(workers: int = PARALLEL_WORKERS) -> dict:
    """Run every measurement and return the report dict."""
    return {
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "sweeps": {
            "fig3-markov": _sweep_case(
                rpc.family,
                "shutdown_timeout",
                list(rpc.SHUTDOWN_TIMEOUT_SWEEP),
                workers,
            ),
            "fig4-markov": _sweep_case(
                streaming.family,
                "awake_period",
                [10.0, 50.0, 100.0, 200.0, 400.0, 800.0],
                workers,
            ),
        },
        "replications": _replication_case(workers),
        "phases": _phase_case(),
    }


def recheck() -> dict:
    """Reduced re-measure for ``bench_regression.py``: the cache
    counters of one cached fig3 sweep."""
    values = list(rpc.SHUTDOWN_TIMEOUT_SWEEP)
    methodology = IncrementalMethodology(rpc.family())
    _, seconds = _timed(
        lambda: methodology.sweep_markovian("shutdown_timeout", values)
    )
    return {
        "sweeps": {
            "fig3-markov": {
                "points": len(values),
                "cache": methodology.cache.stats.as_dict(),
                "serial_cached_seconds": round(seconds, 4),
            }
        }
    }


def test_runtime_scaling(benchmark):
    report = benchmark.pedantic(collect, rounds=1, iterations=1)
    failed = record(GATES, report, OUTPUT_PATH)
    assert not failed, "\n".join(failed)
    fig3 = report["sweeps"]["fig3-markov"]
    fig4 = report["sweeps"]["fig4-markov"]
    print(
        f"\n  fig3-markov: {fig3['serial_uncached_seconds']}s uncached -> "
        f"{fig3['serial_cached_seconds']}s cached -> "
        f"{fig3['parallel_cached_seconds']}s with {report['workers']} workers"
    )
    print(
        f"  fig4-markov: cache speedup {fig4['cache_speedup']}x over "
        f"{fig4['points']} points"
    )


if __name__ == "__main__":
    sys.exit(1 if record(GATES, collect(), OUTPUT_PATH) else 0)
