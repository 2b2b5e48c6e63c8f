"""Tracing-overhead benchmark: the fig3 sweep traced vs untraced.

Measures the hierarchical tracer of ``repro.obs.tracing`` on the fig3
Markovian sweep (the same workload ``BENCH_runtime.json`` pins): one
run with no tracer installed, one with a tracer streaming to a JSONL
file, in the same process.  Produces ``BENCH_obs.json``:

* ``wall_off`` / ``wall_on`` / ``overhead_ratio`` — the committed
  ratio documents the ≤ 5% overhead contract; wall-clock itself is
  machine-dependent and never gated across runs.
* ``spans`` — total span count and the per-name breakdown.  These are
  deterministic for the fixed sweep (one ``point`` / ``execute`` /
  ``solve`` chain per sweep point under one phase span), so the
  regression gate compares them exactly.
* ``bit_identical`` — the traced sweep must reproduce the untraced
  series byte for byte (the design invariant of docs/OBSERVABILITY.md).

Run as a script (``python benchmarks/bench_obs.py [--out PATH]``) to
refresh the baseline, or through the regression gate
(``benchmarks/bench_regression.py``).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from gates import ALL, AS_COMMITTED, COMMITTED, RECHECK, Gate, record
from repro.casestudies import rpc
from repro.core.methodology import IncrementalMethodology
from repro.obs import tracing

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

PARAMETER = "shutdown_timeout"

#: Paired timing: each repetition measures an untraced run and a traced
#: run back to back and the committed overhead is the **median** of the
#: per-pair ratios — adjacent pairs see the same machine state, so load
#: drift cancels, and the median discards the pairs a scheduler burst
#: hit anyway.  (A ratio of two global minima is *not* robust here:
#: quiet windows do not land symmetrically on both sides.)
REPEATS = 15

#: Sweeps per timed repetition — lengthens each measurement well past
#: scheduler-jitter scale without changing the per-sweep span counts.
SWEEPS_PER_REPEAT = 3

#: The committed overhead ratio honours the <= 5% contract (fresh walls
#: are too noisy to gate); the traced sweep reproduces the untraced
#: series exactly; the re-measure emits exactly the committed span
#: counts.
GATES = [
    Gate("fig3_sweep.overhead_ratio", "<=", 1.05, COMMITTED),
    Gate("fig3_sweep.bit_identical", "true", on=ALL),
    Gate("fig3_sweep.spans.by_name", "==", AS_COMMITTED, RECHECK),
]


def _run_sweeps(sweeps: int = SWEEPS_PER_REPEAT) -> tuple:
    values = list(rpc.SHUTDOWN_TIMEOUT_SWEEP)
    series = None
    started = time.perf_counter()
    for _ in range(sweeps):
        methodology = IncrementalMethodology(rpc.family())
        series = methodology.sweep_markovian(PARAMETER, values)
    return time.perf_counter() - started, series


def collect() -> dict:
    """Measure traced vs untraced fig3 sweeps; return the report dict."""
    values = list(rpc.SHUTDOWN_TIMEOUT_SWEEP)

    # Warm-up: imports, first-touch allocations, code caches.
    _run_sweeps()

    wall_off = float("inf")
    wall_on = float("inf")
    series_off = None
    series_on = None
    span_names: Counter = Counter()
    spans_total = 0
    ratios: List[float] = []
    with tempfile.TemporaryDirectory() as scratch:
        for repeat in range(REPEATS):
            off_wall, series_off = _run_sweeps()
            wall_off = min(wall_off, off_wall)

            tracer = tracing.Tracer(str(Path(scratch) / f"t{repeat}.jsonl"))
            previous = tracing.set_tracer(tracer)
            try:
                on_wall, series_on = _run_sweeps()
            finally:
                tracing.set_tracer(previous)
                tracer.close()
            wall_on = min(wall_on, on_wall)
            ratios.append(on_wall / off_wall)
            records = tracer.records()
            # One sweep's worth of spans: every repetition repeats the
            # same deterministic tree SWEEPS_PER_REPEAT times.
            span_names = Counter(
                record["name"] for record in records
            )
            spans_total = len(records)
    ratios.sort()
    overhead_ratio = ratios[len(ratios) // 2]
    assert spans_total % SWEEPS_PER_REPEAT == 0
    spans_total //= SWEEPS_PER_REPEAT
    span_names = Counter(
        {
            name: count // SWEEPS_PER_REPEAT
            for name, count in span_names.items()
        }
    )

    bit_identical = series_on == series_off
    return {
        "fig3_sweep": {
            "parameter": PARAMETER,
            "points": len(values),
            "repeats": REPEATS,
            "wall_off": round(wall_off, 4),
            "wall_on": round(wall_on, 4),
            "overhead_ratio": round(overhead_ratio, 4),
            "spans": {
                "total": spans_total,
                "by_name": dict(sorted(span_names.items())),
            },
            "bit_identical": bit_identical,
        }
    }


def recheck() -> dict:
    """One untraced and one traced fig3 sweep (``bench_regression.py``):
    span counts and bit-identity are deterministic, walls report-only."""
    wall_off, series_off = _run_sweeps(1)
    tracer = tracing.Tracer()
    previous = tracing.set_tracer(tracer)
    try:
        wall_on, series_on = _run_sweeps(1)
    finally:
        tracing.set_tracer(previous)
        tracer.close()
    records = tracer.records()
    return {
        "fig3_sweep": {
            "spans": {
                "total": len(records),
                "by_name": dict(
                    sorted(Counter(r["name"] for r in records).items())
                ),
            },
            "bit_identical": series_on == series_off,
            "wall_off": round(wall_off, 4),
            "wall_on": round(wall_on, 4),
        }
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="measure tracing overhead on the fig3 sweep"
    )
    parser.add_argument(
        "--out",
        default=str(OUTPUT_PATH),
        metavar="PATH",
        help="baseline file to write (default: BENCH_obs.json)",
    )
    args = parser.parse_args(argv)
    report = collect()
    sweep = report["fig3_sweep"]
    print(
        f"fig3 sweep ({sweep['points']} points): "
        f"untraced {sweep['wall_off']}s, traced {sweep['wall_on']}s "
        f"(ratio {sweep['overhead_ratio']}), "
        f"{sweep['spans']['total']} spans, "
        f"bit_identical={sweep['bit_identical']}"
    )
    return 1 if record(GATES, report, Path(args.out)) else 0


if __name__ == "__main__":
    sys.exit(main())
