"""Workload subsystem benchmarks: replay overhead and fit scaling.

Measures the two costs the workload layer adds to the general phase and
writes ``BENCH_workloads.json`` next to the repo root:

* **replay** — samples/second drawn from :class:`TraceReplay` (bootstrap
  and cycle modes) vs the closed-form :class:`Exponential` and
  :class:`Pareto` distributions they stand in for.  Replay is a table
  lookup, so it must stay within a small factor of closed-form sampling
  — the number that says trace-driven sweeps cost about the same as
  spec-driven ones.
* **fit** — :func:`fit_trace` wall-clock vs trace length.  The KS scan
  is O(n log n) per family; the report pins the measured growth so a
  regression to quadratic behaviour shows up as a superlinear ratio.

Runs as a benchmark module (``pytest benchmarks/bench_workloads.py``) or
as a plain script (``python benchmarks/bench_workloads.py``).
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

from gates import Gate, record
from repro.distributions import Exponential, Pareto
from repro.sim.random import make_generator
from repro.workload import MMPPGenerator, TraceReplay, fit_trace

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_workloads.json"

#: Draws per sampling measurement.
SAMPLES = 200_000

#: Trace lengths for the fit-scaling measurement.
FIT_LENGTHS = (500, 2_000, 8_000)

TRACE_EVENTS = 4_000

#: Replay must stay in the same ballpark as closed-form sampling
#: (measured ~0.1-0.3x; generous floor so CI noise cannot trip it), and
#: fit time grows sub-quadratically with trace length.
GATES = [
    Gate("replay.bootstrap_vs_closed_form", ">", 0.02),
    Gate("replay.cycle_vs_closed_form", ">", 0.02),
    Gate("fit.scaling_exponent", "<", 2.0),
]


def _trace(events=TRACE_EVENTS):
    return MMPPGenerator(2.0, 0.05, 5.0, 50.0).generate(events, seed=7)


def _sampling_rate(distribution, samples=SAMPLES):
    """Samples per second for one distribution (single rng, tight loop)."""
    rng = make_generator(11)
    sample = distribution.sample
    started = time.perf_counter()
    for _ in range(samples):
        sample(rng)
    elapsed = time.perf_counter() - started
    return samples / max(elapsed, 1e-9)


def _replay_case():
    trace = _trace()
    rates = {
        "exponential": _sampling_rate(Exponential(1.0 / 9.7)),
        "pareto": _sampling_rate(Pareto(1.5, 3.0)),
        "replay_bootstrap": _sampling_rate(TraceReplay(trace)),
        "replay_cycle": _sampling_rate(TraceReplay(trace, "cycle")),
    }
    closed_form = min(rates["exponential"], rates["pareto"])
    return {
        "samples": SAMPLES,
        "trace_events": len(trace),
        "samples_per_second": {
            name: round(rate) for name, rate in rates.items()
        },
        "bootstrap_vs_closed_form": round(
            rates["replay_bootstrap"] / closed_form, 3
        ),
        "cycle_vs_closed_form": round(
            rates["replay_cycle"] / closed_form, 3
        ),
    }


def _fit_case():
    points = []
    for events in FIT_LENGTHS:
        trace = _trace(events)
        started = time.perf_counter()
        report = fit_trace(trace)
        elapsed = time.perf_counter() - started
        points.append(
            {
                "events": events,
                "seconds": round(elapsed, 4),
                "families": len(report.candidates),
                "best": report.best.family,
            }
        )
    first, last = points[0], points[-1]
    length_ratio = last["events"] / first["events"]
    time_ratio = last["seconds"] / max(first["seconds"], 1e-9)
    return {
        "points": points,
        "length_ratio": round(length_ratio, 2),
        "time_ratio": round(time_ratio, 2),
        # O(n log n) keeps time_ratio near length_ratio; quadratic
        # behaviour would push it toward length_ratio squared.
        "scaling_exponent": round(
            math.log(time_ratio) / math.log(length_ratio), 3
        ),
    }


def collect() -> dict:
    return {"replay": _replay_case(), "fit": _fit_case()}


def test_workload_benchmarks(benchmark):
    report = benchmark.pedantic(collect, rounds=1, iterations=1)
    failed = record(GATES, report, OUTPUT_PATH)
    assert not failed, "\n".join(failed)
    replay = report["replay"]
    fit = report["fit"]
    print(
        f"\n  replay: bootstrap {replay['bootstrap_vs_closed_form']}x, "
        f"cycle {replay['cycle_vs_closed_form']}x of closed-form sampling"
    )
    print(
        f"  fit: {fit['points'][-1]['events']} events in "
        f"{fit['points'][-1]['seconds']}s "
        f"(scaling exponent {fit['scaling_exponent']})"
    )


if __name__ == "__main__":
    sys.exit(1 if record(GATES, collect(), OUTPUT_PATH) else 0)
