"""Rare-event splitting benchmark (docs/SIMULATION.md, docs/RELIABILITY.md).

Quantifies the two promises of the RESTART splitting layer on a
fig3-style rare-timeout cascade — a birth-death chain counting
consecutive client timeouts, where the "abort" event (the QoS failure
the paper's fig3 timeout sweep probes) only fires after ``DEPTH``
uninterrupted timeouts, putting its rate around 1e-6:

* **variance reduction at equal event budget** — the splitting
  estimator's work-normalised variance must beat naive replication by
  at least 100x.  The naive side is scored at its *analytic* floor
  (Poisson counting variance ``mu/T`` at the exact event rate of the
  chain), which is generous to naive replication — the empirical naive
  run at the same event budget typically observes **zero** events and
  has no variance estimate at all, which the report also records
  together with its Wilson upper bound (the satellite near-zero
  interval fix);
* **correctness at depth** — the splitting estimate's log-scale
  confidence interval must cover the analytic probability obtained by
  solving the chain's CTMC directly.

Writes ``BENCH_splitting.json`` next to the repo root.  Runs as a
benchmark module (``pytest benchmarks/bench_splitting.py``) or as a
plain script (``python benchmarks/bench_splitting.py [--smoke]``);
``--smoke`` runs the reduced-budget moderate-rarity configuration only
(the CI rare-event job's mode, seconds instead of minutes).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from gates import ALL, RECHECK, Gate, failures, record
from repro.aemilia.rates import GeneralRate
from repro.ctmc import measure, trans_clause
from repro.distributions import Exponential
from repro.lts import LTS
from repro.sim import split_replicate, summarize_rare

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_splitting.json"

#: Timeout-cascade rates: timeouts accumulate at ``UP`` while results
#: clear the count at ``DOWN``; a full cascade aborts at ``OUT``.
UP, DOWN, OUT = 0.5, 4.0, 4.0

#: Full-benchmark geometry — rare regime (abort rate ~8e-7).
DEPTH = 8
SPLITS = 12
SEGMENTS = 1_000
RUN_LENGTH = 200.0
RUNS = 30
SEED = 11

#: Smoke geometry — moderate rarity (abort rate ~7e-2), seconds to run.
SMOKE_DEPTH = 3
SMOKE_SPLITS = 4
SMOKE_SEGMENTS = 200
SMOKE_RUN_LENGTH = 100.0
SMOKE_RUNS = 12

#: Acceptance gates: every interval covers the analytic probability,
#: and the work-normalised variance reduction of splitting over the
#: naive-replication floor is >= 100x.  The smoke run is deterministic
#: (pinned seed, worker-count invariant streams), so its re-measured
#: estimate keeps a band that only absorbs cross-platform float noise.
GATES = [
    Gate("smoke.covers_analytic", "true", on=ALL),
    Gate("smoke.estimate", "band", (0.5, 2.0), RECHECK),
    Gate("rare.covers_analytic", "true"),
    Gate("rare.efficiency", ">=", 100.0),
]


def cascade_lts(depth: int) -> LTS:
    """Timeout-cascade chain: states count consecutive timeouts."""
    lts = LTS(0)
    for _ in range(depth + 1):
        lts.add_state()
    for count in range(depth):
        lts.add_transition(
            count, "C.expire_timeout", count + 1,
            GeneralRate(Exponential(UP)), "C.expire_timeout",
        )
        if count > 0:
            lts.add_transition(
                count, "C.receive_result", 0,
                GeneralRate(Exponential(DOWN)), "C.receive_result",
            )
    lts.add_transition(
        depth, "C.abort", 0, GeneralRate(Exponential(OUT)), "C.abort"
    )
    return lts


def analytic_abort(depth: int) -> tuple:
    """(abort rate, total event rate) from the chain's exact CTMC."""
    states = depth + 1
    generator = np.zeros((states, states))
    for count in range(depth):
        generator[count, count + 1] += UP
        generator[count, count] -= UP
        if count > 0:
            generator[count, 0] += DOWN
            generator[count, count] -= DOWN
    generator[depth, 0] += OUT
    generator[depth, depth] -= OUT
    system = np.vstack([generator.T, np.ones(states)])
    rhs = np.zeros(states + 1)
    rhs[-1] = 1.0
    pi = np.linalg.lstsq(system, rhs, rcond=None)[0]
    event_rate = sum(
        pi[count] * (UP + (DOWN if count > 0 else 0.0))
        for count in range(depth)
    ) + pi[depth] * OUT
    return float(pi[depth] * OUT), float(event_rate)


def _splitting_report(
    depth: int,
    splits: int,
    segments: int,
    run_length: float,
    runs: int,
    workers: int,
) -> dict:
    """Splitting vs the naive floor (and an empirical naive run) on one
    cascade geometry."""
    mu, event_rate = analytic_abort(depth)
    lts = cascade_lts(depth)
    abort = measure("abort_rate", trans_clause("C.abort", 1.0))

    started = time.perf_counter()
    result = split_replicate(
        lts, [abort], run_length, levels=depth, splits=splits,
        segments=segments, runs=runs, seed=SEED, workers=workers,
    )
    split_seconds = time.perf_counter() - started
    samples = np.asarray(result.samples["abort_rate"], float)
    split_variance = float(samples.var(ddof=1))
    events_per_tree = result.events / runs
    rare = result.rare["abort_rate"]

    # Naive floor: a naive rate estimator over horizon T has at best
    # Poisson counting variance mu/T per run; its event budget per run
    # is the chain's exact total event rate times T.
    naive_variance_floor = mu / run_length
    naive_events = event_rate * run_length
    efficiency = (naive_variance_floor * naive_events) / (
        split_variance * events_per_tree
    )

    # Empirical naive run at the same total event budget, to anchor
    # the floor: at rare depths it observes zero abort events and the
    # only honest statement left is the Wilson upper bound.  One split
    # per level is naive replication on the per-event-type streams.
    naive_horizon = (events_per_tree * runs) / event_rate / runs
    naive = split_replicate(
        lts, [abort], naive_horizon, levels=depth, splits=1, runs=runs,
        seed=SEED, workers=workers,
    )
    naive_samples = naive.samples["abort_rate"]
    observed = sum(
        round(sample * naive_horizon) for sample in naive_samples
    )
    naive_rare = summarize_rare(naive_samples, 0.95)

    return {
        "depth": depth,
        "levels": depth,
        "splits": splits,
        "segments": segments,
        "run_length": run_length,
        "runs": runs,
        "seed": SEED,
        "analytic_probability": mu,
        "analytic_event_rate": round(event_rate, 6),
        "estimate": rare.mean,
        "interval_low": rare.low,
        "interval_high": rare.high,
        "interval_method": rare.method,
        "covers_analytic": rare.overlaps(mu),
        "split_variance": split_variance,
        "events_per_tree": round(events_per_tree, 1),
        "naive_variance_floor": naive_variance_floor,
        "naive_events_per_run": round(naive_events, 1),
        "efficiency": round(efficiency, 1),
        "naive_observed_events": int(observed),
        "naive_upper_bound": naive_rare.high,
        "naive_interval_method": naive_rare.method,
        "clones": result.clones,
        "merges": result.merges,
        "peak_trajectories": result.peak_trajectories,
        "seconds": round(split_seconds, 3),
    }


def collect(smoke: bool = False, workers: int = 4) -> dict:
    report = {
        "generated_by": "benchmarks/bench_splitting.py",
        "smoke": _splitting_report(
            SMOKE_DEPTH, SMOKE_SPLITS, SMOKE_SEGMENTS,
            SMOKE_RUN_LENGTH, SMOKE_RUNS, workers,
        ),
    }
    if not smoke:
        report["rare"] = _splitting_report(
            DEPTH, SPLITS, SEGMENTS, RUN_LENGTH, RUNS, workers
        )
    return report


def recheck() -> dict:
    """The smoke configuration, serially (``bench_regression.py``)."""
    return collect(smoke=True, workers=1)


def test_bench_splitting():
    report = collect()
    failed = record(GATES, report, OUTPUT_PATH)
    assert not failed, "\n".join(failed)
    rare = report["rare"]
    print(
        f"\n  rare (depth {rare['depth']}): estimate "
        f"{rare['estimate']:.3g} in [{rare['interval_low']:.3g}, "
        f"{rare['interval_high']:.3g}] vs analytic "
        f"{rare['analytic_probability']:.3g}; efficiency "
        f"{rare['efficiency']}x; naive at "
        f"equal budget saw {rare['naive_observed_events']} events"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="rare-event splitting benchmark"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="moderate-rarity reduced budget only (CI mode); does not "
        "overwrite the committed baseline",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="executor workers (results are worker-count invariant)",
    )
    args = parser.parse_args(argv)
    report = collect(smoke=args.smoke, workers=args.workers)
    for name in ("smoke", "rare"):
        if name not in report:
            continue
        entry = report[name]
        print(
            f"  {name} (depth {entry['depth']}): estimate "
            f"{entry['estimate']:.3g} "
            f"[{entry['interval_low']:.3g}, {entry['interval_high']:.3g}] "
            f"vs analytic {entry['analytic_probability']:.3g}, "
            f"efficiency {entry['efficiency']}x, "
            f"{entry['seconds']}s"
        )
    if args.smoke:
        # A smoke run has only the smoke rows to meet, and records
        # nothing.
        failed = failures(
            [g for g in GATES if g.path.startswith("smoke.")], report
        )
        for failure in failed:
            print(f"FAIL: {failure}", file=sys.stderr)
    else:
        failed = record(GATES, report, OUTPUT_PATH)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
