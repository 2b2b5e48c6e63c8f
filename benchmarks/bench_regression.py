"""Regression gate against the committed benchmark baselines.

A loop over the gate tables of the ``bench_*.py`` modules (see
``gates.py``).  For every committed ``BENCH_*.json`` it checks the
rows declared for the committed file, then runs the bench's reduced
``recheck()`` re-measure, when it has one, and checks the rows
declared for it against the committed numbers.  The re-measured
numbers are deterministic counts (exact), same-run ratios (so machine
speed cancels) or drift bands around the committed values.

Wall-clock is reported but never gated — CI machines are too noisy for
timing assertions, and the committed ``seconds`` fields are documentation,
not contracts.  Run as a script (``python benchmarks/bench_regression.py
[--out report.json]``, exit 0/1) or through pytest
(``pytest benchmarks/bench_regression.py``).  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

import bench_fleet
import bench_obs
import bench_parametric
import bench_runtime_scaling
import bench_sim
import bench_solvers
import bench_splitting
import bench_workloads
from gates import COMMITTED, RECHECK, check

#: Every bench that commits a ``BENCH_*.json``, in re-measure order.
BENCHES = [
    bench_solvers,
    bench_runtime_scaling,
    bench_parametric,
    bench_sim,
    bench_splitting,
    bench_obs,
    bench_fleet,
    bench_workloads,
]


def collect() -> dict:
    """Check every table; the report carries each verdict and failure."""
    gates: List[dict] = []
    rechecks = {}
    failures: List[str] = []
    for bench in BENCHES:
        name = bench.OUTPUT_PATH.name
        committed = json.loads(bench.OUTPUT_PATH.read_text())
        runs = [("committed", check(bench.GATES, committed, COMMITTED))]
        if hasattr(bench, "recheck"):
            rechecks[name] = bench.recheck()
            runs.append(
                ("recheck",
                 check(bench.GATES, rechecks[name], RECHECK, committed))
            )
        for side, verdicts in runs:
            for verdict in verdicts:
                gates.append(
                    {
                        "file": name,
                        "side": side,
                        "path": verdict.path,
                        "rule": verdict.gate.rule,
                        "limit": verdict.limit,
                        "value": verdict.value,
                        "passed": verdict.passed,
                    }
                )
                if not verdict.passed:
                    failures.append(f"{name} ({side}): {verdict}")
    return {
        "gates": gates,
        "rechecks": rechecks,
        "failures": failures,
        "passed": not failures,
    }


def test_bench_regression():
    report = collect()
    assert report["passed"], "\n".join(report["failures"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="regression gate vs committed benchmark baselines"
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the full report JSON to PATH",
    )
    args = parser.parse_args(argv)
    report = collect()
    if args.out:
        Path(args.out).write_text(
            json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
        )
        print(f"report written to {args.out}")
    for bench in BENCHES:
        name = bench.OUTPUT_PATH.name
        for side in ("committed", "recheck"):
            rows = [
                row for row in report["gates"]
                if row["file"] == name and row["side"] == side
            ]
            if rows:
                passed = sum(row["passed"] for row in rows)
                print(f"  {name} {side}: {passed}/{len(rows)} gates pass")
    if report["failures"]:
        for failure in report["failures"]:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("bench-regression: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
