"""End-to-end sweep benchmark of the DPM assessment pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload markov-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Each run starts ``worker.py`` in a fresh interpreter, which sets up,
warms up, times fresh sweep calls and checks them; the last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (set-up
time is the median over several fresh interpreters); ``--trace 1`` adds
the traced pass and reports the per-layer metrics.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh interpreters whose set-up times give ``setup_s`` (the timed run
#: is one of them).
SETUP_SAMPLES = 3
#: Whole-run limit; a run must end well inside three minutes.
DEADLINE_S = 170.0
TRACE_DIR = ROOT / "perfbench_traces"


def metric_units():
    """Units of the end-to-end (trace 0) and per-layer (trace 1) metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def child_env():
    """Environment of a worker: the checkout's sources, the default
    solver and reproducible hashing."""
    env = dict(os.environ)
    for name in ("REPRO_SOLVER", "REPRO_LOG", "REPRO_LEDGER"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(arguments, deadline):
    """Run one worker; returns (its calibrated set-up seconds, its other
    stdout lines).  Kills it and raises when *deadline* passes.

    Set-up runs from the launch to the worker's ``ready`` line; it is
    calibrated by a :func:`calibrate.spin` here just before the launch
    and the one the worker reports just after ``ready``.
    """
    before = calibrate.spin()
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *arguments],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    timer = threading.Timer(max(deadline - started, 0.0), proc.kill)
    timer.start()
    ready, after, lines = None, None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - started
            elif after is None and line.startswith("spin "):
                after = float(line.split()[1])
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if time.perf_counter() >= deadline:
        raise RuntimeError("benchmark run exceeded its time limit")
    if code != 0 or ready is None or after is None:
        raise RuntimeError(f"worker exited with code {code}")
    if "--mode" not in arguments and not lines:
        raise RuntimeError("worker printed no result")
    return calibrate.calibrated(ready, before, after), lines


def bench(workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (report lines, result dict)."""
    deadline = time.perf_counter() + DEADLINE_S
    arguments = [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--tiny"] if tiny else [])
    if trace:
        arguments += ["--trace-dir", str(TRACE_DIR)]
    setup, lines = run_worker(arguments, deadline)
    result = json.loads(lines[-1])
    if not trace:
        setups = [setup] + [
            run_worker(arguments + ["--mode", "setup"], deadline)[0]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        result["metrics"]["setup_s"] = statistics.median(setups)
        lines.insert(-1, "setup_s: samples=" + " ".join(
            f"{value:.4f}" for value in setups
        ))
    units = metric_units()[trace]
    if sorted(result["metrics"]) != sorted(units):
        raise RuntimeError(
            f"metrics {sorted(result['metrics'])} do not match "
            f"BENCHMARK.json {sorted(units)}"
        )
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    return lines[:-1], result


def self_test():
    """Every workload at a tiny size, both modes: correct, and every
    named metric present with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for entry in spec["workloads"]:
        for trace in (0, 1):
            _, result = bench(entry["name"], 1, 0, trace, tiny=True)
            passed = result["correct"] and result["failed"] == 0
            ok = ok and passed
            print(f"{entry['name']} trace={trace}: "
                  f"{'ok' if passed else 'FAILED'} "
                  f"({len(result['metrics'])} metrics with units)")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return 0 if self_test() else 1
        if not args.workload:
            parser.error("--workload is required")
        lines, result = bench(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, ValueError, OSError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
