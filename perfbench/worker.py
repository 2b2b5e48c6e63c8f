"""One benchmark process: set up, warm up, time sweep calls, check them.

Started by ``run.py``, which times this process's set-up from its launch
to the ``ready`` line.  Modes:

* ``setup``: set up and warm up, print ``ready`` and one calibration
  ``spin`` time, exit (a set-up sample);
* ``run``: then time fresh sweep calls for ``--seconds``, check every
  output against the reference, and with ``--trace 1`` run the traced
  per-layer pass.  The last stdout line is the result as JSON.
"""

import os

# Noise control: one BLAS/OpenMP thread, set before numpy is imported.
for _name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

#: Fewest timed calls per run, whatever ``--seconds`` says.
MIN_CALLS = 3
#: Traced passes per run; each per-layer figure is their median, and
#: every count must repeat exactly across them.
TRACED_PASSES = 3


def tail(samples):
    """Highest percentile with at least ten samples beyond it, if any."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return None
    rank = len(ordered) - 11
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.seed, tiny=args.tiny)
    workload.sweep()  # discarded warm-up call
    print("ready", flush=True)
    gc.collect()
    spins = [calibrate.spin()]
    print(f"spin {spins[0]!r}", flush=True)
    if args.mode == "setup":
        return 0

    raw, outputs, failed = [], [], 0
    deadline = time.perf_counter() + args.seconds
    while len(raw) < MIN_CALLS or time.perf_counter() < deadline:
        gc.collect()
        started = time.perf_counter()
        try:
            output = workload.sweep()
        except Exception as error:  # a raising call counts as failed
            print(f"sweep call raised: {error!r}", file=sys.stderr)
            output = None
        raw.append(time.perf_counter() - started)
        outputs.append(output)
        gc.collect()
        spins.append(calibrate.spin())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = [
        calibrate.calibrated(seconds, before, after)
        for seconds, before, after in zip(raw, spins, spins[1:])
    ]

    reference = workload.reference()
    for output in outputs:
        if output is None or not workload.agrees(output, reference):
            failed += 1
    correct = failed == 0
    sweep_s = statistics.median(samples)
    high = tail(samples)
    print(
        f"{workload.name} seed={args.seed} inputs={workload.values[:8]}"
        f"{'...' if len(workload.values) > 8 else ''}"
    )
    print(
        f"sweep_s: n={len(samples)} median={sweep_s:.4f} "
        + (f"p{high[0]:.0f}={high[1]:.4f}" if high else
           "tail=none (fewer than 11 samples)")
        + f" raw_median={statistics.median(raw):.4f}"
        f" spin_median={statistics.median(spins):.4f}"
    )

    if args.trace:
        passes = []
        for index in range(TRACED_PASSES):
            gc.collect()
            before = calibrate.spin()
            series, metrics, spans = traced.run(
                workload, f"{workload.name}-seed{args.seed}-pass{index}"
            )
            after = calibrate.spin()
            for name in metrics:
                if name.endswith("_s"):
                    metrics[name] = calibrate.calibrated(
                        metrics[name], before, after
                    )
            passes.append((series, metrics, spans))
        matches = any(o is not None for o in outputs) and all(
            series == output
            for series, _, _ in passes
            for output in outputs
            if output is not None
        )
        if not matches:
            print("traced pass differs from the sweep output", file=sys.stderr)
        repeats = all(
            metrics[name] == passes[0][1][name]
            for _, metrics, _ in passes
            for name in metrics
            if not name.endswith("_s")
        )
        if not repeats:
            print("per-layer counts differ between traced passes",
                  file=sys.stderr)
        correct = correct and matches and repeats
        metrics = {
            name: statistics.median(p[1][name] for p in passes)
            for name in passes[0][1]
        }
        sim_s = metrics["sim.replicate_s"]
        metrics["sim.events_per_s"] = (
            metrics["sim.events"] / sim_s if sim_s else 0.0
        )
        metrics["trace_overhead"] = metrics["traced_wall_s"] / sweep_s
        if args.trace_dir is not None:
            args.trace_dir.mkdir(parents=True, exist_ok=True)
            path = args.trace_dir / f"{workload.name}-seed{args.seed}.json"
            path.write_text(json.dumps(
                [record for _, _, spans in passes for record in spans.records]
            ) + "\n")
    else:
        metrics = {"sweep_s": sweep_s, "peak_rss_mb": peak_rss_mb}
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
