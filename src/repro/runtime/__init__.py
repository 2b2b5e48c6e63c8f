"""Parallel, cache-aware execution runtime for sweeps and replications.

Two layers, threaded through the whole experiment stack:

* :class:`ParallelExecutor` — deterministic process-pool map with a serial
  fallback (``workers=1``), shared read-only payloads shipped once per
  worker, and input-order results; parallel runs are bit-identical to
  serial ones because every task derives its random stream from the master
  seed by index (``SeedSequence`` spawn keys).
* :class:`StructuralStateSpaceCache` — a sweep over a parameter that only
  appears in rate expressions reuses one generated state-space skeleton
  and relabels the rates per point instead of re-exploring.

Plus a fault-tolerance layer (see docs/RELIABILITY.md):

* :class:`RetryPolicy` — bounded per-task retries with exponential
  backoff; exhaustion raises the typed
  :class:`~repro.errors.RetryBudgetExceededError`.  Without a policy a
  task gets one attempt and its own exception propagates.
* :class:`FaultInjector` — deterministic, seeded kill/poison/delay fault
  injection for chaos tests; a broken process pool is rebuilt and, after
  repeated worker deaths, execution degrades gracefully to serial.
* :class:`SweepCheckpoint` — an append-only JSONL journal of completed
  sweep points; an interrupted sweep resumes bit-identically.

Timing and tracing are not a runtime layer: every phase, sweep point
and attempt is a :mod:`repro.obs.tracing` span, whose always-on
per-process totals give the per-phase timings and the retry and
checkpoint-hit counters of ``runtime_stats()``, with or without a
``--trace-out`` file.

The cache and the checkpoint journal count their events on the unified
metric registry of :mod:`repro.obs` (``repro_cache_*``,
``repro_checkpoint_*`` — see docs/OBSERVABILITY.md), and the executor
merges the metrics its pool workers counted into the parent's
registry, so a ``--metrics-out`` export captures cache hit ratios,
checkpoint resume stats and the work done in workers without any extra
wiring.
"""

from .checkpoint import SweepCheckpoint, sweep_fingerprint
from .executor import (
    ParallelExecutor,
    RetryPolicy,
    contiguous_chunks,
    resolve_workers,
)
from .faults import FaultInjector
from .statespace_cache import (
    CacheStats,
    ParametricLTS,
    StructuralStateSpaceCache,
    generate_parametric,
    structural_params,
)

__all__ = [
    "CacheStats",
    "FaultInjector",
    "ParallelExecutor",
    "ParametricLTS",
    "RetryPolicy",
    "StructuralStateSpaceCache",
    "SweepCheckpoint",
    "contiguous_chunks",
    "generate_parametric",
    "resolve_workers",
    "structural_params",
    "sweep_fingerprint",
]
