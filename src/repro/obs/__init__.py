"""Unified observability for the repro stack (docs/OBSERVABILITY.md).

One subsystem, three concerns:

* **Metrics** (:mod:`repro.obs.metrics`) — a lightweight, thread-safe
  registry of counters, gauges and histograms with fixed bucket schemas,
  labelled by backend / phase / case study.  Instrumentation lives in
  the hot paths themselves (:mod:`repro.ctmc.solvers`,
  :mod:`repro.sim.engine`, :mod:`repro.runtime`,
  :mod:`repro.core.methodology`) and writes to the process-default
  registry; everything is aggregate-only so metrics stay on for every
  run without perturbing results.
* **Exporters** (:mod:`repro.obs.export`) — Prometheus text format and
  structured JSON, surfaced by the CLI's ``--metrics-out`` flag, the
  ``repro-experiments metrics`` command and the CI metrics-artifact
  job; ``benchmarks/bench_regression.py`` gates key metrics against the
  committed ``BENCH_*.json`` baselines.
* **Logging + profiling** (:mod:`repro.obs.log`,
  :mod:`repro.obs.profile`) — the ``repro.*`` stderr logger hierarchy
  (``$REPRO_LOG`` / ``--verbose``) and the per-iteration solver
  callback protocol.
* **Tracing + run ledger** (:mod:`repro.obs.tracing`,
  :mod:`repro.obs.ledger`) — hierarchical causal spans (the one timing
  instrument: every closed span also feeds always-on per-name totals)
  with cross-process :class:`~repro.obs.tracing.TraceContext` propagation,
  Perfetto/OTLP exporters, and the append-only registry of top-level
  runs behind ``repro-experiments runs list|show|diff``.

The invariant the whole layer is built around: **observability never
perturbs numerics or seed derivation** — a sweep with metrics on is
bit-identical to one with the :class:`NullRegistry` installed
(``tests/test_obs.py`` pins this).
"""

from .export import (
    load_json_export,
    render_json,
    render_prometheus,
    write_exports,
)
from .log import LOG_ENV_VAR, configure_logging, emit, get_logger
from .metrics import (
    CATALOG,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    MetricSpec,
    NullRegistry,
    RESIDUAL_BUCKETS,
    TIME_BUCKETS,
    get_registry,
    set_registry,
    use_registry,
)
from .ledger import RunLedger, diff_entries
from .profile import IterationCallback, IterationSeries
from .tracing import (
    Span,
    TraceContext,
    Tracer,
    add_attributes,
    add_event,
    current_context,
    export_otlp,
    export_perfetto,
    get_tracer,
    read_spans,
    record_span,
    set_tracer,
    span,
    summarize_spans,
    use_tracer,
    validate_tree,
)

__all__ = [
    "CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "IterationCallback",
    "IterationSeries",
    "LOG_ENV_VAR",
    "MetricRegistry",
    "MetricSpec",
    "NullRegistry",
    "RESIDUAL_BUCKETS",
    "RunLedger",
    "Span",
    "TIME_BUCKETS",
    "TraceContext",
    "Tracer",
    "add_attributes",
    "add_event",
    "current_context",
    "diff_entries",
    "export_otlp",
    "export_perfetto",
    "get_tracer",
    "read_spans",
    "record_span",
    "set_tracer",
    "span",
    "summarize_spans",
    "use_tracer",
    "validate_tree",
    "configure_logging",
    "emit",
    "get_logger",
    "get_registry",
    "load_json_export",
    "render_json",
    "render_prometheus",
    "set_registry",
    "use_registry",
    "write_exports",
]
