"""Lightweight thread-safe metrics: counters, gauges, histograms.

The registry follows Prometheus conventions without depending on any
client library: metric *families* are created get-or-create by name on a
:class:`MetricRegistry`, carry a fixed label schema, and hand out
per-label-set children.  Everything is aggregate-only — a counter is one
float, a histogram is a fixed bucket vector — so leaving metrics on
costs nanoseconds per update and the registry can stay enabled for every
run (time-series data, e.g. per-iteration solver residuals, is a
separate opt-in: see :class:`~repro.ctmc.solvers.SolverReport`).

Three registry flavours:

* the **process-default** registry (:func:`get_registry`) that all
  instrumented modules write to — Prometheus semantics: counters are
  cumulative over the process lifetime;
* explicit :class:`MetricRegistry` instances for isolation (tests,
  embedding), installed temporarily with :func:`use_registry`;
* the :class:`NullRegistry`, which turns every operation into a no-op —
  the "metrics off" mode that `tests/test_obs.py` proves is
  result-identical to metrics on.

Worker *processes* each have their own default registry; snapshots are
mergeable (:meth:`MetricRegistry.merge_snapshot`) so a parent can fold a
worker's counters in if it ships them back.  The serial execution paths
(the CI default) see every update in one registry.

The full metric catalog — every name, label schema and semantics the
instrumentation emits — lives in :data:`CATALOG` and is documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import bisect
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "MetricSpec",
    "NullRegistry",
    "RESIDUAL_BUCKETS",
    "TIME_BUCKETS",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: Default histogram bucket schema for wall-clock durations in seconds.
TIME_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Bucket schema for solver residuals (``||pi Q||_inf``), log-spaced.
RESIDUAL_BUCKETS: Tuple[float, ...] = (
    1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6,
)

_INF = float("inf")


class MetricError(ValueError):
    """Inconsistent metric declaration or label usage."""


def _label_key(
    labelnames: Tuple[str, ...], labels: Mapping[str, str]
) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise MetricError(
            f"expected labels {list(labelnames)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Child:
    """One (family, label-set) time series."""

    __slots__ = ("_lock",)

    def __init__(self, lock: threading.Lock):
        self._lock = lock


class _CounterChild(_Child):
    __slots__ = ("value",)

    def __init__(self, lock: threading.Lock):
        super().__init__(lock)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up")
        with self._lock:
            self.value += amount


class _GaugeChild(_Child):
    __slots__ = ("value",)

    def __init__(self, lock: threading.Lock):
        super().__init__(lock)
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class _HistogramChild(_Child):
    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, lock: threading.Lock, buckets: Tuple[float, ...]):
        super().__init__(lock)
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        position = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self.counts[position] += 1
            self.sum += value
            self.count += 1

    def cumulative(self) -> List[Tuple[str, int]]:
        """Prometheus-style cumulative ``le`` buckets."""
        out: List[Tuple[str, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((repr(bound), running))
        out.append(("+Inf", self.count))
        return out


class _Family:
    """A named metric with a fixed label schema and per-label children."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        lock: threading.Lock,
    ):
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._children: Dict[Tuple[str, ...], _Child] = {}

    def _make_child(self) -> _Child:
        raise NotImplementedError

    def labels(self, **labels: str) -> _Child:
        key = _label_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    def _default_child(self) -> _Child:
        # A label-less family's one series sits under the empty key; the
        # fast path matters on per-point hot paths (parametric evaluation).
        child = self._children.get(())
        if child is not None:
            return child
        if self.labelnames:
            raise MetricError(
                f"{self.name} has labels {list(self.labelnames)}; "
                f"use .labels(...)"
            )
        return self.labels()

    def series(self) -> List[Tuple[Dict[str, str], _Child]]:
        """Stable (labels, child) listing for exporters."""
        return [
            (dict(zip(self.labelnames, key)), child)
            for key, child in sorted(self._children.items())
        ]


class Counter(_Family):
    """Monotonically increasing count (events, iterations, points)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class Gauge(_Family):
    """A value that can go up and down (rates, utilization)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class Histogram(_Family):
    """Distribution over a fixed bucket schema (durations, residuals)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        lock: threading.Lock,
        buckets: Sequence[float] = TIME_BUCKETS,
    ):
        super().__init__(name, help_text, labelnames, lock)
        bucket_tuple = tuple(float(b) for b in buckets)
        if not bucket_tuple or list(bucket_tuple) != sorted(bucket_tuple):
            raise MetricError("histogram buckets must be sorted and non-empty")
        if bucket_tuple[-1] == _INF:
            bucket_tuple = bucket_tuple[:-1]  # +Inf is implicit
        self.buckets = bucket_tuple

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)


class MetricRegistry:
    """Get-or-create registry of metric families, keyed by name.

    Creation is idempotent: asking twice for the same name returns the
    same family, and asking with a conflicting type or label schema
    raises :class:`MetricError` instead of silently forking the metric.
    """

    #: Disabled registries short-circuit in instrumentation helpers.
    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def _get_or_create(self, cls, name, help_text, labelnames, **kwargs):
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = cls(
                        name, help_text, tuple(labelnames), self._lock,
                        **kwargs,
                    )
                    self._families[name] = family
        if not isinstance(family, cls):
            raise MetricError(
                f"{name} is a {family.kind}, not a {cls.kind}"
            )
        if family.labelnames != tuple(labelnames):
            raise MetricError(
                f"{name} declared with labels {list(family.labelnames)}, "
                f"requested {list(labelnames)}"
            )
        return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = TIME_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    def families(self) -> List[_Family]:
        """All registered families, sorted by name."""
        return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-serialisable dump of every family and series.

        Counters/gauges carry ``value``; histograms carry cumulative
        ``le`` buckets plus ``sum``/``count`` (the Prometheus data
        model, so the JSON and text exports agree).
        """
        out: Dict[str, Dict[str, object]] = {}
        for family in self.families():
            series = []
            for labels, child in family.series():
                entry: Dict[str, object] = {"labels": labels}
                if isinstance(child, _HistogramChild):
                    entry["buckets"] = dict(child.cumulative())
                    entry["sum"] = child.sum
                    entry["count"] = child.count
                else:
                    entry["value"] = child.value
                series.append(entry)
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "series": series,
            }
        return out

    def merge_snapshot(self, snapshot: Mapping[str, Mapping]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram counts/sums add; gauges merge as the
        element-wise **max** across snapshots (the first merge of a
        fresh series adopts the incoming value outright, so negative
        gauges like lag-1 autocorrelations are not clamped by the 0.0
        default).  Max is commutative, so the aggregate is independent
        of worker completion order — last-write-wins was not, which made
        multi-worker gauge values nondeterministic under pool
        scheduling.  Used to aggregate worker registries shipped back
        to the parent.
        """
        for name, family_snap in snapshot.items():
            kind = family_snap["type"]
            labelnames = tuple(family_snap.get("labelnames", ()))
            help_text = family_snap.get("help", "")
            for entry in family_snap.get("series", ()):
                labels = entry.get("labels", {})
                if kind == "counter":
                    self.counter(name, help_text, labelnames).labels(
                        **labels
                    ).inc(float(entry["value"]))
                elif kind == "gauge":
                    family = self.gauge(name, help_text, labelnames)
                    incoming = float(entry["value"])
                    key = _label_key(family.labelnames, labels)
                    existing = family._children.get(key)
                    if existing is None:
                        family.labels(**labels).set(incoming)
                    else:
                        existing.set(max(existing.value, incoming))
                elif kind == "histogram":
                    buckets = entry.get("buckets", {})
                    bounds = tuple(
                        float(bound)
                        for bound in buckets
                        if bound != "+Inf"
                    )
                    child = self.histogram(
                        name, help_text, labelnames,
                        buckets=bounds or TIME_BUCKETS,
                    ).labels(**labels)
                    previous = 0
                    for position, bound in enumerate(child.buckets):
                        cumulative = int(buckets.get(repr(bound), previous))
                        child.counts[position] += cumulative - previous
                        previous = cumulative
                    total = int(entry.get("count", previous))
                    child.counts[-1] += total - previous
                    child.count += total
                    child.sum += float(entry.get("sum", 0.0))

    def reset(self) -> None:
        """Drop every family (test isolation)."""
        with self._lock:
            self._families.clear()

    def value(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> float:
        """Current value of one counter/gauge series (0.0 if absent)."""
        family = self._families.get(name)
        if family is None or isinstance(family, Histogram):
            return 0.0
        key = tuple(
            str((labels or {}).get(label, "")) for label in family.labelnames
        )
        child = family._children.get(key)
        return child.value if child is not None else 0.0


class _NullMetric:
    """Absorbs every metric operation (shared singleton)."""

    def labels(self, **labels) -> "_NullMetric":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    value = 0.0


_NULL_METRIC = _NullMetric()


class NullRegistry(MetricRegistry):
    """The "metrics off" registry: every operation is a no-op."""

    enabled = False

    def counter(self, name, help_text="", labelnames=()):  # noqa: D102
        return _NULL_METRIC

    def gauge(self, name, help_text="", labelnames=()):  # noqa: D102
        return _NULL_METRIC

    def histogram(  # noqa: D102
        self, name, help_text="", labelnames=(), buckets=TIME_BUCKETS
    ):
        return _NULL_METRIC

    def families(self):  # noqa: D102
        return []

    def snapshot(self):  # noqa: D102
        return {}


# ---------------------------------------------------------------------------
# Process-default registry.
# ---------------------------------------------------------------------------

_default_registry: MetricRegistry = MetricRegistry()


def get_registry() -> MetricRegistry:
    """The process-wide default registry all instrumentation writes to."""
    return _default_registry


def set_registry(registry: MetricRegistry) -> MetricRegistry:
    """Install *registry* as the default; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def use_registry(registry: MetricRegistry) -> Iterator[MetricRegistry]:
    """Temporarily install *registry* as the process default."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


# ---------------------------------------------------------------------------
# Metric catalog — the contract docs/OBSERVABILITY.md and the tests pin.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric family the instrumentation emits."""

    name: str
    kind: str
    help: str
    labelnames: Tuple[str, ...] = ()
    buckets: Tuple[float, ...] = field(default=())

    def on(self, registry: MetricRegistry):
        """Get-or-create this metric on *registry*."""
        if self.kind == "counter":
            return registry.counter(self.name, self.help, self.labelnames)
        if self.kind == "gauge":
            return registry.gauge(self.name, self.help, self.labelnames)
        return registry.histogram(
            self.name, self.help, self.labelnames,
            buckets=self.buckets or TIME_BUCKETS,
        )


SOLVER_SOLVES = MetricSpec(
    "repro_solver_solves_total", "counter",
    "Steady-state solves completed, by backend.", ("method",),
)
SOLVER_ITERATIONS = MetricSpec(
    "repro_solver_iterations_total", "counter",
    "Cumulative steady-state solver iterations, by backend.", ("method",),
)
SOLVER_FALLBACKS = MetricSpec(
    "repro_solver_fallbacks_total", "counter",
    "Backends that failed before auto selection fell back.", ("method",),
)
SOLVER_RESIDUAL = MetricSpec(
    "repro_solver_residual", "histogram",
    "Final residual ||pi Q||_inf per solve, by backend.", ("method",),
    RESIDUAL_BUCKETS,
)
SOLVER_SECONDS = MetricSpec(
    "repro_solver_seconds", "histogram",
    "Wall-clock seconds per steady-state solve, by backend.", ("method",),
    TIME_BUCKETS,
)
SIM_RUNS = MetricSpec(
    "repro_sim_runs_total", "counter",
    "Simulation trajectories completed.",
)
SIM_EVENTS = MetricSpec(
    "repro_sim_events_total", "counter",
    "Simulation events fired (immediate + timed).",
)
SIM_DEADLOCKS = MetricSpec(
    "repro_sim_deadlocks_total", "counter",
    "Simulation runs that ended in a deadlock state.",
)
SIM_CLOCK_CARRIES = MetricSpec(
    "repro_sim_clock_carries_total", "counter",
    "Residual event clocks carried into resumed runs (batch means).",
)
SIM_RUN_SECONDS = MetricSpec(
    "repro_sim_run_seconds", "histogram",
    "Wall-clock seconds per simulation run.", (), TIME_BUCKETS,
)
SIM_EVENT_RATE = MetricSpec(
    "repro_sim_event_rate", "gauge",
    "Events per wall-clock second of the most recent simulation run.",
)
SIM_BATCHES = MetricSpec(
    "repro_sim_batches_total", "counter",
    "Batch-means batches completed.",
)
SIM_BATCH_LAG1 = MetricSpec(
    "repro_sim_batch_lag1", "gauge",
    "Lag-1 autocorrelation of the latest batch-means run, by measure.",
    ("measure",),
)
RUNTIME_SPANS = MetricSpec(
    "repro_runtime_spans_total", "counter",
    "Executor attempts and checkpoint-answered points, by phase and status.",
    ("phase", "status"),
)
RUNTIME_SPAN_SECONDS = MetricSpec(
    "repro_runtime_span_seconds_total", "counter",
    "Cumulative wall-clock seconds of executor attempts, by phase.",
    ("phase",),
)
RUNTIME_WORKER_TASKS = MetricSpec(
    "repro_runtime_worker_tasks_total", "counter",
    "Executor attempts, by worker process id.", ("worker",),
)
EXECUTOR_TASKS = MetricSpec(
    "repro_executor_tasks_total", "counter",
    "Tasks mapped by the parallel executor, by execution mode.",
    ("mode",),
)
CACHE_EVENTS = MetricSpec(
    "repro_cache_events_total", "counter",
    "Structural state-space cache events (hit / miss / relabel).",
    ("kind",),
)
CHECKPOINT_EVENTS = MetricSpec(
    "repro_checkpoint_events_total", "counter",
    "Sweep checkpoint journal events (replayed / recorded).", ("kind",),
)
SWEEP_POINTS = MetricSpec(
    "repro_sweep_points_total", "counter",
    "Sweep points computed, by case study and phase kind.",
    ("case", "kind"),
)
PHASE_SECONDS = MetricSpec(
    "repro_phase_seconds_total", "counter",
    "Cumulative wall-clock seconds per span name (non-executor spans).",
    ("phase",),
)
WORKLOAD_TRACES = MetricSpec(
    "repro_workload_traces_total", "counter",
    "Workload traces materialised, by source (generated / file / fitted).",
    ("source",),
)
WORKLOAD_EVENTS_REPLAYED = MetricSpec(
    "repro_workload_events_replayed_total", "counter",
    "Trace events drawn by TraceReplay sampling, by replay mode.",
    ("mode",),
)
WORKLOAD_FIT_ITERATIONS = MetricSpec(
    "repro_workload_fit_iterations_total", "counter",
    "Numerical iterations spent fitting traces, by candidate family.",
    ("family",),
)
WORKLOAD_KS_STATISTIC = MetricSpec(
    "repro_workload_ks_statistic", "gauge",
    "KS statistic of the most recent fit, by candidate family.",
    ("family",),
)

SPLITTING_TREES = MetricSpec(
    "repro_splitting_trees_total", "counter",
    "Splitting trees (rare-event replications) completed.",
)
SPLITTING_CLONES = MetricSpec(
    "repro_splitting_clones_total", "counter",
    "Trajectories cloned by up-crossing resampling (weight halved).",
)
SPLITTING_MERGES = MetricSpec(
    "repro_splitting_merges_total", "counter",
    "Trajectories merged by weight-conserving roulette at boundaries.",
)
SPLITTING_EVENTS = MetricSpec(
    "repro_splitting_events_total", "counter",
    "Events fired across all trajectories of splitting trees.",
)

#: Bucket schema for parametric per-point evaluations (microseconds).
PARAMETRIC_EVAL_BUCKETS: Tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 1e-2,
)

PARAMETRIC_ELIMINATIONS = MetricSpec(
    "repro_parametric_eliminations_total", "counter",
    "Parametric state eliminations attempted, by outcome status.",
    ("status",),
)
PARAMETRIC_ELIMINATION_SECONDS = MetricSpec(
    "repro_parametric_elimination_seconds", "histogram",
    "Wall-clock seconds per parametric elimination (build + fit).",
    (), TIME_BUCKETS,
)
PARAMETRIC_EVALUATIONS = MetricSpec(
    "repro_parametric_evaluations_total", "counter",
    "Sweep points evaluated through a parametric solution.",
)
PARAMETRIC_EVAL_SECONDS = MetricSpec(
    "repro_parametric_eval_seconds", "histogram",
    "Wall-clock seconds per parametric point evaluation.",
    (), PARAMETRIC_EVAL_BUCKETS,
)
PARAMETRIC_FALLBACKS = MetricSpec(
    "repro_parametric_fallbacks_total", "counter",
    "Falls back from the parametric path to per-point solves, by reason.",
    ("reason",),
)
FLEET_DEVICES = MetricSpec(
    "repro_fleet_devices", "gauge",
    "Device count N of the last fleet model solved.",
)
FLEET_PRODUCT_STATES = MetricSpec(
    "repro_fleet_product_states", "gauge",
    "Pre-lumping product-space size |C|*|S|^N of the last fleet solve.",
)
FLEET_LUMPED_STATES = MetricSpec(
    "repro_fleet_lumped_states", "gauge",
    "Multiset-lumped state count of the last fleet solve.",
)
FLEET_OPERATOR_NNZ = MetricSpec(
    "repro_fleet_operator_nnz_equivalent", "gauge",
    "Nonzero-equivalent entries of the last fleet operator, "
    "by representation.",
    ("representation",),
)
FLEET_MATVECS = MetricSpec(
    "repro_fleet_matvecs_total", "counter",
    "Matrix-free operator applications during fleet solves, "
    "by representation.",
    ("representation",),
)

#: Every metric the stack emits, in catalog order (docs/OBSERVABILITY.md).
CATALOG: Tuple[MetricSpec, ...] = (
    SOLVER_SOLVES,
    SOLVER_ITERATIONS,
    SOLVER_FALLBACKS,
    SOLVER_RESIDUAL,
    SOLVER_SECONDS,
    SIM_RUNS,
    SIM_EVENTS,
    SIM_DEADLOCKS,
    SIM_CLOCK_CARRIES,
    SIM_RUN_SECONDS,
    SIM_EVENT_RATE,
    SIM_BATCHES,
    SIM_BATCH_LAG1,
    RUNTIME_SPANS,
    RUNTIME_SPAN_SECONDS,
    RUNTIME_WORKER_TASKS,
    EXECUTOR_TASKS,
    CACHE_EVENTS,
    CHECKPOINT_EVENTS,
    SWEEP_POINTS,
    PHASE_SECONDS,
    WORKLOAD_TRACES,
    WORKLOAD_EVENTS_REPLAYED,
    WORKLOAD_FIT_ITERATIONS,
    WORKLOAD_KS_STATISTIC,
    SPLITTING_TREES,
    SPLITTING_CLONES,
    SPLITTING_MERGES,
    SPLITTING_EVENTS,
    PARAMETRIC_ELIMINATIONS,
    PARAMETRIC_ELIMINATION_SECONDS,
    PARAMETRIC_EVALUATIONS,
    PARAMETRIC_EVAL_SECONDS,
    PARAMETRIC_FALLBACKS,
    FLEET_DEVICES,
    FLEET_PRODUCT_STATES,
    FLEET_LUMPED_STATES,
    FLEET_OPERATOR_NNZ,
    FLEET_MATVECS,
)
