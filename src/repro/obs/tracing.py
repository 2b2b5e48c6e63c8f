"""Hierarchical causal tracing with cross-process span propagation.

The one timing and tracing instrument of the package.  Every unit of
work is a :class:`Span` with a ``trace_id`` shared by the whole run, its
own ``span_id``, and a ``parent_id`` pointing at the span that caused
it.  A context-local "current span" (:func:`span`) nests automatically
within one process; :class:`TraceContext` carries the (trace, span)
identity across process boundaries so worker-side spans — solver calls,
fast-engine batches, splitting trees, retries — attach under the sweep
point that submitted them.

Design rules (all pinned by ``tests/test_tracing.py``):

* **Bit-identity** — tracing reads only wall clocks and draws span ids
  from :func:`os.urandom`; it never touches a seeded random stream, so a
  traced run produces byte-identical numeric output to an untraced one.
* **Always-on totals** — every span closed in this process, traced or
  not, adds its duration to a per-name aggregate and its status to a
  per-status count (:func:`totals`).  Sweep runtime stats, the run
  ledger's phase timings, ``trace-summary`` and the benchmark records
  all read time from that one record; the metric registry
  (:mod:`repro.obs.metrics`) counts domain work only and never sees a
  span.  With no tracer installed a span costs two clock reads and a
  dict update.
* **Crash safety** — every finished span is appended to the JSONL
  sink with a single ``os.write`` on an ``O_APPEND`` descriptor;
  concurrent processes can never interleave partial lines, and a
  SIGKILL tears at most the final line.
* **Pre-allocated identity** — the submitting side may allocate a span
  id (:func:`new_span_id`), ship it to a worker inside a
  :class:`TraceContext`, and only *materialise* the span when the result
  comes back.  Worker spans therefore parent to an id that appears later
  in the file; consumers must treat the file as an unordered set.

Span record schema (one JSON object per line)::

    {"kind": "span", "trace": "4bf9...", "span": "00f0...",
     "parent": "77aa..." | null, "name": "execute",
     "start": 1722870000.123456, "end": 1722870000.345678,
     "status": "ok", "worker": 12345,
     "attrs": {"phase": "solve", "index": 3, "attempt": 0},
     "events": [{"name": "fallback", "ts": ..., "attrs": {...}}]}

Exporters: :func:`export_perfetto` (Chrome ``trace_event`` JSON, opens
in ``ui.perfetto.dev``) and :func:`export_otlp` (OTLP-shaped JSON).
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
)

#: Span statuses with a fixed meaning across the runtime.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_RETRY = "retry"          # attempt failed, another one is coming
STATUS_FAILED = "failed"        # attempt failed and the budget is gone
STATUS_CHECKPOINT_HIT = "checkpoint_hit"
STATUS_DEGRADED = "degraded"    # process pool abandoned for serial

RECORD_KIND = "span"


def new_trace_id() -> str:
    """A fresh 128-bit trace id (hex).  Never drawn from seeded RNGs."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (hex).  Never drawn from seeded RNGs."""
    return os.urandom(8).hex()


class TraceContext(NamedTuple):
    """Picklable (trace, parent span) identity shipped to workers."""

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One unit of work in the trace tree (mutable while open)."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    end: Optional[float] = None
    status: str = STATUS_OK
    attributes: Dict[str, Any] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    worker: int = 0

    def set_attributes(self, **attrs: Any) -> None:
        self.attributes.update(attrs)

    def add_event(self, name: str, **attrs: Any) -> None:
        self.events.append({"name": name, "ts": time.time(), "attrs": attrs})

    def to_record(self) -> Dict[str, Any]:
        record = {
            "kind": RECORD_KIND,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": round(self.start, 6),
            "end": round(self.end if self.end is not None else self.start, 6),
            "status": self.status,
            "worker": self.worker or os.getpid(),
        }
        if self.attributes:
            record["attrs"] = self.attributes
        if self.events:
            record["events"] = self.events
        return record


class Tracer:
    """Span collector with an optional crash-safe JSONL sink.

    ``path=None`` keeps records in memory only (the worker-side
    collector); with a path every finished span is also appended as one
    atomic ``os.write``.  A tracer owns the run's ``trace_id`` unless an
    explicit one is supplied (worker collectors adopt the parent's).
    """

    def __init__(self, path: Optional[str] = None, trace_id: Optional[str] = None):
        self.path = path
        self.trace_id = trace_id or new_trace_id()
        self._records: List[Dict[str, Any]] = []
        self._fd: Optional[int] = None

    # -- emission ----------------------------------------------------------

    def emit(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Append one finished-span record (memory + sink)."""
        self._records.append(record)
        if self.path is not None:
            if self._fd is None:
                self._fd = os.open(
                    self.path,
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                    0o644,
                )
            line = json.dumps(record, sort_keys=True) + "\n"
            os.write(self._fd, line.encode("utf-8"))
        return record

    def finish(self, span: Span) -> Dict[str, Any]:
        """Close an open span (stamping ``end`` if unset) and emit it."""
        if span.end is None:
            span.end = time.time()
        return self.emit(span.to_record())

    def add_span(
        self,
        name: str,
        parent_id: Optional[str],
        start: float,
        end: float,
        status: str = STATUS_OK,
        span_id: Optional[str] = None,
        trace_id: Optional[str] = None,
        worker: Optional[int] = None,
        **attrs: Any,
    ) -> str:
        """Manufacture an already-finished span (the executor primitive).

        Returns the span id so callers can parent further spans to it.
        """
        span = Span(
            trace_id=trace_id or self.trace_id,
            span_id=span_id or new_span_id(),
            parent_id=parent_id,
            name=name,
            start=start,
            end=end,
            status=status,
            attributes=dict(attrs),
            worker=worker if worker is not None else os.getpid(),
        )
        self.emit(span.to_record())
        return span.span_id

    def ingest(self, records: Iterable[Dict[str, Any]]) -> None:
        """Adopt finished-span records produced by another process."""
        for record in records:
            self.emit(record)

    # -- views -------------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        return list(self._records)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class SpanTotals:
    """Span count and seconds per name, plus a span count per status."""

    __slots__ = ("names", "statuses")

    def __init__(self) -> None:
        self.names: Dict[str, List[float]] = {}  # name -> [count, seconds]
        self.statuses: Dict[str, int] = {}

    def add(self, name: str, seconds: float, status: str) -> None:
        stats = self.names.get(name)
        if stats is None:
            stats = self.names[name] = [0, 0.0]
        stats[0] += 1
        stats[1] += seconds
        self.statuses[status] = self.statuses.get(status, 0) + 1

    def copy(self) -> "SpanTotals":
        copied = SpanTotals()
        copied.names = {name: list(stat) for name, stat in self.names.items()}
        copied.statuses = dict(self.statuses)
        return copied

    def since(self, earlier: "SpanTotals") -> "SpanTotals":
        """The spans closed after the *earlier* snapshot was taken."""
        delta = SpanTotals()
        for name, (count, seconds) in self.names.items():
            before = earlier.names.get(name, (0, 0.0))
            if count > before[0]:
                delta.names[name] = [count - before[0], seconds - before[1]]
        for status, count in self.statuses.items():
            count -= earlier.statuses.get(status, 0)
            if count > 0:
                delta.statuses[status] = count
        return delta

    def merge(self, other: "SpanTotals") -> None:
        """Add *other*'s counts and seconds (e.g. a worker's) to these."""
        for name, (count, seconds) in other.names.items():
            stats = self.names.get(name)
            if stats is None:
                stats = self.names[name] = [0, 0.0]
            stats[0] += count
            stats[1] += seconds
        for status, count in other.statuses.items():
            self.statuses[status] = self.statuses.get(status, 0) + count

    def count(self, status: str) -> int:
        return self.statuses.get(status, 0)

    def timings(self) -> Dict[str, Dict[str, float]]:
        """``{name: {seconds, count}}``, sorted by name."""
        return {
            name: {"seconds": seconds, "count": count}
            for name, (count, seconds) in sorted(self.names.items())
        }


#: Every span closed in this process, plus those its pool workers
#: closed (see :func:`merge_totals`).
_TOTALS = SpanTotals()


def totals() -> SpanTotals:
    """Snapshot of this process's span totals; diff two with
    :meth:`SpanTotals.since`."""
    return _TOTALS.copy()


def merge_totals(worker: SpanTotals) -> None:
    """Count the spans another process closed (see
    :meth:`SpanTotals.since`) as closed in this one."""
    _TOTALS.merge(worker)


class _UntracedSpan:
    """What :func:`span` yields when tracing is off.

    Only ``status`` is kept (it reaches the totals); attributes and
    events are dropped.
    """

    __slots__ = ("status",)

    def __init__(self) -> None:
        self.status = STATUS_OK

    def set_attributes(self, **attrs: Any) -> None:
        pass

    def add_event(self, name: str, **attrs: Any) -> None:
        pass


#: The process-wide active tracer (None = tracing off).  Mirrors the
#: ``get_registry`` idiom of :mod:`repro.obs.metrics`.
_ACTIVE: Optional[Tracer] = None

#: The context-local current span: (trace_id, span_id, Span-or-None).
#: The Span object is None when the parent lives in another process
#: (seeded from a TraceContext) — identity is known, mutation is not
#: possible.
_CURRENT: contextvars.ContextVar[Optional[tuple]] = contextvars.ContextVar(
    "repro_current_span", default=None
)

#: Names of the spans open in this context (traced or not).
_OPEN_NAMES: contextvars.ContextVar[FrozenSet[str]] = contextvars.ContextVar(
    "repro_open_span_names", default=frozenset()
)


def get_tracer() -> Optional[Tracer]:
    return _ACTIVE


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install *tracer* as the active tracer; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def active() -> bool:
    return _ACTIVE is not None


@contextlib.contextmanager
def use_tracer(
    tracer: Optional[Tracer], context: Optional[TraceContext] = None
) -> Iterator[Optional[Tracer]]:
    """Scoped :func:`set_tracer`, optionally seeding the current span
    from a :class:`TraceContext` (the worker-side entry point)."""
    previous = set_tracer(tracer)
    token = None
    if context is not None:
        token = _CURRENT.set((context.trace_id, context.span_id, None))
    try:
        yield tracer
    finally:
        if token is not None:
            _CURRENT.reset(token)
        set_tracer(previous)


def current_context() -> Optional[TraceContext]:
    """The (trace, span) identity a submitted task should inherit."""
    current = _CURRENT.get()
    if current is not None:
        return TraceContext(current[0], current[1])
    if _ACTIVE is not None:
        return TraceContext(_ACTIVE.trace_id, "")
    return None


def current_span_id() -> Optional[str]:
    current = _CURRENT.get()
    return current[1] if current else None


@contextlib.contextmanager
def span(name: str, **attrs: Any) -> Iterator[Any]:
    """Open a child of the current span for the duration of the block.

    Yields the mutable :class:`Span` (or a status-only stand-in when
    tracing is off — callers never need to branch).  An exception
    escaping the block marks the span ``error`` with the exception type
    attached, then propagates.  Either way the closed span reaches the
    process totals — its seconds only when no span of the same name
    encloses it in this context, so nested spans of one name (a sweep
    point's replication chunks inside its ``point`` span) never count
    their time twice.
    """
    open_names = _OPEN_NAMES.get()
    nested = name in open_names
    names_token = None if nested else _OPEN_NAMES.set(open_names | {name})
    tracer = _ACTIVE
    if tracer is None:
        untraced = _UntracedSpan()
        started = time.perf_counter()
        try:
            yield untraced
        except BaseException:
            untraced.status = STATUS_ERROR
            raise
        finally:
            if names_token is not None:
                _OPEN_NAMES.reset(names_token)
            _TOTALS.add(
                name,
                0.0 if nested else time.perf_counter() - started,
                untraced.status,
            )
        return
    current = _CURRENT.get()
    trace_id = current[0] if current else tracer.trace_id
    parent_id = current[1] if current else None
    started_wall = time.time()
    started_perf = time.perf_counter()
    opened = Span(
        trace_id=trace_id,
        span_id=new_span_id(),
        parent_id=parent_id,
        name=name,
        start=started_wall,
        attributes=dict(attrs),
    )
    token = _CURRENT.set((trace_id, opened.span_id, opened))
    try:
        yield opened
    except BaseException as error:
        opened.status = STATUS_ERROR
        opened.attributes.setdefault("error", type(error).__name__)
        raise
    finally:
        _CURRENT.reset(token)
        if names_token is not None:
            _OPEN_NAMES.reset(names_token)
        elapsed = time.perf_counter() - started_perf
        opened.end = started_wall + elapsed
        tracer.finish(opened)
        _TOTALS.add(name, 0.0 if nested else elapsed, opened.status)


def add_attributes(**attrs: Any) -> None:
    """Attach attributes to the innermost open span (no-op otherwise)."""
    current = _CURRENT.get()
    if current is not None and current[2] is not None:
        current[2].set_attributes(**attrs)


def add_event(name: str, **attrs: Any) -> None:
    """Attach a point-in-time event to the innermost open span."""
    current = _CURRENT.get()
    if current is not None and current[2] is not None:
        current[2].add_event(name, **attrs)


def record_span(name: str, elapsed: float, status: str = STATUS_OK, **attrs: Any) -> None:
    """Manufacture a finished child span ending now and lasting *elapsed*.

    The instrumentation primitive for code that already measured its own
    duration (solver reports, fast-engine batches): one call where the
    work is recorded; only the totals when tracing is off.
    """
    current = _CURRENT.get()
    ended = time.time()
    add_span(
        name,
        parent_id=current[1] if current else None,
        start=ended - max(elapsed, 0.0),
        end=ended,
        status=status,
        trace_id=current[0] if current else None,
        **attrs,
    )


def add_span(
    name: str,
    parent_id: Optional[str],
    start: float,
    end: float,
    status: str = STATUS_OK,
    worker: Optional[int] = None,
    **attrs: Any,
) -> None:
    """Count an already-finished span in the totals and, when tracing,
    emit it through :meth:`Tracer.add_span` (same keyword arguments)."""
    _TOTALS.add(name, end - start, status)
    tracer = _ACTIVE
    if tracer is not None:
        tracer.add_span(
            name, parent_id, start, end, status, worker=worker, **attrs
        )


# -- file handling ---------------------------------------------------------


def read_spans(path: str) -> List[Dict[str, Any]]:
    """Load span records from a JSONL trace file (torn tail tolerated).

    Lines that are not span records are skipped.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for position, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if position == len(lines) - 1:
                continue  # a kill mid-write tears at most the last line
            raise
        if isinstance(record, dict) and record.get("kind") == RECORD_KIND:
            records.append(record)
    return records


def build_tree(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Index a span set: by id, children lists, and the roots."""
    by_id: Dict[str, Dict[str, Any]] = {}
    children: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        by_id[record["span"]] = record
    roots: List[Dict[str, Any]] = []
    for record in by_id.values():
        parent = record.get("parent")
        if parent is None:
            roots.append(record)
        else:
            children.setdefault(parent, []).append(record)
    return {"by_id": by_id, "children": children, "roots": roots}


def validate_tree(records: Iterable[Dict[str, Any]]) -> List[str]:
    """Well-formedness problems of a span set (empty list = valid).

    Checks: exactly one root, every parent id resolves (no orphans),
    every span reachable from the root, one trace id, sane timestamps.
    """
    records = list(records)
    problems: List[str] = []
    if not records:
        return ["no span records"]
    tree = build_tree(records)
    by_id, children, roots = tree["by_id"], tree["children"], tree["roots"]
    if len(by_id) != len(records):
        problems.append("duplicate span ids")
    if len(roots) != 1:
        names = sorted(record["name"] for record in roots)
        problems.append(f"expected one root span, found {len(roots)}: {names}")
    traces = {record["trace"] for record in by_id.values()}
    if len(traces) != 1:
        problems.append(f"expected one trace id, found {len(traces)}")
    for record in by_id.values():
        parent = record.get("parent")
        if parent is not None and parent not in by_id:
            problems.append(
                f"orphan span {record['name']} ({record['span']}): "
                f"parent {parent} not in trace"
            )
        if record["end"] < record["start"]:
            problems.append(f"span {record['name']} ends before it starts")
    if len(roots) == 1 and not problems:
        reachable = set()
        stack = [roots[0]["span"]]
        while stack:
            span_id = stack.pop()
            if span_id in reachable:
                continue
            reachable.add(span_id)
            stack.extend(child["span"] for child in children.get(span_id, []))
        unreachable = set(by_id) - reachable
        if unreachable:
            names = sorted(by_id[s]["name"] for s in unreachable)
            problems.append(f"{len(unreachable)} spans unreachable from root: {names}")
    return problems


# -- aggregation ----------------------------------------------------------


def summarize_spans(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-name aggregate with the self-time vs cumulative-time split.

    ``cum`` is the wall duration of the span itself; ``self`` subtracts
    the durations of direct children, so a parent that merely waits on
    its children shows near-zero self-time.
    """
    records = list(records)
    child_seconds: Dict[str, float] = {}
    for record in records:
        parent = record.get("parent")
        if parent is not None:
            duration = record["end"] - record["start"]
            child_seconds[parent] = child_seconds.get(parent, 0.0) + duration
    names: Dict[str, Dict[str, float]] = {}
    statuses: Dict[str, int] = {}
    for record in records:
        duration = record["end"] - record["start"]
        own = max(duration - child_seconds.get(record["span"], 0.0), 0.0)
        stats = names.setdefault(
            record["name"], {"spans": 0, "cum": 0.0, "self": 0.0, "errors": 0}
        )
        stats["spans"] += 1
        stats["cum"] += duration
        stats["self"] += own
        status = record.get("status", STATUS_OK)
        statuses[status] = statuses.get(status, 0) + 1
        if status not in (STATUS_OK, "cache_hit", "checkpoint_hit"):
            stats["errors"] += 1
    return {
        "statuses": dict(sorted(statuses.items())),
        "names": {name: dict(stats) for name, stats in sorted(names.items())},
    }


def render_span_summary(
    summary: Dict[str, Any], title: str = "trace summary (spans)"
) -> str:
    """Plain-text report of :func:`summarize_spans` output."""
    from ..core.reporting import format_table

    lines = [f"=== {title} ==="]
    rows = [
        [
            name,
            int(stats["spans"]),
            f"{stats['self']:.3f}",
            f"{stats['cum']:.3f}",
        ]
        for name, stats in summary["names"].items()
    ]
    lines.append(
        format_table(["span", "count", "self [s]", "cum [s]"], rows)
    )
    status_rows = [
        [status, count] for status, count in summary["statuses"].items()
    ]
    lines.append("")
    lines.append(format_table(["status", "spans"], status_rows))
    return "\n".join(lines)


# -- exporters -------------------------------------------------------------


def export_perfetto(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Chrome/Perfetto ``trace_event`` JSON (complete ``"X"`` events).

    Timestamps are microseconds; each worker process becomes one
    pid/tid track, so pool execution renders as parallel lanes in
    ``ui.perfetto.dev``.
    """
    events: List[Dict[str, Any]] = []
    for record in sorted(records, key=lambda r: r["start"]):
        attrs = dict(record.get("attrs", {}))
        attrs["trace"] = record["trace"]
        attrs["span"] = record["span"]
        if record.get("parent"):
            attrs["parent"] = record["parent"]
        attrs["status"] = record.get("status", STATUS_OK)
        worker = record.get("worker", 0)
        events.append(
            {
                "name": record["name"],
                "ph": "X",
                "ts": round(record["start"] * 1e6, 3),
                "dur": round((record["end"] - record["start"]) * 1e6, 3),
                "pid": worker,
                "tid": worker,
                "cat": "repro",
                "args": attrs,
            }
        )
        for event in record.get("events", []):
            events.append(
                {
                    "name": event["name"],
                    "ph": "i",
                    "ts": round(event["ts"] * 1e6, 3),
                    "pid": worker,
                    "tid": worker,
                    "cat": "repro",
                    "s": "t",
                    "args": dict(event.get("attrs", {})),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _otlp_value(value: Any) -> Dict[str, Any]:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def _otlp_attributes(attrs: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [
        {"key": key, "value": _otlp_value(value)}
        for key, value in sorted(attrs.items())
    ]


def export_otlp(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """OTLP-shaped JSON dump (``resourceSpans``/``scopeSpans`` nesting,
    nanosecond unix timestamps, typed attribute values)."""
    spans: List[Dict[str, Any]] = []
    for record in sorted(records, key=lambda r: r["start"]):
        status_ok = record.get("status", STATUS_OK) not in ("failed", STATUS_ERROR)
        spans.append(
            {
                "traceId": record["trace"],
                "spanId": record["span"],
                "parentSpanId": record.get("parent") or "",
                "name": record["name"],
                "kind": 1,
                "startTimeUnixNano": str(int(record["start"] * 1e9)),
                "endTimeUnixNano": str(int(record["end"] * 1e9)),
                "status": {"code": 1 if status_ok else 2},
                "attributes": _otlp_attributes(
                    dict(
                        record.get("attrs", {}),
                        worker=record.get("worker", 0),
                        **{"repro.status": record.get("status", STATUS_OK)},
                    )
                ),
                "events": [
                    {
                        "name": event["name"],
                        "timeUnixNano": str(int(event["ts"] * 1e9)),
                        "attributes": _otlp_attributes(event.get("attrs", {})),
                    }
                    for event in record.get("events", [])
                ],
            }
        )
    return {
        "resourceSpans": [
            {
                "resource": {
                    "attributes": _otlp_attributes({"service.name": "repro"})
                },
                "scopeSpans": [
                    {
                        "scope": {"name": "repro.obs.tracing"},
                        "spans": spans,
                    }
                ],
            }
        ]
    }


def write_perfetto(records: Iterable[Dict[str, Any]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(export_perfetto(records), handle, sort_keys=True)
        handle.write("\n")


def write_otlp(records: Iterable[Dict[str, Any]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(export_otlp(records), handle, sort_keys=True)
        handle.write("\n")
