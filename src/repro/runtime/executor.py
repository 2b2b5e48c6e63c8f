"""Deterministic, fault-tolerant parallel task execution.

:class:`ParallelExecutor` wraps :class:`concurrent.futures.ProcessPoolExecutor`
with the conventions the experiment stack needs:

* **Serial fallback** — ``workers=1`` runs tasks inline with zero process
  overhead and is the CI-deterministic default everywhere; any parallel
  result is required (and tested) to be identical to the serial one.
* **Shared payload** — large read-only inputs (a cached state-space
  skeleton, the measure set) are shipped to each worker process *once* via
  the pool initializer instead of being pickled per task.
* **Deterministic ordering** — results always come back in input order
  regardless of completion order.
* **Chunked submission** — tasks are submitted in chunks so thousands of
  tiny tasks (replication runs) don't drown in IPC overhead.
* **Fault tolerance** — with a :class:`RetryPolicy`, each task gets a
  bounded number of attempts with exponential backoff; a broken process
  pool (a worker died) is rebuilt, and after ``max_pool_restarts``
  breakages the executor degrades gracefully to the serial path, which is
  always result-identical.  Typed failures come from
  :mod:`repro.errors` (:class:`~repro.errors.RetryBudgetExceededError`).
* **Checkpoint / trace hooks** — completed tasks can be journaled to a
  :class:`~repro.runtime.checkpoint.SweepCheckpoint` (so an interrupted
  sweep resumes bit-identically), and on the resilient path every point
  and attempt is a :mod:`repro.obs.tracing` span, so retries, checkpoint
  hits and degradations reach the span totals with or without a trace
  file.

Worker functions must be module-level callables of the form
``fn(shared, item)`` so they can be pickled by reference.  Tasks must be
pure functions of ``(shared, item)``: that is what makes retries, pool
rebuilds and serial degradation invisible in the results.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import RetryBudgetExceededError
from ..obs import metrics as obs_metrics
from ..obs import tracing
from .faults import KILL, FaultInjector


def _count_tasks(mode: str, count: int) -> None:
    """Bump ``repro_executor_tasks_total`` for one dispatched batch."""
    registry = obs_metrics.get_registry()
    if registry.enabled and count:
        obs_metrics.EXECUTOR_TASKS.on(registry).labels(mode=mode).inc(
            count
        )

#: Upper bound on auto-detected workers (sweeps rarely scale past this).
_MAX_AUTO_WORKERS = 8

_SHARED: Any = None


def _init_shared(shared: Any) -> None:
    global _SHARED
    _SHARED = shared


def _call_with_shared(fn: Callable[[Any, Any], Any], item: Any) -> Any:
    return fn(_SHARED, item)


def _resilient_call(
    fn: Callable[[Any, Any], Any],
    faults: Optional[FaultInjector],
    index: int,
    attempt: int,
    item: Any,
    ctx: Optional[tracing.TraceContext] = None,
):
    """Worker-side wrapper: apply planned faults, run, report metrics.

    When the parent ships a :class:`~repro.obs.tracing.TraceContext`,
    the task runs under a fresh in-memory collector tracer seeded with
    that identity — shadowing whatever tracer the fork inherited, so a
    worker never writes to the parent's trace sink — and the collected
    span records travel back in ``meta["spans"]`` for the parent to
    attach under the execute span it pre-allocated at submit time.
    """
    started = time.time()
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    if faults is not None:
        faults.apply(index, attempt, in_worker=True)
    spans: List[Dict[str, Any]] = []
    if ctx is not None:
        collector = tracing.Tracer(trace_id=ctx.trace_id)
        with tracing.use_tracer(collector, context=ctx):
            value = fn(_SHARED, item)
        spans = collector.records()
    else:
        value = fn(_SHARED, item)
    wall = time.perf_counter() - wall_started
    meta = {
        "worker": os.getpid(),
        "wall": wall,
        "cpu": time.process_time() - cpu_started,
        "started": started,
        "ended": started + wall,
        "spans": spans,
    }
    return value, meta


class _PointSpans:
    """Parent-side span bookkeeping for the resilient pool path.

    The pool path cannot use :func:`repro.obs.tracing.span` context
    managers — a point's attempts interleave with other points across
    rounds — so it manufactures finished spans through
    :func:`repro.obs.tracing.add_span`: one point span per index
    (materialised when the point completes) and one execute span per
    submission, with queue wait (submit → worker start) as a separate
    child span of the point.  These always reach the span totals.  When
    a tracer is active, span ids are *pre-allocated*: the execute span's
    id travels to the worker inside the
    :class:`~repro.obs.tracing.TraceContext` so worker-side spans parent
    correctly.
    """

    def __init__(self, phase: str):
        self.tracer = tracing.get_tracer()
        self.active = self.tracer is not None
        self.phase = phase
        context = tracing.current_context()
        self.trace_id = context.trace_id if context else None
        self.parent_id = tracing.current_span_id()
        self._points: Dict[int, tuple] = {}  # index -> (span_id, start)
        self._finished: set = set()

    def point_id(self, index: int) -> Optional[str]:
        point = self._points.get(index)
        if point is None:
            span_id = tracing.new_span_id() if self.active else None
            point = (span_id, time.time())
            self._points[index] = point
        return point[0]

    def submit(self, index: int) -> Optional[tracing.TraceContext]:
        """Allocate the execute-span identity for one submission."""
        self.point_id(index)
        if not self.active:
            return None
        return tracing.TraceContext(self.trace_id, tracing.new_span_id())

    def executed(
        self,
        index: int,
        ctx: Optional[tracing.TraceContext],
        submitted: float,
        meta: Dict[str, Any],
        attempt: int,
    ) -> None:
        """Record a completed submission: queue-wait + execute + worker spans."""
        point_id = self.point_id(index)
        started = max(meta["started"], submitted)
        tracing.add_span(
            "queue-wait",
            parent_id=point_id,
            start=submitted,
            end=started,
            trace_id=self.trace_id,
        )
        tracing.add_span(
            "execute",
            parent_id=point_id,
            start=started,
            end=max(meta["ended"], started),
            span_id=ctx.span_id if ctx else None,
            trace_id=self.trace_id,
            worker=meta["worker"],
            phase=self.phase,
            attempt=attempt,
            cpu=round(meta["cpu"], 6),
        )
        if self.active:
            self.tracer.ingest(meta["spans"])

    def failed(
        self,
        index: int,
        ctx: Optional[tracing.TraceContext],
        submitted: float,
        attempt: int,
        status: str,
        error: str,
    ) -> None:
        """Record a submission that died without shipping metadata back."""
        tracing.add_span(
            "execute",
            parent_id=self.point_id(index),
            start=submitted,
            end=time.time(),
            status=status,
            span_id=ctx.span_id if ctx else None,
            trace_id=self.trace_id,
            phase=self.phase,
            attempt=attempt,
            error=error,
        )

    def checkpoint_hit(self, index: int) -> None:
        """A point answered from the journal: zero-duration point span."""
        span_id = self.point_id(index)
        now = self._points[index][1]
        self._finished.add(index)
        tracing.add_span(
            "point",
            parent_id=self.parent_id,
            start=now,
            end=now,
            status=tracing.STATUS_CHECKPOINT_HIT,
            span_id=span_id,
            trace_id=self.trace_id,
            phase=self.phase,
            index=index,
        )

    def finish(self, index: int, status: str = tracing.STATUS_OK) -> None:
        """Materialise the point span once the point has a result."""
        if index in self._finished:
            return
        point = self._points.get(index)
        if point is None:
            return
        self._finished.add(index)
        tracing.add_span(
            "point",
            parent_id=self.parent_id,
            start=point[1],
            end=time.time(),
            status=status,
            span_id=point[0],
            trace_id=self.trace_id,
            phase=self.phase,
            index=index,
        )

    def finish_abandoned(self) -> None:
        """Materialise points left open by an aborted run (failed tasks),
        so even a crashed sweep leaves a well-formed tree behind."""
        for index in list(self._points):
            self.finish(index, status=tracing.STATUS_FAILED)

    def reparent(self, index: int):
        """Context for serial-degrade attempts: nest under the point span."""
        span_id = self.point_id(index)
        if not self.active:
            return contextlib.nullcontext()
        return tracing.use_tracer(
            self.tracer,
            context=tracing.TraceContext(self.trace_id, span_id),
        )


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker-count request.

    ``None``/``0`` auto-detect (``os.cpu_count()`` capped at
    ``_MAX_AUTO_WORKERS``); explicit values pass through; anything below 1
    falls back to serial.
    """
    if workers is None or workers == 0:
        detected = os.cpu_count() or 1
        return max(1, min(detected, _MAX_AUTO_WORKERS))
    return max(1, int(workers))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff.

    ``max_attempts`` counts every execution of a task, so ``1`` means "no
    retries".  The backoff before retry attempt *k* (1-based) is
    ``backoff * backoff_factor**(k-1)`` capped at ``max_backoff`` — kept
    small by default because our tasks are compute-bound, not remote.
    """

    max_attempts: int = 3
    backoff: float = 0.01
    backoff_factor: float = 2.0
    max_backoff: float = 1.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delay_before(self, attempt: int) -> float:
        """Seconds to wait before (1-based retry) *attempt*."""
        if attempt <= 0:
            return 0.0
        return min(
            self.backoff * self.backoff_factor ** (attempt - 1),
            self.max_backoff,
        )


#: Retrying is the default as soon as the resilient path is engaged.
DEFAULT_RETRY = RetryPolicy()
#: Fail fast: a single attempt per task.
NO_RETRY = RetryPolicy(max_attempts=1)


class ParallelExecutor:
    """Process-pool map with serial fallback, retries and shared payloads."""

    def __init__(
        self,
        workers: Optional[int] = 1,
        max_pool_restarts: int = 2,
    ):
        self.workers = resolve_workers(workers)
        self.max_pool_restarts = max_pool_restarts

    @property
    def is_serial(self) -> bool:
        """True when tasks run inline in this process."""
        return self.workers == 1

    def map(
        self,
        fn: Callable[[Any, Any], Any],
        items: Sequence[Any],
        shared: Any = None,
        chunksize: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        checkpoint: Optional[Any] = None,
        phase: str = "task",
    ) -> List[Any]:
        """Run ``fn(shared, item)`` over *items*, preserving input order.

        With none of *retry*/*faults*/*checkpoint* set and no active
        tracer this is the zero-overhead fast path (chunked ``pool.map``
        or an inline loop).  Otherwise the resilient path runs: per-task
        attempts under *retry* (default :data:`DEFAULT_RETRY`), planned
        faults from *faults*, completed tasks journaled to *checkpoint*
        (and replayed from it instead of recomputed), and one ``point``
        span per item with one ``execute`` span per attempt, labelled
        with *phase*.

        Either way the results are bit-identical to the plain serial
        ``[fn(shared, item) for item in items]`` — tasks are pure, retries
        recompute the same value, and checkpoints replay exact values.
        If the platform refuses to fork worker processes the call degrades
        to the serial path rather than failing.
        """
        items = list(items)
        if not items:
            return []
        resilient = (
            retry is not None
            or faults is not None
            or checkpoint is not None
            or tracing.active()
        )
        if not resilient:
            _count_tasks(
                "serial" if self.is_serial else "pool", len(items)
            )
            return self._map_fast(fn, items, shared, chunksize)
        retry = retry or DEFAULT_RETRY
        if self.is_serial or len(items) == 1:
            _count_tasks("resilient-serial", len(items))
            return self._map_serial(
                fn, items, shared, retry, faults, checkpoint, phase
            )
        _count_tasks("resilient-pool", len(items))
        return self._map_parallel(
            fn, items, shared, retry, faults, checkpoint, phase
        )

    # -- fast path (no retry/trace/checkpoint machinery) -------------------

    def _map_fast(
        self,
        fn: Callable[[Any, Any], Any],
        items: List[Any],
        shared: Any,
        chunksize: Optional[int],
    ) -> List[Any]:
        if self.is_serial or len(items) == 1:
            return [fn(shared, item) for item in items]
        if chunksize is None:
            chunksize = max(1, len(items) // (self.workers * 4))
        # Imported lazily: merely importing the pool machinery is useless
        # on the serial path, and some sandboxes forbid process creation.
        from concurrent.futures import ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(items)),
                initializer=_init_shared,
                initargs=(shared,),
            ) as pool:
                return list(
                    pool.map(
                        partial(_call_with_shared, fn),
                        items,
                        chunksize=chunksize,
                    )
                )
        except (OSError, PermissionError):
            # Process creation unavailable (restricted sandbox): degrade
            # to the serial path, which is always result-identical.
            return [fn(shared, item) for item in items]

    # -- resilient serial path ---------------------------------------------

    def _map_serial(
        self,
        fn: Callable[[Any, Any], Any],
        items: List[Any],
        shared: Any,
        retry: RetryPolicy,
        faults: Optional[FaultInjector],
        checkpoint: Optional[Any],
        phase: str,
    ) -> List[Any]:
        results: List[Any] = [None] * len(items)
        for index, item in enumerate(items):
            if checkpoint is not None and index in checkpoint.completed:
                results[index] = checkpoint.completed[index]
                tracing.record_span(
                    "point", 0.0,
                    status=tracing.STATUS_CHECKPOINT_HIT,
                    phase=phase, index=index,
                )
                continue
            with tracing.span("point", phase=phase, index=index):
                results[index] = self._attempt_serial(
                    fn, shared, item, index, retry, faults, phase,
                    checkpoint,
                )
        return results

    def _attempt_serial(
        self,
        fn: Callable[[Any, Any], Any],
        shared: Any,
        item: Any,
        index: int,
        retry: RetryPolicy,
        faults: Optional[FaultInjector],
        phase: str,
        checkpoint: Optional[Any],
        first_attempt: int = 0,
    ) -> Any:
        last_error: Optional[Exception] = None
        for attempt in range(first_attempt, retry.max_attempts):
            if attempt > first_attempt:
                time.sleep(retry.delay_before(attempt - first_attempt))
            wall_started = time.perf_counter()
            with tracing.span(
                "execute", phase=phase, index=index, attempt=attempt
            ) as exec_span:
                try:
                    if faults is not None:
                        faults.apply(index, attempt, in_worker=False)
                    value = fn(shared, item)
                except Exception as error:  # noqa: BLE001 — retry task errors
                    last_error = error
                    exhausted = attempt + 1 >= retry.max_attempts
                    exec_span.status = (
                        tracing.STATUS_FAILED
                        if exhausted
                        else tracing.STATUS_RETRY
                    )
                    exec_span.set_attributes(error=repr(error))
                    continue
            if checkpoint is not None:
                checkpoint.record(
                    index, value, elapsed=time.perf_counter() - wall_started
                )
            return value
        raise RetryBudgetExceededError(
            index, retry.max_attempts - first_attempt, last_error
        )

    # -- resilient parallel path -------------------------------------------

    def _map_parallel(
        self,
        fn: Callable[[Any, Any], Any],
        items: List[Any],
        shared: Any,
        retry: RetryPolicy,
        faults: Optional[FaultInjector],
        checkpoint: Optional[Any],
        phase: str,
    ) -> List[Any]:
        """Submit-per-task pool execution in rounds.

        Each round submits every still-pending task to a fresh pool; task
        failures consume one attempt of that task's budget, a broken pool
        (worker death) consumes one pool restart — and one attempt for
        exactly the tasks whose fault plan called for a kill, which the
        parent recomputes from the (deterministic) injector instead of
        waiting for a report from a dead process.  After
        ``max_pool_restarts`` breakages the remaining tasks run serially.
        """
        from concurrent.futures import as_completed
        from concurrent.futures.process import BrokenProcessPool

        point_spans = _PointSpans(phase)
        results: Dict[int, Any] = {}
        attempts: Dict[int, int] = {}
        pending: List[int] = []
        for index in range(len(items)):
            if checkpoint is not None and index in checkpoint.completed:
                results[index] = checkpoint.completed[index]
                point_spans.checkpoint_hit(index)
            else:
                attempts[index] = 0
                pending.append(index)

        try:
            return self._run_parallel_rounds(
                fn, items, shared, retry, faults, checkpoint, phase,
                point_spans, results, attempts, pending,
                as_completed, BrokenProcessPool,
            )
        finally:
            point_spans.finish_abandoned()

    def _run_parallel_rounds(
        self,
        fn: Callable[[Any, Any], Any],
        items: List[Any],
        shared: Any,
        retry: RetryPolicy,
        faults: Optional[FaultInjector],
        checkpoint: Optional[Any],
        phase: str,
        point_spans: _PointSpans,
        results: Dict[int, Any],
        attempts: Dict[int, int],
        pending: List[int],
        as_completed,
        BrokenProcessPool,
    ) -> List[Any]:
        pool_restarts = 0
        while pending:
            if pool_restarts > self.max_pool_restarts:
                for index in pending:
                    # Execute spans already reference this point's id:
                    # nest the serial attempts under it, then
                    # materialise it as degraded.
                    with point_spans.reparent(index):
                        results[index] = self._attempt_serial(
                            fn, shared, items[index], index, retry,
                            faults, phase, checkpoint,
                            first_attempt=attempts[index],
                        )
                    point_spans.finish(
                        index, status=tracing.STATUS_DEGRADED
                    )
                pending = []
                break
            backoff = max(
                (
                    retry.delay_before(attempts[index])
                    for index in pending
                ),
                default=0.0,
            )
            if backoff > 0.0:
                time.sleep(backoff)
            pool_broken = False
            try:
                from concurrent.futures import ProcessPoolExecutor

                pool = ProcessPoolExecutor(
                    max_workers=min(self.workers, len(pending)),
                    initializer=_init_shared,
                    initargs=(shared,),
                )
            except (OSError, PermissionError):
                # Process creation unavailable: finish serially.
                pool_restarts = self.max_pool_restarts + 1
                continue
            try:
                futures = {}
                for index in pending:
                    ctx = point_spans.submit(index)
                    futures[
                        pool.submit(
                            _resilient_call,
                            fn, faults, index, attempts[index],
                            items[index], ctx,
                        )
                    ] = (index, ctx, time.time())
                still_pending: List[int] = []
                for future in as_completed(futures):
                    index, ctx, submitted = futures[future]
                    try:
                        value, meta = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        if (
                            faults is not None
                            and faults.plan(index, attempts[index]) == KILL
                        ):
                            # The kill consumed this task's attempt; tasks
                            # merely caught in the pool collapse retry for
                            # free.
                            point_spans.failed(
                                index, ctx, submitted, attempts[index],
                                tracing.STATUS_RETRY, "worker killed",
                            )
                            attempts[index] += 1
                            if attempts[index] >= retry.max_attempts:
                                raise RetryBudgetExceededError(
                                    index,
                                    retry.max_attempts,
                                    BrokenProcessPool(
                                        "worker killed repeatedly"
                                    ),
                                )
                        still_pending.append(index)
                        continue
                    except Exception as error:  # noqa: BLE001
                        attempts[index] += 1
                        exhausted = attempts[index] >= retry.max_attempts
                        status = (
                            tracing.STATUS_FAILED
                            if exhausted
                            else tracing.STATUS_RETRY
                        )
                        point_spans.failed(
                            index, ctx, submitted, attempts[index] - 1,
                            status, repr(error),
                        )
                        if exhausted:
                            raise RetryBudgetExceededError(
                                index, retry.max_attempts, error
                            )
                        still_pending.append(index)
                        continue
                    results[index] = value
                    point_spans.executed(
                        index, ctx, submitted, meta, attempts[index]
                    )
                    if checkpoint is not None:
                        checkpoint.record(
                            index, value, elapsed=meta["wall"]
                        )
                    point_spans.finish(index)
                pending = still_pending
            finally:
                pool.shutdown(wait=not pool_broken)
            if pool_broken:
                pool_restarts += 1
        return [results[index] for index in range(len(items))]
