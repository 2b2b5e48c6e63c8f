"""Deterministic, fault-tolerant parallel task execution.

:class:`ParallelExecutor` wraps :class:`concurrent.futures.ProcessPoolExecutor`
with the conventions the experiment stack needs:

* **One path per worker count** — ``workers=1`` (or a single item) runs
  tasks inline and is the CI-deterministic default everywhere; more
  workers run them on a process pool.  Retries, faults, checkpoints and
  tracing never pick the path, and any parallel result is required (and
  tested) to be identical to the serial one.
* **Shared payload** — large read-only inputs (a cached state-space
  skeleton, the measure set) are shipped to each worker process *once* via
  the pool initializer instead of being pickled per task.
* **Deterministic ordering** — results always come back in input order
  regardless of completion order.
* **Fault tolerance** — without a :class:`RetryPolicy` each task gets one
  attempt and a failing task's own exception propagates; with one, each
  task gets a bounded number of attempts with exponential backoff, and
  exhaustion raises :class:`~repro.errors.RetryBudgetExceededError`.  A
  broken process pool (a worker died) is rebuilt, and after
  ``max_pool_restarts`` breakages the executor degrades gracefully to the
  serial path, which is always result-identical.
* **Checkpoint / trace hooks** — completed tasks can be journaled to a
  :class:`~repro.runtime.checkpoint.SweepCheckpoint` (so an interrupted
  sweep resumes bit-identically), and every point and attempt is a
  :mod:`repro.obs.tracing` span, so retries, checkpoint hits and
  degradations reach the span totals with or without a trace file.
  What a pool worker counts on the metric registry is merged into the
  parent's, so counters and histograms read the same at every worker
  count.

Worker functions must be module-level callables of the form
``fn(shared, item)`` so they can be pickled by reference.  Tasks must be
pure functions of ``(shared, item)``: that is what makes retries, pool
rebuilds and serial degradation invisible in the results.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import RetryBudgetExceededError, WorkerFaultError
from ..obs import metrics as obs_metrics
from ..obs import tracing
from .faults import KILL, FaultInjector


#: Upper bound on auto-detected workers (sweeps rarely scale past this).
_MAX_AUTO_WORKERS = 8

_SHARED: Any = None


def _init_shared(shared: Any) -> None:
    global _SHARED
    _SHARED = shared


def _pool_call(
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
    Likewise, unless the inherited metric registry is disabled, the task
    counts into a fresh registry whose snapshot travels back in
    ``meta["metrics"]`` for the parent to merge, and the span totals the
    task added travel back in ``meta["totals"]``.
    """
    totals_before = tracing.totals()
    started = time.time()
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    if faults is not None:
        faults.apply(index, attempt, in_worker=True)
    metrics = (
        obs_metrics.MetricRegistry()
        if obs_metrics.get_registry().enabled
        else None
    )
    collector = (
        tracing.Tracer(trace_id=ctx.trace_id) if ctx is not None else None
    )
    with contextlib.ExitStack() as scope:
        if metrics is not None:
            scope.enter_context(obs_metrics.use_registry(metrics))
        if collector is not None:
            scope.enter_context(tracing.use_tracer(collector, context=ctx))
        value = fn(_SHARED, item)
    wall = time.perf_counter() - wall_started
    meta = {
        "worker": os.getpid(),
        "wall": wall,
        "cpu": time.process_time() - cpu_started,
        "started": started,
        "ended": started + wall,
        "spans": collector.records() if collector is not None else [],
        "metrics": metrics.snapshot() if metrics is not None else {},
        "totals": tracing.totals().since(totals_before),
    }
    return value, meta


class _PointSpans:
    """Parent-side span bookkeeping for the pool path.

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


def contiguous_chunks(count: int, workers: int) -> List[Tuple[int, ...]]:
    """Contiguous index chunks of ``range(count)``, one per worker (the
    last may be short).

    The replication protocols and parametric sweeps map one executor
    task over each chunk.  Every value a chunk computes is a pure
    function of its indices, so the chunking never changes a number.
    """
    if workers <= 1 or count <= 1:
        return [tuple(range(count))]
    size = math.ceil(count / min(workers, count))
    return [
        tuple(range(lo, min(lo + size, count)))
        for lo in range(0, count, size)
    ]


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


def _budget(retry: Optional[RetryPolicy]) -> int:
    """Attempts per task: the policy's, or one without a policy."""
    return 1 if retry is None else retry.max_attempts


def _gave_up(
    retry: Optional[RetryPolicy],
    index: int,
    attempts: int,
    error: Exception,
) -> Exception:
    """The error a task ends with once its last attempt has failed.

    Without a policy the task had its one attempt and its own exception
    propagates unchanged; under a policy the typed budget error wraps it.
    """
    if retry is None:
        return error
    return RetryBudgetExceededError(index, attempts, error)


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
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        checkpoint: Optional[Any] = None,
        phase: str = "task",
    ) -> List[Any]:
        """Run ``fn(shared, item)`` over *items*, preserving input order.

        One worker (or one item) runs the tasks inline, more run them on
        a process pool; nothing else selects the path.  Each task gets
        the attempts of *retry*: without a policy one attempt, whose
        exception propagates unchanged; under one, a task that fails
        every attempt raises
        :class:`~repro.errors.RetryBudgetExceededError`.  *faults* plans
        injected failures, *checkpoint* journals completed tasks (and
        replays them instead of recomputing), and every item is one
        ``point`` span with one ``execute`` span per attempt, labelled
        with *phase*, traced or not.

        The results are bit-identical to the plain serial
        ``[fn(shared, item) for item in items]`` — tasks are pure, retries
        recompute the same value, and checkpoints replay exact values.
        If the platform refuses to fork worker processes the call degrades
        to the serial path rather than failing.
        """
        items = list(items)
        if not items:
            return []
        if self.is_serial or len(items) == 1:
            return self._map_serial(
                fn, items, shared, retry, faults, checkpoint, phase
            )
        return self._map_parallel(
            fn, items, shared, retry, faults, checkpoint, phase
        )

    # -- serial path -------------------------------------------------------

    def _map_serial(
        self,
        fn: Callable[[Any, Any], Any],
        items: List[Any],
        shared: Any,
        retry: Optional[RetryPolicy],
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
        retry: Optional[RetryPolicy],
        faults: Optional[FaultInjector],
        phase: str,
        checkpoint: Optional[Any],
        first_attempt: int = 0,
    ) -> Any:
        budget = _budget(retry)
        last_error: Optional[Exception] = None
        for attempt in range(first_attempt, budget):
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
                    exhausted = attempt + 1 >= budget
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
        raise _gave_up(retry, index, budget - first_attempt, last_error)

    # -- pool path ---------------------------------------------------------

    def _map_parallel(
        self,
        fn: Callable[[Any, Any], Any],
        items: List[Any],
        shared: Any,
        retry: Optional[RetryPolicy],
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
        retry: Optional[RetryPolicy],
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
        budget = _budget(retry)
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
            backoff = (
                max(retry.delay_before(attempts[index]) for index in pending)
                if retry is not None
                else 0.0
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
                            _pool_call,
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
                            faults is None
                            or faults.plan(index, attempts[index]) != KILL
                        ):
                            # Merely caught in a pool another task's kill
                            # broke: the task retries for free.
                            still_pending.append(index)
                            continue
                        # The kill consumed this task's attempt.
                        failure: Exception = WorkerFaultError(
                            f"injected {KILL} fault on task {index} "
                            f"(attempt {attempts[index]})",
                            index=index,
                            attempt=attempts[index],
                        )
                    except Exception as error:  # noqa: BLE001
                        failure = error
                    else:
                        results[index] = value
                        obs_metrics.get_registry().merge_snapshot(
                            meta["metrics"]
                        )
                        tracing.merge_totals(meta["totals"])
                        point_spans.executed(
                            index, ctx, submitted, meta, attempts[index]
                        )
                        if checkpoint is not None:
                            checkpoint.record(
                                index, value, elapsed=meta["wall"]
                            )
                        point_spans.finish(index)
                        continue
                    attempts[index] += 1
                    exhausted = attempts[index] >= budget
                    point_spans.failed(
                        index, ctx, submitted, attempts[index] - 1,
                        tracing.STATUS_FAILED
                        if exhausted
                        else tracing.STATUS_RETRY,
                        repr(failure),
                    )
                    if exhausted:
                        raise _gave_up(retry, index, budget, failure)
                    still_pending.append(index)
                pending = still_pending
            finally:
                pool.shutdown(wait=not pool_broken)
            if pool_broken:
                pool_restarts += 1
        return [results[index] for index in range(len(items))]
