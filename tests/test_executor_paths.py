"""One executor path per worker count (docs/RELIABILITY.md).

``ParallelExecutor.map`` picks its path from the worker count alone:
one worker runs the tasks inline, more run them on a process pool.  A
tracer or a checkpoint journal must change neither the results, nor the
``point`` / ``execute`` span totals, nor the number of attempts a
failing task gets: that number comes only from the ``RetryPolicy``.
"""

import contextlib
import itertools

import pytest

from repro.errors import RetryBudgetExceededError, WorkerFaultError
from repro.obs import tracing
from repro.runtime import (
    FaultInjector,
    ParallelExecutor,
    RetryPolicy,
    SweepCheckpoint,
    sweep_fingerprint,
)

ITEMS = [3, 1, 4, 1, 5]

#: workers x tracer on/off x checkpoint on/off.
COMBINATIONS = list(itertools.product((1, 2), (False, True), (False, True)))


def _affine(shared, item):
    return shared * item + 1


def _fail_odd(shared, item):
    """Log one line per attempt to the file *shared*; odd items fail."""
    with open(shared, "a", encoding="utf-8") as handle:
        handle.write(f"{item}\n")
    if item % 2:
        raise ValueError(f"task {item} is broken")
    return item


@contextlib.contextmanager
def _setting(tmp_path, traced, journaled):
    """Install the tracer and open the journal one combination asks for."""
    tracer = tracing.Tracer() if traced else None
    journal = (
        SweepCheckpoint(
            str(tmp_path / "journal.jsonl"), sweep_fingerprint(test="paths")
        )
        if journaled
        else None
    )
    try:
        with tracing.use_tracer(tracer):
            yield journal
    finally:
        if journal is not None:
            journal.close()


def _counts(spans, names=("point", "execute")):
    timings = spans.timings()
    return {name: timings.get(name, {}).get("count", 0) for name in names}


@pytest.mark.parametrize("workers,traced,journaled", COMBINATIONS)
def test_pure_tasks_same_results_and_span_counts(
    tmp_path, workers, traced, journaled
):
    before = tracing.totals()
    with _setting(tmp_path, traced, journaled) as journal:
        results = ParallelExecutor(workers).map(
            _affine, ITEMS, shared=2, checkpoint=journal
        )
    assert results == [_affine(2, item) for item in ITEMS]
    spans = tracing.totals().since(before)
    assert _counts(spans) == {"point": len(ITEMS), "execute": len(ITEMS)}
    assert spans.count(tracing.STATUS_RETRY) == 0


@pytest.mark.parametrize("workers,traced,journaled", COMBINATIONS)
def test_failing_task_without_policy_gets_one_attempt(
    tmp_path, workers, traced, journaled
):
    attempts = tmp_path / "attempts.log"
    before = tracing.totals()
    with _setting(tmp_path, traced, journaled) as journal:
        with pytest.raises(ValueError, match="task 7 is broken"):
            ParallelExecutor(workers).map(
                _fail_odd, [7, 8], shared=str(attempts),
                checkpoint=journal,
            )
    assert attempts.read_text().splitlines().count("7") == 1
    assert tracing.totals().since(before).count(tracing.STATUS_RETRY) == 0


@pytest.mark.parametrize("workers,traced,journaled", COMBINATIONS)
def test_failing_task_under_policy_exhausts_its_budget(
    tmp_path, workers, traced, journaled
):
    attempts = tmp_path / "attempts.log"
    with _setting(tmp_path, traced, journaled) as journal:
        with pytest.raises(RetryBudgetExceededError) as info:
            ParallelExecutor(workers).map(
                _fail_odd, [0, 1], shared=str(attempts),
                retry=RetryPolicy(max_attempts=2, backoff=0.0),
                checkpoint=journal,
            )
    assert (info.value.index, info.value.attempts) == (1, 2)
    assert isinstance(info.value.last_error, ValueError)
    assert attempts.read_text().splitlines().count("1") == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_killed_task_without_policy_fails_like_its_serial_run(workers):
    # A pool worker really dies (the pool breaks); the serial path has
    # no process to kill and raises.  Both end in the same fault.
    with pytest.raises(WorkerFaultError) as info:
        ParallelExecutor(workers).map(
            _affine, ITEMS, shared=2,
            faults=FaultInjector(seed=0, kill_indices=frozenset({1})),
        )
    assert str(info.value) == "injected kill fault on task 1 (attempt 0)"
