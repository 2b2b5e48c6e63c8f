"""One executor path per worker count (docs/RELIABILITY.md).

``ParallelExecutor.map`` picks its path from the worker count alone:
one worker runs the tasks inline, more run them on a process pool.  A
tracer or a checkpoint journal must change neither the results, nor the
``point`` / ``execute`` span totals, nor the number of attempts a
failing task gets: that number comes only from the ``RetryPolicy``.

Every replication protocol (``replicate``, ``replicate_paired``,
``split_replicate``) maps one task per chunk of run indices, so its
``point`` span count is the chunk count whatever the retry policy or
tracer, and its samples never move.
"""

import contextlib
import itertools
from functools import lru_cache

import pytest

from repro.aemilia.rates import ExpRate
from repro.ctmc import measure, state_clause, trans_clause
from repro.errors import RetryBudgetExceededError, WorkerFaultError
from repro.lts import LTS
from repro.obs import tracing
from repro.runtime import (
    FaultInjector,
    ParallelExecutor,
    RetryPolicy,
    SweepCheckpoint,
    sweep_fingerprint,
)
from repro.sim import replicate, replicate_paired, split_replicate
from repro.runtime.executor import contiguous_chunks

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


RUNS = 5


def _flip_flop(up_rate):
    lts = LTS(0)
    lts.add_state()
    lts.add_state()
    lts.add_transition(0, "up", 1, ExpRate(up_rate), "up")
    lts.add_transition(1, "down", 0, ExpRate(3.0), "down")
    return lts


MEASURES = (
    measure("in_up", state_clause("down", 1.0)),
    measure("ups", trans_clause("up", 1.0)),
)


def _replicate(workers, retry):
    result = replicate(
        _flip_flop(2.0), MEASURES, 50.0, runs=RUNS, warmup=5.0, seed=3,
        workers=workers, retry=retry,
    )
    return result.samples


def _replicate_paired(workers, retry):
    result = replicate_paired(
        _flip_flop(2.0), _flip_flop(1.0), MEASURES, 50.0, runs=RUNS,
        warmup=5.0, seed=3, workers=workers, retry=retry,
    )
    return result.first.samples, result.second.samples


def _split_replicate(workers, retry):
    result = split_replicate(
        _flip_flop(0.5), MEASURES, 50.0, levels=1, splits=2, segments=4,
        runs=RUNS, warmup=5.0, seed=3, workers=workers, retry=retry,
    )
    return result.samples, result.occupancy, result.clones


PROTOCOLS = {
    "replicate": _replicate,
    "replicate-paired": _replicate_paired,
    "split-replicate": _split_replicate,
}


@lru_cache(maxsize=None)
def _serial_samples(protocol):
    return PROTOCOLS[protocol](1, None)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("retried", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_replication_point_spans_are_the_run_chunks(
    protocol, workers, retried, traced
):
    expected = _serial_samples(protocol)
    retry = RetryPolicy(max_attempts=2, backoff=0.0) if retried else None
    tracer = tracing.Tracer() if traced else None
    before = tracing.totals()
    with tracing.use_tracer(tracer):
        samples = PROTOCOLS[protocol](workers, retry)
    chunks = len(contiguous_chunks(RUNS, workers))
    assert chunks == min(workers, RUNS)
    assert samples == expected
    assert _counts(tracing.totals().since(before)) == {
        "point": chunks, "execute": chunks,
    }
    if traced:
        phases = [
            record["attrs"]["phase"]
            for record in tracer.records()
            if record["name"] == "point"
        ]
        assert phases == [protocol] * chunks
