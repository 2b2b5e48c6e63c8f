"""Per-event-type random streams: the common-random-numbers layer.

The GSMP engine draws two kinds of randomness: event *durations* and
*branch picks* (weighted choice among probabilistic branches).  The
:class:`EventStreamAllocator` gives every ``(run, event type)`` pair its
own substream — derived from ``(seed, run index, event-type name)`` by
:func:`repro.sim.random.event_generator` — plus one branch-pick stream
per run.  ``Simulator.run(..., streams=allocator.run_view(row))`` draws
from them; the paired (CRN) replications and the splitting trees run
on this discipline (docs/SIMULATION.md).  Two properties follow:

* **Common random numbers.**  The streams depend only on ``(seed, run,
  event-type name)`` — not on the model.  Two model variants sharing an
  event type (DPM-on vs DPM-off) draw identical durations for it, so
  paired-delta measures subtract correlated noise.
* **Stable identity.**  The name — not an enumeration index — keys the
  stream: adding an event type to a model reshuffles nobody else.

Durations are pre-drawn in blocks (one vectorized ``sample_block`` call
refills a whole buffer row), so per-event consumption is array indexing.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..distributions import Distribution
from .random import event_generator, splitting_event_generator

__all__ = [
    "BRANCH_STREAM",
    "EventStreamAllocator",
    "RunStreams",
    "normalize_stream_index",
]

#: Reserved stream name for branch picks.  Starts with a NUL byte so it
#: can never collide with an action label from a specification.
BRANCH_STREAM = "\x00branch-picks"

#: Durations pre-drawn per (run, event type, distribution) buffer row.
#: Block size never changes the numbers drawn (a stream is the
#: concatenation of its blocks) — only the refill amortisation.
DEFAULT_BLOCK = 256


def normalize_stream_index(index):
    """Canonical form of one allocator row index.

    Plain replications use an ``int`` run index; splitting trajectories
    (:mod:`repro.sim.splitting`) use a ``(run, trajectory)`` pair that
    selects the namespaced substreams of
    :func:`repro.sim.random.splitting_event_generator`.  Both forms are
    pure stream coordinates: the same index draws the same numbers in
    every process and for any batch composition.
    """
    if isinstance(index, tuple):
        run, trajectory = index
        return (int(run), int(trajectory))
    return int(index)


class _Pool:
    """Buffered samples for one (event type, distribution) pair.

    ``buf[row]`` holds the next pre-drawn durations of run *row*;
    ``cur[row]`` is the consumption cursor (``block`` means exhausted —
    rows start exhausted so the first draw triggers a lazily seeded
    refill).
    """

    __slots__ = ("buf", "cur")

    def __init__(self, runs: int, block: int):
        self.buf = np.empty((runs, block), float)
        self.cur = np.full(runs, block, np.int64)


class EventStreamAllocator:
    """Per-(run, event-type) buffered substreams for a set of runs.

    *run_indices* are the absolute replication indices the rows map to:
    row ``i`` of every pool draws from streams derived from
    ``(seed, run_indices[i], name)``.  A parallel worker holding rows
    ``[8..15]`` therefore produces exactly the numbers the serial
    execution would for those runs.
    """

    def __init__(
        self,
        seed: int,
        run_indices: Sequence[int],
        block: int = DEFAULT_BLOCK,
    ):
        self.seed = int(seed)
        self.run_indices = [
            normalize_stream_index(i) for i in run_indices
        ]
        self.block = int(block)
        if self.block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self._gens: Dict[Tuple[int, str], np.random.Generator] = {}
        self._pools: Dict[Tuple[str, Distribution], _Pool] = {}
        self._branch: Optional[_Pool] = None

    @property
    def runs(self) -> int:
        """Number of rows (runs) this allocator serves."""
        return len(self.run_indices)

    # -- stream plumbing ---------------------------------------------------

    def _generator(self, row: int, name: str) -> np.random.Generator:
        """The (lazily created) generator behind one (row, name) stream."""
        key = (row, name)
        gen = self._gens.get(key)
        if gen is None:
            index = self.run_indices[row]
            if isinstance(index, tuple):
                run, trajectory = index
                gen = splitting_event_generator(
                    self.seed, run, trajectory, name
                )
            else:
                gen = event_generator(self.seed, index, name)
            self._gens[key] = gen
        return gen

    def _refill(
        self, pool: _Pool, row: int, name: str, distribution: Distribution
    ) -> None:
        pool.buf[row] = distribution.sample_block(
            self._generator(row, name), self.block
        )
        pool.cur[row] = 0

    def _pool(self, name: str, distribution: Distribution) -> _Pool:
        key = (name, distribution)
        pool = self._pools.get(key)
        if pool is None:
            pool = _Pool(self.runs, self.block)
            self._pools[key] = pool
        return pool

    # -- durations ---------------------------------------------------------

    def take_one(
        self, row: int, name: str, distribution: Distribution
    ) -> float:
        """The next duration of event type *name* in row *row*."""
        pool = self._pool(name, distribution)
        cur = pool.cur[row]
        if cur >= self.block:
            self._refill(pool, row, name, distribution)
            cur = 0
        value = pool.buf[row, cur]
        pool.cur[row] = cur + 1
        return float(value)

    # -- branch picks ------------------------------------------------------

    def _branch_pool(self) -> _Pool:
        if self._branch is None:
            self._branch = _Pool(self.runs, self.block)
        return self._branch

    def _refill_branch(self, pool: _Pool, row: int) -> None:
        pool.buf[row] = self._generator(row, BRANCH_STREAM).random(
            self.block
        )
        pool.cur[row] = 0

    def branch_one(self, row: int) -> float:
        """The next branch-pick uniform in ``[0, 1)`` of row *row*."""
        pool = self._branch_pool()
        cur = pool.cur[row]
        if cur >= self.block:
            self._refill_branch(pool, row)
            cur = 0
        value = pool.buf[row, cur]
        pool.cur[row] = cur + 1
        return float(value)

    # -- dynamic rows (splitting trees) ------------------------------------

    def add_row(self, index) -> int:
        """Append a row for *index*; returns the new row id.

        Grows every existing pool by one (exhausted) row, so the first
        draw lazily refills from the new index's generators.  Used by
        :mod:`repro.sim.splitting` when a resampling step clones a
        trajectory: the clone gets a fresh ``(run, trajectory)`` stream
        coordinate without touching any other row's cursor.
        """
        row = len(self.run_indices)
        self.run_indices.append(normalize_stream_index(index))
        for pool in self._pools.values():
            self._ensure_row(pool, row)
        if self._branch is not None:
            self._ensure_row(self._branch, row)
        for key in [k for k in self._gens if k[0] == row]:
            del self._gens[key]
        return row

    def rebind_row(self, row: int, index) -> None:
        """Recycle *row* for a new stream *index*.

        Cursors are marked exhausted and the cached generators dropped,
        so the row's next draw starts the new index's streams from their
        beginning — the numbers depend only on the index, never on what
        the row previously served.
        """
        self.run_indices[row] = normalize_stream_index(index)
        for key in [k for k in self._gens if k[0] == row]:
            del self._gens[key]
        for pool in self._pools.values():
            pool.cur[row] = self.block
        if self._branch is not None:
            self._branch.cur[row] = self.block

    def truncate_rows(self, rows: int) -> None:
        """Drop every row at index >= *rows* (after compaction).

        Only the logical row count shrinks — pool buffers keep their
        capacity, and a recycled physical row is reset by
        :meth:`add_row`/:meth:`rebind_row` before its next draw.
        """
        if rows >= len(self.run_indices):
            return
        del self.run_indices[rows:]
        for key in [k for k in self._gens if k[0] >= rows]:
            del self._gens[key]

    def _ensure_row(self, pool: _Pool, row: int) -> None:
        """Make *row* usable in *pool*: grow capacity (amortised
        doubling), and mark the row exhausted so its first draw refills
        from the current index's generator."""
        have = pool.buf.shape[0]
        if row >= have:
            capacity = max(row + 1, 2 * have)
            buf = np.empty((capacity, self.block), float)
            buf[:have] = pool.buf
            cur = np.full(capacity, self.block, np.int64)
            cur[:have] = pool.cur
            pool.buf, pool.cur = buf, cur
        pool.cur[row] = self.block

    # -- per-run facade ----------------------------------------------------

    def run_view(self, row: int) -> "RunStreams":
        """The sampler ``Simulator.run(..., streams=...)`` takes for one
        row."""
        return RunStreams(self, row)


class RunStreams:
    """One run's view of an allocator: the engine's sampler.

    Passing this to :meth:`repro.sim.engine.Simulator.run` replaces the
    single shared ``rng`` with the per-event-type stream discipline: the
    trajectory depends only on the allocator parameters and the row's
    stream index.
    """

    __slots__ = ("allocator", "row")

    def __init__(self, allocator: EventStreamAllocator, row: int):
        self.allocator = allocator
        self.row = row

    def duration(self, name: str, distribution: Distribution) -> float:
        """Next duration of event type *name* in this run."""
        return self.allocator.take_one(self.row, name, distribution)

    def branch(self) -> float:
        """Next branch-pick uniform in ``[0, 1)`` for this run."""
        return self.allocator.branch_one(self.row)


def paired_allocators(
    seed: int, run_indices: Sequence[int], block: int = DEFAULT_BLOCK
) -> Tuple[EventStreamAllocator, EventStreamAllocator]:
    """Two allocators drawing *identical* streams (CRN pairing).

    One for the DPM-on model, one for the DPM-off model: separate
    cursor state (the two trajectories consume at their own pace), same
    underlying substreams (shared event types see the same durations).
    """
    return (
        EventStreamAllocator(seed, run_indices, block),
        EventStreamAllocator(seed, run_indices, block),
    )


def independent_allocator(
    seed: int, run_indices: Sequence[int], block: int = DEFAULT_BLOCK
) -> EventStreamAllocator:
    """An allocator decorrelated from ``seed`` (independent baseline).

    Used by benchmarks and tests that compare paired against independent
    runs at the same event budget: the offset keeps every stream disjoint
    from the CRN-paired ones with the original seed.
    """
    return EventStreamAllocator(seed ^ 0x5EEDC0DE, run_indices, block)


__all__.append("paired_allocators")
__all__.append("independent_allocator")
