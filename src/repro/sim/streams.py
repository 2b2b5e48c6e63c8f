"""Per-event-type random streams: the common-random-numbers layer.

The GSMP engine draws two kinds of randomness: event *durations* and
*branch picks* (weighted choice among probabilistic branches).
:meth:`repro.sim.engine.Simulator.run` takes them from one sampler
with a ``duration(name, distribution)`` and a ``branch()`` method:

* :class:`RunStreams` gives one run (or one splitting slot) its own
  substream per event type — derived from ``(seed, run index,
  event-type name)`` by :func:`repro.sim.random.event_generator` — plus
  one branch-pick stream.  The paired (CRN) replications and the
  splitting trees run on it (docs/SIMULATION.md).  Two properties
  follow:

  * **Common random numbers.**  The streams depend only on ``(seed,
    run, event-type name)`` — not on the model.  Two model variants
    sharing an event type (DPM-on vs DPM-off) draw identical durations
    for it, so paired-delta measures subtract correlated noise.
  * **Stable identity.**  The name — not an enumeration index — keys
    the stream: adding an event type to a model reshuffles nobody
    else.

  Durations are pre-drawn in blocks (one vectorized ``sample_block``
  call refills a buffer), so per-event consumption is one ``next``.
* :class:`GeneratorSampler` draws everything from one generator, in
  the order the run asks for it — the per-run stream of the
  independent replications (:func:`repro.sim.random.generator_for_run`).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple, Union

import numpy as np

from ..distributions import Distribution
from .random import event_generator, splitting_event_generator

__all__ = [
    "BRANCH_STREAM",
    "GeneratorSampler",
    "RunStreams",
]

#: Reserved stream name for branch picks.  Starts with a NUL byte so it
#: can never collide with an action label from a specification.
BRANCH_STREAM = "\x00branch-picks"

#: Durations pre-drawn per (event type, distribution) buffer.  Block
#: size never changes the numbers drawn (a stream is the concatenation
#: of its blocks) — only the refill amortisation.
_BLOCK = 256


class RunStreams:
    """The per-event-type streams of one run: the engine's sampler.

    *index* is a replication index (``int``: the streams of
    :func:`~repro.sim.random.event_generator`) or a splitting
    ``(run, slot)`` pair (the namespaced streams of
    :func:`~repro.sim.random.splitting_event_generator`).  Either way
    the draws are a pure function of ``(seed, index, name)``: the same
    in every process, whatever else the run draws and in whatever
    order it first touches its event types.
    """

    __slots__ = ("seed", "index", "_generators", "_buffers", "_branch")

    def __init__(self, seed: int, index: Union[int, Tuple[int, int]]):
        self.seed = seed
        self.index = index
        self._generators: Dict[str, np.random.Generator] = {}
        self._buffers: Dict[Tuple[str, Distribution], Iterator[float]] = {}
        self._branch: Iterator[float] = iter(())

    def _generator(self, name: str) -> np.random.Generator:
        """The (lazily created) generator behind stream *name*."""
        generator = self._generators.get(name)
        if generator is None:
            if isinstance(self.index, tuple):
                run, slot = self.index
                generator = splitting_event_generator(
                    self.seed, run, slot, name
                )
            else:
                generator = event_generator(self.seed, self.index, name)
            self._generators[name] = generator
        return generator

    def duration(self, name: str, distribution: Distribution) -> float:
        """Next duration of event type *name* in this run.

        Distributions sharing a name share its generator: each refills
        its own buffer from wherever the other left the stream.
        """
        key = (name, distribution)
        try:
            return next(self._buffers[key])
        except (KeyError, StopIteration):
            block = distribution.sample_block(
                self._generator(name), _BLOCK
            )
            buffer = self._buffers[key] = iter(block.tolist())
            return next(buffer)

    def branch(self) -> float:
        """Next branch-pick uniform in ``[0, 1)`` for this run."""
        try:
            return next(self._branch)
        except StopIteration:
            block = self._generator(BRANCH_STREAM).random(_BLOCK)
            self._branch = iter(block.tolist())
            return next(self._branch)


class GeneratorSampler:
    """One generator as the engine's sampler: every duration is
    ``distribution.sample(rng)`` and every branch pick ``rng.random()``,
    in the order the run asks for them.

    ``rng.random() * total`` is bit-identical to ``rng.uniform(0.0,
    total)``, so a run on this sampler draws exactly what the engine
    drew from a bare generator.
    """

    __slots__ = ("rng", "branch")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.branch = rng.random

    def duration(self, name: str, distribution: Distribution) -> float:
        """Next duration: one draw of *distribution* from the generator."""
        return distribution.sample(self.rng)
