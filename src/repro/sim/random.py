"""Seed management for reproducible simulation experiments.

Independent replications need independent, reproducible random streams.
NumPy's :class:`~numpy.random.SeedSequence` spawning provides exactly that:
one master seed deterministically derives any number of high-quality
independent child streams.

Two stream disciplines coexist:

* **per-run streams** (:func:`generator_for_run`) — one stream per
  replication index, consumed by every sampling site of that run.  This
  is the historical discipline of the pure-Python engine.
* **per-event-type streams** (:func:`event_generator`) — one stream per
  ``(seed, run, event type)``, identified by the *name* of the event
  type, not by any enumeration order.  This is the discipline of the
  common-random-numbers layer (docs/SIMULATION.md): two model variants
  that share an event type (e.g. ``C.process_result_packet`` with and
  without the DPM) draw *the same* durations for it, so paired-delta
  measures see correlated noise that cancels.  Deriving the substream
  from the event-type **name** (hashed, not enumerated) is what keeps
  the identity stable: adding an event type to a model cannot reshuffle
  any other event type's stream.
"""

from __future__ import annotations

import hashlib

import numpy as np


def generator_for_run(seed: int, index: int) -> np.random.Generator:
    """The *index*-th child stream of the master *seed*, derived directly.

    ``SeedSequence(seed).spawn(n)`` gives child *i* the spawn key
    ``(i,)``; this builds that child alone, without materialising its
    siblings.  So a run's stream depends on ``(seed, index)`` only, and
    every chunk of replications, on any worker, draws exactly what one
    serial loop over all spawned children would draw
    (``tests/oracles.py:spawn_generators`` is that loop's stream list).
    """
    child = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(child))


def make_generator(seed: int) -> np.random.Generator:
    """Single generator from a seed (PCG64)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


#: Spawn-key namespace separating event-type streams from the plain
#: per-run streams of :func:`generator_for_run` (whose keys are ``(i,)``).
_EVENT_STREAM_NAMESPACE = 0xE5E17


def event_stream_key(event_type: str) -> tuple:
    """Stable spawn-key words identifying one event type by *name*.

    The identity is a SHA-256 digest of the UTF-8 name, folded into two
    64-bit words — a pure function of the string, independent of how
    many event types a model has, of the order they are first seen in,
    and of the Python process (``PYTHONHASHSEED`` does not enter).
    Earlier stream derivations enumerated streams by index, so adding an
    event type to a model silently reshuffled every stream after it;
    the regression test pins that this cannot happen again.
    """
    digest = hashlib.sha256(event_type.encode("utf-8")).digest()
    return (
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:16], "little"),
    )


def event_generator(
    seed: int, run_index: int, event_type: str
) -> np.random.Generator:
    """The substream of one event type in one replication.

    Derived from ``(seed, run_index, name digest)`` alone: the same
    triple yields the same stream in every process, whichever other
    event types exist, and whatever order they were requested in.  Two
    model variants sharing an event type therefore share its durations
    run by run — the common-random-numbers pairing of
    docs/SIMULATION.md.
    """
    child = np.random.SeedSequence(
        seed,
        spawn_key=(_EVENT_STREAM_NAMESPACE, run_index)
        + event_stream_key(event_type),
    )
    return np.random.Generator(np.random.PCG64(child))


#: Spawn-key namespace for splitting-slot substreams.  Distinct from
#: :data:`_EVENT_STREAM_NAMESPACE`, so a splitting tree's slots can
#: never collide with any replication's event streams, whatever their
#: ``(run, slot)`` coordinates are.
_SPLIT_STREAM_NAMESPACE = 0x5F117


def splitting_event_generator(
    seed: int, run_index: int, slot: int, event_type: str
) -> np.random.Generator:
    """The substream of one event type in one splitting-tree *slot*.

    Rare-event splitting (:mod:`repro.sim.splitting`) runs each
    replication as a tree of weighted trajectories; every trajectory
    draws from one slot, a :class:`~repro.sim.streams.RunStreams` with
    index ``(run_index, slot)``.  A clone spawned at a level checkpoint
    continues a slot that a merge vacated or opens a new one keyed by
    its globally unique ident, so it draws *fresh* randomness from the
    checkpoint on (a slot key is never reissued, so no stream is ever
    replayed).  Streams are derived from ``(seed, run_index, slot key,
    name digest)`` under a dedicated namespace — a pure function of the
    coordinates, so splitting results are deterministic and
    worker-count invariant exactly like plain replications.  The
    degenerate 1-split configuration bypasses this namespace entirely
    and runs on the plain :func:`event_generator` streams of its
    replication index, which makes it bit-identical to naive
    replication.
    """
    child = np.random.SeedSequence(
        seed,
        spawn_key=(_SPLIT_STREAM_NAMESPACE, run_index, slot)
        + event_stream_key(event_type),
    )
    return np.random.Generator(np.random.PCG64(child))
