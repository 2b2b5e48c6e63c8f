"""Sweep checkpointing: a crash-safe journal of completed points.

Long sweeps (the paper's figures at full resolution, or million-point
parameter studies) must survive interruption — a SIGKILL mid-sweep, a
dead container, an exhausted retry budget.  :class:`SweepCheckpoint`
journals every completed point to an append-only JSONL file; a resumed
sweep replays the journal, skips the completed points and recomputes only
the rest.  Because every point's result is a pure function of the sweep
definition, and JSON round-trips Python floats exactly (``repr``-based
shortest representation), a resumed sweep is **bit-identical** to an
uninterrupted one.

Journal format (one JSON object per line)::

    {"kind": "header", "version": 1, "fingerprint": "<sha256>"}
    {"kind": "point", "index": 0, "result": {...}, "elapsed": 0.12}
    {"kind": "point", "index": 1, "result": {...}, "elapsed": 0.11}

The ``fingerprint`` is the content hash of the sweep's
:class:`~repro.core.sweep.SweepSpec` (:meth:`SweepSpec.fingerprint`):
its identity fields (parameter, values, overrides, layer-call settings
such as the solver method, simulation engine, CRN mode or splitting
geometry, workload fingerprints), the printed content of every model the
points use, the measure definitions and the pipeline version — everything
that determines the results, and nothing that doesn't, so a journal
written with ``--workers 4`` resumes fine under ``--workers 1`` but
refuses to resume after an edited model or measure, or under a different
``--engine``.
Opening a journal whose fingerprint does not match raises
:class:`~repro.errors.CheckpointError` instead of silently mixing two
different sweeps.  A torn final line (the crash happened mid-write) is
discarded; corruption anywhere else is an error.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

from ..errors import CheckpointError
from ..obs import metrics as obs_metrics
from ..obs import tracing

JOURNAL_VERSION = 1


def _emit_checkpoint_event(kind: str, count: int = 1) -> None:
    registry = obs_metrics.get_registry()
    if registry.enabled and count:
        obs_metrics.CHECKPOINT_EVENTS.on(registry).labels(kind=kind).inc(
            count
        )


def sweep_fingerprint(**fields: Any) -> str:
    """Content hash of a sweep definition (order-insensitive keys)."""
    canonical = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


class SweepCheckpoint:
    """Append-only journal of completed sweep points.

    ``completed`` maps point index to its recorded result after
    :meth:`load`; :meth:`record` appends (and fsyncs) one finished point.
    The journal is created lazily on the first record so that a fully
    cached/instant sweep never touches the disk.
    """

    def __init__(self, path: str, fingerprint: str):
        self.path = path
        self.fingerprint = fingerprint
        self.completed: Dict[int, Any] = {}
        self._handle = None
        self.load()

    # -- reading -----------------------------------------------------------

    def load(self) -> Dict[int, Any]:
        """Replay the journal (if present) into :attr:`completed`."""
        self.completed = {}
        if not os.path.exists(self.path):
            return self.completed
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines:
            return self.completed
        header = self._parse(lines[0], line_number=1, torn_ok=False)
        if header.get("kind") != "header":
            raise CheckpointError(
                f"{self.path}: first journal line is not a header"
            )
        if header.get("version") != JOURNAL_VERSION:
            raise CheckpointError(
                f"{self.path}: journal version {header.get('version')!r} "
                f"!= {JOURNAL_VERSION}"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                f"{self.path}: journal belongs to a different sweep "
                f"(fingerprint {header.get('fingerprint')!r:.20} != "
                f"{self.fingerprint!r:.20}); delete it or pass a fresh "
                f"checkpoint path"
            )
        for line_number, line in enumerate(lines[1:], start=2):
            record = self._parse(
                line,
                line_number,
                torn_ok=(line_number == len(lines)),
            )
            if record is None:
                continue  # torn tail from a crash mid-write
            if record.get("kind") != "point":
                raise CheckpointError(
                    f"{self.path}:{line_number}: unexpected record kind "
                    f"{record.get('kind')!r}"
                )
            self.completed[int(record["index"])] = record["result"]
        _emit_checkpoint_event("replayed", len(self.completed))
        if self.completed:
            # A resumed sweep links its new trace to the original run:
            # the journal fingerprint is the stable join key (the ledger
            # records it per run), and the replayed count tells a reader
            # how much of the sweep came from the journal.
            tracing.add_attributes(
                resumed_from=self.fingerprint,
                resumed_points=len(self.completed),
            )
        return self.completed

    def _parse(
        self, line: str, line_number: int, torn_ok: bool
    ) -> Optional[Dict[str, Any]]:
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            if torn_ok:
                return None
            raise CheckpointError(
                f"{self.path}:{line_number}: corrupt journal line"
            )

    # -- writing -----------------------------------------------------------

    def _open(self):
        if self._handle is None:
            fresh = not os.path.exists(self.path) or (
                os.path.getsize(self.path) == 0
            )
            self._handle = open(self.path, "a", encoding="utf-8")
            if fresh:
                self._write(
                    {
                        "kind": "header",
                        "version": JOURNAL_VERSION,
                        "fingerprint": self.fingerprint,
                    }
                )
        return self._handle

    def _write(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record(self, index: int, result: Any, elapsed: float = 0.0) -> None:
        """Durably journal one completed point (flushed + fsynced)."""
        if index in self.completed:
            return
        self._open()
        self._write(
            {
                "kind": "point",
                "index": index,
                "result": result,
                "elapsed": round(elapsed, 6),
            }
        )
        self.completed[index] = result
        _emit_checkpoint_event("recorded")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
