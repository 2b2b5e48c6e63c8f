"""Persistent run ledger: an append-only registry of top-level runs.

Every ``repro-experiments`` invocation that computes something appends
one JSONL entry describing *what ran and what came out*: the command
line, the resolved configuration (case, phase, parameter, workers,
solver backends, workload), fingerprints (checkpoint journal,
resumed-from trace), wall/cpu totals, per-phase timings, a condensed
scalar-metric snapshot, and the trace file path when tracing was on.
``repro-experiments runs list|show|diff`` reads it back — ``diff``
compares two runs' phase timings and metric deltas, which answers "why
was this sweep slower than yesterday's" from artifacts alone.

Entries are appended with a single ``os.write`` on an ``O_APPEND``
descriptor (the same atomicity argument as the trace sink), and reads
tolerate a torn final line, so concurrent and killed runs cannot
corrupt the ledger.

The ledger lives at ``$REPRO_LEDGER`` or ``.repro-runs.jsonl`` in the
working directory; ``--ledger PATH`` overrides per run.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

#: Bump when the entry schema changes incompatibly.
LEDGER_VERSION = 1

LEDGER_ENV_VAR = "REPRO_LEDGER"
DEFAULT_LEDGER_PATH = ".repro-runs.jsonl"


class LedgerError(RuntimeError):
    """Raised for unresolvable run lookups."""


def default_ledger_path() -> str:
    return os.environ.get(LEDGER_ENV_VAR, DEFAULT_LEDGER_PATH)


class RunLedger:
    """Append-only JSONL registry of top-level runs."""

    def __init__(self, path: Optional[str] = None):
        self.path = path or default_ledger_path()
        self._fd: Optional[int] = None

    def append(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        """Record one run; stamps ``run_id`` / ``ts`` / ``version``."""
        record = {
            "run_id": os.urandom(8).hex(),
            "ts": time.time(),
            "version": LEDGER_VERSION,
        }
        record.update(entry)
        if self._fd is None:
            self._fd = os.open(
                self.path,
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
        line = json.dumps(record, sort_keys=True) + "\n"
        os.write(self._fd, line.encode("utf-8"))
        return record

    def entries(self) -> List[Dict[str, Any]]:
        """All entries, oldest first (torn final line tolerated)."""
        if not os.path.exists(self.path):
            return []
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        entries: List[Dict[str, Any]] = []
        for position, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                if position == len(lines) - 1:
                    continue
                raise
        return entries

    def get(self, ref: str) -> Dict[str, Any]:
        """Resolve a run by id prefix, or ``last`` / ``last~N``."""
        entries = self.entries()
        if not entries:
            raise LedgerError(f"ledger {self.path} is empty")
        if ref == "last" or ref.startswith("last~"):
            back = 0 if ref == "last" else int(ref.split("~", 1)[1])
            if back >= len(entries):
                raise LedgerError(
                    f"{ref}: only {len(entries)} runs in {self.path}"
                )
            return entries[-1 - back]
        matches = [
            entry for entry in entries
            if entry.get("run_id", "").startswith(ref)
        ]
        if not matches:
            raise LedgerError(f"no run matching {ref!r} in {self.path}")
        if len(matches) > 1:
            raise LedgerError(f"run prefix {ref!r} is ambiguous ({len(matches)})")
        return matches[0]

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def diff_entries(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Structured comparison of two ledger entries.

    Returns the changed configuration keys, wall/cpu deltas, per-phase
    timing deltas (union of both runs' phases), and scalar metric deltas
    where the value moved.
    """
    config_keys = (
        "command", "case", "phase", "parameter", "workers",
        "solver", "workload", "checkpoint", "trace",
    )
    config = {}
    for key in config_keys:
        left, right = a.get(key), b.get(key)
        if left != right:
            config[key] = {"a": left, "b": right}
    phases = {}
    for name in sorted(set(a.get("phases", {})) | set(b.get("phases", {}))):
        left = a.get("phases", {}).get(name, 0.0)
        right = b.get("phases", {}).get(name, 0.0)
        phases[name] = {"a": left, "b": right, "delta": right - left}
    metrics = {}
    for name in sorted(set(a.get("metrics", {})) | set(b.get("metrics", {}))):
        left = a.get("metrics", {}).get(name)
        right = b.get("metrics", {}).get(name)
        if left != right:
            metrics[name] = {"a": left, "b": right}
    return {
        "a": a.get("run_id"),
        "b": b.get("run_id"),
        "config": config,
        "wall": {
            "a": a.get("wall", 0.0),
            "b": b.get("wall", 0.0),
            "delta": b.get("wall", 0.0) - a.get("wall", 0.0),
        },
        "phases": phases,
        "metrics": metrics,
    }


# -- rendering -------------------------------------------------------------


def _stamp(ts: Any) -> str:
    try:
        return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(float(ts)))
    except (TypeError, ValueError):
        return "?"


def render_entries_table(entries: List[Dict[str, Any]]) -> str:
    """``runs list`` view, newest last."""
    from ..core.reporting import format_table

    rows = [
        [
            entry.get("run_id", "?")[:8],
            _stamp(entry.get("ts")),
            entry.get("command", "?"),
            entry.get("case", "-") or "-",
            str(entry.get("workers", "-")),
            f"{entry.get('wall', 0.0):.3f}",
            entry.get("trace", "-") or "-",
        ]
        for entry in entries
    ]
    return format_table(
        ["run", "when", "command", "case", "workers", "wall [s]", "trace"],
        rows,
    )


def render_entry(entry: Dict[str, Any]) -> str:
    """``runs show`` view: the full entry as key-sorted JSON."""
    return json.dumps(entry, sort_keys=True, indent=2)


def render_diff(diff: Dict[str, Any]) -> str:
    """``runs diff`` view: config changes, phase timings, metric deltas."""
    from ..core.reporting import format_table

    lines = [f"=== runs diff {diff['a'][:8]} -> {diff['b'][:8]} ==="]
    if diff["config"]:
        rows = [
            [key, str(change["a"]), str(change["b"])]
            for key, change in sorted(diff["config"].items())
        ]
        lines.append(format_table(["config", "a", "b"], rows))
        lines.append("")
    wall = diff["wall"]
    phase_rows = [
        [
            "total wall",
            f"{wall['a']:.3f}",
            f"{wall['b']:.3f}",
            f"{wall['delta']:+.3f}",
        ]
    ]
    phase_rows += [
        [
            name,
            f"{change['a']:.3f}",
            f"{change['b']:.3f}",
            f"{change['delta']:+.3f}",
        ]
        for name, change in diff["phases"].items()
    ]
    lines.append(
        format_table(["phase", "a [s]", "b [s]", "delta [s]"], phase_rows)
    )
    if diff["metrics"]:
        lines.append("")
        rows = [
            [name, str(change["a"]), str(change["b"])]
            for name, change in sorted(diff["metrics"].items())
        ]
        lines.append(format_table(["metric", "a", "b"], rows))
    return "\n".join(lines)


def condense_metrics(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Collapse a registry snapshot to scalar series for the ledger.

    Counters and gauges sum across label sets; histograms contribute
    their ``_count``.  Good enough for ``runs diff`` — the full snapshot
    belongs in ``--metrics-out`` exports, not in every ledger line.
    """
    condensed: Dict[str, float] = {}
    for name, family in sorted(snapshot.items()):
        kind = family.get("type")
        total = 0.0
        for entry in family.get("series", []):
            if kind == "histogram":
                total += float(entry.get("count", 0))
            else:
                total += float(entry.get("value", 0.0))
        condensed[name] = round(total, 6)
    return condensed
