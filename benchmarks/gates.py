"""Benchmark gates declared as rows, and the one checker that reads them.

Every ``bench_*.py`` module declares ``GATES``: rows that sit next to
the numbers they check.  A row names one number of the bench's
``BENCH_*.json`` report and says what must hold of it:

* ``path`` — dotted JSON path; list elements are addressed by index and
  ``*`` matches every key or element.  A wildcard skips elements that
  lack the rest of the path, but a row must match at least once.
* ``rule`` — ``==``, ``>=``, ``>``, ``<=``, ``<``, ``in`` (one of the
  bound's values), ``true``, or ``band``: with bound ``(low, high)`` or
  ``(low, high, floor)`` and ``c`` the committed value at the same
  path, ``low * c <= value <= max(high * c, floor)``.
* ``bound`` — a constant, :data:`AS_COMMITTED` (the committed value at
  the same path) or a :class:`Field` of the checked report itself.
* ``on`` — which reports the row checks: the committed file, a fresh
  full run, the reduced re-measure ``bench_regression.py`` runs
  through the bench's ``recheck()``, or any union of them.

:func:`check` serves each bench's own test and ``main`` (the fresh
run, through :func:`record`) and ``bench_regression.py`` (the committed
file and the re-measure).  Wall-clock numbers carry no rows: they are
report-only.
"""

from __future__ import annotations

import enum
import json
import operator
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, List, Optional, Sequence, Tuple


class Side(enum.Flag):
    """Which reports a row checks (rows may name several)."""

    COMMITTED = enum.auto()
    FRESH = enum.auto()
    RECHECK = enum.auto()


COMMITTED = Side.COMMITTED
FRESH = Side.FRESH
RECHECK = Side.RECHECK
ALL = COMMITTED | FRESH | RECHECK

#: Bound: the committed file's value at the row's own path.
AS_COMMITTED = "as committed"


@dataclass(frozen=True)
class Field:
    """Bound read from the checked report: ``scale * value + offset``."""

    path: str
    scale: float = 1.0
    offset: float = 0.0


@dataclass(frozen=True)
class Gate:
    """One bound on one number of a bench report (see module doc)."""

    path: str
    rule: str
    bound: Any = None
    #: A fresh run's gate also holds of the committed file it recorded.
    on: Side = COMMITTED | FRESH


RULES = {
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
    "in": lambda value, bound: value in bound,
    "true": lambda value, bound: value is True,
    "band": lambda value, bound: bound[0] <= value <= bound[1],
}


@dataclass(frozen=True)
class Verdict:
    """A row applied to one matched value; *limit* is the resolved bound."""

    gate: Gate
    path: str
    value: Any
    limit: Any
    passed: bool

    def __str__(self) -> str:
        return (
            f"{self.path} = {self.value!r} fails "
            f"{self.gate.rule} {self.limit!r}"
        )


_MISSING = "<missing>"


def resolve(doc: Any, path: str) -> Iterator[Tuple[str, Any]]:
    """Every ``(concrete path, value)`` that *path* matches in *doc*."""
    return _walk(doc, path.split("."), ())


def _walk(node: Any, parts: Sequence[str], at: Tuple[str, ...]):
    if not parts:
        yield ".".join(at), node
        return
    head, rest = parts[0], parts[1:]
    if isinstance(node, dict):
        children = node.items() if head == "*" else (
            [(head, node[head])] if head in node else []
        )
    elif isinstance(node, list):
        indices = (
            range(len(node)) if head == "*"
            else [int(head)] if head.isdigit() and int(head) < len(node)
            else []
        )
        children = [(str(index), node[index]) for index in indices]
    else:
        children = []
    for key, child in children:
        yield from _walk(child, rest, at + (key,))


def _lookup(doc: Any, path: str) -> Any:
    return next(resolve(doc, path), (None, _MISSING))[1]


def _limit(gate: Gate, path: str, report: Any, committed: Any) -> Any:
    if gate.rule == "band":
        low, high, *floor = gate.bound
        base = _lookup(committed, path)
        if base is _MISSING:
            return _MISSING
        return (low * base, max([high * base, *floor]))
    if isinstance(gate.bound, Field):
        value = _lookup(report, gate.bound.path)
        if value is _MISSING:
            return _MISSING
        return gate.bound.scale * value + gate.bound.offset
    if gate.bound == AS_COMMITTED:
        return _lookup(committed, path)
    return gate.bound


def check(
    gates: Sequence[Gate],
    report: Any,
    side: Side,
    committed: Optional[Any] = None,
) -> List[Verdict]:
    """One verdict per value each row on *side* matches in *report*.

    *committed* is the baseline that ``band`` and :data:`AS_COMMITTED`
    rows compare against (default: *report* itself).
    """
    committed = report if committed is None else committed
    verdicts = []
    for gate in gates:
        if not gate.on & side:
            continue
        matches = list(resolve(report, gate.path)) or [(gate.path, _MISSING)]
        for path, value in matches:
            limit = None
            try:
                limit = _limit(gate, path, report, committed)
                passed = (
                    value is not _MISSING
                    and limit is not _MISSING
                    and bool(RULES[gate.rule](value, limit))
                )
            except TypeError:
                passed = False
            verdicts.append(Verdict(gate, path, value, limit, passed))
    return verdicts


def failures(
    gates: Sequence[Gate],
    report: Any,
    side: Side = FRESH,
    committed: Optional[Any] = None,
) -> List[str]:
    """The failing verdicts of :func:`check`, as messages."""
    return [
        str(verdict)
        for verdict in check(gates, report, side, committed)
        if not verdict.passed
    ]


def record(gates: Sequence[Gate], report: Any, path: Path) -> List[str]:
    """Check *report*'s fresh rows, then write it to *path* only if they
    all pass.

    The written report becomes the committed file, so it must also pass
    the committed-side rows whose bound is a constant (such as a
    contract ``overhead_ratio <= 1.05``): a run that fails one would
    leave a file the committed gate then fails.  Rows bound to the
    committed file itself (:data:`AS_COMMITTED`, ``band``) or to a
    :class:`Field` say nothing before the file is written.

    Returns the failure messages (also printed to stderr); on a failure
    the file at *path* — the committed baseline — is left untouched.
    """
    constant = [
        gate
        for gate in gates
        if gate.on & COMMITTED
        and not gate.on & FRESH
        and gate.rule != "band"
        and gate.bound != AS_COMMITTED
        and not isinstance(gate.bound, Field)
    ]
    failed = failures(gates, report) + failures(constant, report, COMMITTED)
    for failure in failed:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failed:
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return failed
