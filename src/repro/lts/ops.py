"""Operators on labelled transition systems: hide, restrict, relabel, union.

These are the ingredients of the noninterference check of Sect. 3:

* :func:`hide` turns matching labels into ``tau`` — the system *with* the
  DPM but with its actions unobservable;
* :func:`restrict` removes matching transitions — the system with the DPM
  actions *prevented from occurring*;
* :func:`disjoint_union` places two systems side by side so that a single
  bisimulation computation can compare their initial states.

Each operator builds its result from the operand's columns
(:class:`~repro.lts.lts.LTSColumns`): a label selector or mapping runs
once per distinct label, never per transition, and the result's state
descriptions read the operand's on demand
(:class:`~repro.lts.lts.DescribedBy`).
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Iterable, Tuple, Union

from .labels import TAU, matches_any
from .lts import LTS, DescribedBy, LTSColumns
from .reachability import restrict_to_reachable

LabelSelector = Union[Iterable[str], Callable[[str], bool]]


def _as_predicate(selector: LabelSelector) -> Callable[[str], bool]:
    if callable(selector):
        return selector
    patterns = list(selector)
    return lambda label: matches_any(patterns, label)


def _mapped(lts: LTS, mapping: Callable[[str], str]) -> LTS:
    """*lts* with every label replaced by its image under *mapping*."""
    columns = lts.columns
    table: Dict[str, int] = {}  # image -> new id, in first appearance order
    remap = [
        table.setdefault(mapping(label), len(table))
        for label in columns.labels
    ]
    return LTS.from_columns(
        lts.initial,
        lts.num_states,
        LTSColumns(
            array("q", columns.sources),
            array("q", [remap[i] for i in columns.label_ids]),
            array("q", columns.targets),
            list(columns.rates),
            list(columns.events),
            array("d", columns.weights),
            list(table),
        ),
        DescribedBy([(0, "", lts, None)]),
    )


def hide(lts: LTS, selector: LabelSelector) -> LTS:
    """Rename every matching label to ``tau``."""
    predicate = _as_predicate(selector)
    return _mapped(lts, lambda label: TAU if predicate(label) else label)


def restrict(lts: LTS, selector: LabelSelector, prune: bool = True) -> LTS:
    """Remove every transition with a matching label.

    With ``prune`` (default) the result is restricted to the states still
    reachable from the initial state.
    """
    predicate = _as_predicate(selector)
    columns = lts.columns
    kept_labels = [not predicate(label) for label in columns.labels]
    positions = [
        p for p, i in enumerate(columns.label_ids) if kept_labels[i]
    ]
    result = LTS.from_columns(
        lts.initial,
        lts.num_states,
        columns.take(positions),
        DescribedBy([(0, "", lts, None)]),
    )
    return restrict_to_reachable(result) if prune else result


def relabel(lts: LTS, mapping: Callable[[str], str]) -> LTS:
    """Apply a label-to-label function to every transition."""
    return _mapped(lts, mapping)


def disjoint_union(first: LTS, second: LTS) -> Tuple[LTS, int, int]:
    """Combine two systems over disjoint state sets.

    Returns ``(union, initial_first, initial_second)`` where the two indices
    locate the original initial states inside the union.
    """
    offset = first.num_states
    a, b = first.columns, second.columns
    table = {label: i for i, label in enumerate(a.labels)}
    remap = [table.setdefault(label, len(table)) for label in b.labels]
    sources = array("q", a.sources)
    sources.extend([s + offset for s in b.sources])
    targets = array("q", a.targets)
    targets.extend([t + offset for t in b.targets])
    label_ids = array("q", a.label_ids)
    label_ids.extend([remap[i] for i in b.label_ids])
    union = LTS.from_columns(
        first.initial,
        offset + second.num_states,
        LTSColumns(
            sources, label_ids, targets,
            a.rates + b.rates, a.events + b.events, a.weights + b.weights,
            list(table),
        ),
        DescribedBy([(0, "A:", first, None), (offset, "B:", second, None)]),
    )
    return union, first.initial, second.initial + offset
