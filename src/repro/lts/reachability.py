"""Reachability utilities for labelled transition systems."""

from __future__ import annotations

from array import array
from collections import deque
from typing import Dict, List, Set

from .lts import LTS, DescribedBy


def reachable_states(lts: LTS, start: int = None) -> Set[int]:
    """States reachable from *start* (default: the initial state)."""
    if start is None:
        start = lts.initial
    seen: Set[int] = {start}
    frontier = deque([start])
    while frontier:
        state = frontier.popleft()
        for transition in lts.outgoing(state):
            if transition.target not in seen:
                seen.add(transition.target)
                frontier.append(transition.target)
    return seen


def restrict_to_reachable(lts: LTS) -> LTS:
    """Return a copy containing only states reachable from the initial one.

    States are renumbered in BFS discovery order, keeping diagnostics
    stable; the copy's descriptions read *lts*'s on demand.
    """
    rows, offsets = lts.row_lists()
    targets = lts.columns.targets
    order: List[int] = [lts.initial]
    index: Dict[int, int] = {lts.initial: 0}
    positions: List[int] = []
    for state in order:  # grows while it is walked: a BFS
        row = rows[offsets[state]:offsets[state + 1]]
        positions.extend(row)
        for position in row:
            target = targets[position]
            if target not in index:
                index[target] = len(order)
                order.append(target)
    taken = lts.columns.take(positions)
    columns = taken._replace(
        sources=array("q", [index[s] for s in taken.sources]),
        targets=array("q", [index[t] for t in taken.targets]),
    )
    return LTS.from_columns(
        0, len(order), columns, DescribedBy([(0, "", lts, order)])
    )
