"""Weak (observational) equivalence — Milner's weak bisimilarity.

Weak bisimilarity abstracts from invisible ``tau`` steps: a visible move
``s =a=> t`` may be padded with any number of ``tau`` steps before and
after, and a ``tau`` move may be matched by doing nothing.  This is the
equivalence the paper uses for its noninterference check (Sect. 3).

The implementation saturates the transition relation (computing all weak
moves) and then runs the strong partition refinement of
:mod:`repro.lts.bisimulation` on the saturated system, keeping the
refinement levels so that a distinguishing formula can be rebuilt when the
check fails.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from .bisimulation import PartitionResult, refine
from .labels import TAU
from .lts import LTS
from .ops import disjoint_union


class WeakStructure:
    """Precomputed weak transition relation of an LTS.

    ``weak_successors(s, a)`` is the set of states reachable as
    ``s (tau*) a (tau*) t`` for visible ``a``, and the tau-closure of ``s``
    (including ``s`` itself — the empty move) for ``a == tau``.
    """

    def __init__(self, lts: LTS):
        self.lts = lts
        self._tau_closure: List[FrozenSet[int]] = self._compute_tau_closures()
        self._weak: Dict[Tuple[int, str], FrozenSet[int]] = {}
        self._compute_weak_moves()

    def _compute_tau_closures(self) -> List[FrozenSet[int]]:
        closures: List[FrozenSet[int]] = []
        for state in self.lts.states():
            seen: Set[int] = {state}
            frontier = deque([state])
            while frontier:
                current = frontier.popleft()
                for transition in self.lts.outgoing(current):
                    if transition.label == TAU and transition.target not in seen:
                        seen.add(transition.target)
                        frontier.append(transition.target)
            closures.append(frozenset(seen))
        return closures

    def _compute_weak_moves(self) -> None:
        self._labels_by_state: Dict[int, Set[str]] = {}
        for state in self.lts.states():
            by_label: Dict[str, Set[int]] = {}
            for pre in self._tau_closure[state]:
                for transition in self.lts.outgoing(pre):
                    if transition.label == TAU:
                        continue
                    targets = by_label.setdefault(transition.label, set())
                    targets |= self._tau_closure[transition.target]
            self._labels_by_state[state] = set(by_label)
            for label, targets in by_label.items():
                self._weak[(state, label)] = frozenset(targets)

    def tau_closure(self, state: int) -> FrozenSet[int]:
        """States reachable from *state* by (possibly zero) tau steps."""
        return self._tau_closure[state]

    def weak_successors(self, state: int, label: str) -> FrozenSet[int]:
        """Weak *label*-successors of *state* (see class docstring)."""
        if label == TAU:
            return self._tau_closure[state]
        return self._weak.get((state, label), frozenset())

    def weak_labels(self, state: int) -> Set[str]:
        """Visible labels with at least one weak move from *state*."""
        return self._labels_by_state.get(state, set())


def tau_condensation(lts: LTS) -> Tuple[LTS, List[int]]:
    """Collapse mutually tau-reachable states (tau-SCCs).

    States on a common tau-cycle are weakly bisimilar, so the quotient is
    weak-bisimulation equivalent to the original system while being —
    for the hidden views used by noninterference analysis — dramatically
    smaller.  Returns the quotient and the original→quotient state map.
    """
    columns = lts.columns
    edges = list(zip(columns.sources, columns.label_ids, columns.targets))
    labels = columns.labels
    # Tarjan over tau-edges only (iterative).
    successors: List[List[int]] = [[] for _ in lts.states()]
    for source, label, target in edges:
        if labels[label] == TAU and source != target:
            successors[source].append(target)
    index_counter = [0]
    stack: List[int] = []
    lowlink: Dict[int, int] = {}
    index: Dict[int, int] = {}
    on_stack: Dict[int, bool] = {}
    scc_of: List[int] = [-1] * lts.num_states
    scc_count = [0]

    for root in lts.states():
        if root in index:
            continue
        work = [(root, iter(successors[root]))]
        index[root] = lowlink[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, successor_iter = work[-1]
            advanced = False
            for successor in successor_iter:
                if successor not in index:
                    index[successor] = lowlink[successor] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack[successor] = True
                    work.append((successor, iter(successors[successor])))
                    advanced = True
                    break
                if on_stack.get(successor):
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                members = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    members.append(member)
                    if member == node:
                        break
                scc_id = scc_count[0]
                scc_count[0] += 1
                for member in members:
                    scc_of[member] = scc_id
    quotient = LTS(scc_of[lts.initial])
    for _ in range(scc_count[0]):
        quotient.add_state()
    for state in lts.states():
        quotient.set_state_info(scc_of[state], lts.state_info(state))
    seen: Set[Tuple[int, str, int]] = set()
    for source, label, target in edges:
        source, label, target = scc_of[source], labels[label], scc_of[target]
        if label == TAU and source == target:
            continue  # internal to the collapsed class
        key = (source, label, target)
        if key in seen:
            continue
        seen.add(key)
        quotient.add_transition(source, label, target)
    return quotient, scc_of


@dataclass
class WeakBisimulationResult:
    """Partition result together with the weak structure that produced it.

    The computation runs on the tau-SCC quotient; ``state_map`` maps
    original state indices to quotient indices, and every public method
    accepts *original* indices.
    """

    structure: WeakStructure
    partition: PartitionResult
    state_map: List[int]

    def quotient_state(self, state: int) -> int:
        """Quotient index of an original state."""
        return self.state_map[state]

    def equivalent(self, s: int, t: int) -> bool:
        """True when original states *s* and *t* are weakly bisimilar."""
        return self.partition.equivalent(self.state_map[s], self.state_map[t])


def weak_bisimulation(lts: LTS) -> WeakBisimulationResult:
    """Compute the weak bisimilarity partition of *lts*."""
    quotient, state_map = tau_condensation(lts)
    structure = WeakStructure(quotient)

    def signature(state: int, block_of: Dict[int, int]) -> FrozenSet:
        items = set()
        for label in structure.weak_labels(state):
            for target in structure.weak_successors(state, label):
                items.add((label, block_of[target]))
        for target in structure.tau_closure(state):
            items.add((TAU, block_of[target]))
        return frozenset(items)

    partition = refine(quotient, signature)
    return WeakBisimulationResult(structure, partition, state_map)


@dataclass
class WeakEquivalenceCheck:
    """Outcome of comparing two systems up to weak bisimilarity."""

    equivalent: bool
    union: LTS
    initial_first: int
    initial_second: int
    result: WeakBisimulationResult


def check_weak_equivalence(first: LTS, second: LTS) -> WeakEquivalenceCheck:
    """Compare the initial states of two systems up to weak bisimilarity.

    The two systems are embedded into a disjoint union so that one partition
    refinement answers the question; the union and the refinement result are
    returned so that callers (the noninterference analyzer) can derive a
    distinguishing formula on failure.
    """
    union, init_a, init_b = disjoint_union(first, second)
    result = weak_bisimulation(union)
    return WeakEquivalenceCheck(
        equivalent=result.equivalent(init_a, init_b),
        union=union,
        initial_first=init_a,
        initial_second=init_b,
        result=result,
    )
