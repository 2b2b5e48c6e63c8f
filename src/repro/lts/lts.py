"""Labelled transition systems.

The LTS is the common semantic object of the library: state-space generation
produces one, equivalence checking and noninterference analysis consume the
functional (rate-free) view, and the CTMC builder consumes the rate-labelled
view of Markovian models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..aemilia.rates import Rate
from ..errors import AnalysisError
from .labels import TAU


@dataclass(frozen=True)
class Transition:
    """A single transition ``source --label--> target`` with optional rate.

    ``event`` identifies the *activity* the transition belongs to (e.g. the
    active participant ``S.serve``): transitions of the same source state
    sharing an event are probabilistic branches of one activity, selected
    with probability proportional to ``weight`` when the activity completes.
    The discrete-event engine also uses the event as the stable identity for
    clock persistence (enabling-memory semantics).
    """

    source: int
    label: str
    target: int
    rate: Optional[Rate] = None
    event: Optional[str] = None
    weight: float = 1.0

    def __str__(self) -> str:
        rate = f" [{self.rate}]" if self.rate is not None else ""
        return f"{self.source} --{self.label}{rate}--> {self.target}"


class StructureKey:
    """Identity of one LTS structure (see :meth:`LTS.structure_key`),
    carrying the caches of data derived from that structure.

    ``derived`` maps a cache's owner (e.g. the CTMC elimination plan's
    class) to its value.  It is never pickled: an unpickled key starts
    empty, so every process derives its own data once.
    """

    __slots__ = ("derived",)

    def __init__(self):
        self.derived: Dict[object, object] = {}

    def __reduce__(self):
        return (StructureKey, ())


class LTS:
    """A finite labelled transition system with a single initial state."""

    #: True while some outgoing lists are shared with another LTS (see
    #: :meth:`replacing`); the first :meth:`add_transition` copies them.
    _rows_shared = False
    _structure: Optional[StructureKey] = None

    def __init__(self, initial: int = 0):
        self._num_states = 0
        self.initial = initial
        self.transitions: List[Transition] = []
        self._outgoing: Dict[int, List[Transition]] = {}
        self._state_info: Dict[int, str] = {}

    # -- construction -----------------------------------------------------

    def add_state(self, info: Optional[str] = None) -> int:
        """Add a state, optionally with a human-readable description."""
        index = self._num_states
        self._num_states += 1
        self._structure = None
        if info is not None:
            self._state_info[index] = info
        return index

    def add_transition(
        self,
        source: int,
        label: str,
        target: int,
        rate: Optional[Rate] = None,
        event: Optional[str] = None,
        weight: float = 1.0,
    ) -> Transition:
        """Add a transition between existing states."""
        for state in (source, target):
            if not 0 <= state < self._num_states:
                raise AnalysisError(
                    f"transition endpoint {state} is not a state "
                    f"(have {self._num_states})"
                )
        if self._rows_shared:
            self._outgoing = {s: list(ts) for s, ts in self._outgoing.items()}
            self._rows_shared = False
        self._structure = None
        transition = Transition(source, label, target, rate, event, weight)
        self.transitions.append(transition)
        self._outgoing.setdefault(source, []).append(transition)
        return transition

    # -- accessors --------------------------------------------------------

    @property
    def num_states(self) -> int:
        """Number of states."""
        return self._num_states

    @property
    def num_transitions(self) -> int:
        """Number of transitions."""
        return len(self.transitions)

    def states(self) -> range:
        """Iterate over state indices."""
        return range(self._num_states)

    def outgoing(self, state: int) -> Sequence[Transition]:
        """Transitions leaving *state*."""
        return self._outgoing.get(state, ())

    def state_info(self, state: int) -> str:
        """Human-readable description of *state* (or its index)."""
        return self._state_info.get(state, f"state {state}")

    def set_state_info(self, state: int, info: str) -> None:
        """Attach a human-readable description to *state*."""
        self._state_info[state] = info

    def labels(self) -> Set[str]:
        """The set of labels appearing on transitions."""
        return {t.label for t in self.transitions}

    def visible_labels(self) -> Set[str]:
        """All labels except ``tau``."""
        return self.labels() - {TAU}

    def successors(self, state: int, label: str) -> List[int]:
        """Targets of *label*-transitions leaving *state*."""
        return [t.target for t in self.outgoing(state) if t.label == label]

    def has_deadlock(self) -> bool:
        """True when some reachable state has no outgoing transition."""
        return any(not self.outgoing(s) for s in self.states())

    def deadlock_states(self) -> List[int]:
        """All states with no outgoing transition."""
        return [s for s in self.states() if not self.outgoing(s)]

    def structure_key(self) -> StructureKey:
        """Identity of this LTS's current structure.

        Adding a state or a transition gives the LTS a new key.  A copy
        made by :meth:`replacing` with ``keep_structure_key=True`` shares
        the key: its caller vouches that the replacements change nothing
        a structure cache derives (the CTMC elimination plan keys on it
        and derives nothing from exponential rates).
        """
        if self._structure is None:
            self._structure = StructureKey()
        return self._structure

    # -- misc -------------------------------------------------------------

    def copy(self) -> "LTS":
        """Deep-enough copy (transitions are immutable)."""
        clone = LTS(self.initial)
        clone._num_states = self._num_states
        clone.transitions = list(self.transitions)
        clone._outgoing = {s: list(ts) for s, ts in self._outgoing.items()}
        clone._state_info = dict(self._state_info)
        return clone

    def replacing(
        self,
        replacements: Mapping[int, Transition],
        keep_structure_key: bool = False,
    ) -> "LTS":
        """Copy with ``transitions[i]`` swapped for ``replacements[i]``.

        Each replacement must leave the same source state; it takes the
        replaced transition's place in ``transitions`` and in its source's
        outgoing list, so every order is kept.  All other transitions are
        shared with this LTS (they are immutable), and so are the outgoing
        lists without a replacement until either LTS adds a transition.
        """
        clone = LTS(self.initial)
        if keep_structure_key:
            clone._structure = self.structure_key()
        clone._num_states = self._num_states
        clone.transitions = list(self.transitions)
        clone._state_info = dict(self._state_info)
        clone._outgoing = dict(self._outgoing)
        clone._rows_shared = self._rows_shared = True
        copied = set()
        for index, new in replacements.items():
            old = clone.transitions[index]
            if new.source != old.source:
                raise AnalysisError(
                    f"replacement {new} leaves another state than {old}"
                )
            clone.transitions[index] = new
            row = clone._outgoing[old.source]
            if old.source not in copied:
                row = clone._outgoing[old.source] = list(row)
                copied.add(old.source)
            row[next(i for i, t in enumerate(row) if t is old)] = new
        return clone

    def __str__(self) -> str:
        return (
            f"LTS({self._num_states} states, {len(self.transitions)} "
            f"transitions, initial {self.initial})"
        )


def build_lts(
    num_states: int,
    transitions: Iterable[Tuple[int, str, int]],
    initial: int = 0,
) -> LTS:
    """Convenience constructor from plain tuples (used heavily in tests)."""
    lts = LTS(initial)
    for _ in range(num_states):
        lts.add_state()
    for source, label, target in transitions:
        lts.add_transition(source, label, target)
    return lts
