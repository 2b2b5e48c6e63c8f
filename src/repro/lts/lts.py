"""Labelled transition systems.

The LTS is the common semantic object of the library: state-space generation
produces one, equivalence checking and noninterference analysis consume the
functional (rate-free) view, and the CTMC builder consumes the rate-labelled
view of Markovian models.

An :class:`LTS` is stored as columns, one entry per transition in the
order the transitions were added: source, label id (into a per-LTS label
table), target, rate object, event and weight (:class:`LTSColumns`).  A
CSR index groups the positions by source state; it is built on the first
read and kept until the LTS grows.  :class:`Transition` records are views
made on demand: :meth:`LTS.outgoing` materializes one row on its first
read and keeps it, and :attr:`LTS.transitions` lists the views of every
position (materializing every row).  The layers that compile a skeleton
(the CTMC elimination plan, rate relabeling, the ``hide``/``restrict``
operators) read the columns and never make a view.

State descriptions are rendered on read: an LTS keeps the descriptions it
was given (:meth:`LTS.add_state`, :meth:`LTS.set_state_info`) and, for the
other states, an optional description source — the generator's
per-state local-state tuples (:class:`StateDescriptions`), or another
LTS's descriptions renumbered and prefixed (:class:`DescribedBy`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import (
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..aemilia.rates import (
    ExpRate,
    GeneralRate,
    ImmediateRate,
    PassiveRate,
    Rate,
)
from ..errors import AnalysisError
from .labels import TAU

#: Values of :meth:`LTS.rate_kinds`: no rate (or an unknown kind),
#: exponential, immediate, passive, general.
NO_RATE, EXP, IMMEDIATE, PASSIVE, GENERAL = range(5)
_KIND_OF = {ExpRate: EXP, ImmediateRate: IMMEDIATE, PassiveRate: PASSIVE,
            GeneralRate: GENERAL}


def _rate_kinds(rates: Sequence[Optional[Rate]]) -> np.ndarray:
    """The kind of every rate, looked up without a Python call per rate."""
    return np.fromiter(
        map(_KIND_OF.get, map(type, rates), repeat(NO_RATE)),
        np.int8, len(rates),
    )


def _exp_values(rates: Sequence[Optional[Rate]]) -> np.ndarray:
    """Every exponential rate's value, NaN for the other rates."""
    return np.array(
        [rate.rate if type(rate) is ExpRate else np.nan for rate in rates],
        float,
    )


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


class LTSColumns(NamedTuple):
    """The storage of an :class:`LTS`: entry ``i`` of every column
    describes transition ``i``, whose label is ``labels[label_ids[i]]``.
    Read-only to everyone but the LTS."""

    sources: array
    label_ids: array
    targets: array
    rates: List[Optional[Rate]]
    events: List[Optional[str]]
    weights: array
    labels: List[str]

    def take(self, positions: Sequence[int]) -> "LTSColumns":
        """The transitions at *positions*, in that order, over a copy of
        this label table."""
        return LTSColumns(
            *(
                array(column.typecode, [column[p] for p in positions])
                if isinstance(column, array)
                else [column[p] for p in positions]
                for column in self[:-1]
            ),
            list(self.labels),
        )


class StateDescriptions:
    """Descriptions of generated states, rendered on read.

    State ``s`` is the tuple ``states[s * width:(s + 1) * width]`` of
    per-instance local states; instance ``i``'s local state ``l`` reads
    ``rendered[i][l]`` (``Inst:summary``, rendered once per local state
    by the generator).  Plain strings and integers only, so it pickles
    without the generator's tables.
    """

    def __init__(self, rendered: Sequence[Sequence[str]], states: array):
        self.rendered = [tuple(texts) for texts in rendered]
        self.states = states
        self.width = len(self.rendered)

    def __call__(self, state: int) -> Optional[str]:
        start = state * self.width
        if not 0 <= start < len(self.states):
            return None
        return " | ".join([
            texts[local]
            for texts, local in zip(
                self.rendered, self.states[start:start + self.width]
            )
        ])


class DescribedBy:
    """Descriptions read from other LTSs on demand.

    Each segment ``(start, prefix, source, origin)`` describes the states
    from ``start`` up to the next segment's start as ``prefix +
    source.state_info(o)``, where ``o`` is ``origin[state - start]``, or
    ``state - start`` when ``origin`` is ``None``.
    """

    def __init__(
        self, segments: Sequence[Tuple[int, str, "LTS", Optional[list]]]
    ):
        self.segments = list(segments)

    def __call__(self, state: int) -> Optional[str]:
        for start, prefix, source, origin in reversed(self.segments):
            if state >= start:
                local = state - start
                if origin is not None:
                    local = origin[local]
                return prefix + source.state_info(local)
        return None


class LTS:
    """A finite labelled transition system with a single initial state."""

    #: True while the columns are shared with another LTS (see
    #: :meth:`rerated`): the first change copies them.
    _shared_columns = False
    #: The LTS this one was re-rated from (see :meth:`rerated`), whose
    #: CSR index and rows without a position in ``_rerated`` it reuses.
    _base: Optional["LTS"] = None
    _rerated: frozenset = frozenset()
    _rerated_rows: frozenset = frozenset()

    def __init__(self, initial: int = 0):
        self._num_states = 0
        self.initial = initial
        self._columns = LTSColumns(
            array("q"), array("q"), array("q"), [], [], array("d"), []
        )
        self._label_index: Dict[str, int] = {}
        self._state_info: Dict[int, str] = {}
        #: Description source of the states ``_state_info`` leaves out.
        self._describe = None
        self._drop_derived()

    @classmethod
    def from_columns(
        cls,
        initial: int,
        num_states: int,
        columns: LTSColumns,
        describe=None,
    ) -> "LTS":
        """An LTS over ready-made *columns* (taken, not copied).

        The caller vouches that every endpoint is a state and that the
        label ids index ``columns.labels`` without repeats.  *describe*
        maps a state to its description, or ``None`` for ``state N``.
        """
        lts = cls(initial)
        lts._num_states = num_states
        lts._columns = columns
        lts._label_index = {
            label: i for i, label in enumerate(columns.labels)
        }
        lts._describe = describe
        return lts

    def _drop_derived(self) -> None:
        """Forget everything derived from the columns."""
        #: True once something below was derived (or the columns shared).
        self._derived = False
        self._arrays: Optional[Tuple[np.ndarray, ...]] = None
        self._rows: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._row_lists: Optional[Tuple[List[int], List[int]]] = None
        self._row_views: Dict[int, Tuple[Transition, ...]] = {}
        self._kinds: Optional[np.ndarray] = None
        self._exp_rates: Optional[np.ndarray] = None
        self._memo: Dict[object, object] = {}

    def _write(self) -> None:
        """Make the columns this LTS's own before a change, and forget
        what was derived from them."""
        if not self._derived:
            return
        if self._shared_columns:
            c = self._columns
            self._columns = LTSColumns(
                array("q", c.sources), array("q", c.label_ids),
                array("q", c.targets), list(c.rates), list(c.events),
                array("d", c.weights), list(c.labels),
            )
            self._label_index = dict(self._label_index)
            self._shared_columns = False
        self._base = None
        self._rerated = self._rerated_rows = frozenset()
        self._drop_derived()

    # -- construction -----------------------------------------------------

    def add_state(self, info: Optional[str] = None) -> int:
        """Add a state, optionally with a human-readable description."""
        index = self._num_states
        self._num_states += 1
        self._write()
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
    ) -> None:
        """Add a transition between existing states."""
        for state in (source, target):
            if not 0 <= state < self._num_states:
                raise AnalysisError(
                    f"transition endpoint {state} is not a state "
                    f"(have {self._num_states})"
                )
        self._write()
        columns = self._columns
        label_id = self._label_index.get(label)
        if label_id is None:
            label_id = self._label_index[label] = len(columns.labels)
            columns.labels.append(label)
        columns.sources.append(source)
        columns.label_ids.append(label_id)
        columns.targets.append(target)
        columns.rates.append(rate)
        columns.events.append(event)
        columns.weights.append(weight)

    def rerated(
        self, positions: Iterable[int], rates: List[Optional[Rate]]
    ) -> "LTS":
        """This LTS with the rate column *rates*, which differs from this
        LTS's at *positions* only.

        Every other column is shared, and so is what this LTS derives
        from them (its CSR index), the views of the positions not
        re-rated and the rows without one.  What else the copy reuses
        is decided here, not by the caller: the simulator's tables of
        the rows holding no re-rated position (:meth:`rerated_from`),
        and, while every re-rated position holds an exponential rate
        before and after, the data derived from the structure
        (:meth:`structure_owner`).
        """
        rerated = frozenset(positions)
        clone = LTS.__new__(LTS)
        clone.__dict__.update(self.__dict__)
        clone._drop_derived()
        clone._columns = self._columns._replace(rates=rates)
        clone._state_info = dict(self._state_info)
        clone._shared_columns = self._shared_columns = True
        clone._derived = self._derived = True
        clone._base = self
        clone._rerated = rerated
        sources = self._columns.sources
        clone._rerated_rows = frozenset(sources[p] for p in rerated)
        return clone

    # -- accessors --------------------------------------------------------

    @property
    def columns(self) -> LTSColumns:
        """The column storage (read-only)."""
        return self._columns

    @property
    def num_states(self) -> int:
        """Number of states."""
        return self._num_states

    @property
    def num_transitions(self) -> int:
        """Number of transitions."""
        return len(self._columns.sources)

    def states(self) -> range:
        """Iterate over state indices."""
        return range(self._num_states)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sources, label ids and targets columns as numpy arrays."""
        if self._arrays is None:
            self._derived = True
            if self._shares_base():
                self._arrays = self._base.arrays()
            else:
                c = self._columns
                self._arrays = tuple(
                    np.array(column, np.intp)
                    for column in (c.sources, c.label_ids, c.targets)
                )
        return self._arrays

    def rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """The CSR index ``(order, offsets)``: the positions leaving state
        ``s`` are ``order[offsets[s]:offsets[s + 1]]``, in the order they
        were added."""
        if self._rows is None and self._shares_base():
            self._rows = self._base.rows()
        if self._rows is None:
            sources = self.arrays()[0]
            order = np.argsort(sources, kind="stable")
            offsets = np.zeros(self._num_states + 1, np.intp)
            np.cumsum(
                np.bincount(sources, minlength=self._num_states),
                out=offsets[1:],
            )
            self._rows = (order, offsets)
        return self._rows

    def row_lists(self) -> Tuple[List[int], List[int]]:
        """:meth:`rows` as Python lists, for per-state loops."""
        if self._row_lists is None:
            self._derived = True
            if self._shares_base():
                self._row_lists = self._base.row_lists()
            else:
                order, offsets = self.rows()
                self._row_lists = (order.tolist(), offsets.tolist())
        return self._row_lists

    def rate_kinds(self) -> np.ndarray:
        """Per position, the kind of its rate (:data:`EXP`,
        :data:`IMMEDIATE`, :data:`PASSIVE`, :data:`GENERAL` or
        :data:`NO_RATE`)."""
        if self._kinds is None:
            self._derived = True
            self._kinds = self._per_rate("rate_kinds", _rate_kinds)
        return self._kinds

    def exp_rates(self) -> np.ndarray:
        """Per position, its exponential rate value (NaN where the rate
        is not exponential)."""
        if self._exp_rates is None:
            self._derived = True
            self._exp_rates = self._per_rate("exp_rates", _exp_values)
        return self._exp_rates

    def _per_rate(self, name: str, values) -> np.ndarray:
        """``values(rates)`` over every position: the base's column
        *name* with the re-rated positions patched, when this LTS shares
        the base's columns."""
        rates = self._columns.rates
        if not self._shares_base():
            return values(rates)
        column = getattr(self._base, name)().copy()
        positions = list(self._rerated)
        column[positions] = values([rates[p] for p in positions])
        return column

    def rerated_from(self) -> Optional[Tuple["LTS", frozenset]]:
        """``(base, rows)`` while this LTS shares the columns of the LTS
        it was re-rated from (see :meth:`rerated`): *rows* are the states
        whose outgoing row holds a re-rated position, every other row is
        the base's.  ``None`` otherwise (never re-rated, changed since,
        or unpickled: the base is not pickled)."""
        if not self._shares_base():
            return None
        return self._base, self._rerated_rows

    def structure_owner(self) -> "LTS":
        """The LTS whose :meth:`memo` keeps the data derived from this
        LTS's structure (the CTMC elimination plan).

        That is this LTS, or the base it was re-rated from (see
        :meth:`rerated`), followed for as long as every re-rated
        position holds an exponential rate before and after: nothing
        derived from the structure reads an exponential rate's value.
        """
        owner = self
        while owner._shares_base():
            base = owner._base
            positions = list(owner._rerated)
            if not (
                (owner.rate_kinds()[positions] == EXP).all()
                and (base.rate_kinds()[positions] == EXP).all()
            ):
                break
            owner = base
        return owner

    def memo(self) -> Dict[object, object]:
        """Data another layer derives from this LTS as it is now, keyed
        by its owner (e.g. the simulator's compiled state tables).

        Forgotten when the LTS changes; never pickled, and not shared
        with a copy.
        """
        self._derived = True
        return self._memo

    def _shares_base(self) -> bool:
        """Whether the base (see :meth:`rerated`) still holds the columns
        this LTS shares with it."""
        base = self._base
        return base is not None and (
            base._columns.sources is self._columns.sources
        )

    def _make_view(self, position: int) -> Transition:
        c = self._columns
        return Transition(
            c.sources[position], c.labels[c.label_ids[position]],
            c.targets[position], c.rates[position], c.events[position],
            c.weights[position],
        )

    @property
    def transitions(self) -> List[Transition]:
        """Every transition, in the order they were added (the views of
        :meth:`outgoing`, so every row is materialized)."""
        views: List[Transition] = [None] * self.num_transitions
        order, offsets = self.row_lists()
        for state in range(self._num_states):
            for position, view in zip(
                order[offsets[state]:offsets[state + 1]],
                self.outgoing(state),
            ):
                views[position] = view
        return views

    def outgoing(self, state: int) -> Sequence[Transition]:
        """Transitions leaving *state* (views, made on the first read of
        the row and kept)."""
        row = self._row_views.get(state)
        if row is None:
            if not 0 <= state < self._num_states:
                return ()
            self._derived = True
            order, offsets = self.row_lists()
            positions = order[offsets[state]:offsets[state + 1]]
            if not self._shares_base():
                row = tuple([self._make_view(p) for p in positions])
            elif state in self._rerated_rows:
                rerated = self._rerated
                row = tuple([
                    self._make_view(p) if p in rerated else view
                    for p, view in zip(positions, self._base.outgoing(state))
                ])
            else:
                row = self._base.outgoing(state)
            self._row_views[state] = row
        return row

    def state_info(self, state: int) -> str:
        """Human-readable description of *state* (or its index)."""
        info = self._state_info.get(state)
        if (
            info is None
            and self._describe is not None
            and 0 <= state < self._num_states
        ):
            info = self._describe(state)
        return f"state {state}" if info is None else info

    def set_state_info(self, state: int, info: str) -> None:
        """Attach a human-readable description to *state*."""
        self._state_info[state] = info

    def labels(self) -> Set[str]:
        """The set of labels appearing on transitions."""
        labels = self._columns.labels
        return {labels[i] for i in set(self._columns.label_ids)}

    def visible_labels(self) -> Set[str]:
        """All labels except ``tau``."""
        return self.labels() - {TAU}

    def successors(self, state: int, label: str) -> List[int]:
        """Targets of *label*-transitions leaving *state*."""
        return [t.target for t in self.outgoing(state) if t.label == label]

    def _out_degrees(self) -> np.ndarray:
        return np.diff(self.rows()[1])

    def has_deadlock(self) -> bool:
        """True when some reachable state has no outgoing transition."""
        return bool((self._out_degrees() == 0).any())

    def deadlock_states(self) -> List[int]:
        """All states with no outgoing transition."""
        return np.flatnonzero(self._out_degrees() == 0).tolist()

    # -- misc -------------------------------------------------------------

    def copy(self) -> "LTS":
        """An independent copy (the columns are copied on write)."""
        clone = LTS.from_columns(
            self.initial, self._num_states, self._columns, self._describe
        )
        clone._state_info = dict(self._state_info)
        clone._shared_columns = self._shared_columns = True
        clone._derived = self._derived = True
        return clone

    def __getstate__(self):
        state = dict(self.__dict__)
        # Views, indexes, memos and the base are rebuilt on demand.
        for name in ("_arrays", "_rows", "_row_lists", "_kinds",
                     "_exp_rates", "_base", "_memo"):
            state.pop(name, None)
        state["_row_views"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._arrays = self._rows = self._row_lists = None
        self._kinds = self._exp_rates = None
        self._memo = {}

    def __str__(self) -> str:
        return (
            f"LTS({self._num_states} states, {self.num_transitions} "
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
