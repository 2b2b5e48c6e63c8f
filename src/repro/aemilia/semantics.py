"""State-space generation: from an architecture to a labelled transition system.

The composed semantics follows the stochastic process algebra underlying the
paper's ADL:

* internal actions of an instance fire on their own, labelled
  ``Inst.action``;
* an **output** interaction synchronises with the **input** interaction(s)
  it is attached to.  The output side is *active* (it carries the timing),
  the input side must be *passive*; the synchronisation is labelled
  ``Out.o#In.i`` exactly as printed by the paper's equivalence checker;
* when one activity can complete in several ways (several passive moves of
  the partner, or an ``OR`` output attached to several ready inputs), the
  branches are selected probabilistically by passive weights;
* **immediate** actions (``inf``) preempt timed and passive ones; among
  enabled immediates only the highest priority survives;
* unattached interactions stay observable at the architecture level.

Global states are tuples of per-instance local states; a local state is a
behaviour term of the original AST plus an environment for its data
parameters (terms are never rewritten, so object identity keys the caches).
The generator classifies each local move once per local state, not once
per global state: a move table per (instance, local state) holds the
ready-made global moves, and the synchronisation branches of an attached
output are memoised per tuple of its partners' local states.

Generation appends each transition to the LTS's columns and stores each
state as its tuple of local states; descriptions are rendered on read,
from one ``Inst:summary`` string per local state
(:class:`~repro.lts.lts.StateDescriptions`).
"""

from __future__ import annotations

import itertools
import operator
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import (
    SemanticsError,
    SpecificationError,
    StateSpaceLimitError,
    UnguardedRecursionError,
)
from ..lts.labels import local_label, sync_label
from ..lts.lts import LTS, LTSColumns, StateDescriptions
from .architecture import ArchiType, Attachment
from .ast import (
    ActionPrefix,
    Behavior,
    Choice,
    Guarded,
    ProcessCall,
    Stop,
)
from .elemtypes import Direction, ElemType, Multiplicity
from .expressions import DataType, Value, evaluate_guard
from .rates import ExpRate, ImmediateRate, PassiveRate, Rate, RateSpec

EnvTuple = Tuple[Tuple[str, Value], ...]


@dataclass(frozen=True)
class RateProvenance:
    """How one transition's rate was computed, for parametric relabeling.

    A transition's rate is the value of a syntactic :class:`RateSpec` under
    ``{**const_env, **local_env}``, optionally split by a branch
    ``fraction`` (probabilistic delivery to one of several passive
    partners).  The local environment and the fraction are *structural* —
    they only depend on data values and passive weights — so a sweep over a
    parameter that appears exclusively in rate expressions can re-evaluate
    ``spec`` under a new constant environment and reuse everything else.
    """

    spec: RateSpec
    #: Local data environment at evaluation time, projected onto the
    #: spec's free variables (local names shadow constants).
    env: EnvTuple
    #: Constant parameters the spec actually reads (free vars not shadowed
    #: by the local environment).
    free_consts: frozenset
    #: Branch probability applied by the generator, or ``None`` when the
    #: move was not split.
    fraction: Optional[float] = None

    def evaluate(self, const_env: Mapping[str, Value]) -> Rate:
        """Recompute the concrete rate under a new constant environment."""
        env = dict(const_env)
        env.update(self.env)
        rate = self.spec.evaluate(env)
        return apply_branch_fraction(rate, self.fraction)


def apply_branch_fraction(rate: Rate, fraction: Optional[float]) -> Rate:
    """Apply the generator's branch split to a freshly evaluated rate.

    Mirrors :meth:`StateSpaceGenerator._branch` exactly so relabeled rates
    are bit-identical to freshly generated ones.
    """
    if fraction is None:
        return rate
    if isinstance(rate, ExpRate):
        return ExpRate(rate.rate * fraction)
    if isinstance(rate, ImmediateRate):
        return ImmediateRate(rate.priority, rate.weight * fraction)
    return rate


@dataclass(frozen=True)
class LocalMove:
    """One enabled action of an instance: action name, rate, next state."""

    action: str
    rate: Rate
    target: int  # index into the instance's local-state table
    #: Provenance of the rate (spec + projected env), recorded only when
    #: the generator runs in parametric mode.
    spec: Optional[RateSpec] = None
    spec_env: EnvTuple = ()
    free_consts: frozenset = frozenset()


class _InstanceSemantics:
    """Per-instance unfolding machinery with memoised local states/moves."""

    def __init__(
        self,
        name: str,
        elem_type: ElemType,
        initial_args: Sequence[Value],
        const_env: Mapping[str, Value],
        record_provenance: bool = False,
    ):
        self.name = name
        self.elem_type = elem_type
        self.const_env = dict(const_env)
        self.record_provenance = record_provenance
        self._states: List[Tuple[Behavior, EnvTuple]] = []
        self._state_index: Dict[Tuple[int, EnvTuple], int] = {}
        self._moves: List[Optional[List[LocalMove]]] = []
        self._fv_cache: Dict[int, frozenset] = {}
        self._rate_fv_cache: Dict[int, frozenset] = {}
        initial = elem_type.initial_definition
        env: Dict[str, Value] = {}
        values = list(initial_args)
        for position, formal in enumerate(initial.formals):
            if position < len(values):
                value = values[position]
            else:
                value = formal.default.evaluate({**self.const_env, **env})
            env[formal.name] = self._coerce(value, formal.type)
        self.initial_state = self._intern(initial.body, env)

    @staticmethod
    def _coerce(value: Value, target: DataType) -> Value:
        if target is DataType.REAL and isinstance(value, int):
            return float(value)
        return value

    def _free_vars(self, term: Behavior) -> frozenset:
        cached = self._fv_cache.get(id(term))
        if cached is None:
            cached = term.free_variables()
            self._fv_cache[id(term)] = cached
        return cached

    def _rate_free_vars(self, spec: RateSpec) -> frozenset:
        cached = self._rate_fv_cache.get(id(spec))
        if cached is None:
            cached = spec.free_variables()
            self._rate_fv_cache[id(spec)] = cached
        return cached

    def _intern(self, term: Behavior, env: Mapping[str, Value]) -> int:
        # Canonicalise through process calls: a call with concrete
        # arguments denotes the same local state as the called body under
        # the corresponding environment.  This collapses e.g. the target
        # of a recursive monitor branch onto the state it loops on.
        depth = 0
        while isinstance(term, ProcessCall):
            depth += 1
            if depth > 10_000:
                raise UnguardedRecursionError(
                    f"instance {self.name!r}: process call chain through "
                    f"{term.name!r} never reaches an action"
                )
            definition = self.elem_type.definition(term.name)
            full_env = {**self.const_env, **env}
            values = [arg.evaluate(full_env) for arg in term.args]
            new_env: Dict[str, Value] = {}
            for position, formal in enumerate(definition.formals):
                if position < len(values):
                    value = values[position]
                else:
                    if formal.default is None:
                        raise SpecificationError(
                            f"call {term} misses argument "
                            f"{formal.name!r} (no default)"
                        )
                    value = formal.default.evaluate(
                        {**self.const_env, **new_env}
                    )
                new_env[formal.name] = self._coerce(value, formal.type)
            term, env = definition.body, new_env
        relevant = self._free_vars(term)
        env_tuple = tuple(
            sorted((k, v) for k, v in env.items() if k in relevant)
        )
        key = (id(term), env_tuple)
        index = self._state_index.get(key)
        if index is None:
            index = len(self._states)
            self._state_index[key] = index
            self._states.append((term, env_tuple))
            self._moves.append(None)
        return index

    def moves(self, state: int) -> List[LocalMove]:
        """Enabled local moves of the given local state (memoised)."""
        cached = self._moves[state]
        if cached is None:
            term, env_tuple = self._states[state]
            cached = []
            self._collect(term, dict(env_tuple), cached, [])
            self._moves[state] = cached
        return cached

    def _collect(
        self,
        term: Behavior,
        env: Dict[str, Value],
        out: List[LocalMove],
        unfold_stack: List[Tuple[str, Tuple[Value, ...]]],
    ) -> None:
        if isinstance(term, Stop):
            return
        if isinstance(term, ActionPrefix):
            full_env = {**self.const_env, **env}
            rate = term.rate.evaluate(full_env)
            target = self._intern(term.continuation, env)
            if self.record_provenance:
                spec_fv = self._rate_free_vars(term.rate)
                spec_env = tuple(
                    sorted(
                        (name, value)
                        for name, value in env.items()
                        if name in spec_fv
                    )
                )
                free_consts = spec_fv - {name for name, _ in spec_env}
                out.append(
                    LocalMove(
                        term.action, rate, target,
                        term.rate, spec_env, free_consts,
                    )
                )
            else:
                out.append(LocalMove(term.action, rate, target))
            return
        if isinstance(term, Choice):
            for alternative in term.alternatives:
                self._collect(alternative, env, out, unfold_stack)
            return
        if isinstance(term, Guarded):
            full_env = {**self.const_env, **env}
            if evaluate_guard(term.condition, full_env):
                self._collect(term.behavior, env, out, unfold_stack)
            return
        if isinstance(term, ProcessCall):
            definition = self.elem_type.definition(term.name)
            full_env = {**self.const_env, **env}
            values = tuple(arg.evaluate(full_env) for arg in term.args)
            frame = (term.name, values)
            if frame in unfold_stack:
                raise UnguardedRecursionError(
                    f"instance {self.name!r}: behaviour {term.name!r} "
                    f"with arguments {values} recurses without an action"
                )
            new_env: Dict[str, Value] = {}
            for position, formal in enumerate(definition.formals):
                if position < len(values):
                    value = values[position]
                else:
                    if formal.default is None:
                        raise SpecificationError(
                            f"call {term} misses argument "
                            f"{formal.name!r} (no default)"
                        )
                    value = formal.default.evaluate(
                        {**self.const_env, **new_env}
                    )
                new_env[formal.name] = self._coerce(value, formal.type)
            unfold_stack.append(frame)
            try:
                self._collect(definition.body, new_env, out, unfold_stack)
            finally:
                unfold_stack.pop()
            return
        raise SemanticsError(f"unknown behaviour node {term!r}")

    @property
    def num_states(self) -> int:
        """Number of local states interned so far."""
        return len(self._states)

    def state_summary(self, state: int) -> str:
        """Compact human-readable description of a local state."""
        term, env_tuple = self._states[state]
        if isinstance(term, ProcessCall):
            head = term.name
        elif isinstance(term, ActionPrefix):
            head = f"<{term.action}>"
        elif isinstance(term, Choice):
            heads = []
            for alternative in term.alternatives[:2]:
                inner = alternative
                while isinstance(inner, Guarded):
                    inner = inner.behavior
                if isinstance(inner, ActionPrefix):
                    heads.append(inner.action)
            head = "choice{" + ",".join(heads) + ",..}"
        elif isinstance(term, Stop):
            head = "stop"
        else:
            head = type(term).__name__
        if env_tuple:
            assignments = ",".join(f"{k}={v}" for k, v in env_tuple)
            return f"{head}[{assignments}]"
        return head


@dataclass(frozen=True)
class _GlobalMove:
    """A candidate global transition before preemption filtering."""

    label: str
    rate: Rate
    event: str
    weight: float
    targets: Tuple[Tuple[int, int], ...]  # (instance index, new local state)
    provenance: Optional[RateProvenance] = None
    #: Whether the rate is immediate, tested once per move by
    #: :meth:`StateSpaceGenerator._filter_preemption`.
    immediate: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "immediate", isinstance(self.rate, ImmediateRate)
        )


class _SyncEntry:
    """An attached output move of one local state.

    ``branches`` memoises :meth:`StateSpaceGenerator._sync_moves` per
    combination of the attached partners' local states, the only part of
    the global state the branches read.
    """

    __slots__ = ("move", "attachments", "partner_states", "branches")

    def __init__(
        self,
        move: LocalMove,
        attachments: List[Attachment],
        partners: List[int],
    ):
        self.move = move
        self.attachments = attachments
        #: Global state -> the partners' local states, the key of
        #: ``branches`` (a bare local state when there is one partner).
        self.partner_states = operator.itemgetter(*partners)
        self.branches: Dict[object, List[_GlobalMove]] = {}


class StateSpaceGenerator:
    """Exhaustive generator of the composed state space of an architecture."""

    def __init__(
        self,
        archi: ArchiType,
        const_overrides: Optional[Mapping[str, Value]] = None,
        max_states: int = 200_000,
        apply_preemption: bool = True,
        record_provenance: bool = False,
    ):
        self.archi = archi
        self.const_env = archi.bind_constants(const_overrides)
        self.max_states = max_states
        self.apply_preemption = apply_preemption
        self.record_provenance = record_provenance
        #: Per-transition rate provenance, parallel to the generated LTS's
        #: transition list (filled only when ``record_provenance``).
        self.provenance: List[RateProvenance] = []
        self._instances: List[_InstanceSemantics] = []
        self._index_of_instance: Dict[str, int] = {}
        for position, instance in enumerate(archi.instances):
            elem_type = archi.elem_types[instance.type_name]
            args = [arg.evaluate(self.const_env) for arg in instance.args]
            self._instances.append(
                _InstanceSemantics(
                    instance.name, elem_type, args, self.const_env,
                    record_provenance,
                )
            )
            self._index_of_instance[instance.name] = position
        # Precompute attachment lookup tables.
        self._attachments_from: Dict[Tuple[int, str], List[Attachment]] = {}
        self._attached_inputs: Set[Tuple[int, str]] = set()
        for attachment in archi.attachments:
            src = self._index_of_instance[attachment.from_instance]
            dst = self._index_of_instance[attachment.to_instance]
            self._attachments_from.setdefault(
                (src, attachment.from_interaction), []
            ).append(attachment)
            self._attached_inputs.add((dst, attachment.to_interaction))
        #: Per instance, the move table of each local state met so far
        #: (:meth:`_move_table`).
        self._move_tables: List[Dict[int, list]] = [
            {} for _ in self._instances
        ]

    # -- move computation --------------------------------------------------

    @staticmethod
    def _move_provenance(
        move: LocalMove, fraction: Optional[float] = None
    ) -> Optional[RateProvenance]:
        if move.spec is None:
            return None
        return RateProvenance(
            move.spec, move.spec_env, move.free_consts, fraction
        )

    def _move_table(self, index: int, local_state: int) -> list:
        """Classify the local moves of one instance's local state.

        Each autonomous move (internal action, open input, open output)
        becomes one shared :class:`_GlobalMove`; an attached input fires
        only through its output partner and gets no entry; an attached
        output becomes a :class:`_SyncEntry`, whose branches depend on
        the partners' local states.
        """
        semantics = self._instances[index]
        elem_type = semantics.elem_type
        table: list = []
        for move in semantics.moves(local_state):
            direction = (
                elem_type.interaction(move.action).direction
                if elem_type.has_interaction(move.action)
                else None
            )
            if direction is Direction.INPUT:
                if (index, move.action) in self._attached_inputs:
                    continue
            elif direction is Direction.OUTPUT:
                attachments = self._attachments_from.get((index, move.action))
                if attachments:
                    partners = [
                        self._index_of_instance[attachment.to_instance]
                        for attachment in attachments
                    ]
                    table.append(_SyncEntry(move, attachments, partners))
                    continue
            label = local_label(semantics.name, move.action)
            table.append(
                _GlobalMove(
                    label, move.rate, label, 1.0,
                    ((index, move.target),),
                    self._move_provenance(move),
                )
            )
        return table

    def _global_moves(self, state: Tuple[int, ...]) -> List[_GlobalMove]:
        moves: List[_GlobalMove] = []
        for index, tables in enumerate(self._move_tables):
            local_state = state[index]
            table = tables.get(local_state)
            if table is None:
                table = tables[local_state] = self._move_table(
                    index, local_state
                )
            for entry in table:
                if entry.__class__ is _GlobalMove:
                    moves.append(entry)
                    continue
                partners = entry.partner_states(state)
                branches = entry.branches.get(partners)
                if branches is None:
                    branches = entry.branches[partners] = self._sync_moves(
                        state, index, entry.move, entry.attachments
                    )
                moves.extend(branches)
        return moves

    def _sync_moves(
        self,
        state: Tuple[int, ...],
        out_index: int,
        out_move: LocalMove,
        attachments: List[Attachment],
    ) -> List[_GlobalMove]:
        out_semantics = self._instances[out_index]
        out_name = out_semantics.name
        interaction = out_semantics.elem_type.interaction(out_move.action)
        event = local_label(out_name, out_move.action)
        # Note: in *timed* models the output side must be active; untimed
        # (functional) models use passive rates everywhere.  A passive
        # output is therefore accepted here and the Markovian builder
        # rejects any passive transition that survives into a CTMC.
        partner_options: List[List[Tuple[int, LocalMove, str]]] = []
        for attachment in attachments:
            in_index = self._index_of_instance[attachment.to_instance]
            in_semantics = self._instances[in_index]
            options: List[Tuple[int, LocalMove, str]] = []
            for move in in_semantics.moves(state[in_index]):
                if move.action != attachment.to_interaction:
                    continue
                if not isinstance(move.rate, PassiveRate):
                    raise SpecificationError(
                        f"input interaction "
                        f"{attachment.to_instance}.{attachment.to_interaction}"
                        f" must be passive, found {move.rate}"
                    )
                options.append(
                    (
                        in_index,
                        move,
                        local_label(
                            attachment.to_instance, attachment.to_interaction
                        ),
                    )
                )
            partner_options.append(options)

        if interaction.multiplicity is Multiplicity.AND:
            # Broadcast: every attached partner must be ready.
            if any(not options for options in partner_options):
                return []
            branches: List[_GlobalMove] = []
            combos = list(itertools.product(*partner_options))
            total_weight = sum(
                self._combo_weight(combo) for combo in combos
            )
            for combo in combos:
                weight = self._combo_weight(combo)
                label = sync_label(
                    event, *[part_label for _, _, part_label in combo]
                )
                targets = ((out_index, out_move.target),) + tuple(
                    (in_index, move.target) for in_index, move, _ in combo
                )
                branches.append(
                    self._branch(
                        out_move, label, event, weight, total_weight,
                        targets,
                    )
                )
            return branches

        # UNI / OR: exactly one ready partner move synchronises per firing.
        flat = [option for options in partner_options for option in options]
        if not flat:
            return []
        total_weight = sum(move.rate.weight for _, move, _ in flat)
        branches = []
        for in_index, move, part_label in flat:
            label = sync_label(event, part_label)
            targets = (
                (out_index, out_move.target),
                (in_index, move.target),
            )
            branches.append(
                self._branch(
                    out_move, label, event, move.rate.weight,
                    total_weight, targets,
                )
            )
        return branches

    @staticmethod
    def _combo_weight(combo) -> float:
        weight = 1.0
        for _, move, _ in combo:
            weight *= move.rate.weight
        return weight

    @classmethod
    def _branch(
        cls,
        out_move: LocalMove,
        label: str,
        event: str,
        weight: float,
        total_weight: float,
        targets: Tuple[Tuple[int, int], ...],
    ) -> _GlobalMove:
        rate = out_move.rate
        fraction = weight / total_weight
        provenance = cls._move_provenance(out_move, fraction)
        if isinstance(rate, ExpRate):
            # Splitting an exponential race by branch probability is exact.
            return _GlobalMove(
                label, ExpRate(rate.rate * fraction), event, fraction,
                targets, provenance,
            )
        if isinstance(rate, ImmediateRate):
            return _GlobalMove(
                label,
                ImmediateRate(rate.priority, rate.weight * fraction),
                event,
                fraction,
                targets,
                provenance,
            )
        # General (and passive, for untimed models) rates cannot be split:
        # branches share the event and carry the selection probability.
        return _GlobalMove(label, rate, event, fraction, targets, provenance)

    @staticmethod
    def _filter_preemption(moves: List[_GlobalMove]) -> List[_GlobalMove]:
        """Immediate actions preempt timed/passive ones; keep max priority."""
        immediates = [m for m in moves if m.immediate]
        if not immediates:
            return moves
        top = max(m.rate.priority for m in immediates)
        return [m for m in immediates if m.rate.priority == top]

    # -- main entry ---------------------------------------------------------

    def generate(self) -> LTS:
        """Generate the reachable state space as an LTS.

        The transitions are appended to the LTS's columns; each state is
        stored as its tuple of local states, and its description is
        rendered only when read (:class:`~repro.lts.lts.StateDescriptions`).
        """
        initial = tuple(s.initial_state for s in self._instances)
        index: Dict[Tuple[int, ...], int] = {initial: 0}
        states = array("q", initial)
        columns = LTSColumns(
            array("q"), array("q"), array("q"), [], [], array("d"), []
        )
        (sources, label_ids, targets, rates, events, weights,
         labels) = columns
        label_index: Dict[str, int] = {}
        provenance = self.provenance if self.record_provenance else None
        frontier = [initial]
        while frontier:
            state = frontier.pop()
            source = index[state]
            moves = self._global_moves(state)
            if self.apply_preemption:
                moves = self._filter_preemption(moves)
            for move in moves:
                successor = list(state)
                for instance_index, local_state in move.targets:
                    successor[instance_index] = local_state
                successor_tuple = tuple(successor)
                target = index.get(successor_tuple)
                if target is None:
                    if len(index) >= self.max_states:
                        raise StateSpaceLimitError(
                            f"state space of {self.archi.name!r} exceeds "
                            f"{self.max_states} states"
                        )
                    target = index[successor_tuple] = len(index)
                    states.extend(successor_tuple)
                    frontier.append(successor_tuple)
                label_id = label_index.get(move.label)
                if label_id is None:
                    label_id = label_index[move.label] = len(labels)
                    labels.append(move.label)
                sources.append(source)
                label_ids.append(label_id)
                targets.append(target)
                rates.append(move.rate)
                events.append(move.event)
                weights.append(move.weight)
                if provenance is not None:
                    provenance.append(move.provenance)
        return LTS.from_columns(
            0, len(index), columns, self._descriptions(states)
        )

    def _descriptions(self, states: array) -> StateDescriptions:
        """The descriptions of the generated *states*: every local state
        met is rendered once, as ``Inst:summary``."""
        rendered = [
            [
                f"{semantics.name}:{semantics.state_summary(local)}"
                for local in range(semantics.num_states)
            ]
            for semantics in self._instances
        ]
        return StateDescriptions(rendered, states)


def generate_lts(
    archi: ArchiType,
    const_overrides: Optional[Mapping[str, Value]] = None,
    max_states: int = 200_000,
    apply_preemption: bool = True,
) -> LTS:
    """Generate the state space of *archi* (convenience wrapper)."""
    generator = StateSpaceGenerator(
        archi, const_overrides, max_states, apply_preemption
    )
    return generator.generate()
