"""Architectural element types (AETs): behaviour plus declared interactions.

An AET packages a family of behaviour equations with the declaration of
which actions are *input interactions* (offered to the outside, passive) and
which are *output interactions* (initiated towards the outside).  All other
actions are internal to the element.

Interactions are declared with a multiplicity qualifier:

* ``UNI`` — attached to exactly one interaction of another instance;
* ``OR``  — an output attached to several inputs, one of which is selected
  probabilistically per firing (server-pool style);
* ``AND`` — an output broadcast to several inputs that all synchronise with
  it simultaneously.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Set, Tuple

from ..errors import SpecificationError, TypeCheckError, UnguardedRecursionError
from .ast import (
    ActionPrefix,
    Behavior,
    Choice,
    Guarded,
    ProcessCall,
    ProcessDef,
    Stop,
)
from .expressions import DataType


class Multiplicity(enum.Enum):
    """Attachment multiplicity of an interaction."""

    UNI = "UNI"
    OR = "OR"
    AND = "AND"


class Direction(enum.Enum):
    """Whether an interaction receives (input) or initiates (output)."""

    INPUT = "input"
    OUTPUT = "output"


@dataclass(frozen=True)
class Interaction:
    """A declared interaction of an element type."""

    name: str
    direction: Direction
    multiplicity: Multiplicity = Multiplicity.UNI

    def __post_init__(self):
        if not self.name.isidentifier():
            raise SpecificationError(f"invalid interaction name {self.name!r}")


def collect_actions(term: Behavior) -> Set[str]:
    """Return all action names occurring in a behaviour term."""
    actions: Set[str] = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, ActionPrefix):
            actions.add(node.action)
            stack.append(node.continuation)
        elif isinstance(node, Choice):
            stack.extend(node.alternatives)
        elif isinstance(node, Guarded):
            stack.append(node.behavior)
        elif isinstance(node, (ProcessCall, Stop)):
            pass
        else:  # pragma: no cover - defensive
            raise SpecificationError(f"unknown behaviour node {node!r}")
    return actions


@dataclass
class ElemType:
    """An architectural element type: equations + interaction declarations.

    The first behaviour equation is the initial behaviour of every instance
    of the type; its formal defaults (if any) provide the initial data
    values, which instances may override.
    """

    name: str
    definitions: Tuple[ProcessDef, ...]
    interactions: Tuple[Interaction, ...] = ()

    def __post_init__(self):
        if not self.name.isidentifier():
            raise SpecificationError(f"invalid element type name {self.name!r}")
        if not self.definitions:
            raise SpecificationError(
                f"element type {self.name!r} has no behaviour equations"
            )
        self._defs_by_name: Dict[str, ProcessDef] = {}
        for definition in self.definitions:
            if definition.name in self._defs_by_name:
                raise SpecificationError(
                    f"duplicate behaviour equation {definition.name!r} "
                    f"in element type {self.name!r}"
                )
            self._defs_by_name[definition.name] = definition
        self._interactions_by_name: Dict[str, Interaction] = {}
        for interaction in self.interactions:
            if interaction.name in self._interactions_by_name:
                raise SpecificationError(
                    f"interaction {interaction.name!r} declared twice "
                    f"in element type {self.name!r}"
                )
            self._interactions_by_name[interaction.name] = interaction

    # -- lookups ----------------------------------------------------------

    @property
    def initial_definition(self) -> ProcessDef:
        """The first behaviour equation (entry point of instances)."""
        return self.definitions[0]

    def definition(self, name: str) -> ProcessDef:
        """Return the behaviour equation called *name*."""
        try:
            return self._defs_by_name[name]
        except KeyError:
            raise SpecificationError(
                f"element type {self.name!r} has no behaviour {name!r}"
            ) from None

    def interaction(self, name: str) -> Interaction:
        """Return the declared interaction called *name*."""
        try:
            return self._interactions_by_name[name]
        except KeyError:
            raise SpecificationError(
                f"element type {self.name!r} has no interaction {name!r}"
            ) from None

    def has_interaction(self, name: str) -> bool:
        """True when *name* is a declared interaction of the type."""
        return name in self._interactions_by_name

    def all_actions(self) -> FrozenSet[str]:
        """All action names used by the behaviour equations."""
        actions: Set[str] = set()
        for definition in self.definitions:
            actions |= collect_actions(definition.body)
        return frozenset(actions)

    def internal_actions(self) -> FrozenSet[str]:
        """Actions that are not declared interactions."""
        return self.all_actions() - set(self._interactions_by_name)

    # -- static checks ----------------------------------------------------

    def validate(self, constants: Mapping[str, DataType]) -> None:
        """Run all static well-formedness checks.

        *constants* maps architectural ``const`` parameter names to types;
        they are visible inside behaviour bodies (typically in rates).
        """
        const_names = frozenset(constants)
        self._validate_calls()
        self._validate_types(constants)
        self._validate_guardedness()
        for definition in self.definitions:
            definition.check_closed(const_names)
        used = self.all_actions()
        for interaction in self.interactions:
            if interaction.name not in used:
                raise SpecificationError(
                    f"interaction {interaction.name!r} of element type "
                    f"{self.name!r} never occurs in its behaviour"
                )

    def _validate_calls(self) -> None:
        for definition in self.definitions:
            for called in definition.body.called_processes():
                if called not in self._defs_by_name:
                    raise SpecificationError(
                        f"process {definition.name!r} of element type "
                        f"{self.name!r} calls undefined behaviour {called!r}"
                    )

    def _validate_types(self, constants: Mapping[str, DataType]) -> None:
        scopes: Dict[str, Dict[str, DataType]] = {}
        for definition in self.definitions:
            scope = dict(constants)
            for formal in definition.formals:
                scope[formal.name] = formal.type
            scopes[definition.name] = scope
        for definition in self.definitions:
            self._check_term_types(
                definition.body, scopes[definition.name], definition.name
            )

    def _check_term_types(
        self, term: Behavior, scope: Mapping[str, DataType], where: str
    ) -> None:
        if isinstance(term, ActionPrefix):
            self._check_term_types(term.continuation, scope, where)
        elif isinstance(term, Choice):
            for alt in term.alternatives:
                self._check_term_types(alt, scope, where)
        elif isinstance(term, Guarded):
            guard_type = term.condition.infer_type(scope)
            if guard_type is not DataType.BOOL:
                raise TypeCheckError(
                    f"guard {term.condition} in {self.name}.{where} "
                    f"has type {guard_type.value}, expected bool"
                )
            self._check_term_types(term.behavior, scope, where)
        elif isinstance(term, ProcessCall):
            target = self.definition(term.name)
            if len(term.args) > len(target.formals):
                raise TypeCheckError(
                    f"call {term} in {self.name}.{where} passes "
                    f"{len(term.args)} argument(s); {target.name!r} "
                    f"declares {len(target.formals)}"
                )
            for formal in target.formals[len(term.args):]:
                if formal.default is None:
                    raise TypeCheckError(
                        f"call {term} in {self.name}.{where} misses a "
                        f"value for parameter {formal.name!r} (no default)"
                    )
            for arg, formal in zip(term.args, target.formals):
                arg_type = arg.infer_type(scope)
                if not formal.type.accepts(arg_type):
                    raise TypeCheckError(
                        f"argument {arg} of call {term} in "
                        f"{self.name}.{where} has type {arg_type.value}, "
                        f"expected {formal.type.value}"
                    )
        elif isinstance(term, Stop):
            pass
        else:  # pragma: no cover - defensive
            raise SpecificationError(f"unknown behaviour node {term!r}")

    def _validate_guardedness(self) -> None:
        """Reject recursion that can loop without performing an action."""
        graph: Dict[str, FrozenSet[str]] = {
            definition.name: definition.body.unguarded_calls()
            for definition in self.definitions
        }
        for start in graph:
            seen: Set[str] = set()
            frontier = list(graph[start])
            while frontier:
                name = frontier.pop()
                if name == start:
                    raise UnguardedRecursionError(
                        f"behaviour {start!r} of element type {self.name!r} "
                        f"can recurse without performing an action"
                    )
                if name in seen:
                    continue
                seen.add(name)
                frontier.extend(graph.get(name, frozenset()))

