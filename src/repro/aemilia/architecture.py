"""Architectural types: instances of element types plus attachments.

An :class:`ArchiType` is the top-level description of a system: a set of
``const`` parameters (overridable when the model is instantiated, which is
how experiments sweep DPM operation rates), the element types, the declared
instances and the attachments wiring output interactions to input
interactions.

Static well-formedness rules enforced here:

* attachments go from a declared **output** interaction to a declared
  **input** interaction of *different* instances;
* a ``UNI`` interaction takes part in at most one attachment;
* ``OR``/``AND`` outputs may take part in several attachments, but every
  input end keeps its own multiplicity constraint;
* instance initial arguments match the formals of the type's first
  behaviour equation (defaults fill missing trailing arguments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import SpecificationError, TypeCheckError
from .ast import ProcessDef
from .elemtypes import Direction, ElemType, Interaction, Multiplicity
from .expressions import DataType, Expr, Value


@dataclass(frozen=True)
class ConstParam:
    """An architectural ``const`` parameter with a typed default."""

    name: str
    type: DataType
    default: Expr

    def __post_init__(self):
        if not self.name.isidentifier():
            raise SpecificationError(f"invalid const name {self.name!r}")


def const_roots(archi: ArchiType) -> Dict[str, frozenset]:
    """Map each const parameter of *archi* to the overridable parameters
    feeding it: itself, and every constant its default reads, closed
    over earlier constants' defaults (overriding any of them changes its
    value)."""
    roots: Dict[str, frozenset] = {}
    for param in archi.const_params:
        derived = frozenset({param.name})
        for name in param.default.free_variables():
            derived |= roots.get(name, frozenset({name}))
        roots[param.name] = derived
    return roots


@dataclass(frozen=True)
class Instance:
    """A declared instance ``Name : Type(args...)``."""

    name: str
    type_name: str
    args: Tuple[Expr, ...] = ()

    def __post_init__(self):
        if not self.name.isidentifier():
            raise SpecificationError(f"invalid instance name {self.name!r}")


@dataclass(frozen=True)
class Attachment:
    """``FROM inst.output TO inst.input``."""

    from_instance: str
    from_interaction: str
    to_instance: str
    to_interaction: str

    def __str__(self) -> str:
        return (
            f"FROM {self.from_instance}.{self.from_interaction} "
            f"TO {self.to_instance}.{self.to_interaction}"
        )


class ArchiType:
    """A complete architectural description.

    Parameters
    ----------
    name:
        Name of the architectural type.
    const_params:
        Overridable constants visible in rates, guards and instance
        arguments.
    elem_types:
        The element types used by the instances.
    instances:
        Ordered instance declarations (the order fixes the component index
        used in global states).
    attachments:
        Wiring between output and input interactions.
    """

    def __init__(
        self,
        name: str,
        elem_types: Tuple[ElemType, ...],
        instances: Tuple[Instance, ...],
        attachments: Tuple[Attachment, ...],
        const_params: Tuple[ConstParam, ...] = (),
    ):
        if not name.isidentifier():
            raise SpecificationError(f"invalid architecture name {name!r}")
        self.name = name
        self.const_params = tuple(const_params)
        self.elem_types: Dict[str, ElemType] = {}
        for elem_type in elem_types:
            if elem_type.name in self.elem_types:
                raise SpecificationError(
                    f"element type {elem_type.name!r} declared twice"
                )
            self.elem_types[elem_type.name] = elem_type
        self.instances = tuple(instances)
        self.attachments = tuple(attachments)
        self._instances_by_name: Dict[str, Instance] = {}
        for instance in self.instances:
            if instance.name in self._instances_by_name:
                raise SpecificationError(
                    f"instance {instance.name!r} declared twice"
                )
            self._instances_by_name[instance.name] = instance
        self._const_types: Dict[str, DataType] = {}
        for param in self.const_params:
            if param.name in self._const_types:
                raise SpecificationError(
                    f"const parameter {param.name!r} declared twice"
                )
            self._const_types[param.name] = param.type
        self._validate()

    # -- lookups ----------------------------------------------------------

    def instance(self, name: str) -> Instance:
        """Return the instance declaration called *name*."""
        try:
            return self._instances_by_name[name]
        except KeyError:
            raise SpecificationError(f"no instance named {name!r}") from None

    def type_of(self, instance_name: str) -> ElemType:
        """Return the element type of the named instance."""
        return self.elem_types[self.instance(instance_name).type_name]

    def attachments_from(
        self, instance_name: str, interaction_name: str
    ) -> List[Attachment]:
        """All attachments whose output end is the given interaction."""
        return [
            a
            for a in self.attachments
            if a.from_instance == instance_name
            and a.from_interaction == interaction_name
        ]

    # -- constants --------------------------------------------------------

    def bind_constants(
        self, overrides: Optional[Mapping[str, Value]] = None
    ) -> Dict[str, Value]:
        """Evaluate const defaults, applying *overrides*, into an env."""
        overrides = dict(overrides or {})
        unknown = set(overrides) - set(self._const_types)
        if unknown:
            names = ", ".join(sorted(unknown))
            raise SpecificationError(
                f"unknown const parameter(s) {names} for architecture "
                f"{self.name!r}"
            )
        env: Dict[str, Value] = {}
        for param in self.const_params:
            if param.name in overrides:
                value = overrides[param.name]
                value_type = DataType.of_value(value)
                if not param.type.accepts(value_type):
                    raise TypeCheckError(
                        f"override for const {param.name!r} has type "
                        f"{value_type.value}, expected {param.type.value}"
                    )
                if param.type is DataType.REAL:
                    value = float(value)
                env[param.name] = value
            else:
                env[param.name] = param.default.evaluate(env)
        return env

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        self._validate_const_defaults()
        for elem_type in self.elem_types.values():
            elem_type.validate(self._const_types)
        self._validate_instances()
        self._validate_attachments()

    def _validate_const_defaults(self) -> None:
        scope: Dict[str, DataType] = {}
        for param in self.const_params:
            default_type = param.default.infer_type(scope)
            if not param.type.accepts(default_type):
                raise TypeCheckError(
                    f"default of const {param.name!r} has type "
                    f"{default_type.value}, expected {param.type.value}"
                )
            scope[param.name] = param.type

    def _validate_instances(self) -> None:
        if not self.instances:
            raise SpecificationError(
                f"architecture {self.name!r} declares no instances"
            )
        for instance in self.instances:
            if instance.type_name not in self.elem_types:
                raise SpecificationError(
                    f"instance {instance.name!r} has unknown type "
                    f"{instance.type_name!r}"
                )
            initial = self.elem_types[instance.type_name].initial_definition
            self._check_instance_args(instance, initial)

    def _check_instance_args(
        self, instance: Instance, initial: ProcessDef
    ) -> None:
        formals = initial.formals
        if len(instance.args) > len(formals):
            raise SpecificationError(
                f"instance {instance.name!r} passes {len(instance.args)} "
                f"argument(s); behaviour {initial.name!r} declares "
                f"{len(formals)}"
            )
        for formal in formals[len(instance.args):]:
            if formal.default is None:
                raise SpecificationError(
                    f"instance {instance.name!r} misses a value for "
                    f"parameter {formal.name!r} of behaviour "
                    f"{initial.name!r} (no default)"
                )
        scope = dict(self._const_types)
        for arg, formal in zip(instance.args, formals):
            arg_type = arg.infer_type(scope)
            if not formal.type.accepts(arg_type):
                raise TypeCheckError(
                    f"argument {arg} of instance {instance.name!r} has "
                    f"type {arg_type.value}, expected {formal.type.value}"
                )

    def _validate_attachments(self) -> None:
        uni_ends: Dict[Tuple[str, str], Attachment] = {}
        for attachment in self.attachments:
            out_interaction = self._interaction_end(
                attachment.from_instance,
                attachment.from_interaction,
                Direction.OUTPUT,
                attachment,
            )
            in_interaction = self._interaction_end(
                attachment.to_instance,
                attachment.to_interaction,
                Direction.INPUT,
                attachment,
            )
            if attachment.from_instance == attachment.to_instance:
                raise SpecificationError(
                    f"attachment {attachment} connects an instance to itself"
                )
            for end, interaction in (
                ((attachment.from_instance, attachment.from_interaction),
                 out_interaction),
                ((attachment.to_instance, attachment.to_interaction),
                 in_interaction),
            ):
                if interaction.multiplicity is Multiplicity.UNI:
                    previous = uni_ends.get(end)
                    if previous is not None and previous is not attachment:
                        raise SpecificationError(
                            f"UNI interaction {end[0]}.{end[1]} takes part "
                            f"in two attachments ({previous} and "
                            f"{attachment})"
                        )
                    uni_ends[end] = attachment

    def _interaction_end(
        self,
        instance_name: str,
        interaction_name: str,
        expected: Direction,
        attachment: Attachment,
    ) -> Interaction:
        if instance_name not in self._instances_by_name:
            raise SpecificationError(
                f"attachment {attachment} names unknown instance "
                f"{instance_name!r}"
            )
        elem_type = self.type_of(instance_name)
        interaction = elem_type.interaction(interaction_name)
        if interaction.direction is not expected:
            raise SpecificationError(
                f"attachment {attachment}: {instance_name}."
                f"{interaction_name} is not an {expected.value} interaction"
            )
        return interaction

    # -- introspection ----------------------------------------------------

    def describe(self) -> str:
        """One-paragraph human-readable summary of the architecture."""
        lines = [f"ARCHI_TYPE {self.name}"]
        if self.const_params:
            consts = ", ".join(
                f"{p.type.value} {p.name} := {p.default}"
                for p in self.const_params
            )
            lines.append(f"  const: {consts}")
        for instance in self.instances:
            lines.append(f"  {instance.name} : {instance.type_name}")
        for attachment in self.attachments:
            lines.append(f"  {attachment}")
        return "\n".join(lines)
