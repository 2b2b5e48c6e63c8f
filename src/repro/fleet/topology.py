"""Fleet topology: per-component automata and synchronization events.

A fleet is a shared-resource composition in the Plateau SAN / Kronecker
style: one *coordinator* (the channel / access-point controller) and
``N`` power-managed *devices*.  Each component is described by a
single-instance Æmilia architecture; :func:`automaton_from_architecture`
generates its LTS once and splits the transitions into

* **local** transitions — exponentially timed actions that the component
  performs on its own (service completions, timeouts, battery drain);
* **synchronization hooks** — transitions whose action name appears in
  the declared sync alphabet.  For every sync action the automaton keeps
  a small matrix ``W`` over its local state space: the *active* side
  contributes rates, the *passive* side contributes weights, and the
  composed event rate for a joint move is the product of the entries
  (Plateau's generalized tensor algebra restricted to functional-free
  terms).

State names come from the paper's ``monitor_*`` idiom: an exponential
self-loop labelled ``monitor_<name>`` marks its state with ``<name>``.
Such self-loops are dynamically null in a CTMC (they cancel in the
generator) so they never perturb the model.

:class:`SyncEvent` pairs a coordinator action with a device action, with
an optional *exclusive-states* guard: the event is blocked while any
**other** device occupies one of the named states (the staggered
wake-up policy — at most one device may be mid-wake-up at a time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

import numpy as np
from scipy import sparse

from ..aemilia import generate_lts, parse_architecture
from ..aemilia.rates import ExpRate, PassiveRate
from ..errors import SpecificationError

#: Prefix of exponential self-loops that name their state (paper idiom).
MONITOR_PREFIX = "monitor_"


@dataclass(frozen=True)
class LocalTransition:
    """One exponentially timed local transition of a component."""

    source: int
    target: int
    rate: float
    label: str


@dataclass(frozen=True)
class Automaton:
    """A component automaton: local generator plus sync-hook matrices.

    ``sync`` maps each sync action to a dense ``(d, d)`` array ``W``
    whose entry ``W[s, s']`` is the action's rate (active side) or
    weight (passive side) for the local move ``s -> s'``.
    ``sync_kinds`` records which side each action plays
    (``"active"`` / ``"passive"``).
    """

    name: str
    state_names: Tuple[str, ...]
    initial: int
    local: Tuple[LocalTransition, ...]
    sync: Mapping[str, np.ndarray]
    sync_kinds: Mapping[str, str]

    @property
    def num_states(self) -> int:
        return len(self.state_names)

    def state_index(self, name: str) -> int:
        try:
            return self.state_names.index(name)
        except ValueError:
            raise SpecificationError(
                f"automaton {self.name!r} has no state {name!r} "
                f"(states: {', '.join(self.state_names)})"
            ) from None

    def local_labels(self) -> Tuple[str, ...]:
        """Distinct local action labels, in first-appearance order."""
        seen = []
        for transition in self.local:
            if transition.label not in seen:
                seen.append(transition.label)
        return tuple(seen)

    def local_matrix(self) -> sparse.csr_matrix:
        """Off-diagonal local rate matrix (rates only, no diagonal)."""
        d = self.num_states
        matrix = sparse.lil_matrix((d, d))
        for transition in self.local:
            matrix[transition.source, transition.target] += transition.rate
        return matrix.tocsr()

    def local_label_rowsums(self, label: str) -> np.ndarray:
        """Per-state total rate of local transitions carrying *label*."""
        rowsums = np.zeros(self.num_states)
        for transition in self.local:
            if transition.label == label:
                rowsums[transition.source] += transition.rate
        return rowsums

    def sync_matrix(self, action: str) -> np.ndarray:
        if action not in self.sync:
            raise SpecificationError(
                f"automaton {self.name!r} declares no sync action "
                f"{action!r} (have: {', '.join(sorted(self.sync))})"
            )
        return self.sync[action]


def automaton_from_architecture(
    source: str,
    sync_actions: Iterable[str],
    name: Optional[str] = None,
    const_overrides: Optional[Mapping[str, object]] = None,
) -> Automaton:
    """Extract a component automaton from a single-instance architecture.

    *source* is Æmilia text whose topology declares exactly one
    instance; its LTS is generated with the library's usual semantics
    and re-read as an automaton:

    * ``monitor_*`` exponential self-loops name their state;
    * actions listed in *sync_actions* become sync-hook matrix entries
      (exponential rate on the active side, passive weight otherwise);
    * every other exponential transition is a local transition;
    * leftover passive or immediate transitions outside the sync
      alphabet are rejected — the composition has nothing to pair
      them with.
    """
    sync_set = frozenset(sync_actions)
    architecture = parse_architecture(source)
    if len(architecture.instances) != 1:
        raise SpecificationError(
            "component architectures must declare exactly one instance, "
            f"got {len(architecture.instances)}"
        )
    instance = architecture.instances[0].name
    prefix = f"{instance}."
    lts = generate_lts(architecture, const_overrides)

    names: Dict[int, str] = {}
    local = []
    sync_matrices: Dict[str, np.ndarray] = {}
    sync_kinds: Dict[str, str] = {}
    d = lts.num_states
    for transition in lts.transitions:
        action = transition.label
        if action.startswith(prefix):
            action = action[len(prefix):]
        rate = transition.rate
        if action in sync_set:
            if isinstance(rate, ExpRate):
                kind, value = "active", rate.rate
            elif isinstance(rate, PassiveRate):
                kind, value = "passive", rate.weight
            else:
                raise SpecificationError(
                    f"sync action {action!r} must be exponential or "
                    f"passive, got {rate!r}"
                )
            previous = sync_kinds.setdefault(action, kind)
            if previous != kind:
                raise SpecificationError(
                    f"sync action {action!r} mixes active and passive "
                    "transitions in one component"
                )
            matrix = sync_matrices.setdefault(action, np.zeros((d, d)))
            matrix[transition.source, transition.target] += value
        elif isinstance(rate, ExpRate):
            if (
                transition.source == transition.target
                and action.startswith(MONITOR_PREFIX)
            ):
                marker = action[len(MONITOR_PREFIX):]
                existing = names.setdefault(transition.source, marker)
                if existing != marker:
                    raise SpecificationError(
                        f"state {transition.source} carries two monitor "
                        f"names: {existing!r} and {marker!r}"
                    )
            else:
                # Non-monitor exponential self-loops are dynamically
                # null in a CTMC but carry measurable flows (e.g. the
                # coordinator's ``lose_job`` loss rate): kept.
                local.append(
                    LocalTransition(
                        transition.source,
                        transition.target,
                        rate.rate,
                        action,
                    )
                )
        else:
            raise SpecificationError(
                f"action {action!r} is {rate!r} but is not in the sync "
                "alphabet; the fleet composition cannot pair it"
            )

    state_names = tuple(
        names.get(state, f"s{state}") for state in range(d)
    )
    if len(set(state_names)) != d:
        raise SpecificationError(
            f"component {instance!r} has duplicate state names: "
            f"{state_names}"
        )
    missing = sync_set - set(sync_kinds)
    if missing:
        raise SpecificationError(
            f"sync actions never observed in component {instance!r}: "
            f"{', '.join(sorted(missing))}"
        )
    return Automaton(
        name=name or instance,
        state_names=state_names,
        initial=lts.initial,
        local=tuple(local),
        sync=sync_matrices,
        sync_kinds=sync_kinds,
    )


@dataclass(frozen=True)
class SyncEvent:
    """A coordinator/device synchronization with optional exclusivity.

    Exactly one side must be active (rate-bearing); the joint rate of a
    firing is ``W_coord[c, c'] * W_dev[s, s']``.  When
    ``exclusive_states`` is set, the event is guarded: it cannot fire
    for device ``i`` while any *other* device occupies one of the named
    states (staggered wake-ups).
    """

    name: str
    coordinator_action: str
    device_action: str
    exclusive_states: Optional[FrozenSet[str]] = None

    def __post_init__(self):
        if self.exclusive_states is not None:
            object.__setattr__(
                self, "exclusive_states", frozenset(self.exclusive_states)
            )


@dataclass(frozen=True)
class FleetTopology:
    """An N-device fleet: coordinator + identical devices + sync events."""

    coordinator: Automaton
    device: Automaton
    n: int
    events: Tuple[SyncEvent, ...] = ()
    name: str = "fleet"

    def __post_init__(self):
        if self.n < 1:
            raise SpecificationError(f"fleet size must be >= 1, got {self.n}")
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            coordinator_kind = self.coordinator.sync_kinds.get(
                event.coordinator_action
            )
            device_kind = self.device.sync_kinds.get(event.device_action)
            if coordinator_kind is None:
                raise SpecificationError(
                    f"event {event.name!r}: coordinator has no sync "
                    f"action {event.coordinator_action!r}"
                )
            if device_kind is None:
                raise SpecificationError(
                    f"event {event.name!r}: device has no sync action "
                    f"{event.device_action!r}"
                )
            if {coordinator_kind, device_kind} != {"active", "passive"}:
                raise SpecificationError(
                    f"event {event.name!r} needs exactly one active side, "
                    f"got coordinator={coordinator_kind} "
                    f"device={device_kind}"
                )
            if event.exclusive_states:
                for state in event.exclusive_states:
                    self.device.state_index(state)

    @property
    def product_states(self) -> int:
        """Flat product-space size |C| * |S|^N (pre-lumping)."""
        return self.coordinator.num_states * self.device.num_states**self.n

    @property
    def lumped_states(self) -> int:
        """Lumped size |C| * C(N + |S| - 1, |S| - 1) (multiset counting)."""
        return self.coordinator.num_states * math.comb(
            self.n + self.device.num_states - 1, self.device.num_states - 1
        )
