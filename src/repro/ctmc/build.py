"""Build a CTMC from the rate-labelled LTS of a Markovian model.

States whose enabled actions are immediate (``inf``) are *vanishing*: they
are left in zero time, so they do not appear in the CTMC.  Vanishing states
are eliminated by redistributing their outgoing probabilities (weights,
normalised per state) over the tangible states ultimately reached; the
action labels crossed along an eliminated path are preserved as expected
counts on the resulting CTMC transition, which keeps throughput measures of
immediate actions computable (see :mod:`repro.ctmc.chain`).

A cycle of immediate transitions is a timeless divergence and is rejected
(:class:`~repro.errors.ImmediateCycleError`), as in the underlying
stochastic process algebra.

The elimination depends only on the LTS structure and its immediate
weights, never on exponential rates, so :func:`build_ctmc` runs it once
per structure into an :class:`EliminationPlan` and per call only replays
the CTMC construction with the call's rates.  A rate-only relabeling of a
state-space skeleton reuses the skeleton's plan (:func:`elimination_plan`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..aemilia.rates import ExpRate, GeneralRate, ImmediateRate, PassiveRate
from ..errors import ImmediateCycleError, MarkovianError
from ..lts.lts import LTS
from .chain import CTMC

#: resolve() result: list of (tangible LTS state, probability, expected
#: label counts accumulated along the vanishing path).
_Resolution = List[Tuple[int, float, Dict[str, float]]]
#: One tangible state's plan row: per outgoing transition, the
#: (tangible target index, probability, label counts) it contributes.
_Row = Tuple[Tuple[Tuple[int, float, Dict[str, float]], ...], ...]


def classify_states(lts: LTS) -> Tuple[List[int], List[int]]:
    """Split states into (tangible, vanishing) lists.

    A state is vanishing when its enabled transitions are immediate.  Mixed
    states (immediate next to timed) cannot arise from the generator, whose
    preemption rule filters them; they are rejected here for LTSs built by
    other means.
    """
    tangible: List[int] = []
    vanishing: List[int] = []
    for state in lts.states():
        transitions = lts.outgoing(state)
        immediate = [
            t for t in transitions if isinstance(t.rate, ImmediateRate)
        ]
        if immediate:
            if len(immediate) != len(transitions):
                raise MarkovianError(
                    f"state {lts.state_info(state)} mixes immediate and "
                    f"timed transitions; regenerate with preemption enabled"
                )
            vanishing.append(state)
        else:
            tangible.append(state)
    return tangible, vanishing


def _check_timed(lts: LTS, state: int) -> None:
    for transition in lts.outgoing(state):
        if isinstance(transition.rate, ExpRate):
            continue
        if isinstance(transition.rate, PassiveRate):
            raise MarkovianError(
                f"passive transition {transition.label!r} survives in state "
                f"{lts.state_info(state)}: the Markovian model must close "
                f"all passive actions (attach them or give them a rate)"
            )
        if isinstance(transition.rate, GeneralRate):
            raise MarkovianError(
                f"generally distributed transition {transition.label!r} in "
                f"state {lts.state_info(state)}: solve general models with "
                f"the simulator, or replace the distribution by exp()"
            )
        raise MarkovianError(
            f"transition {transition.label!r} in state "
            f"{lts.state_info(state)} has no rate; not a Markovian model"
        )


class _VanishingResolver:
    """Memoised elimination of vanishing states with cycle detection."""

    def __init__(self, lts: LTS, is_vanishing: Dict[int, bool]):
        self.lts = lts
        self.is_vanishing = is_vanishing
        self._memo: Dict[int, _Resolution] = {}
        self._on_path: set = set()

    def resolve(self, state: int) -> _Resolution:
        """Distribution over tangible states reached from vanishing *state*."""
        cached = self._memo.get(state)
        if cached is not None:
            return cached
        if state in self._on_path:
            raise ImmediateCycleError(
                f"cycle of immediate transitions through state "
                f"{self.lts.state_info(state)}"
            )
        self._on_path.add(state)
        try:
            transitions = self.lts.outgoing(state)
            total_weight = sum(t.rate.weight for t in transitions)
            aggregated: Dict[int, Tuple[float, Dict[str, float]]] = {}
            for transition in transitions:
                probability = transition.rate.weight / total_weight
                if not self.is_vanishing[transition.target]:
                    self._accumulate(
                        aggregated,
                        transition.target,
                        probability,
                        {transition.label: probability},
                    )
                    continue
                for target, sub_probability, sub_counts in self.resolve(
                    transition.target
                ):
                    counts = {
                        label: probability * count
                        for label, count in sub_counts.items()
                    }
                    counts[transition.label] = (
                        counts.get(transition.label, 0.0)
                        + probability * sub_probability
                    )
                    self._accumulate(
                        aggregated,
                        target,
                        probability * sub_probability,
                        counts,
                    )
            resolution = [
                (target, probability, counts)
                for target, (probability, counts) in aggregated.items()
            ]
        finally:
            self._on_path.discard(state)
        self._memo[state] = resolution
        return resolution

    @staticmethod
    def _accumulate(
        aggregated: Dict[int, Tuple[float, Dict[str, float]]],
        target: int,
        probability: float,
        counts: Dict[str, float],
    ) -> None:
        previous_probability, previous_counts = aggregated.get(
            target, (0.0, {})
        )
        merged = dict(previous_counts)
        for label, count in counts.items():
            merged[label] = merged.get(label, 0.0) + count
        aggregated[target] = (previous_probability + probability, merged)


class EliminationPlan:
    """The rate-independent part of :func:`build_ctmc` for one LTS
    structure.

    Immediate weights and priorities are structural, so which states are
    vanishing, where each vanishing path ends and with what probability
    and label counts do not depend on the exponential rates.  The plan
    records all of that once: the tangible states, the initial
    distribution, each tangible state's enabled labels, and for every
    outgoing transition of a tangible state its resolved
    ``(target index, probability, label counts)`` contributions.
    :meth:`instantiate` then only multiplies in the point's rates.
    """

    def __init__(self, lts: LTS):
        tangible, vanishing = classify_states(lts)
        if not tangible:
            raise MarkovianError(
                "the model has no tangible state: every state is vanishing"
            )
        is_vanishing = {state: False for state in lts.states()}
        for state in vanishing:
            is_vanishing[state] = True
        for state in tangible:
            _check_timed(lts, state)
        tangible_index = {state: i for i, state in enumerate(tangible)}
        resolver = _VanishingResolver(lts, is_vanishing)

        # Initial distribution: a vanishing initial state spreads over the
        # tangible states it resolves to.
        initial = np.zeros(len(tangible))
        if is_vanishing[lts.initial]:
            for target, probability, _ in resolver.resolve(lts.initial):
                initial[tangible_index[target]] += probability
        else:
            initial[tangible_index[lts.initial]] = 1.0

        enabled: List[frozenset] = []
        contributions: List[_Row] = []
        for state in tangible:
            outgoing = lts.outgoing(state)
            enabled.append(frozenset(t.label for t in outgoing))
            row = []
            for transition in outgoing:
                if not is_vanishing[transition.target]:
                    # rate * 1.0 is the rate exactly.
                    row.append((
                        (
                            tangible_index[transition.target],
                            1.0,
                            {transition.label: 1.0},
                        ),
                    ))
                    continue
                resolved = []
                for target, probability, counts in resolver.resolve(
                    transition.target
                ):
                    merged = {
                        label: count / probability
                        for label, count in counts.items()
                    }
                    merged[transition.label] = merged.get(
                        transition.label, 0.0
                    ) + 1.0
                    resolved.append(
                        (tangible_index[target], probability, merged)
                    )
                row.append(tuple(resolved))
            contributions.append(tuple(row))

        self.initial_state = lts.initial
        self.tangible = tangible
        self.initial_distribution = initial
        self.enabled = enabled
        #: Per tangible state, per outgoing transition (in order): the
        #: ``(target index, probability, label counts)`` it contributes.
        self.contributions = contributions

    def instantiate(self, lts: LTS) -> CTMC:
        """The CTMC of *lts*, whose structure this plan was made from."""
        ctmc = CTMC(len(self.tangible), self.initial_distribution.copy())
        add = ctmc.add_transition
        for source, state in enumerate(self.tangible):
            ctmc.set_state_info(source, lts.state_info(state))
            ctmc.set_enabled_labels(source, self.enabled[source])
            for transition, resolved in zip(
                lts.outgoing(state), self.contributions[source]
            ):
                rate = transition.rate
                if not isinstance(rate, ExpRate):
                    _check_timed(lts, state)  # raises the precise error
                for target, probability, counts in resolved:
                    add(source, target, rate.rate * probability, counts)
        return ctmc


def elimination_plan(lts: LTS) -> EliminationPlan:
    """The elimination plan for *lts*'s structure, cached on its
    :meth:`~repro.lts.lts.LTS.structure_key` (and so never pickled).

    A rate relabeling that keeps the structure key
    (:meth:`~repro.runtime.statespace_cache.ParametricLTS.relabel` keeps
    it when every rate it replaces is exponential before and after)
    reuses its skeleton's plan.
    """
    derived = lts.structure_key().derived
    plan = derived.get(EliminationPlan)
    if plan is None or plan.initial_state != lts.initial:
        plan = derived[EliminationPlan] = EliminationPlan(lts)
    return plan


def build_ctmc(lts: LTS) -> CTMC:
    """Turn the rate-labelled LTS of a Markovian model into a CTMC."""
    return elimination_plan(lts).instantiate(lts)
