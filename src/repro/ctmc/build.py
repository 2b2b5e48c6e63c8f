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
per structure into an :class:`EliminationPlan`, which also compiles the
CTMC's entry pattern; per call it only gathers the call's rates, sums
them into the entries and replays the label-count merges of the entries
several contributions share.  A rate-only relabeling of a
state-space skeleton reuses the skeleton's plan (:func:`elimination_plan`).
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, List, Tuple

import numpy as np

from ..aemilia.rates import ExpRate, GeneralRate, ImmediateRate, PassiveRate
from ..errors import ImmediateCycleError, MarkovianError
from ..lts.lts import LTS
from .chain import CTMC, ChainPattern, merge_counts

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

    It also compiles the CTMC's :class:`~repro.ctmc.chain.ChainPattern`
    (entries in first-appearance order, their label keys, the enabled
    labels) and, per contribution, the transition it reads, its
    probability and its entry.  :meth:`instantiate` then only gathers
    the point's rates and does arithmetic.
    """

    def __init__(self, lts: LTS):
        self._eliminate(lts)
        # After the elimination's working set (the resolver memo) is gone.
        self._compile_pattern()

    def _eliminate(self, lts: LTS) -> None:
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

    def _compile_pattern(self) -> None:
        """Number the entries the way :meth:`CTMC.add_transition
        <repro.ctmc.chain.CTMC.add_transition>` would create them."""
        walked = 0  # tangible states' transitions seen, in walk order
        reads = array("q")  # per contribution: its transition's position
        probabilities = array("d")
        entry_of = array("q")
        counts_of: List[Dict[str, float]] = []
        sources = array("q")
        targets = array("q")
        firsts = array("q")  # per entry: the contribution creating it
        merged: Dict[int, List[int]] = {}  # entry -> its contributions
        for source, row in enumerate(self.contributions):
            entries: Dict[int, int] = {}  # target -> entry
            for resolved in row:
                for target, probability, counts in resolved:
                    entry = entries.get(target)
                    if entry is None:
                        entry = entries[target] = len(sources)
                        sources.append(source)
                        targets.append(target)
                        firsts.append(len(reads))
                    else:
                        merged.setdefault(entry, [firsts[entry]]).append(
                            len(reads)
                        )
                    reads.append(walked)
                    probabilities.append(probability)
                    entry_of.append(entry)
                    counts_of.append(counts)
                walked += 1
        shared: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        label_keys = []
        values = array("d")
        for entry, first in enumerate(firsts):
            contributions = merged.get(entry)
            if contributions is None:
                keys = tuple(counts_of[first])
                values.extend(counts_of[first].values())
            else:
                keys = tuple(dict.fromkeys(
                    label for c in contributions for label in counts_of[c]
                ))
                values.extend([0.0] * len(keys))
            label_keys.append(shared.setdefault(keys, keys))
        self.pattern = ChainPattern(
            len(self.tangible), sources, targets, label_keys, self.enabled
        )
        self._reads = np.array(reads, dtype=np.intp)
        self._probabilities = np.array(probabilities, float)
        self._entries = np.array(entry_of, dtype=np.intp)
        self._firsts = np.array(firsts, dtype=np.intp)
        self._base_counts = np.array(values, float)
        #: The entries several contributions merge into, in entry order:
        #: their contributions' (index, label counts), and the slots of
        #: the flat count vector their merged counts fill.
        merged_entries = sorted(merged)
        self._merged = [
            [(c, counts_of[c]) for c in merged[entry]]
            for entry in merged_entries
        ]
        offsets = self.pattern.count_offsets
        self._merged_slots = np.array(
            [
                slot
                for entry in merged_entries
                for slot in range(offsets[entry], offsets[entry + 1])
            ],
            dtype=np.intp,
        )

    def instantiate(self, lts: LTS) -> CTMC:
        """The CTMC of *lts*, whose structure this plan was made from."""
        outgoing = lts.outgoing
        rates = np.array([
            t.rate.rate if isinstance(t.rate, ExpRate) else math.nan
            for state in self.tangible
            for t in outgoing(state)
        ])
        products = rates[self._reads] * self._probabilities
        # add_transition checks the rate of the contribution that
        # creates an entry, in contribution order; an untimed transition
        # raises when the walk reaches it.
        nonpositive = np.flatnonzero(products[self._firsts] <= 0)
        untimed = np.flatnonzero(np.isnan(rates))
        if nonpositive.size and (
            not untimed.size
            or self._reads[self._firsts[nonpositive[0]]] < untimed[0]
        ):
            raise MarkovianError(
                f"CTMC transition rate must be positive, got "
                f"{float(products[self._firsts[nonpositive[0]]])}"
            )
        if untimed.size:
            for state in self.tangible:
                _check_timed(lts, state)  # raises at the first untimed one
        entry_rates = np.bincount(
            self._entries, weights=products, minlength=len(self._firsts)
        )
        counts = self._base_counts.copy()
        if self._merged:
            replayed: List[float] = []
            for contributions in self._merged:
                first, entry_counts = contributions[0]
                rate = float(products[first])
                for c, added_counts in contributions[1:]:
                    rate, entry_counts = merge_counts(
                        rate, entry_counts, float(products[c]), added_counts
                    )
                replayed.extend(entry_counts.values())
            counts[self._merged_slots] = replayed
        return CTMC.from_pattern(
            self.pattern,
            entry_rates,
            counts,
            self.initial_distribution.copy(),
            (lts, self.tangible),
        )


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
