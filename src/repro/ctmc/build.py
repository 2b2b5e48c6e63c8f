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

from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ImmediateCycleError, MarkovianError
from ..lts.lts import EXP, GENERAL, IMMEDIATE, LTS, PASSIVE
from .chain import CTMC, ChainPattern, merge_counts

#: One tangible state's plan row: per outgoing transition, the
#: (tangible target index, probability, label counts) it contributes.
_Row = Tuple[Tuple[Tuple[int, float, Dict[str, float]], ...], ...]


def _vanishing_states(lts: LTS) -> np.ndarray:
    """Per state, whether it is vanishing (its transitions are
    immediate); raises at the first state mixing immediate and timed
    transitions."""
    sources = lts.arrays()[0]
    offsets = lts.rows()[1]
    immediate = np.bincount(
        sources[lts.rate_kinds() == IMMEDIATE], minlength=lts.num_states
    )
    mixed = np.flatnonzero((immediate > 0) & (immediate != np.diff(offsets)))
    if mixed.size:
        raise MarkovianError(
            f"state {lts.state_info(int(mixed[0]))} mixes immediate and "
            f"timed transitions; regenerate with preemption enabled"
        )
    return immediate > 0


def classify_states(lts: LTS) -> Tuple[List[int], List[int]]:
    """Split states into (tangible, vanishing) lists.

    A state is vanishing when its enabled transitions are immediate.  Mixed
    states (immediate next to timed) cannot arise from the generator, whose
    preemption rule filters them; they are rejected here for LTSs built by
    other means.
    """
    vanishing = _vanishing_states(lts)
    return (
        np.flatnonzero(~vanishing).tolist(),
        np.flatnonzero(vanishing).tolist(),
    )


def _check_timed(lts: LTS, vanishing: np.ndarray) -> None:
    """Raise at the first transition of a tangible state (in state, then
    row order) whose rate is not exponential."""
    order = lts.rows()[0]
    untimed = (lts.rate_kinds() != EXP) & ~vanishing[lts.arrays()[0]]
    if not untimed.any():
        return
    position = int(order[np.flatnonzero(untimed[order])[0]])
    columns = lts.columns
    label = columns.labels[columns.label_ids[position]]
    state = lts.state_info(columns.sources[position])
    kind = lts.rate_kinds()[position]
    if kind == PASSIVE:
        raise MarkovianError(
            f"passive transition {label!r} survives in state "
            f"{state}: the Markovian model must close "
            f"all passive actions (attach them or give them a rate)"
        )
    if kind == GENERAL:
        raise MarkovianError(
            f"generally distributed transition {label!r} in "
            f"state {state}: solve general models with "
            f"the simulator, or replace the distribution by exp()"
        )
    raise MarkovianError(
        f"transition {label!r} in state "
        f"{state} has no rate; not a Markovian model"
    )


class _VanishingResolver:
    """Memoised elimination of vanishing states with cycle detection.

    Reads the LTS's columns: an iterative post-order over the vanishing
    states resolves each once, into ``(tangible target, probability,
    expected label counts)`` with the counts keyed by label id.  Targets
    accumulate in first-reached order and each target's counts in
    first-appearance order, the order the label counts feed transition
    rewards in.
    """

    def __init__(self, lts: LTS, vanishing: np.ndarray):
        self.lts = lts
        columns = lts.columns
        self.vanishing = vanishing.tolist()
        self.targets = columns.targets.tolist()
        self.label_ids = columns.label_ids.tolist()
        self.rates = columns.rates
        self.order, self.offsets = lts.row_lists()
        self._memo: List[Optional[list]] = [None] * lts.num_states

    def resolve(self, state: int) -> list:
        """Distribution over tangible states reached from vanishing *state*."""
        memo = self._memo
        if memo[state] is not None:
            return memo[state]
        order, offsets = self.order, self.offsets
        targets, vanishing = self.targets, self.vanishing
        path = [state]
        cursors = [offsets[state]]
        on_path = {state}
        while path:
            current = path[-1]
            cursor, end = cursors[-1], offsets[current + 1]
            while cursor < end:
                target = targets[order[cursor]]
                cursor += 1
                if vanishing[target] and memo[target] is None:
                    if target in on_path:
                        raise ImmediateCycleError(
                            f"cycle of immediate transitions through state "
                            f"{self.lts.state_info(target)}"
                        )
                    break
            else:
                memo[current] = self._combine(current)
                path.pop()
                cursors.pop()
                on_path.discard(current)
                continue
            cursors[-1] = cursor
            path.append(target)
            cursors.append(offsets[target])
            on_path.add(target)
        return memo[state]

    def _combine(self, state: int) -> list:
        """*state*'s resolution, from its successors' (all resolved)."""
        row = self.order[self.offsets[state]:self.offsets[state + 1]]
        weights = [self.rates[p].weight for p in row]
        targets, label_ids = self.targets, self.label_ids
        vanishing, memo = self.vanishing, self._memo
        if len(row) == 1 and weights[0] / weights[0] == 1.0:
            # One branch, taken with probability 1.0: ``1.0 * x`` is
            # ``x``, so the general loop below would copy its successor's
            # resolution and add one crossing of its label.
            label, target = label_ids[row[0]], targets[row[0]]
            if not vanishing[target]:
                return [(target, 1.0, {label: 1.0})]
            resolution = []
            for reached, probability, sub_counts in memo[target]:
                counts = dict(sub_counts)
                counts[label] = counts.get(label, 0.0) + probability
                resolution.append((reached, probability, counts))
            return resolution
        total_weight = sum(weights)
        # target -> [probability, counts]; every dict here is owned, so
        # adding in place is adding into a copy.  Probabilities are
        # positive, so ``0.0 + x`` (a first contribution) is ``x``.
        aggregated: Dict[int, list] = {}
        for position, weight in zip(row, weights):
            probability = weight / total_weight
            label = label_ids[position]
            target = targets[position]
            if not vanishing[target]:
                entry = aggregated.get(target)
                if entry is None:
                    aggregated[target] = [probability, {label: probability}]
                else:
                    entry[0] += probability
                    merged = entry[1]
                    merged[label] = merged.get(label, 0.0) + probability
                continue
            for reached, sub_probability, sub_counts in memo[target]:
                counts = {
                    key: probability * count
                    for key, count in sub_counts.items()
                }
                counts[label] = (
                    counts.get(label, 0.0) + probability * sub_probability
                )
                entry = aggregated.get(reached)
                if entry is None:
                    aggregated[reached] = [
                        probability * sub_probability, counts
                    ]
                    continue
                entry[0] += probability * sub_probability
                merged = entry[1]
                for key, count in counts.items():
                    merged[key] = merged.get(key, 0.0) + count
        return [
            (target, probability, counts)
            for target, (probability, counts) in aggregated.items()
        ]


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
        vanishing = _vanishing_states(lts)
        tangible = np.flatnonzero(~vanishing).tolist()
        if not tangible:
            raise MarkovianError(
                "the model has no tangible state: every state is vanishing"
            )
        _check_timed(lts, vanishing)
        tangible_index = np.full(lts.num_states, -1, np.intp)
        tangible_index[tangible] = np.arange(len(tangible))
        tangible_index = tangible_index.tolist()
        resolver = _VanishingResolver(lts, vanishing)
        is_vanishing = resolver.vanishing
        labels = lts.columns.labels
        label_ids, targets = resolver.label_ids, resolver.targets
        order, offsets = resolver.order, resolver.offsets

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
        walk: List[int] = []
        for state in tangible:
            row_positions = order[offsets[state]:offsets[state + 1]]
            walk.extend(row_positions)
            row_labels = [labels[label_ids[p]] for p in row_positions]
            enabled.append(frozenset(row_labels))
            row = []
            for position, label in zip(row_positions, row_labels):
                target = targets[position]
                if not is_vanishing[target]:
                    # rate * 1.0 is the rate exactly.
                    row.append((
                        (tangible_index[target], 1.0, {label: 1.0}),
                    ))
                    continue
                resolved = []
                for reached, probability, counts in resolver.resolve(target):
                    merged = {
                        labels[key]: count / probability
                        for key, count in counts.items()
                    }
                    merged[label] = merged.get(label, 0.0) + 1.0
                    resolved.append(
                        (tangible_index[reached], probability, merged)
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
        #: The LTS positions of the tangible states' transitions, in
        #: walk order (tangible state, then row order).
        self.walk = np.array(walk, dtype=np.intp)
        self._vanishing = vanishing

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
        rates = lts.exp_rates()[self.walk]
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
            _check_timed(lts, self._vanishing)  # raises at the first one
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
