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
per structure into an :class:`EliminationPlan`.  The plan resolves the
reachable vanishing states in one pass ordered by depth (the longest
immediate path below a state), so every state is combined after its
successors; it stores the contributions of the tangible states'
transitions as flat arrays (walk index, probability, tangible target and
an id into a table of the distinct label-count maps) and numbers the
CTMC's entries by first appearance with numpy.  Per call it only gathers
the call's rates, sums them into the entries and replays the label-count
merges of the entries several contributions share.  A rate-only
relabeling of a state-space skeleton reuses the skeleton's plan
(:func:`elimination_plan`).

An immediate weight must be positive and finite
(:class:`~repro.aemilia.rates.ImmediateRate` checks it), and a branch or
path probability that underflows to 0.0 is rejected with a
:class:`~repro.errors.MarkovianError` naming where it happens.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ImmediateCycleError, MarkovianError
from ..lts.lts import EXP, GENERAL, IMMEDIATE, LTS, PASSIVE
from ..obs import tracing
from .chain import CTMC, ChainPattern, merge_counts


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
    """Elimination of the vanishing states in depth order.

    Reads the LTS's columns.  A state's depth is the longest path from it
    inside the vanishing subgraph, so each state is resolved after all of
    its vanishing successors, once, into ``(tangible target, probability,
    expected label counts)`` with the counts keyed by label id.  Targets
    accumulate in first-reached order and each target's counts in
    first-appearance order, the order the label counts feed transition
    rewards in.  A cycle of immediate transitions raises the error the
    depth-first resolution of the same roots (in order) meets first.
    """

    def __init__(self, lts: LTS, vanishing: np.ndarray, roots: List[int]):
        self.lts = lts
        columns = lts.columns
        self.vanishing = vanishing.tolist()
        self.targets = columns.targets.tolist()
        self.label_ids = columns.label_ids.tolist()
        self.rates = columns.rates
        self.order, self.offsets = lts.row_lists()
        #: Per state, its resolution (``None`` for the tangible states and
        #: those that reach a cycle no root reaches).
        self.memo: List[Optional[list]] = [None] * lts.num_states
        memo = self.memo
        order, offsets = self.order, self.offsets
        targets, label_ids = self.targets, self.label_ids
        is_vanishing = self.vanishing
        crossed: Dict[int, Dict[int, float]] = {}  # label -> {label: 1.0}
        for state in self._depth_order(vanishing, roots):
            start = offsets[state]
            if offsets[state + 1] - start != 1:
                memo[state] = self._combine(state)
                continue
            # One branch, taken with probability ``w / w == 1.0`` (weights
            # are positive and finite): ``1.0 * x`` is ``x``, so
            # _combine's loop would copy its successor's resolution and
            # add one crossing of its label.  Resolutions are never
            # written once made, so they may share their counts.
            position = order[start]
            label, target = label_ids[position], targets[position]
            if not is_vanishing[target]:
                counts = crossed.get(label)
                if counts is None:
                    counts = crossed[label] = {label: 1.0}
                memo[state] = [(target, 1.0, counts)]
                continue
            memo[state] = [
                (
                    reached,
                    probability,
                    {**counts, label: counts.get(label, 0.0) + probability},
                )
                for reached, probability, counts in memo[target]
            ]

    def _depth_order(self, vanishing: np.ndarray, roots: List[int]) -> list:
        """The vanishing states by depth, then state index, leaving out
        those that reach a cycle (none of them is reachable from *roots*
        once this returns)."""
        sources, _, targets = self.lts.arrays()
        inside = vanishing[sources] & vanishing[targets]
        sources, targets = sources[inside], targets[inside]
        # Peel the states whose vanishing successors are all resolved:
        # level k holds the states of depth k.
        pending = np.bincount(sources, minlength=self.lts.num_states)
        left = vanishing.copy()
        levels = []
        ready = left & (pending == 0)
        while ready.any():
            levels.append(np.flatnonzero(ready))
            left[ready] = False
            pending -= np.bincount(
                sources[ready[targets]], minlength=self.lts.num_states
            )
            ready = left & (pending == 0)
        if left.any():
            self._raise_cycle(roots)
        return np.concatenate(levels).tolist() if levels else []

    def _raise_cycle(self, roots: List[int]) -> None:
        """Walk depth-first from each root in turn, as the historical
        per-call resolution did, and raise at the first state found on
        its own path (if a cycle is reachable at all)."""
        order, offsets = self.order, self.offsets
        targets, vanishing = self.targets, self.vanishing
        finished = set()
        for root in roots:
            if root in finished:
                continue
            path = [root]
            cursors = [offsets[root]]
            on_path = {root}
            while path:
                current = path[-1]
                cursor, end = cursors[-1], offsets[current + 1]
                while cursor < end:
                    target = targets[order[cursor]]
                    cursor += 1
                    if vanishing[target] and target not in finished:
                        if target in on_path:
                            raise ImmediateCycleError(
                                f"cycle of immediate transitions through "
                                f"state {self.lts.state_info(target)}"
                            )
                        break
                else:
                    finished.add(current)
                    path.pop()
                    cursors.pop()
                    on_path.discard(current)
                    continue
                cursors[-1] = cursor
                path.append(target)
                cursors.append(offsets[target])
                on_path.add(target)

    def _combine(self, state: int) -> list:
        """*state*'s resolution, from its successors' (all resolved)."""
        row = self.order[self.offsets[state]:self.offsets[state + 1]]
        weights = [self.rates[p].weight for p in row]
        targets, label_ids = self.targets, self.label_ids
        vanishing, memo = self.vanishing, self.memo
        total_weight = sum(weights)
        # target -> [probability, counts]; every dict here is owned, so
        # adding in place is adding into a copy.  Probabilities are
        # positive, so ``0.0 + x`` (a first contribution) is ``x``.
        aggregated: Dict[int, list] = {}
        lost = False  # a path whose probability underflows to 0.0
        for position, weight in zip(row, weights):
            probability = weight / total_weight
            if probability == 0.0:
                raise MarkovianError(
                    f"immediate transition "
                    f"{self.lts.columns.labels[label_ids[position]]!r} of "
                    f"vanishing state {self.lts.state_info(state)} is taken "
                    f"with probability 0.0: its weight underflows against "
                    f"the others'"
                )
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
                    entry = aggregated[reached] = [
                        probability * sub_probability, counts
                    ]
                    lost = lost or entry[0] == 0.0
                    continue
                entry[0] += probability * sub_probability
                merged = entry[1]
                for key, count in counts.items():
                    merged[key] = merged.get(key, 0.0) + count
        for target, (probability, _) in aggregated.items() if lost else ():
            if probability == 0.0:
                raise MarkovianError(
                    f"vanishing state {self.lts.state_info(state)} reaches "
                    f"state {self.lts.state_info(target)} with probability "
                    f"0.0: the product of the branch probabilities "
                    f"underflows"
                )
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
    distribution, each tangible state's enabled labels, and the flat
    contributions of the tangible states' transitions.  Contribution
    ``c`` reads the transition at walk index ``reads[c]`` (walk order:
    tangible state, then row order; ``walk`` maps it to its LTS
    position), scales its rate by ``probabilities[c]`` and lands on
    tangible state ``targets[c]`` with the label counts
    ``count_maps[count_ids[c]]`` (a table of the distinct maps).

    It also compiles the CTMC's :class:`~repro.ctmc.chain.ChainPattern`
    (entries numbered by first appearance in contribution order, their
    label keys, the enabled labels) and each contribution's entry
    (``entries``).  :meth:`instantiate` then only gathers the point's
    rates and does arithmetic.
    """

    def __init__(self, lts: LTS):
        vanishing = _vanishing_states(lts)
        tangible = np.flatnonzero(~vanishing)
        if not tangible.size:
            raise MarkovianError(
                "the model has no tangible state: every state is vanishing"
            )
        _check_timed(lts, vanishing)
        sources, label_ids, targets = lts.arrays()
        order, offsets = lts.rows()
        tangible_index = np.full(lts.num_states, -1, np.intp)
        tangible_index[tangible] = np.arange(tangible.size)
        walk = order[~vanishing[sources[order]]]
        walk_targets = targets[walk]
        into_tangible = ~vanishing[walk_targets]
        entered = walk_targets[~into_tangible].tolist()
        roots = [lts.initial] + entered if vanishing[lts.initial] else entered
        memo = _VanishingResolver(lts, vanishing, roots).memo

        # Initial distribution: a vanishing initial state spreads over the
        # tangible states it resolves to.
        initial = np.zeros(tangible.size)
        if vanishing[lts.initial]:
            for target, probability, _ in memo[lts.initial]:
                initial[tangible_index[target]] += probability
        else:
            initial[tangible_index[lts.initial]] = 1.0

        labels = lts.columns.labels
        walk_labels = label_ids[walk]
        # The table of distinct label-count maps: a transition into a
        # tangible state contributes its label once.
        interned: Dict[tuple, int] = {}
        count_maps: List[Dict[str, float]] = []

        def intern(counts: Dict[str, float]) -> int:
            key = tuple(counts.items())
            found = interned.get(key)
            if found is None:
                found = interned[key] = len(count_maps)
                count_maps.append(counts)
            return found

        once = np.zeros(len(labels), np.intp)
        for label in np.unique(walk_labels[into_tangible]).tolist():
            once[label] = intern({labels[label]: 1.0})
        # A transition into a vanishing state contributes one resolved
        # path per tangible state its target reaches.
        per_walk = np.ones(walk.size, np.intp)
        resolved_lengths: List[int] = []
        resolved_probabilities: List[float] = []
        resolved_targets: List[int] = []
        resolved_ids: List[int] = []
        for target, label in zip(
            entered, walk_labels[~into_tangible].tolist()
        ):
            label = labels[label]
            resolution = memo[target]
            resolved_lengths.append(len(resolution))
            for reached, probability, counts in resolution:
                merged = {
                    labels[key]: count / probability
                    for key, count in counts.items()
                }
                merged[label] = merged.get(label, 0.0) + 1.0
                resolved_probabilities.append(probability)
                resolved_targets.append(reached)
                resolved_ids.append(intern(merged))
        del memo  # free the resolutions before compiling the entries
        per_walk[~into_tangible] = resolved_lengths
        reads = np.repeat(np.arange(walk.size), per_walk)
        direct = np.repeat(into_tangible, per_walk)
        probabilities = np.ones(reads.size)
        probabilities[~direct] = resolved_probabilities
        contribution_targets = np.empty(reads.size, np.intp)
        contribution_targets[direct] = walk_targets[reads[direct]]
        contribution_targets[~direct] = resolved_targets
        contribution_targets = tangible_index[contribution_targets]
        count_ids = np.empty(reads.size, np.intp)
        count_ids[direct] = once[walk_labels[reads[direct]]]
        count_ids[~direct] = resolved_ids

        self.initial_state = lts.initial
        self.tangible = tangible.tolist()
        self.initial_distribution = initial
        self.walk = walk
        self.reads = reads
        self.probabilities = probabilities
        self.targets = contribution_targets
        self.count_ids = count_ids
        self.count_maps = count_maps
        bounds = np.zeros(tangible.size + 1, np.intp)
        np.cumsum(offsets[tangible + 1] - offsets[tangible], out=bounds[1:])
        bounds = bounds.tolist()
        names = [labels[i] for i in walk_labels.tolist()]
        self.enabled = [
            frozenset(names[start:end])
            for start, end in zip(bounds, bounds[1:])
        ]
        self._vanishing = vanishing
        self._compile_entries(tangible_index[sources[walk]])

    def _compile_entries(self, walk_sources: np.ndarray) -> None:
        """Number the entries the way :meth:`CTMC.add_transition
        <repro.ctmc.chain.CTMC.add_transition>` would create them: one
        per distinct (source, target), in order of first contribution."""
        size = len(self.tangible)
        sources = walk_sources[self.reads]
        keys = sources * size + self.targets
        _, firsts, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        by_first = np.argsort(firsts, kind="stable")
        rank = np.empty(by_first.size, np.intp)
        rank[by_first] = np.arange(by_first.size)
        entries = rank[inverse.reshape(-1)]
        firsts = firsts[by_first]

        # Entries several contributions merge into, in entry order, each
        # with its contributions in order.
        shares = np.bincount(entries, minlength=firsts.size)
        merged_entries = np.flatnonzero(shares > 1)
        members = np.flatnonzero(shares[entries] > 1)
        members = members[np.argsort(entries[members], kind="stable")]
        groups = np.split(members, np.cumsum(shares[merged_entries])[:-1])

        maps, ids = self.count_maps, self.count_ids
        shared: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        map_keys = [shared.setdefault(tuple(m), tuple(m)) for m in maps]
        label_keys = [map_keys[i] for i in ids[firsts].tolist()]
        merged = []
        for entry, group in zip(merged_entries.tolist(), groups):
            group = [(c, maps[ids[c]]) for c in group.tolist()]
            merged.append(group)
            keys = tuple(dict.fromkeys(
                label for _, counts in group for label in counts
            ))
            label_keys[entry] = shared.setdefault(keys, keys)
        self.entries = entries
        self.pattern = ChainPattern(
            size, sources[firsts], self.targets[firsts], label_keys,
            self.enabled,
        )

        # The flat count vector's base: each entry's first label counts,
        # zeros where the merge replay fills in.
        offsets = self.pattern.count_offsets
        lengths = np.diff(offsets)
        merged_slots = np.flatnonzero(np.repeat(shares > 1, lengths))
        map_lengths = np.array([len(m) for m in maps], np.intp)
        map_offsets = np.cumsum(map_lengths) - map_lengths
        gather = np.repeat(
            map_offsets[ids[firsts]] - offsets[:-1], lengths
        ) + np.arange(offsets[-1])
        gather[merged_slots] = 0
        values = np.fromiter(
            (v for m in maps for v in m.values()), float, map_lengths.sum()
        )
        base_counts = values[gather]
        base_counts[merged_slots] = 0.0
        self._firsts = firsts
        self._base_counts = base_counts
        #: The entries several contributions merge into, in entry order:
        #: their contributions' (index, label counts), and the slots of
        #: the flat count vector their merged counts fill.
        self._merged = merged
        self._merged_slots = merged_slots

    def instantiate(self, lts: LTS) -> CTMC:
        """The CTMC of *lts*, whose structure this plan was made from."""
        rates = lts.exp_rates()[self.walk]
        products = rates[self.reads] * self.probabilities
        # add_transition checks the rate of the contribution that
        # creates an entry, in contribution order; an untimed transition
        # raises when the walk reaches it.
        nonpositive = np.flatnonzero(products[self._firsts] <= 0)
        untimed = np.flatnonzero(np.isnan(rates))
        if nonpositive.size and (
            not untimed.size
            or self.reads[self._firsts[nonpositive[0]]] < untimed[0]
        ):
            raise MarkovianError(
                f"CTMC transition rate must be positive, got "
                f"{float(products[self._firsts[nonpositive[0]]])}"
            )
        if untimed.size:
            _check_timed(lts, self._vanishing)  # raises at the first one
        entry_rates = np.bincount(
            self.entries, weights=products, minlength=len(self._firsts)
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
    """The elimination plan for *lts*'s structure, kept in the
    :meth:`~repro.lts.lts.LTS.memo` of its
    :meth:`~repro.lts.lts.LTS.structure_owner` (and so never pickled):
    an LTS re-rated only where its rates stay exponential reuses its
    base's plan.
    """
    memo = lts.structure_owner().memo()
    plan = memo.get(EliminationPlan)
    if plan is None or plan.initial_state != lts.initial:
        with tracing.span("ctmc:plan"):
            plan = memo[EliminationPlan] = EliminationPlan(lts)
    return plan


def build_ctmc(lts: LTS) -> CTMC:
    """Turn the rate-labelled LTS of a Markovian model into a CTMC."""
    return elimination_plan(lts).instantiate(lts)
