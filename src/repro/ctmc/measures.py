"""Reward-based performance measures.

The paper expresses its performance indices in a companion language of
reward structures (Sect. 4), e.g.::

    MEASURE throughput IS
      ENABLED(C.process_result_packet) -> TRANS_REWARD(1);
    MEASURE energy IS
      ENABLED(S.monitor_idle_server)    -> STATE_REWARD(2)
      ENABLED(S.monitor_busy_server)    -> STATE_REWARD(3)
      ENABLED(S.monitor_awaking_server) -> STATE_REWARD(2)

Semantics (steady state ``pi``):

* ``STATE_REWARD(r)`` under ``ENABLED(pattern)`` adds ``r`` to the reward of
  every state in which a transition whose label matches ``pattern`` is
  enabled; the measure accumulates ``sum_s pi(s) * reward(s)``;
* ``TRANS_REWARD(r)`` adds an impulse ``r`` to every firing of a matching
  transition; at steady state this contributes
  ``sum pi(source) * rate * expected_label_count * r`` — a frequency.

:class:`RewardTable` is the one place that turns a measure set into
rewards: it memoizes each label's impulse, each enabled-label set's state
reward and whether any ``TRANS_REWARD`` clause watches a label.  The
analytic evaluation below, the parametric capture
(:mod:`repro.ctmc.parametric`), both simulation engines and the splitting
importance (:mod:`repro.sim`) all read it, which is what makes the
general-vs-Markovian validation of Sect. 5.1 a like-for-like comparison.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Sequence,
    Tuple,
)

import numpy as np

from ..errors import SpecificationError
from ..lts.labels import matches
from .chain import CTMC, ChainPattern


class RewardKind(enum.Enum):
    """State (rate) reward or transition (impulse) reward."""

    STATE = "STATE_REWARD"
    TRANS = "TRANS_REWARD"


@dataclass(frozen=True)
class RewardClause:
    """``ENABLED(pattern) -> KIND(value)``."""

    pattern: str
    kind: RewardKind
    value: float

    def __str__(self) -> str:
        return f"ENABLED({self.pattern}) -> {self.kind.value}({self.value:g})"


@dataclass(frozen=True)
class Measure:
    """A named performance measure: an accumulation of reward clauses."""

    name: str
    clauses: Tuple[RewardClause, ...]

    def __post_init__(self):
        if not self.name.isidentifier():
            raise SpecificationError(f"invalid measure name {self.name!r}")
        if not self.clauses:
            raise SpecificationError(
                f"measure {self.name!r} has no reward clauses"
            )

    def state_reward(self, enabled_labels: Iterable[str]) -> float:
        """Instantaneous reward of a state with the given enabled labels."""
        labels = list(enabled_labels)
        reward = 0.0
        for clause in self.clauses:
            if clause.kind is not RewardKind.STATE:
                continue
            if any(matches(clause.pattern, label) for label in labels):
                reward += clause.value
        return reward

    def trans_reward(self, label: str) -> float:
        """Impulse reward collected when a *label* transition fires."""
        reward = 0.0
        for clause in self.clauses:
            if clause.kind is RewardKind.TRANS and matches(
                clause.pattern, label
            ):
                reward += clause.value
        return reward

    def has_state_clauses(self) -> bool:
        """True when any clause is a STATE_REWARD."""
        return any(c.kind is RewardKind.STATE for c in self.clauses)

    def has_trans_clauses(self) -> bool:
        """True when any clause is a TRANS_REWARD."""
        return any(c.kind is RewardKind.TRANS for c in self.clauses)

    def __str__(self) -> str:
        body = "\n  ".join(str(c) for c in self.clauses)
        return f"MEASURE {self.name} IS\n  {body}"


class RewardTable:
    """What a measure set pays, memoized per label and per state.

    The only caller of :meth:`Measure.state_reward` and
    :meth:`Measure.trans_reward`.  Three memos, each a tuple with one
    entry per measure where applicable:

    * :meth:`impulses` — the impulse each measure collects when a
      transition with a given label fires;
    * :meth:`state_rewards` — the reward rate each measure earns in a
      state with a given enabled-label set;
    * :meth:`observes` — whether some ``TRANS_REWARD`` clause (of any
      measure, zero-valued ones included) matches a label, which decides
      whether the simulator may skip a self-loop carrying it.
    """

    def __init__(self, measures: Iterable[Measure]):
        self.measures: Tuple[Measure, ...] = tuple(measures)
        self._trans_patterns = tuple(
            dict.fromkeys(
                clause.pattern
                for m in self.measures
                for clause in m.clauses
                if clause.kind is RewardKind.TRANS
            )
        )
        self._impulses: Dict[str, Tuple[float, ...]] = {}
        self._state_rewards: Dict[FrozenSet[str], Tuple[float, ...]] = {}
        self._observed: Dict[str, bool] = {}

    def impulses(self, label: str) -> Tuple[float, ...]:
        """Per-measure impulse of one firing of a *label* transition."""
        cached = self._impulses.get(label)
        if cached is None:
            cached = tuple(m.trans_reward(label) for m in self.measures)
            self._impulses[label] = cached
        return cached

    def state_rewards(self, enabled: FrozenSet[str]) -> Tuple[float, ...]:
        """Per-measure reward rate of a state enabling *enabled*."""
        cached = self._state_rewards.get(enabled)
        if cached is None:
            cached = tuple(m.state_reward(enabled) for m in self.measures)
            self._state_rewards[enabled] = cached
        return cached

    def observes(self, label: str) -> bool:
        """True when some ``TRANS_REWARD`` clause matches *label*."""
        cached = self._observed.get(label)
        if cached is None:
            cached = any(
                matches(pattern, label) for pattern in self._trans_patterns
            )
            self._observed[label] = cached
        return cached


def _state_matrix(
    enabled: Sequence[FrozenSet[str]], table: RewardTable
) -> np.ndarray:
    """``(states, measures)`` reward rates of states enabling *enabled*."""
    rows = [table.state_rewards(labels) for labels in enabled]
    return np.array(rows, float).reshape(len(rows), len(table.measures))


def state_reward_vector(ctmc: CTMC, measure: Measure) -> np.ndarray:
    """Per-state instantaneous rewards of *measure* over *ctmc*."""
    return _state_matrix(ctmc.pattern.enabled, RewardTable([measure])).ravel()


class _PatternRewards(NamedTuple):
    """What a measure set pays over one chain pattern."""

    #: The measures with STATE_REWARD clauses, and one contiguous reward
    #: row per measure (as a lone vector would be).
    state_measures: Tuple[int, ...]
    state_rows: np.ndarray
    #: Per measure: (entry, count slot, impulse) of every transition
    #: term with a nonzero impulse, in entry then label order.
    terms: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def _pattern_rewards(
    pattern: ChainPattern, measures: Tuple[Measure, ...]
) -> _PatternRewards:
    cached = pattern.rewards.get(measures)
    if cached is not None:
        return cached
    table = RewardTable(measures)
    cached = pattern.rewards[measures] = _PatternRewards(
        tuple(j for j, m in enumerate(measures) if m.has_state_clauses()),
        _state_matrix(pattern.enabled, table).T.copy(),
        _transition_terms(pattern, table),
    )
    return cached


def _transition_terms(
    pattern: ChainPattern, table: RewardTable
) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per measure, every entry's nonzero-impulse ``(entry, count slot,
    impulse)`` terms, in entry then label order.

    The entries share few distinct label-key tuples, so each tuple's
    per-measure ``(slot offset, impulse)`` pairs are computed once and
    numpy repeats them over the entries carrying it.
    """
    groups: Dict[Tuple[str, ...], int] = {}
    group_of = np.array(
        [groups.setdefault(keys, len(groups)) for keys in pattern.label_keys],
        np.intp,
    )
    pairs: List[List[List[Tuple[int, float]]]] = [
        [[] for _ in table.measures] for _ in groups
    ]
    for keys, group in groups.items():
        for offset, label in enumerate(keys):
            for j, reward in enumerate(table.impulses(label)):
                if reward:
                    pairs[group][j].append((offset, reward))
    starts = pattern.count_offsets[:-1]
    terms = []
    for j in range(len(table.measures)):
        flat = [pair for per_measure in pairs for pair in per_measure[j]]
        sizes = np.array([len(p[j]) for p in pairs], np.intp)
        counts = sizes[group_of]
        entries = np.repeat(np.arange(len(group_of), dtype=np.intp), counts)
        # Position of each term in its group's pair list, then in flat.
        within = np.arange(len(entries), dtype=np.intp) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        firsts = (np.cumsum(sizes) - sizes)[group_of]
        index = np.repeat(firsts, counts) + within
        offsets = np.array([offset for offset, _ in flat], np.intp)
        impulses = np.array([reward for _, reward in flat], float)
        terms.append(
            (entries, starts[entries] + offsets[index], impulses[index])
        )
    return tuple(terms)


def evaluate_measure(
    ctmc: CTMC, pi: np.ndarray, measure: Measure
) -> float:
    """Steady-state value of *measure* under distribution *pi*."""
    return evaluate_measures(ctmc, pi, [measure])[measure.name]


def evaluate_measures(
    ctmc: CTMC, pi: np.ndarray, measures: Iterable[Measure]
) -> Dict[str, float]:
    """Steady-state values of several measures.

    Each measure sums exactly as it would alone, in one sequential
    chain: its state part ``pi @ rewards`` first, then the transition
    terms ``pi(source) * rate * count * impulse`` in entry and label
    order, skipping zero weights and zero impulses.  ``add.accumulate``
    keeps that order; a pairwise ``sum`` or ``dot`` would not.
    """
    pi = np.asarray(pi, float)
    if pi.shape != (ctmc.num_states,):
        raise SpecificationError("pi has wrong length for this chain")
    measures = tuple(measures)
    rewards = _pattern_rewards(ctmc.pattern, measures)
    values = [0.0] * len(measures)
    for j in rewards.state_measures:
        values[j] += float(pi @ rewards.state_rows[j])
    weights = pi[ctmc.pattern.sources] * ctmc.rates
    counts = ctmc.label_count_values
    for j, (entries, slots, impulses) in enumerate(rewards.terms):
        weight = weights[entries]
        kept = weight != 0.0
        if kept.any():
            terms = weight[kept] * counts[slots[kept]] * impulses[kept]
            values[j] = np.add.accumulate(
                np.concatenate(([values[j]], terms))
            )[-1]
    return {m.name: value for m, value in zip(measures, values)}


def measure(name: str, *clauses: RewardClause) -> Measure:
    """Convenience constructor."""
    return Measure(name, tuple(clauses))


def state_clause(pattern: str, value: float) -> RewardClause:
    """``ENABLED(pattern) -> STATE_REWARD(value)``."""
    return RewardClause(pattern, RewardKind.STATE, float(value))


def trans_clause(pattern: str, value: float = 1.0) -> RewardClause:
    """``ENABLED(pattern) -> TRANS_REWARD(value)``."""
    return RewardClause(pattern, RewardKind.TRANS, float(value))
