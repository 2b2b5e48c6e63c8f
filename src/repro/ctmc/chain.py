"""Continuous-time Markov chain representation.

A :class:`CTMC` holds the *tangible* states of a Markovian model after
vanishing-state elimination.  Each transition carries, besides its rate, the
expected number of times every original action label is crossed when the
transition fires (immediate actions traversed inside an eliminated vanishing
path contribute fractional expected counts).  This keeps throughput-style
measures of immediate actions exactly computable:

    throughput(a) = sum over transitions  pi(source) * rate * counts[a]

State-level information records which labels are *enabled* in each state,
supporting the measure language's ``ENABLED(pattern) -> STATE_REWARD(r)``
conditions.

A chain is stored as values over a :class:`ChainPattern`: the entries
(distinct source/target pairs, in first-appearance order), their label
keys and the enabled labels are structure; a rate vector and a flat
label-count vector are the values.  The pattern caches what depends only
on the structure (the bottom strongly connected components, the recurrent
class's submatrix index arrays and, through :mod:`repro.ctmc.measures`,
the reward rows per measure set), so chains that share one pattern — the
sweep points of one elimination plan — compute it once.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from ..errors import MarkovianError


class CTMCTransition(NamedTuple):
    """A view of one entry of a chain, made on demand."""

    source: int
    target: int
    rate: float
    label_counts: Dict[str, float]


class RecurrentClass(NamedTuple):
    """The first bottom component of a pattern and its generator's
    pattern: ``entries`` in source order (self-loops left out) sit at
    ``(rows, cols)`` of the submatrix over the sorted ``states``."""

    states: np.ndarray
    entries: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


def merge_counts(
    rate: float,
    counts: Mapping[str, float],
    added_rate: float,
    added_counts: Mapping[str, float],
) -> Tuple[float, Dict[str, float]]:
    """Merge a parallel transition into an entry.

    Rates add, and label counts merge weighted by rate so that
    ``rate * counts`` (the throughput contribution) is preserved.
    """
    merged_rate = rate + added_rate
    merged_counts: Dict[str, float] = {}
    for label, count in counts.items():
        merged_counts[label] = count * rate / merged_rate
    for label, count in added_counts.items():
        merged_counts[label] = (
            merged_counts.get(label, 0.0) + count * added_rate / merged_rate
        )
    return merged_rate, merged_counts


class ChainPattern:
    """The rate-independent structure of a CTMC.

    Entry ``e`` runs from ``sources[e]`` to ``targets[e]``; its label
    counts sit at ``count_offsets[e]:count_offsets[e + 1]`` of a chain's
    flat count vector, keyed by ``label_keys[e]``.  ``order`` lists the
    entries grouped by source (each source's in entry order) and
    ``row_offsets`` delimits the groups.
    """

    def __init__(
        self,
        num_states: int,
        sources: Sequence[int],
        targets: Sequence[int],
        label_keys: Sequence[Tuple[str, ...]],
        enabled: Sequence[FrozenSet[str]],
    ):
        self.num_states = num_states
        self.sources = np.asarray(sources, dtype=np.intp)
        self.targets = np.asarray(targets, dtype=np.intp)
        self.label_keys = list(label_keys)
        self.count_offsets = np.zeros(len(self.label_keys) + 1, np.intp)
        np.cumsum(
            [len(keys) for keys in self.label_keys], out=self.count_offsets[1:]
        )
        self.enabled = list(enabled)
        self.order = np.argsort(self.sources, kind="stable")
        self.row_offsets = np.searchsorted(
            self.sources[self.order], np.arange(num_states + 1)
        )
        self._bsccs: Optional[List[FrozenSet[int]]] = None
        self._recurrent: Optional[RecurrentClass] = None
        #: Per measure tuple, what
        #: :func:`~repro.ctmc.measures.evaluate_measures` reads (filled
        #: there).
        self.rewards: Dict[tuple, object] = {}

    def row(self, state: int) -> np.ndarray:
        """The entries leaving *state*, in entry order."""
        return self.order[self.row_offsets[state]:self.row_offsets[state + 1]]

    @property
    def bsccs(self) -> List[FrozenSet[int]]:
        """Bottom strongly connected components, in the order a
        depth-first search from states 0, 1, ... first enters them."""
        if self._bsccs is None:
            self._bsccs = self._bottom_components()
        return self._bsccs

    def _bottom_components(self) -> List[FrozenSet[int]]:
        n = self.num_states
        graph = sparse.csr_matrix(
            (np.ones(len(self.sources)), (self.sources, self.targets)),
            shape=(n, n),
        )
        count, labels = csgraph.connected_components(
            graph, directed=True, connection="strong"
        )
        leaving = labels[self.sources] != labels[self.targets]
        has_exit = np.zeros(count, bool)
        has_exit[labels[self.sources[leaving]]] = True
        by_label = np.argsort(labels, kind="stable")
        bounds = np.searchsorted(labels[by_label], np.arange(count + 1))
        bottom = [
            frozenset(by_label[bounds[c]:bounds[c + 1]].tolist())
            for c in np.flatnonzero(~has_exit)
        ]
        if len(bottom) > 1:
            entered = self._discovery_times()
            bottom.sort(key=lambda members: min(entered[s] for s in members))
        return bottom

    def _discovery_times(self) -> List[int]:
        """Preorder index of every state in the depth-first search that
        starts from each unvisited state in index order and follows the
        entries (self-loops left out) in entry order."""
        successors = [
            [t for t in self.targets[self.row(s)].tolist() if t != s]
            for s in range(self.num_states)
        ]
        entered = [-1] * self.num_states
        clock = 0
        for root in range(self.num_states):
            if entered[root] >= 0:
                continue
            entered[root] = clock
            clock += 1
            work = [iter(successors[root])]
            while work:
                for successor in work[-1]:
                    if entered[successor] < 0:
                        entered[successor] = clock
                        clock += 1
                        work.append(iter(successors[successor]))
                        break
                else:
                    work.pop()
        return entered

    def recurrent_class(self) -> RecurrentClass:
        """The first bottom component with its submatrix's index arrays
        (callers check that it is the only one)."""
        if self._recurrent is None:
            states = np.array(sorted(self.bsccs[0]), dtype=np.intp)
            position = np.full(self.num_states, -1, np.intp)
            position[states] = np.arange(len(states))
            sources = self.sources[self.order]
            targets = self.targets[self.order]
            keep = (position[sources] >= 0) & (sources != targets)
            self._recurrent = RecurrentClass(
                states,
                self.order[keep],
                position[sources[keep]],
                position[targets[keep]],
            )
        return self._recurrent


class CTMC:
    """A finite CTMC with label bookkeeping for reward measures.

    Hand-built chains grow through :meth:`add_transition`; the chains of
    :func:`~repro.ctmc.build.build_ctmc` come from
    :meth:`from_pattern`.  Either way the readers see one compiled form
    (:attr:`pattern`, :attr:`rates`, :attr:`label_count_values`), and
    :attr:`transitions` / :meth:`outgoing` are views of it.
    """

    def __init__(self, num_states: int, initial_distribution=None):
        if num_states <= 0:
            raise MarkovianError("a CTMC needs at least one state")
        self.num_states = num_states
        if initial_distribution is None:
            initial_distribution = np.zeros(num_states)
            initial_distribution[0] = 1.0
        self.initial_distribution = np.asarray(initial_distribution, float)
        if self.initial_distribution.shape != (num_states,):
            raise MarkovianError("initial distribution has wrong length")
        if not np.isclose(self.initial_distribution.sum(), 1.0):
            raise MarkovianError("initial distribution must sum to one")
        # The growable store: entry e is (sources[e], targets[e]).
        self._sources: List[int] = []
        self._targets: List[int] = []
        self._rates: List[float] = []
        self._counts: List[Dict[str, float]] = []
        self._entry_of: Dict[Tuple[int, int], int] = {}
        self._enabled_labels: Dict[int, FrozenSet[str]] = {}
        self._state_info: Dict[int, str] = {}
        #: False while only the compiled form holds the chain.
        self._store_current = True
        #: (pattern, rate vector, flat count vector); None while stale.
        self._compiled: Optional[
            Tuple[ChainPattern, np.ndarray, np.ndarray]
        ] = None
        #: (lts, tangible states) the descriptions come from.
        self._described_by: Optional[tuple] = None

    @classmethod
    def from_pattern(
        cls,
        pattern: ChainPattern,
        rates: np.ndarray,
        label_count_values: np.ndarray,
        initial_distribution: np.ndarray,
        described_by: Optional[tuple] = None,
    ) -> "CTMC":
        """The chain with *rates* and *label_count_values* over
        *pattern*; ``described_by = (lts, tangible)`` names state ``i``
        after ``lts.state_info(tangible[i])``."""
        chain = cls(pattern.num_states, initial_distribution)
        chain._compiled = (pattern, rates, label_count_values)
        chain._store_current = False
        chain._described_by = described_by
        return chain

    # -- construction -------------------------------------------------------

    def add_transition(
        self,
        source: int,
        target: int,
        rate: float,
        label_counts: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Add (or merge into) a transition between tangible states.

        Parallel transitions between the same pair of states are merged
        by :func:`merge_counts`.
        """
        for state in (source, target):
            if not 0 <= state < self.num_states:
                raise MarkovianError(f"state {state} out of range")
        self._edit()
        counts = dict(label_counts or {})
        entry = self._entry_of.get((source, target))
        if entry is not None:
            self._rates[entry], self._counts[entry] = merge_counts(
                self._rates[entry], self._counts[entry], rate, counts
            )
            return
        if rate <= 0:
            raise MarkovianError(
                f"CTMC transition rate must be positive, got {rate}"
            )
        self._entry_of[(source, target)] = len(self._sources)
        self._sources.append(source)
        self._targets.append(target)
        self._rates.append(rate)
        self._counts.append(counts)

    def set_enabled_labels(self, state: int, labels: FrozenSet[str]) -> None:
        """Record which original labels are enabled in *state*."""
        self._edit()
        self._enabled_labels[state] = labels

    def set_state_info(self, state: int, info: str) -> None:
        """Attach a human-readable description to *state*."""
        self._state_info[state] = info

    def _edit(self) -> None:
        """Make the growable store the chain's truth before a change."""
        if not self._store_current:
            for transition in self.transitions:
                source, target, rate, counts = transition
                self._entry_of[(source, target)] = len(self._sources)
                self._sources.append(source)
                self._targets.append(target)
                self._rates.append(rate)
                self._counts.append(counts)
            self._enabled_labels = dict(enumerate(self.pattern.enabled))
            self._store_current = True
        self._compiled = None

    def _compile(self) -> Tuple[ChainPattern, np.ndarray, np.ndarray]:
        if self._compiled is None:
            pattern = ChainPattern(
                self.num_states,
                self._sources,
                self._targets,
                [tuple(counts) for counts in self._counts],
                [
                    self._enabled_labels.get(state, frozenset())
                    for state in range(self.num_states)
                ],
            )
            values = [v for counts in self._counts for v in counts.values()]
            self._compiled = (
                pattern,
                np.array(self._rates, float),
                np.array(values, float),
            )
        return self._compiled

    # -- compiled form -------------------------------------------------------

    @property
    def pattern(self) -> ChainPattern:
        """The chain's structure (shared by the points of one plan)."""
        return self._compile()[0]

    @property
    def rates(self) -> np.ndarray:
        """Rate of every entry, in entry order."""
        return self._compile()[1]

    @property
    def label_count_values(self) -> np.ndarray:
        """Every entry's label counts, flat (see :class:`ChainPattern`)."""
        return self._compile()[2]

    # -- accessors -----------------------------------------------------------

    def _views(self, entries) -> List[CTMCTransition]:
        pattern, rates, counts = self._compile()
        offsets = pattern.count_offsets
        return [
            CTMCTransition(
                int(pattern.sources[e]),
                int(pattern.targets[e]),
                float(rates[e]),
                dict(zip(
                    pattern.label_keys[e],
                    counts[offsets[e]:offsets[e + 1]].tolist(),
                )),
            )
            for e in entries
        ]

    @property
    def transitions(self) -> List[CTMCTransition]:
        """Every entry, in entry order."""
        return self._views(range(len(self.pattern.sources)))

    def outgoing(self, state: int) -> List[CTMCTransition]:
        """Transitions leaving *state*."""
        return self._views(self.pattern.row(state))

    def enabled_labels(self, state: int) -> FrozenSet[str]:
        """Original labels enabled in *state*."""
        if self._store_current:
            return self._enabled_labels.get(state, frozenset())
        return self.pattern.enabled[state]

    def state_info(self, state: int) -> str:
        """Human-readable description of *state*."""
        info = self._state_info.get(state)
        if info is not None:
            return info
        if self._described_by is not None:
            lts, tangible = self._described_by
            return lts.state_info(tangible[state])
        return f"state {state}"

    def exit_rates(self) -> np.ndarray:
        """Total rate leaving every state (self-loops excluded), each
        summed in entry order."""
        pattern, rates, _ = self._compile()
        leaving = pattern.sources != pattern.targets
        return np.bincount(
            pattern.sources[leaving],
            weights=rates[leaving],
            minlength=self.num_states,
        )

    def exit_rate(self, state: int) -> float:
        """Total rate leaving *state* (self-loops excluded)."""
        return float(self.exit_rates()[state])

    def max_exit_rate(self) -> float:
        """Largest exit rate over all states (uniformisation constant)."""
        return float(self.exit_rates().max(initial=0.0))

    # -- matrices -------------------------------------------------------------

    def generator_matrix(self) -> sparse.csr_matrix:
        """The infinitesimal generator ``Q`` (self-loops cancel out)."""
        pattern, rates, _ = self._compile()
        leaving = pattern.sources != pattern.targets
        states = np.arange(self.num_states)
        return sparse.csr_matrix(
            (
                np.concatenate((rates[leaving], 0.0 - self.exit_rates())),
                (
                    np.concatenate((pattern.sources[leaving], states)),
                    np.concatenate((pattern.targets[leaving], states)),
                ),
            ),
            shape=(self.num_states, self.num_states),
        )

    def uniformized_matrix(
        self, uniformization_rate: Optional[float] = None
    ) -> Tuple[sparse.csr_matrix, float]:
        """The DTMC ``P = I + Q / Lambda`` used by uniformisation."""
        rate = uniformization_rate
        if rate is None:
            rate = self.max_exit_rate() * 1.02
        if rate <= 0:
            raise MarkovianError(
                "cannot uniformise a chain with no positive exit rate"
            )
        identity = sparse.identity(self.num_states, format="csr")
        return identity + self.generator_matrix() / rate, rate

    # -- structure ---------------------------------------------------------------

    def bottom_strongly_connected_components(self) -> List[Set[int]]:
        """BSCCs of the transition graph (cached on the pattern)."""
        return [set(component) for component in self.pattern.bsccs]

    def __str__(self) -> str:
        return (
            f"CTMC({self.num_states} states, {len(self.pattern.sources)} "
            f"transitions)"
        )
