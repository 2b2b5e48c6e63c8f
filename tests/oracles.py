"""Reference implementations the tests and benchmarks compare against.

:func:`gauss_seidel_reference` is the historical pure-Python
Gauss-Seidel sweep, verbatim.  It is not a solver backend: the sor
fixed-point pin in ``tests/test_solvers.py`` checks that the vectorized
``sor`` backend reaches its fixed point, and
``benchmarks/bench_solvers.py`` times it to quantify the speedup.

:func:`build_ctmc_reference` is the historical one-pass LTS -> CTMC
construction, verbatim: it classifies and eliminates the vanishing
states on every call.  ``tests/test_ctmc_plan.py`` pins the cached
:class:`~repro.ctmc.build.EliminationPlan` path of
:func:`~repro.ctmc.build.build_ctmc` to it with ``==``.

:func:`build_ctmc_reference` runs on the historical object-walking
:func:`classify_states_reference`, :func:`check_timed_reference` and
recursive :class:`ReferenceVanishingResolver`, verbatim, so it also pins
the column-reading classification and iterative resolver of
:mod:`repro.ctmc.build`.

:class:`ReferenceStateSpaceGenerator` is the historical per-global-state
move classification and generation loop, verbatim: for every reachable
state it re-derives each local move's direction and attachments, builds
fresh global moves, tests preemption with ``isinstance`` per move and
renders every state's description eagerly into a :class:`ReferenceLTS`.
``tests/test_generation_tables.py`` pins the per-local-state move tables,
column appends and on-read descriptions of
:class:`~repro.aemilia.semantics.StateSpaceGenerator` to it with ``==``.

:class:`ReferenceLTS` is the historical object-store LTS, verbatim (one
:class:`~repro.lts.lts.Transition` per transition, outgoing lists,
``replacing``); :func:`relabel_reference` is the historical relabel that
walks every transition of it.  :func:`hide_reference`,
:func:`restrict_reference`, :func:`relabel_labels_reference`,
:func:`disjoint_union_reference` and
:func:`restrict_to_reachable_reference` are the historical
per-transition operators.  ``tests/test_lts.py`` and
``tests/test_ctmc_plan.py`` pin the columnar :class:`~repro.lts.lts.LTS`,
its operators and :meth:`~repro.runtime.statespace_cache.ParametricLTS.relabel`
to them with ``==``.

:class:`ReferenceSimulator` is the historical reference simulation
engine, verbatim: it compiles each state into transition lists, scans
branch weights linearly and credits impulses and sojourn rewards
through per-firing helpers.  ``tests/test_sim_tables.py`` pins the
single event loop over compiled per-state tables of
:class:`~repro.sim.engine.Simulator` to it with ``==``.

:func:`gth_eliminate_reference` is the historical parametric GTH
elimination, verbatim: a linear Markowitz ``min`` over the remaining
states at every pivot and one numpy update per (source, target) fill
pair.  ``tests/test_parametric_elimination.py`` pins the heap-ordered,
gather/scatter :func:`~repro.ctmc.parametric._eliminate` to it:
``x`` byte-equal and the fill count ``==``.

:func:`replicate_reference` is the historical inline replication loop,
verbatim: one :class:`~repro.sim.engine.Simulator` run over the streams
:func:`spawn_generators` materialises for all runs at once.
``tests/test_output.py`` pins the chunked executor tasks of
:func:`~repro.sim.output.replicate` to it with ``==``.

:class:`ReferenceCTMC` is the historical object-store CTMC, verbatim:
one :class:`ReferenceCTMCTransition` per entry, parallel transitions
merged by a scan of the source's outgoing list, and a hand-written
iterative Tarjan for the bottom strongly connected components.
:func:`instantiate_reference` replays an elimination plan into it the
historical way (one ``add_transition`` per contribution), and
:func:`steady_state_reference` / :func:`evaluate_measures_reference`
are the historical per-object solve and measure loops.
``tests/test_ctmc_pattern.py`` pins the compiled-pattern CTMC of
:mod:`repro.ctmc.chain` (rates, label counts, BSCCs, ``pi`` and every
measure value) to them with ``==``.

:class:`EventStreamAllocator` is the historical multi-row stream store,
verbatim but for the ``rebind_row`` no protocol called: 2-D block pools
with per-row cursors, rows added and truncated as a splitting tree
grows, and one :class:`AllocatorRunView` per row as the engine's
sampler.  :func:`paired_chunk_reference` and :func:`grow_tree_reference`
are the paired-replication chunk and the splitting-tree growth that ran
on it.  ``tests/test_streams.py`` pins
:class:`~repro.sim.streams.RunStreams`, the paired chunks of
:func:`~repro.sim.output.replicate_paired` and the slot lists of
:mod:`repro.sim.splitting` to them with ``==``.
"""

import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np
from scipy import sparse

from repro.aemilia.elemtypes import Direction
from repro.aemilia.rates import (
    ExpRate,
    GeneralRate,
    ImmediateRate,
    PassiveRate,
)
from repro.aemilia.semantics import (
    StateSpaceGenerator,
    _GlobalMove,
    apply_branch_fraction,
)
from repro.ctmc.build import EliminationPlan
from repro.ctmc.measures import Measure, RewardTable
from repro.ctmc.solvers import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_RESIDUAL_TOLERANCE,
    DEFAULT_TOLERANCE,
    SolverReport,
    SteadyStateSolution,
    solve_steady_state,
)
from repro.distributions import Distribution, Exponential
from repro.ctmc.parametric import ParametricOptions
from repro.errors import (
    AnalysisError,
    ImmediateCycleError,
    MarkovianError,
    ParametricError,
    SimulationError,
    SemanticsError,
    SolverError,
    SpecificationError,
    StateSpaceLimitError,
)
from repro.lts.labels import TAU, local_label, matches_any
from repro.lts.lts import LTS, Transition
from repro.obs import metrics as obs_metrics
from repro.sim.engine import (
    _MAX_IMMEDIATE_CHAIN,
    SimulationResult,
    Simulator,
    horizon_due,
)
from repro.sim.random import event_generator, splitting_event_generator
from repro.sim.splitting import RESAMPLE_STREAM
from repro.sim.streams import BRANCH_STREAM


@dataclass
class ReferenceCTMCTransition:
    """One rate transition between tangible states."""

    source: int
    target: int
    rate: float
    label_counts: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.rate <= 0:
            raise MarkovianError(
                f"CTMC transition rate must be positive, got {self.rate}"
            )


class ReferenceCTMC:
    """A finite CTMC with label bookkeeping for reward measures."""

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
        self.transitions: List[ReferenceCTMCTransition] = []
        self._outgoing: Dict[int, List[ReferenceCTMCTransition]] = {}
        self._enabled_labels: Dict[int, FrozenSet[str]] = {}
        self._state_info: Dict[int, str] = {}

    # -- construction -------------------------------------------------------

    def add_transition(
        self,
        source: int,
        target: int,
        rate: float,
        label_counts: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Add (or merge into) a transition between tangible states.

        Parallel transitions between the same pair of states are merged:
        rates add, and label counts merge weighted by rate so that
        ``rate * counts`` (the throughput contribution) is preserved.
        """
        for state in (source, target):
            if not 0 <= state < self.num_states:
                raise MarkovianError(f"state {state} out of range")
        counts = dict(label_counts or {})
        for existing in self._outgoing.get(source, ()):
            if existing.target == target:
                merged_rate = existing.rate + rate
                merged_counts: Dict[str, float] = {}
                for label, count in existing.label_counts.items():
                    merged_counts[label] = count * existing.rate / merged_rate
                for label, count in counts.items():
                    merged_counts[label] = (
                        merged_counts.get(label, 0.0)
                        + count * rate / merged_rate
                    )
                existing.rate = merged_rate
                existing.label_counts = merged_counts
                return
        transition = ReferenceCTMCTransition(source, target, rate, counts)
        self.transitions.append(transition)
        self._outgoing.setdefault(source, []).append(transition)

    def set_enabled_labels(self, state: int, labels: FrozenSet[str]) -> None:
        """Record which original labels are enabled in *state*."""
        self._enabled_labels[state] = labels

    def set_state_info(self, state: int, info: str) -> None:
        """Attach a human-readable description to *state*."""
        self._state_info[state] = info

    # -- accessors -----------------------------------------------------------

    def outgoing(self, state: int) -> List[ReferenceCTMCTransition]:
        """Transitions leaving *state*."""
        return self._outgoing.get(state, [])

    def enabled_labels(self, state: int) -> FrozenSet[str]:
        """Original labels enabled in *state*."""
        return self._enabled_labels.get(state, frozenset())

    def state_info(self, state: int) -> str:
        """Human-readable description of *state*."""
        return self._state_info.get(state, f"state {state}")

    def exit_rate(self, state: int) -> float:
        """Total rate leaving *state* (self-loops excluded)."""
        return sum(
            t.rate for t in self.outgoing(state) if t.target != state
        )

    def max_exit_rate(self) -> float:
        """Largest exit rate over all states (uniformisation constant)."""
        return max(
            (self.exit_rate(state) for state in range(self.num_states)),
            default=0.0,
        )

    # -- matrices -------------------------------------------------------------

    def generator_matrix(self) -> sparse.csr_matrix:
        """The infinitesimal generator ``Q`` (self-loops cancel out)."""
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        diagonal = np.zeros(self.num_states)
        for transition in self.transitions:
            if transition.source == transition.target:
                continue
            rows.append(transition.source)
            cols.append(transition.target)
            data.append(transition.rate)
            diagonal[transition.source] -= transition.rate
        for state in range(self.num_states):
            rows.append(state)
            cols.append(state)
            data.append(diagonal[state])
        return sparse.csr_matrix(
            (data, (rows, cols)), shape=(self.num_states, self.num_states)
        )

    # -- structure ---------------------------------------------------------------

    def bottom_strongly_connected_components(self) -> List[Set[int]]:
        """BSCCs of the transition graph (Tarjan, iterative)."""
        successors: Dict[int, List[int]] = {
            s: [t.target for t in self.outgoing(s) if t.target != s]
            for s in range(self.num_states)
        }
        index_counter = [0]
        stack: List[int] = []
        lowlink: Dict[int, int] = {}
        index: Dict[int, int] = {}
        on_stack: Dict[int, bool] = {}
        components: List[Set[int]] = []

        for root in range(self.num_states):
            if root in index:
                continue
            work = [(root, iter(successors[root]))]
            index[root] = lowlink[root] = index_counter[0]
            index_counter[0] += 1
            stack.append(root)
            on_stack[root] = True
            while work:
                node, successor_iter = work[-1]
                advanced = False
                for successor in successor_iter:
                    if successor not in index:
                        index[successor] = lowlink[successor] = index_counter[0]
                        index_counter[0] += 1
                        stack.append(successor)
                        on_stack[successor] = True
                        work.append((successor, iter(successors[successor])))
                        advanced = True
                        break
                    if on_stack.get(successor):
                        lowlink[node] = min(lowlink[node], index[successor])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: Set[int] = set()
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.add(member)
                        if member == node:
                            break
                    components.append(component)
        bottom: List[Set[int]] = []
        for component in components:
            is_bottom = all(
                target in component
                for state in component
                for target in successors[state]
            )
            if is_bottom:
                bottom.append(component)
        return bottom


def instantiate_reference(
    plan: EliminationPlan, lts: LTS
) -> ReferenceCTMC:
    """The CTMC of *lts*, whose structure this plan was made from."""
    ctmc = ReferenceCTMC(
        len(plan.tangible), plan.initial_distribution.copy()
    )
    add = ctmc.add_transition
    for source, state in enumerate(plan.tangible):
        ctmc.set_state_info(source, lts.state_info(state))
        ctmc.set_enabled_labels(source, plan.enabled[source])
        for transition, resolved in zip(
            lts.outgoing(state), plan.contributions[source]
        ):
            rate = transition.rate
            if not isinstance(rate, ExpRate):
                check_timed_reference(lts, state)  # raises the precise error
            for target, probability, counts in resolved:
                add(source, target, rate.rate * probability, counts)
    return ctmc


def steady_state_reference(
    ctmc: ReferenceCTMC,
    method: Optional[str] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOLERANCE,
    iteration_callback=None,
) -> SteadyStateSolution:
    """Steady-state distribution of *ctmc* plus solver diagnostics."""
    bsccs = ctmc.bottom_strongly_connected_components()
    if len(bsccs) == 0:
        raise SolverError("chain has no bottom strongly connected component")
    if len(bsccs) > 1:
        sizes = ", ".join(str(len(b)) for b in bsccs)
        raise SolverError(
            f"chain has {len(bsccs)} bottom strongly connected components "
            f"(sizes {sizes}); the steady state depends on the initial "
            f"distribution and is not unique"
        )
    recurrent = sorted(bsccs[0])
    if len(recurrent) == 1:
        pi = np.zeros(ctmc.num_states)
        pi[recurrent[0]] = 1.0
        report = SolverReport(
            method="closed_form",
            size=1,
            nnz=0,
            iterations=0,
            residual=0.0,
            mass_defect=0.0,
        )
        return SteadyStateSolution(pi, report)
    index = {state: i for i, state in enumerate(recurrent)}
    sub_q = submatrix_reference(ctmc, recurrent, index)
    solution = solve_steady_state(
        sub_q,
        method=method,
        tolerance=tolerance,
        residual_tolerance=residual_tolerance,
        max_iterations=max_iterations,
        iteration_callback=iteration_callback,
    )
    pi = np.zeros(ctmc.num_states)
    for state, position in index.items():
        pi[state] = solution.pi[position]
    return SteadyStateSolution(pi, solution.report)


def submatrix_reference(
    ctmc: ReferenceCTMC, recurrent, index
) -> sparse.csr_matrix:
    size = len(recurrent)
    rows, cols, data = [], [], []
    diagonal = np.zeros(size)
    for state in recurrent:
        for transition in ctmc.outgoing(state):
            if transition.target == state:
                continue
            rows.append(index[state])
            cols.append(index[transition.target])
            data.append(transition.rate)
            diagonal[index[state]] -= transition.rate
    for position in range(size):
        rows.append(position)
        cols.append(position)
        data.append(diagonal[position])
    return sparse.csr_matrix((data, (rows, cols)), shape=(size, size))


def _state_matrix_reference(
    ctmc: ReferenceCTMC, table: RewardTable
) -> np.ndarray:
    """``(states, measures)`` reward rates of every state of *ctmc*."""
    rows = [
        table.state_rewards(ctmc.enabled_labels(state))
        for state in range(ctmc.num_states)
    ]
    return np.array(rows, float).reshape(len(rows), len(table.measures))


def evaluate_measures_reference(
    ctmc: ReferenceCTMC, pi: np.ndarray, measures: Iterable[Measure]
) -> Dict[str, float]:
    """Steady-state values of several measures, in one transition pass.

    Each measure sums exactly as it would alone: its state part
    ``pi @ rewards`` first, then the transitions in chain order,
    skipping zero weights and zero impulses.
    """
    pi = np.asarray(pi, float)
    if pi.shape != (ctmc.num_states,):
        raise SpecificationError("pi has wrong length for this chain")
    table = RewardTable(measures)
    values = [0.0] * len(table.measures)
    if any(m.has_state_clauses() for m in table.measures):
        # One contiguous row per measure, as a lone vector would be.
        rewards = _state_matrix_reference(ctmc, table).T.copy()
        for j, m in enumerate(table.measures):
            if m.has_state_clauses():
                values[j] += float(pi @ rewards[j])
    if any(m.has_trans_clauses() for m in table.measures):
        for transition in ctmc.transitions:
            weight = pi[transition.source] * transition.rate
            if weight == 0.0:
                continue
            for label, count in transition.label_counts.items():
                for j, reward in enumerate(table.impulses(label)):
                    if reward:
                        values[j] += weight * count * reward
    return {m.name: value for m, value in zip(table.measures, values)}


def classify_states_reference(lts) -> Tuple[List[int], List[int]]:
    """Split states into (tangible, vanishing) lists."""
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


def check_timed_reference(lts, state: int) -> None:
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


class ReferenceVanishingResolver:
    """Memoised elimination of vanishing states with cycle detection."""

    def __init__(self, lts, is_vanishing: Dict[int, bool]):
        self.lts = lts
        self.is_vanishing = is_vanishing
        self._memo: Dict[int, list] = {}
        self._on_path: set = set()

    def resolve(self, state: int) -> list:
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


def build_ctmc_reference(lts: LTS) -> ReferenceCTMC:
    """Turn the rate-labelled LTS of a Markovian model into a CTMC."""
    tangible, vanishing = classify_states_reference(lts)
    if not tangible:
        raise MarkovianError(
            "the model has no tangible state: every state is vanishing"
        )
    is_vanishing = {state: False for state in lts.states()}
    for state in vanishing:
        is_vanishing[state] = True
    for state in tangible:
        check_timed_reference(lts, state)
    tangible_index = {state: i for i, state in enumerate(tangible)}
    resolver = ReferenceVanishingResolver(lts, is_vanishing)

    # Initial distribution: a vanishing initial state spreads over the
    # tangible states it resolves to.
    initial = np.zeros(len(tangible))
    if is_vanishing[lts.initial]:
        for target, probability, _ in resolver.resolve(lts.initial):
            initial[tangible_index[target]] += probability
    else:
        initial[tangible_index[lts.initial]] = 1.0

    ctmc = ReferenceCTMC(len(tangible), initial)
    for state in tangible:
        source = tangible_index[state]
        ctmc.set_state_info(source, lts.state_info(state))
        ctmc.set_enabled_labels(
            source,
            frozenset(t.label for t in lts.outgoing(state)),
        )
        for transition in lts.outgoing(state):
            rate: ExpRate = transition.rate  # _check_timed guarantees this
            base_counts = {transition.label: 1.0}
            if not is_vanishing[transition.target]:
                ctmc.add_transition(
                    source,
                    tangible_index[transition.target],
                    rate.rate,
                    base_counts,
                )
                continue
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
                ctmc.add_transition(
                    source,
                    tangible_index[target],
                    rate.rate * probability,
                    merged,
                )
    return ctmc


def gauss_seidel_reference(
    q: sparse.csr_matrix,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> np.ndarray:
    """The historical pure-Python Gauss-Seidel sweep, verbatim.

    Note it retains the historical *absolute* convergence test.
    """
    size = q.shape[0]
    qt = q.transpose().tocsr()
    diag = qt.diagonal()
    if np.any(diag == 0):
        raise SolverError(
            "Gauss-Seidel needs non-zero diagonal entries (absorbing state?)"
        )
    pi = np.full(size, 1.0 / size)
    indptr, indices, data = qt.indptr, qt.indices, qt.data
    for _ in range(max_iterations):
        old = pi.copy()
        for row in range(size):
            acc = 0.0
            for position in range(indptr[row], indptr[row + 1]):
                column = indices[position]
                if column != row:
                    acc += data[position] * pi[column]
            pi[row] = -acc / diag[row]
        total = pi.sum()
        if total <= 0:
            raise SolverError("Gauss-Seidel diverged to a non-positive vector")
        pi /= total
        if np.max(np.abs(pi - old)) < tolerance:
            return pi
    raise SolverError(
        f"Gauss-Seidel did not converge within {max_iterations} iterations"
    )


class ReferenceStateSpaceGenerator(StateSpaceGenerator):
    """The generator with the historical per-state move classification."""

    # -- classification helpers -------------------------------------------

    def _direction(self, instance_index: int, action: str) -> Optional[Direction]:
        elem_type = self._instances[instance_index].elem_type
        if elem_type.has_interaction(action):
            return elem_type.interaction(action).direction
        return None

    def _is_attached_input(self, instance_index: int, action: str) -> bool:
        return (instance_index, action) in self._attached_inputs

    # -- move computation --------------------------------------------------

    def _global_moves(self, state: Tuple[int, ...]) -> List[_GlobalMove]:
        moves: List[_GlobalMove] = []
        for index, semantics in enumerate(self._instances):
            instance_name = semantics.name
            for move in semantics.moves(state[index]):
                direction = self._direction(index, move.action)
                if direction is Direction.INPUT:
                    if self._is_attached_input(index, move.action):
                        continue  # fires only through its output partner
                    # Open input: observable passive action.
                    moves.append(
                        _GlobalMove(
                            label=local_label(instance_name, move.action),
                            rate=move.rate,
                            event=local_label(instance_name, move.action),
                            weight=1.0,
                            targets=((index, move.target),),
                            provenance=self._move_provenance(move),
                        )
                    )
                    continue
                if direction is Direction.OUTPUT:
                    attachments = self._attachments_from.get(
                        (index, move.action), []
                    )
                    if attachments:
                        moves.extend(
                            self._sync_moves(state, index, move, attachments)
                        )
                        continue
                # Internal action or open output: autonomous move.
                moves.append(
                    _GlobalMove(
                        label=local_label(instance_name, move.action),
                        rate=move.rate,
                        event=local_label(instance_name, move.action),
                        weight=1.0,
                        targets=((index, move.target),),
                        provenance=self._move_provenance(move),
                    )
                )
        return moves

    def _describe(self, state: Tuple[int, ...]) -> str:
        parts = []
        for semantics, local_state in zip(self._instances, state):
            parts.append(
                f"{semantics.name}:{semantics.state_summary(local_state)}"
            )
        return " | ".join(parts)

    @staticmethod
    def _filter_preemption(moves: List[_GlobalMove]) -> List[_GlobalMove]:
        """Immediate actions preempt timed/passive ones; keep max priority."""
        immediates = [
            m for m in moves if isinstance(m.rate, ImmediateRate)
        ]
        if not immediates:
            return moves
        top = max(m.rate.priority for m in immediates)
        return [m for m in immediates if m.rate.priority == top]

    def generate(self) -> "ReferenceLTS":
        """Generate the reachable state space as an LTS."""
        initial = tuple(s.initial_state for s in self._instances)
        lts = ReferenceLTS(0)
        index: Dict[Tuple[int, ...], int] = {initial: lts.add_state()}
        lts.set_state_info(0, self._describe(initial))
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
                    target = lts.add_state()
                    index[successor_tuple] = target
                    lts.set_state_info(
                        target, self._describe(successor_tuple)
                    )
                    frontier.append(successor_tuple)
                lts.add_transition(
                    source, move.label, target, move.rate, move.event,
                    move.weight,
                )
                if self.record_provenance:
                    self.provenance.append(move.provenance)
        return lts


@dataclass
class _Event:
    """A schedulable activity of one state: distribution + branches."""

    name: str
    distribution: Distribution
    branches: List[Transition]
    total_weight: float


@dataclass
class _StateSchedule:
    """Compiled per-state view: either vanishing or a set of timed events."""

    immediate: Optional[List[Transition]]
    immediate_total_weight: float
    events: Dict[str, _Event]
    #: Per-measure reward rate earned while sojourning in the state.
    rewards: Tuple[float, ...]


class ReferenceSimulator:
    """The reference engine with the historical per-firing helpers."""

    def __init__(
        self,
        lts: LTS,
        measures: Sequence[Measure],
        clock_semantics: str = "enabling_memory",
    ):
        if clock_semantics not in ("enabling_memory", "restart"):
            raise SimulationError(
                f"unknown clock semantics {clock_semantics!r} "
                f"(use enabling_memory or restart)"
            )
        self.lts = lts
        self.measures = list(measures)
        self.clock_semantics = clock_semantics
        #: Shared by every run.
        self.rewards = RewardTable(self.measures)
        self._schedules: Dict[int, _StateSchedule] = {}

    # -- schedule compilation ---------------------------------------------

    def _compile(self, state: int) -> _StateSchedule:
        schedule = self._schedules.get(state)
        if schedule is not None:
            return schedule
        transitions = self.lts.outgoing(state)
        rewards = self.rewards.state_rewards(
            frozenset(t.label for t in transitions)
        )
        immediate = [
            t for t in transitions if isinstance(t.rate, ImmediateRate)
        ]
        if immediate:
            if len(immediate) != len(transitions):
                raise SimulationError(
                    f"state {self.lts.state_info(state)} mixes immediate "
                    f"and timed transitions"
                )
            total = sum(t.rate.weight for t in immediate)
            schedule = _StateSchedule(immediate, total, {}, rewards)
            self._schedules[state] = schedule
            return schedule
        events: Dict[str, _Event] = {}
        for transition in transitions:
            rate = transition.rate
            if isinstance(rate, PassiveRate):
                raise SimulationError(
                    f"passive transition {transition.label!r} in state "
                    f"{self.lts.state_info(state)}: the timed model must "
                    f"close every passive action"
                )
            if isinstance(rate, ExpRate):
                distribution: Distribution = Exponential(rate.rate)
            elif isinstance(rate, GeneralRate):
                distribution = rate.distribution
            else:
                raise SimulationError(
                    f"transition {transition.label!r} has no usable rate "
                    f"({rate!r})"
                )
            event_name = transition.event or transition.label
            if isinstance(rate, ExpRate):
                # The generator pre-splits exponential activities across
                # probabilistic branches (exact for CTMCs).  A race of the
                # split exponentials is statistically identical to the
                # original activity (memorylessness), so each branch can
                # be its own event; clock persistence is immaterial for
                # exponentials.
                event_name = f"{event_name}::exp{len(events)}"
            event = events.get(event_name)
            if event is None:
                events[event_name] = _Event(
                    event_name, distribution, [transition], transition.weight
                )
            else:
                if event.distribution != distribution:
                    raise SimulationError(
                        f"event {event_name!r} in state "
                        f"{self.lts.state_info(state)} has branches with "
                        f"different distributions ({event.distribution} vs "
                        f"{distribution})"
                    )
                event.branches.append(transition)
                event.total_weight += transition.weight
        # Self-loops that no TRANS_REWARD clause counts never change the
        # state: skip scheduling them entirely (pure speed-up).
        # STATE_REWARD clauses look at *enabled* labels, which needs no
        # firing.
        events = {
            name: event
            for name, event in events.items()
            if not all(
                branch.source == branch.target
                and not self.rewards.observes(branch.label)
                for branch in event.branches
            )
        }
        schedule = _StateSchedule(None, 0.0, events, rewards)
        self._schedules[state] = schedule
        return schedule

    # -- running -------------------------------------------------------------

    def run(
        self,
        run_length: float,
        rng: Optional[np.random.Generator],
        warmup: float = 0.0,
        start_state: Optional[int] = None,
        observer=None,
        start_clocks: Optional[Dict[str, float]] = None,
        streams=None,
    ) -> SimulationResult:
        """Simulate one trajectory and estimate the measures.

        ``run_length`` is the *measured* horizon: the trajectory lasts
        ``warmup + run_length`` model time units and statistics collected
        during the warm-up are discarded.  An optional *observer* callable
        receives ``(time, label, target_state)`` at every firing.
        ``start_clocks`` (with ``start_state``) resumes a trajectory from
        a previous run's ``final_clocks``: events still enabled keep
        their residual clocks instead of being resampled.

        ``streams`` (a :class:`repro.sim.streams.RunStreams`) switches
        randomness from the single shared ``rng`` to per-event-type
        substreams — the common-random-numbers discipline
        (docs/SIMULATION.md); with ``streams`` set, ``rng`` may be
        ``None``.
        """
        if run_length <= 0:
            raise SimulationError(f"run_length must be positive, got {run_length}")
        if warmup < 0:
            raise SimulationError(f"warmup must be >= 0, got {warmup}")
        if rng is None and streams is None:
            raise SimulationError("run() needs an rng or a streams sampler")
        started = time.perf_counter()
        time_weighted = [0.0] * len(self.measures)
        impulses = [0.0] * len(self.measures)
        state = self.lts.initial if start_state is None else start_state
        now = 0.0
        end = warmup + run_length
        due = horizon_due(end)
        clocks: Dict[str, float] = dict(start_clocks or {})
        fired = 0
        immediate_chain = 0
        deadlocked = False
        while now < end:
            schedule = self._compile(state)
            if schedule.immediate is not None:
                immediate_chain += 1
                if immediate_chain > _MAX_IMMEDIATE_CHAIN:
                    raise SimulationError(
                        f"more than {_MAX_IMMEDIATE_CHAIN} consecutive "
                        f"immediate firings: timeless divergence near "
                        f"{self.lts.state_info(state)}"
                    )
                transition = self._choose_weighted(
                    schedule.immediate,
                    schedule.immediate_total_weight,
                    rng,
                    streams,
                )
                if now >= warmup:
                    self._collect_impulses(impulses, transition.label)
                if observer is not None:
                    observer(now, transition.label, transition.target)
                state = transition.target
                fired += 1
                continue
            immediate_chain = 0
            events = schedule.events
            if not events:
                deadlocked = True
                elapsed = end - now
                self._accumulate_time(
                    time_weighted, schedule.rewards, now, elapsed, warmup
                )
                now = end
                break
            if self.clock_semantics == "restart":
                clocks = {}
            # Keep clocks of still-enabled events, sample the new ones.
            clocks = {
                name: remaining
                for name, remaining in clocks.items()
                if name in events
            }
            for name, event in events.items():
                if name not in clocks:
                    clocks[name] = (
                        streams.duration(name, event.distribution)
                        if streams is not None
                        else event.distribution.sample(rng)
                    )
            # Exact clock ties (deterministic timers) break by event name,
            # lexicographically.
            winner = min(clocks, key=lambda name: (clocks[name], name))
            elapsed = clocks[winner]
            if now + elapsed >= due:
                # Horizon reached before the next firing: let the
                # remaining clocks run down to the horizon so a resumed
                # run carries the correct residuals (never negative: an
                # event tied with the horizon fires first thing on resume).
                remaining = end - now
                self._accumulate_time(
                    time_weighted, schedule.rewards, now, remaining, warmup
                )
                for name in clocks:
                    clocks[name] = max(clocks[name] - remaining, 0.0)
                now = end
                break
            self._accumulate_time(
                time_weighted, schedule.rewards, now, elapsed, warmup
            )
            now += elapsed
            for name in clocks:
                clocks[name] -= elapsed
            del clocks[winner]
            event = events[winner]
            transition = self._choose_weighted(
                event.branches, event.total_weight, rng, streams
            )
            if now >= warmup:
                self._collect_impulses(impulses, transition.label)
            if observer is not None:
                observer(now, transition.label, transition.target)
            state = transition.target
            fired += 1
        values = {
            measure.name: (time_weighted[j] + impulses[j]) / run_length
            for j, measure in enumerate(self.measures)
        }
        self._record_run_metrics(
            fired, deadlocked, start_clocks, time.perf_counter() - started
        )
        return SimulationResult(
            values, run_length, fired, state, deadlocked, dict(clocks)
        )

    @staticmethod
    def _record_run_metrics(
        fired: int,
        deadlocked: bool,
        start_clocks: Optional[Dict[str, float]],
        elapsed: float,
    ) -> None:
        """Always-on aggregate metrics for one completed run.

        A handful of counter bumps after the trajectory is done — the
        event loop itself is untouched, and the RNG stream never sees
        the instrumentation (docs/OBSERVABILITY.md).
        """
        registry = obs_metrics.get_registry()
        if not registry.enabled:
            return
        obs_metrics.SIM_RUNS.on(registry).inc()
        obs_metrics.SIM_EVENTS.on(registry).inc(fired)
        if deadlocked:
            obs_metrics.SIM_DEADLOCKS.on(registry).inc()
        if start_clocks:
            obs_metrics.SIM_CLOCK_CARRIES.on(registry).inc(
                len(start_clocks)
            )

    def _collect_impulses(self, impulses: List[float], label: str) -> None:
        """Credit the impulses of one firing of a *label* transition."""
        for j, reward in enumerate(self.rewards.impulses(label)):
            if reward:
                impulses[j] += reward

    @staticmethod
    def _accumulate_time(
        time_weighted: List[float],
        rewards: Tuple[float, ...],
        now: float,
        elapsed: float,
        warmup: float,
    ) -> None:
        """Credit sojourn time at reward rates *rewards*, clipping the
        warm-up."""
        if elapsed <= 0:
            return
        measured_start = max(now, warmup)
        measured_elapsed = now + elapsed - measured_start
        if measured_elapsed <= 0:
            return
        for j, reward in enumerate(rewards):
            if reward:
                time_weighted[j] += reward * measured_elapsed

    @staticmethod
    def _choose_weighted(
        transitions: List[Transition],
        total_weight: float,
        rng: Optional[np.random.Generator],
        streams=None,
    ) -> Transition:
        if len(transitions) == 1:
            return transitions[0]
        if streams is not None:
            pick = streams.branch() * total_weight
        else:
            pick = rng.uniform(0.0, total_weight)
        acc = 0.0
        for transition in transitions:
            weight = (
                transition.rate.weight
                if isinstance(transition.rate, ImmediateRate)
                else transition.weight
            )
            acc += weight
            if pick <= acc:
                return transition
        return transitions[-1]


def gth_eliminate_reference(
    capture, options: ParametricOptions
) -> Tuple[np.ndarray, int]:
    """GTH state elimination; returns (x matrix, fill ops used).

    *capture* holds ``recurrent`` (its length is the state count),
    ``out_edges`` (position -> {target: node vector}, in insertion
    order), ``in_edges`` (position -> set of sources) and
    ``atom_values`` (its second axis is the node count); the edge maps
    are consumed.

    ``x[i]`` is the unnormalised steady-state weight vector of position
    ``i`` over the sample nodes.  Elimination order is Markowitz
    min-fill (in-degree x out-degree product, smallest index as the
    deterministic tie-break); every update is the subtraction-free GTH
    rule, so no cancellation can occur at any node.
    """
    out_edges = capture.out_edges
    in_edges = capture.in_edges
    size = len(capture.recurrent)
    node_count = capture.atom_values.shape[1] if size else 0
    remaining = set(range(size))
    eliminations: List[Tuple[int, np.ndarray, Dict[int, np.ndarray]]] = []
    ops = 0
    while len(remaining) > 1:
        k = min(
            remaining,
            key=lambda s: (len(in_edges[s]) * len(out_edges[s]), s),
        )
        outs = out_edges.pop(k)
        sources = in_edges.pop(k)
        outs.pop(k, None)
        sources.discard(k)
        if not outs:
            raise ParametricError(
                "a recurrent state lost all outgoing rates during "
                "elimination (inconsistent chain)",
                reason="structure",
            )
        exit_total = np.add.reduce(list(outs.values()))
        saved: Dict[int, np.ndarray] = {}
        for i in sorted(sources):
            q_ik = out_edges[i].pop(k)
            saved[i] = q_ik
            factor = q_ik / exit_total
            row = out_edges[i]
            for j, q_kj in outs.items():
                if j == i:
                    continue  # the diagonal stays implicit in GTH
                ops += 1
                existing = row.get(j)
                if existing is None:
                    row[j] = factor * q_kj
                    in_edges[j].add(i)
                else:
                    row[j] = existing + factor * q_kj
            if ops > options.max_fill_ops:
                raise ParametricError(
                    f"GTH fill-in exceeded the budget of "
                    f"{options.max_fill_ops} update operations",
                    reason="budget",
                )
        for j in outs:
            in_edges[j].discard(k)
        remaining.discard(k)
        eliminations.append((k, exit_total, saved))
    x = np.zeros((size, node_count))
    if remaining:
        x[remaining.pop()] = 1.0
    for k, exit_total, saved in reversed(eliminations):
        acc = np.zeros(node_count)
        for i, q_ik in saved.items():
            acc += x[i] * q_ik
        x[k] = acc / exit_total
    return x, ops


def spawn_generators(seed: int, count: int) -> List[np.random.Generator]:
    """Derive *count* independent generators from one master seed."""
    sequence = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(s)) for s in sequence.spawn(count)]


def replicate_reference(
    lts: LTS,
    measures: Sequence[Measure],
    run_length: float,
    runs: int,
    warmup: float = 0.0,
    seed: int = 20040628,
    clock_semantics: str = "enabling_memory",
) -> Dict[str, List[float]]:
    """Per-measure samples of *runs* independent replications."""
    samples: Dict[str, List[float]] = {m.name: [] for m in measures}
    simulator = Simulator(lts, measures, clock_semantics)
    for rng in spawn_generators(seed, runs):
        result = simulator.run(run_length, rng, warmup)
        for name, value in result.measures.items():
            samples[name].append(value)
    return samples


class ReferenceLTS:
    """The historical object-store LTS, verbatim: one
    :class:`~repro.lts.lts.Transition` per transition, a transition list
    and an outgoing list per state, eager state descriptions, and
    :meth:`replacing` with copy-on-write rows."""

    #: True while some outgoing lists are shared with another LTS (see
    #: :meth:`replacing`); the first :meth:`add_transition` copies them.
    _rows_shared = False

    def __init__(self, initial: int = 0):
        self._num_states = 0
        self.initial = initial
        self.transitions: List[Transition] = []
        self._outgoing: Dict[int, List[Transition]] = {}
        self._state_info: Dict[int, str] = {}

    def add_state(self, info: Optional[str] = None) -> int:
        index = self._num_states
        self._num_states += 1
        if info is not None:
            self._state_info[index] = info
        return index

    def add_transition(
        self,
        source: int,
        label: str,
        target: int,
        rate=None,
        event: Optional[str] = None,
        weight: float = 1.0,
    ) -> Transition:
        for state in (source, target):
            if not 0 <= state < self._num_states:
                raise AnalysisError(
                    f"transition endpoint {state} is not a state "
                    f"(have {self._num_states})"
                )
        if self._rows_shared:
            self._outgoing = {s: list(ts) for s, ts in self._outgoing.items()}
            self._rows_shared = False
        transition = Transition(source, label, target, rate, event, weight)
        self.transitions.append(transition)
        self._outgoing.setdefault(source, []).append(transition)
        return transition

    @property
    def num_states(self) -> int:
        return self._num_states

    @property
    def num_transitions(self) -> int:
        return len(self.transitions)

    def states(self) -> range:
        return range(self._num_states)

    def outgoing(self, state: int) -> Sequence[Transition]:
        return self._outgoing.get(state, ())

    def state_info(self, state: int) -> str:
        return self._state_info.get(state, f"state {state}")

    def set_state_info(self, state: int, info: str) -> None:
        self._state_info[state] = info

    def labels(self) -> Set[str]:
        return {t.label for t in self.transitions}

    def visible_labels(self) -> Set[str]:
        return self.labels() - {TAU}

    def successors(self, state: int, label: str) -> List[int]:
        return [t.target for t in self.outgoing(state) if t.label == label]

    def deadlock_states(self) -> List[int]:
        return [s for s in self.states() if not self.outgoing(s)]

    def replacing(
        self, replacements: Mapping[int, Transition]
    ) -> "ReferenceLTS":
        """Copy with ``transitions[i]`` swapped for ``replacements[i]``."""
        clone = ReferenceLTS(self.initial)
        clone._num_states = self._num_states
        clone.transitions = list(self.transitions)
        clone._state_info = dict(self._state_info)
        clone._outgoing = dict(self._outgoing)
        clone._rows_shared = self._rows_shared = True
        copied = set()
        for index, new in replacements.items():
            old = clone.transitions[index]
            if new.source != old.source:
                raise AnalysisError(
                    f"replacement {new} leaves another state than {old}"
                )
            clone.transitions[index] = new
            row = clone._outgoing[old.source]
            if old.source not in copied:
                row = clone._outgoing[old.source] = list(row)
                copied.add(old.source)
            row[next(i for i, t in enumerate(row) if t is old)] = new
        return clone


def as_reference_lts(lts) -> ReferenceLTS:
    """*lts* rebuilt transition by transition in a :class:`ReferenceLTS`."""
    reference = ReferenceLTS(lts.initial)
    for state in lts.states():
        reference.add_state(lts.state_info(state))
    for t in lts.transitions:
        reference.add_transition(
            t.source, t.label, t.target, t.rate, t.event, t.weight
        )
    return reference


def relabel_reference(skeleton, const_env: Mapping[str, object]):
    """The historical :meth:`ParametricLTS.relabel
    <repro.runtime.statespace_cache.ParametricLTS.relabel>`, verbatim
    but for the structure key: it walks every transition and swaps in a
    new :class:`Transition` wherever the provenance reads a changed
    constant, on a :class:`ReferenceLTS` copy of the skeleton."""
    base = as_reference_lts(skeleton.lts)
    changed = {
        name
        for name in set(skeleton.const_env) | set(const_env)
        if skeleton.const_env.get(name) != const_env.get(name)
    }
    if not changed:
        return base
    if not changed.isdisjoint(skeleton.structural):
        raise SemanticsError(
            f"cannot relabel: structural constant(s) "
            f"{', '.join(sorted(changed & skeleton.structural))} changed; "
            f"the state space must be regenerated"
        )
    memo: Dict[tuple, object] = {}
    replacements: Dict[int, Transition] = {}
    for index, (transition, prov) in enumerate(
        zip(base.transitions, skeleton.provenance)
    ):
        if prov is None or changed.isdisjoint(prov.free_consts):
            continue
        key = (id(prov.spec), prov.env)
        rate = memo.get(key)
        if rate is None:
            env = dict(const_env)
            env.update(prov.env)
            rate = prov.spec.evaluate(env)
            memo[key] = rate
        replacements[index] = Transition(
            transition.source,
            transition.label,
            transition.target,
            apply_branch_fraction(rate, prov.fraction),
            transition.event,
            transition.weight,
        )
    return base.replacing(replacements)


def _selector_reference(selector):
    if callable(selector):
        return selector
    patterns = list(selector)
    return lambda label: matches_any(patterns, label)


def hide_reference(lts, selector) -> LTS:
    """The historical per-transition :func:`repro.lts.ops.hide`."""
    predicate = _selector_reference(selector)
    result = LTS(lts.initial)
    for state in lts.states():
        result.add_state()
        result.set_state_info(state, lts.state_info(state))
    for transition in lts.transitions:
        label = TAU if predicate(transition.label) else transition.label
        result.add_transition(
            transition.source, label, transition.target, transition.rate,
            transition.event, transition.weight,
        )
    return result


def restrict_reference(lts, selector, prune: bool = True) -> LTS:
    """The historical per-transition :func:`repro.lts.ops.restrict`."""
    predicate = _selector_reference(selector)
    result = LTS(lts.initial)
    for state in lts.states():
        result.add_state()
        result.set_state_info(state, lts.state_info(state))
    for transition in lts.transitions:
        if not predicate(transition.label):
            result.add_transition(
                transition.source,
                transition.label,
                transition.target,
                transition.rate,
                transition.event,
                transition.weight,
            )
    return restrict_to_reachable_reference(result) if prune else result


def restrict_to_reachable_reference(lts) -> LTS:
    """The historical per-transition
    :func:`repro.lts.reachability.restrict_to_reachable`."""
    order: List[int] = []
    index: Dict[int, int] = {}
    frontier = deque([lts.initial])
    index[lts.initial] = 0
    order.append(lts.initial)
    while frontier:
        state = frontier.popleft()
        for transition in lts.outgoing(state):
            if transition.target not in index:
                index[transition.target] = len(order)
                order.append(transition.target)
                frontier.append(transition.target)
    result = LTS(0)
    for old in order:
        new = result.add_state()
        result.set_state_info(new, lts.state_info(old))
    for old in order:
        for transition in lts.outgoing(old):
            if transition.target in index:
                result.add_transition(
                    index[old],
                    transition.label,
                    index[transition.target],
                    transition.rate,
                    transition.event,
                    transition.weight,
                )
    return result


def relabel_labels_reference(lts, mapping) -> LTS:
    """The historical per-transition :func:`repro.lts.ops.relabel`."""
    result = LTS(lts.initial)
    for state in lts.states():
        result.add_state()
        result.set_state_info(state, lts.state_info(state))
    for transition in lts.transitions:
        result.add_transition(
            transition.source,
            mapping(transition.label),
            transition.target,
            transition.rate,
            transition.event,
            transition.weight,
        )
    return result


def disjoint_union_reference(first, second):
    """The historical per-transition :func:`repro.lts.ops.disjoint_union`."""
    union = LTS(first.initial)
    for state in first.states():
        union.add_state()
        union.set_state_info(state, "A:" + first.state_info(state))
    offset = first.num_states
    for state in second.states():
        union.add_state()
        union.set_state_info(offset + state, "B:" + second.state_info(state))
    for transition in first.transitions:
        union.add_transition(
            transition.source, transition.label, transition.target,
            transition.rate, transition.event, transition.weight,
        )
    for transition in second.transitions:
        union.add_transition(
            transition.source + offset,
            transition.label,
            transition.target + offset,
            transition.rate,
            transition.event,
            transition.weight,
        )
    return union, first.initial, second.initial + offset


# -- the multi-row stream allocator and the protocols that ran on it ---------

#: Durations pre-drawn per (run, event type, distribution) buffer row.
#: Block size never changes the numbers drawn (a stream is the
#: concatenation of its blocks) — only the refill amortisation.
DEFAULT_BLOCK = 256


def normalize_stream_index(index):
    """Canonical form of one allocator row index.

    Plain replications use an ``int`` run index; splitting trajectories
    (:mod:`repro.sim.splitting`) use a ``(run, trajectory)`` pair that
    selects the namespaced substreams of
    :func:`repro.sim.random.splitting_event_generator`.  Both forms are
    pure stream coordinates: the same index draws the same numbers in
    every process and for any batch composition.
    """
    if isinstance(index, tuple):
        run, trajectory = index
        return (int(run), int(trajectory))
    return int(index)


class _Pool:
    """Buffered samples for one (event type, distribution) pair.

    ``buf[row]`` holds the next pre-drawn durations of run *row*;
    ``cur[row]`` is the consumption cursor (``block`` means exhausted —
    rows start exhausted so the first draw triggers a lazily seeded
    refill).
    """

    __slots__ = ("buf", "cur")

    def __init__(self, runs: int, block: int):
        self.buf = np.empty((runs, block), float)
        self.cur = np.full(runs, block, np.int64)


class EventStreamAllocator:
    """Per-(run, event-type) buffered substreams for a set of runs.

    *run_indices* are the absolute replication indices the rows map to:
    row ``i`` of every pool draws from streams derived from
    ``(seed, run_indices[i], name)``.  A parallel worker holding rows
    ``[8..15]`` therefore produces exactly the numbers the serial
    execution would for those runs.
    """

    def __init__(
        self,
        seed: int,
        run_indices: Sequence[int],
        block: int = DEFAULT_BLOCK,
    ):
        self.seed = int(seed)
        self.run_indices = [
            normalize_stream_index(i) for i in run_indices
        ]
        self.block = int(block)
        if self.block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self._gens: Dict[Tuple[int, str], np.random.Generator] = {}
        self._pools: Dict[Tuple[str, Distribution], _Pool] = {}
        self._branch: Optional[_Pool] = None

    @property
    def runs(self) -> int:
        """Number of rows (runs) this allocator serves."""
        return len(self.run_indices)

    # -- stream plumbing ---------------------------------------------------

    def _generator(self, row: int, name: str) -> np.random.Generator:
        """The (lazily created) generator behind one (row, name) stream."""
        key = (row, name)
        gen = self._gens.get(key)
        if gen is None:
            index = self.run_indices[row]
            if isinstance(index, tuple):
                run, trajectory = index
                gen = splitting_event_generator(
                    self.seed, run, trajectory, name
                )
            else:
                gen = event_generator(self.seed, index, name)
            self._gens[key] = gen
        return gen

    def _refill(
        self, pool: _Pool, row: int, name: str, distribution: Distribution
    ) -> None:
        pool.buf[row] = distribution.sample_block(
            self._generator(row, name), self.block
        )
        pool.cur[row] = 0

    def _pool(self, name: str, distribution: Distribution) -> _Pool:
        key = (name, distribution)
        pool = self._pools.get(key)
        if pool is None:
            pool = _Pool(self.runs, self.block)
            self._pools[key] = pool
        return pool

    # -- durations ---------------------------------------------------------

    def take_one(
        self, row: int, name: str, distribution: Distribution
    ) -> float:
        """The next duration of event type *name* in row *row*."""
        pool = self._pool(name, distribution)
        cur = pool.cur[row]
        if cur >= self.block:
            self._refill(pool, row, name, distribution)
            cur = 0
        value = pool.buf[row, cur]
        pool.cur[row] = cur + 1
        return float(value)

    # -- branch picks ------------------------------------------------------

    def _branch_pool(self) -> _Pool:
        if self._branch is None:
            self._branch = _Pool(self.runs, self.block)
        return self._branch

    def _refill_branch(self, pool: _Pool, row: int) -> None:
        pool.buf[row] = self._generator(row, BRANCH_STREAM).random(
            self.block
        )
        pool.cur[row] = 0

    def branch_one(self, row: int) -> float:
        """The next branch-pick uniform in ``[0, 1)`` of row *row*."""
        pool = self._branch_pool()
        cur = pool.cur[row]
        if cur >= self.block:
            self._refill_branch(pool, row)
            cur = 0
        value = pool.buf[row, cur]
        pool.cur[row] = cur + 1
        return float(value)

    # -- dynamic rows (splitting trees) ------------------------------------

    def add_row(self, index) -> int:
        """Append a row for *index*; returns the new row id.

        Grows every existing pool by one (exhausted) row, so the first
        draw lazily refills from the new index's generators.  Used by
        :mod:`repro.sim.splitting` when a resampling step clones a
        trajectory: the clone gets a fresh ``(run, trajectory)`` stream
        coordinate without touching any other row's cursor.
        """
        row = len(self.run_indices)
        self.run_indices.append(normalize_stream_index(index))
        for pool in self._pools.values():
            self._ensure_row(pool, row)
        if self._branch is not None:
            self._ensure_row(self._branch, row)
        for key in [k for k in self._gens if k[0] == row]:
            del self._gens[key]
        return row

    def truncate_rows(self, rows: int) -> None:
        """Drop every row at index >= *rows* (after compaction).

        Only the logical row count shrinks — pool buffers keep their
        capacity, and a recycled physical row is reset by
        :meth:`add_row` before its next draw.
        """
        if rows >= len(self.run_indices):
            return
        del self.run_indices[rows:]
        for key in [k for k in self._gens if k[0] >= rows]:
            del self._gens[key]

    def _ensure_row(self, pool: _Pool, row: int) -> None:
        """Make *row* usable in *pool*: grow capacity (amortised
        doubling), and mark the row exhausted so its first draw refills
        from the current index's generator."""
        have = pool.buf.shape[0]
        if row >= have:
            capacity = max(row + 1, 2 * have)
            buf = np.empty((capacity, self.block), float)
            buf[:have] = pool.buf
            cur = np.full(capacity, self.block, np.int64)
            cur[:have] = pool.cur
            pool.buf, pool.cur = buf, cur
        pool.cur[row] = self.block

    # -- per-run facade ----------------------------------------------------

    def run_view(self, row: int) -> "AllocatorRunView":
        """The sampler ``Simulator.run`` takes for one row."""
        return AllocatorRunView(self, row)


class AllocatorRunView:
    """One run's view of an allocator: the engine's sampler (the
    historical ``RunStreams(allocator, row)``).

    The trajectory depends only on the allocator parameters and the
    row's stream index.
    """

    __slots__ = ("allocator", "row")

    def __init__(self, allocator: EventStreamAllocator, row: int):
        self.allocator = allocator
        self.row = row

    def duration(self, name: str, distribution: Distribution) -> float:
        """Next duration of event type *name* in this run."""
        return self.allocator.take_one(self.row, name, distribution)

    def branch(self) -> float:
        """Next branch-pick uniform in ``[0, 1)`` for this run."""
        return self.allocator.branch_one(self.row)


def independent_allocator(
    seed: int, run_indices: Sequence[int], block: int = DEFAULT_BLOCK
) -> EventStreamAllocator:
    """An allocator decorrelated from ``seed`` (independent baseline).

    Used by benchmarks and tests that compare paired against independent
    runs at the same event budget: the offset keeps every stream disjoint
    from the CRN-paired ones with the original seed.
    """
    return EventStreamAllocator(seed ^ 0x5EEDC0DE, run_indices, block)


def paired_chunk_reference(
    shared: Any, chunk: Tuple[int, ...]
) -> List[Tuple[Dict[str, float], Dict[str, float]]]:
    """Run one chunk of paired replications (two model variants).

    With ``crn`` the two variants draw from allocators with *identical*
    stream parameters, so shared event types see the same durations run
    by run; otherwise the second variant gets decorrelated streams (the
    independent baseline the benchmarks compare against).
    """
    (
        lts_first, lts_second, measures, clock_semantics,
        run_length, warmup, seed, crn,
    ) = shared
    sim_first = Simulator(lts_first, measures, clock_semantics)
    sim_second = Simulator(lts_second, measures, clock_semantics)
    alloc_first = EventStreamAllocator(seed, chunk)
    alloc_second = (
        EventStreamAllocator(seed, chunk)
        if crn
        else independent_allocator(seed, chunk)
    )
    return [
        (
            sim_first.run(
                run_length, alloc_first.run_view(row), warmup
            ).measures,
            sim_second.run(
                run_length, alloc_second.run_view(row), warmup
            ).measures,
        )
        for row in range(len(chunk))
    ]


class _ReferenceTrajectory:
    """One live trajectory of a splitting tree.

    ``row`` is the trajectory's row in the tree's shared
    :class:`EventStreamAllocator` — the per-row cursors give every
    trajectory continuous substreams across segments.
    """

    __slots__ = ("ident", "weight", "state", "clocks", "row")

    def __init__(self, ident, weight, state, clocks, row):
        self.ident = ident
        self.weight = weight
        self.state = state
        self.clocks = clocks
        self.row = row


def _resample_reference(
    trajectories: List[_ReferenceTrajectory],
    table: Sequence[int],
    splits: int,
    coin: np.random.Generator,
    next_ident: int,
    run_index: int,
    allocator: EventStreamAllocator,
    memoryless: frozenset,
) -> Tuple[List[_ReferenceTrajectory], int, int, int]:
    """Fixed-effort resampling at one segment boundary.

    Bins trajectories by current level, then runs two deterministic
    passes:

    1. **Merge** every bin down to its cap — ``splits`` for rare bins,
       1 for the base bin (the event budget belongs to excursions, not
       to redundant copies of the typical behaviour a naive estimator
       already covers cheaply).  A merge is weight-conserving roulette
       between the two lightest members: the survivor is chosen with
       probability proportional to weight and takes the summed weight,
       so every weighted estimate stays unbiased.
    2. **Split** every non-empty rare bin up to ``splits`` members: the
       heaviest member halves its weight into a clone that inherits the
       checkpoint (state + residual clocks, with memoryless residuals
       redrawn — see :func:`repro.sim.splitting._memoryless_events`).

    Clones draw from *slot* streams: allocator rows are a pool of
    independent substreams keyed ``(run, slot)``, and a clone simply
    occupies a free slot (or grows the pool), continuing that slot's
    stream where its previous occupant left off.  A continuation of an
    i.i.d. stream is fresh randomness never observed before, so the
    clone's future is independent of everything else in the tree —
    statistically identical to a per-clone stream, but without paying
    a generator construction and a block refill for every short-lived
    clone.  Compaction keeps live slots exactly ``0..n-1``, so the
    allocator never holds more rows than the live population.

    All ordering is by weight then trajectory id, so the resample — and
    therefore the whole tree — is deterministic.
    """
    bins: Dict[int, List[_ReferenceTrajectory]] = {}
    for trajectory in trajectories:
        bins.setdefault(table[trajectory.state], []).append(trajectory)
    free_rows: List[int] = []
    spawned = merged = 0
    for level in sorted(bins):
        group = bins[level]
        cap = 1 if level == 0 else splits
        while len(group) > cap:
            group.sort(key=lambda t: (t.weight, t.ident))
            light, other = group[0], group[1]
            total = light.weight + other.weight
            pick = float(coin.random())
            keep = light if pick * total < light.weight else other
            lost = other if keep is light else light
            keep.weight = total
            free_rows.append(lost.row)
            group = [keep] + group[2:]
            merged += 1
        bins[level] = group
    free_rows.sort()
    for level in sorted(bins):
        if level == 0:
            continue
        group = bins[level]
        while 0 < len(group) < splits:
            group.sort(key=lambda t: (-t.weight, t.ident))
            parent = group[0]
            parent.weight /= 2.0
            if free_rows:
                row = free_rows.pop(0)
            else:
                # New slot keys are the spawning clone's ident — unique
                # for the tree's whole life, so a slot position freed by
                # truncation can never resurrect an earlier slot's
                # stream (which would replay observed randomness).
                row = allocator.add_row((run_index, next_ident))
            clone = _ReferenceTrajectory(
                next_ident,
                parent.weight,
                parent.state,
                {
                    name: value
                    for name, value in parent.clocks.items()
                    if name not in memoryless
                },
                row,
            )
            next_ident += 1
            group.append(clone)
            spawned += 1
    survivors = [t for level in sorted(bins) for t in bins[level]]
    survivors.sort(key=lambda t: t.ident)
    # Compact slots to 0..n-1: a survivor on a high slot adopts a free
    # low slot (continuing that slot's stream — same independence
    # argument as clone placement), and the tail is dropped.
    n = len(survivors)
    holes = sorted(row for row in free_rows if row < n)
    movers = sorted(
        (t for t in survivors if t.row >= n), key=lambda t: t.row
    )
    for hole, trajectory in zip(holes, movers):
        trajectory.row = hole
    allocator.truncate_rows(n)
    return survivors, spawned, merged, next_ident


def grow_tree_reference(
    simulator: Simulator, shared: Any, run_index: int
) -> Dict[str, Any]:
    (
        _, measures, _, run_length, warmup, seed,
        levels, splits, segments, table, memoryless,
    ) = shared
    names = [m.name for m in measures]

    if splits <= 1:
        # Degenerate configuration: no clone or merge can ever happen,
        # so skip the segment machinery entirely — one engine call,
        # naive replication on this run's streams.
        result = simulator.run(
            run_length,
            EventStreamAllocator(seed, [run_index]).run_view(0),
            warmup,
        )
        top = table[result.final_state]
        occupancy = [
            1.0 if level <= top else 0.0 for level in range(levels + 1)
        ]
        return {
            "measures": dict(result.measures),
            "occupancy": occupancy,
            "events": result.events_fired,
            "clones": 0,
            "merges": 0,
            "peak": 1,
        }

    segment_length = run_length / segments
    coin = splitting_event_generator(
        seed, run_index, 0, RESAMPLE_STREAM
    )
    allocator = EventStreamAllocator(seed, [(run_index, 0)])
    trajectories = [_ReferenceTrajectory(0, 1.0, None, None, 0)]
    next_ident = 1
    totals = {name: 0.0 for name in names}
    occupancy = [0.0] * (levels + 1)
    events = clones = merges = 0
    peak = 1
    for segment in range(segments):
        segment_warmup = warmup if segment == 0 else 0.0
        # Rows and live trajectories are one-to-one (_resample compacts
        # after every boundary); row order fixes the accumulation order.
        ordered = sorted(trajectories, key=lambda t: t.row)
        results = [
            simulator.run(
                segment_length,
                allocator.run_view(t.row),
                segment_warmup,
                start_state=t.state,
                start_clocks=t.clocks,
            )
            for t in ordered
        ]
        for trajectory, result in zip(ordered, results):
            trajectory.state = result.final_state
            trajectory.clocks = result.final_clocks
            events += result.events_fired
            for name in names:
                totals[name] += (
                    trajectory.weight * result.measures[name]
                )
            top = table[trajectory.state]
            for level in range(top + 1):
                occupancy[level] += trajectory.weight / segments
        if segment < segments - 1:
            trajectories, spawned, removed, next_ident = _resample_reference(
                trajectories, table, splits, coin, next_ident,
                run_index, allocator, memoryless,
            )
            clones += spawned
            merges += removed
            peak = max(peak, len(trajectories))
    return {
        # Each segment contributes 1/segments of the measured horizon,
        # so the per-tree estimate is the segment-mean of the weighted
        # time averages.
        "measures": {
            name: totals[name] / segments for name in names
        },
        "occupancy": occupancy,
        "events": events,
        "clones": clones,
        "merges": merges,
        "peak": peak,
    }
