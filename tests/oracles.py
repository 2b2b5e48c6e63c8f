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

:class:`ReferenceStateSpaceGenerator` is the historical per-global-state
move classification, verbatim: for every reachable state it re-derives
each local move's direction and attachments, builds fresh global moves
and re-renders every instance's description.
``tests/test_generation_tables.py`` pins the per-local-state move tables
of :class:`~repro.aemilia.semantics.StateSpaceGenerator` to it with
``==``.
"""

import numpy as np
from scipy import sparse

from typing import List, Optional, Tuple

from repro.aemilia.elemtypes import Direction
from repro.aemilia.rates import ExpRate
from repro.aemilia.semantics import StateSpaceGenerator, _GlobalMove
from repro.ctmc.build import _check_timed, _VanishingResolver, classify_states
from repro.ctmc.chain import CTMC
from repro.ctmc.solvers import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE
from repro.errors import MarkovianError, SolverError
from repro.lts.labels import local_label
from repro.lts.lts import LTS


def build_ctmc_reference(lts: LTS) -> CTMC:
    """Turn the rate-labelled LTS of a Markovian model into a CTMC."""
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

    ctmc = CTMC(len(tangible), initial)
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
