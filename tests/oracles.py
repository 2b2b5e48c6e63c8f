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
"""

import numpy as np
from scipy import sparse

from repro.aemilia.rates import ExpRate
from repro.ctmc.build import _check_timed, _VanishingResolver, classify_states
from repro.ctmc.chain import CTMC
from repro.ctmc.solvers import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE
from repro.errors import MarkovianError, SolverError
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
