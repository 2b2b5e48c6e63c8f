"""Pluggable sparse steady-state solver backends (docs/SOLVERS.md).

Every backend solves the singular system ``pi Q = 0, sum(pi) = 1`` on the
recurrent class of a CTMC, given the generator submatrix ``Q`` restricted
to that class.  Backends are registered by name:

* ``direct`` — sparse LU on the anchored system: the *most diagonally
  dominant* balance equation (the redundant one whose removal loses the
  least information) is replaced by the unit row ``pi[anchor] = 1``,
  which keeps the matrix fully sparse — no dense normalisation row — and
  the solution is renormalised afterwards;
* ``gmres`` — restarted GMRES with an ILU preconditioner on the same
  anchored system, for chains too large to factorise;
* ``sor`` — vectorized Gauss-Seidel/SOR sweeps:
  the lower-triangular part ``D + omega L`` of ``Q^T`` is factorised once
  and each sweep is one compiled triangular solve plus one sparse
  mat-vec, replacing the historical pure-Python per-row loop;
* ``power`` — power iteration on the uniformised DTMC.

``auto`` (the default) selects a backend from the chain's size and
sparsity (:func:`select_method`) and falls back along a deterministic
chain when the preferred backend fails; the environment variable
``REPRO_SOLVER`` overrides the default method for every solve that does
not name one explicitly (this is how the CI solver matrix forces each
backend through the full test suite).

**Matrix-free operands**: ``solve_steady_state`` also accepts a scipy
:class:`~scipy.sparse.linalg.LinearOperator` (e.g. the Kronecker fleet
operator of :mod:`repro.ctmc.kronecker`) exposing ``matvec``,
``rmatvec`` and ``diagonal()``.  ``gmres`` runs unpreconditioned on an
anchored operator and ``power`` iterates with one adjoint matvec per
step; ``direct`` and ``sor`` require a materialized matrix and raise
:class:`~repro.errors.SolverError` with
``reason="matrix_free_unsupported"`` — the ``auto``/fallback chain
*skips* them instead of crashing (docs/SOLVERS.md).

**Convergence contract** (shared by all iterative backends): an iterate
is converged only when *both*

* the per-entry relative change ``|pi_i - old_i| / max(|pi_i|, floor)``
  is below ``tolerance`` for every state — an absolute test would declare
  victory while tiny-probability states (exactly the DPM sleep states the
  paper's energy measures weight) still carry large relative error — and
* the residual ``||pi Q||_inf`` is below ``residual_tolerance`` scaled by
  the magnitude of ``Q`` (``max(1, max|q_ii|)``).

Every solve — direct ones included — reports a
:class:`SolverReport` carrying the final residual, the probability mass
clipped from negative round-off entries, and the iteration count; a
residual above tolerance raises :class:`~repro.errors.SolverError` with
the diagnostics attached instead of silently clipping the solution into
shape.

**Observability** (docs/OBSERVABILITY.md): every solve increments the
``repro_solver_*`` metrics on the default registry (solves, cumulative
iterations, residual and wall-clock histograms, fallbacks — all
labelled by backend).  Per-iteration residual/relative-change *time
series* are opt-in: pass ``track_iterations=True`` to get them attached
to the :class:`SolverReport`, or ``iteration_callback=...`` (any
``(iteration, residual, relative_change)`` callable, e.g.
:class:`repro.obs.IterationSeries`) to watch convergence live.  Neither
hook perturbs the numerics — observers only read values the iteration
already produced.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from ..errors import SolverError
from ..obs import metrics as obs_metrics
from ..obs import tracing

#: Environment variable forcing a default backend (see docs/SOLVERS.md).
SOLVER_ENV_VAR = "REPRO_SOLVER"

DEFAULT_TOLERANCE = 1e-12
DEFAULT_RESIDUAL_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 200_000

#: Entries below ``peak * _RELATIVE_FLOOR`` are compared on the floor
#: instead: below ~1e-14 of the peak a double holds no relative digits.
_RELATIVE_FLOOR = 1e-14

#: Negative round-off mass above this fraction of the total is an error,
#: not something to clip quietly.
_NEGATIVE_MASS_LIMIT = 1e-8


@dataclass(frozen=True)
class SolverOptions:
    """Shared convergence contract for every backend."""

    tolerance: float = DEFAULT_TOLERANCE
    residual_tolerance: float = DEFAULT_RESIDUAL_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self):
        if self.tolerance <= 0 or self.residual_tolerance <= 0:
            raise SolverError("solver tolerances must be positive")
        if self.max_iterations < 1:
            raise SolverError("max_iterations must be >= 1")


@dataclass(frozen=True)
class SolverReport:
    """Diagnostics attached to every steady-state solve."""

    method: str
    size: int
    nnz: int
    iterations: int
    #: ``||pi Q||_inf`` of the returned (normalised) distribution.
    residual: float
    #: Probability mass clipped from negative round-off entries,
    #: relative to the total mass — 0.0 for a clean solve.
    mass_defect: float
    #: Backends that failed before this one succeeded (``auto`` only).
    fallbacks: Tuple[str, ...] = ()
    #: Per-iteration convergence series — ``(iteration, residual,
    #: relative_change)`` triples, with ``None`` where a backend does
    #: not expose the quantity (GMRES reports its preconditioned
    #: residual norm and no relative change).  Empty unless the solve
    #: was made with ``track_iterations=True``: the series costs one
    #: tuple per iteration, so it stays opt-in while the aggregate
    #: metrics stay always-on.
    iteration_trace: Tuple[Tuple[int, float, Optional[float]], ...] = ()

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (sweep records, runtime stats).

        The opt-in iteration trace is included only when present, so
        journals and baselines written without tracking keep their
        historical shape.
        """
        out: Dict[str, object] = {
            "method": self.method,
            "size": self.size,
            "nnz": self.nnz,
            "iterations": self.iterations,
            "residual": self.residual,
            "mass_defect": self.mass_defect,
            "fallbacks": list(self.fallbacks),
        }
        if self.iteration_trace:
            out["iteration_trace"] = [
                {
                    "iteration": iteration,
                    "residual": residual,
                    "relative_change": relative_change,
                }
                for iteration, residual, relative_change
                in self.iteration_trace
            ]
        return out


@dataclass(frozen=True)
class SteadyStateSolution:
    """A steady-state distribution plus the report of how it was solved."""

    pi: np.ndarray
    report: SolverReport


class _Problem:
    """Shared per-solve view of the generator submatrix.

    Also the conduit of the opt-in per-iteration observation: the
    driver attaches ``track``/``callback`` before invoking a backend,
    and iterative backends report each iterate through
    :meth:`observe_iteration` — the observation happens *after* the
    iterate is computed, so it can never perturb the numerics.
    """

    def __init__(self, q):
        if sparse.issparse(q):
            self.matrix_free = False
            self.q = q.tocsr()
            self.a = self.q.transpose().tocsr()  # A x = (pi Q)^T
            self.nnz = int(self.q.nnz)
            self.diagonal = self.q.diagonal()
        else:
            # Matrix-free operand: any LinearOperator-like object with
            # matvec/rmatvec and an exact diagonal() (the contract the
            # KroneckerOperator implements, docs/SOLVERS.md).
            self.matrix_free = True
            self.q = q
            self.a = q.adjoint()
            self.nnz = int(getattr(q, "nnz_equivalent", 0))
            if not hasattr(q, "diagonal"):
                raise SolverError(
                    "matrix-free solves need the operator to expose "
                    "diagonal() (see repro.ctmc.kronecker)",
                    reason="matrix_free_unsupported",
                )
            self.diagonal = np.asarray(q.diagonal(), float)
        self.size = q.shape[0]
        #: Residuals are judged relative to the magnitude of Q.
        self.scale = max(1.0, float(np.abs(self.diagonal).max(initial=0.0)))
        #: Opt-in iteration observation (docs/OBSERVABILITY.md).
        self.track = False
        self.callback: Optional[Callable] = None
        self.iterations: List[Tuple[int, float, Optional[float]]] = []

    def residual(self, x: np.ndarray) -> float:
        """``||x Q||_inf`` for a (normalised) candidate distribution."""
        return float(np.abs(self.a @ x).max(initial=0.0))

    def observe_iteration(
        self,
        iteration: int,
        residual: float,
        relative_change: Optional[float],
    ) -> None:
        """Record one iteration for the trace and/or live callback."""
        if self.track:
            self.iterations.append((iteration, residual, relative_change))
        if self.callback is not None:
            self.callback(iteration, residual, relative_change)

    @property
    def observed(self) -> bool:
        """True when backends should bother reporting iterations."""
        return self.track or self.callback is not None

    def reset_observation(self) -> None:
        """Drop recorded iterations (between ``auto`` fallback tries)."""
        self.iterations = []


def _relative_change(x: np.ndarray, old: np.ndarray) -> float:
    """Worst per-entry relative change between successive iterates."""
    peak = float(np.abs(x).max(initial=0.0))
    if peak <= 0.0:
        return float("inf")
    floor = peak * _RELATIVE_FLOOR
    return float(np.max(np.abs(x - old) / np.maximum(np.abs(x), floor)))


def _converged(
    relative_change: float,
    residual: float,
    problem: _Problem,
    options: SolverOptions,
) -> bool:
    """The shared combined relative-change + residual test."""
    return (
        relative_change <= options.tolerance
        and residual <= options.residual_tolerance * problem.scale
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: A backend maps (problem, options) to (raw solution, iterations used).
SolverBackend = Callable[[_Problem, SolverOptions], Tuple[np.ndarray, int]]

_REGISTRY: Dict[str, SolverBackend] = {}

#: Tried in order when ``auto``'s preferred backend fails.
_FALLBACK_CHAIN = ("direct", "sor", "power")

#: Backends that factorise or slice the matrix and therefore cannot run
#: on a matrix-free operand; the fallback chain skips them (a *named*
#: request still reaches the backend and gets the typed error).
_MATERIALIZED_ONLY = frozenset({"direct", "sor"})

#: Deterministic fallback order for matrix-free operands.
_MATRIX_FREE_CHAIN = ("gmres", "power")


def _fallback_candidates(problem: "_Problem") -> Tuple[str, ...]:
    """The fallback chain the operand can actually run.

    Matrix-free operands *skip* the materializing backends instead of
    crashing into their typed rejection one by one.
    """
    return (
        _MATRIX_FREE_CHAIN if problem.matrix_free else _FALLBACK_CHAIN
    )


def _require_materialized(problem: "_Problem", method: str) -> None:
    """Typed rejection of matrix-free operands by materializing backends."""
    if problem.matrix_free:
        raise SolverError(
            f"the {method!r} backend requires a materialized sparse "
            f"generator; solve LinearOperator operands with gmres/power",
            method=method,
            reason="matrix_free_unsupported",
        )


def register_solver(name: str) -> Callable[[SolverBackend], SolverBackend]:
    """Decorator registering a steady-state backend under *name*."""

    def decorate(backend: SolverBackend) -> SolverBackend:
        _REGISTRY[name] = backend
        return backend

    return decorate


def unregister_solver(name: str) -> None:
    """Remove a registered backend (used by tests injecting fakes)."""
    _REGISTRY.pop(name, None)


def available_solvers() -> Tuple[str, ...]:
    """Canonical backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def solver_choices() -> Tuple[str, ...]:
    """Every accepted method name: ``auto``, the backends and the
    ``parametric`` sweep mode (docs/SOLVERS.md)."""
    return ("auto", *available_solvers(), "parametric")


def resolve_method(method: Optional[str] = None) -> str:
    """Normalise a method request: None -> $REPRO_SOLVER -> ``auto``.

    Unknown names raise :class:`~repro.errors.SolverError`.
    ``parametric`` is accepted even though it is not a per-chain
    backend: sweeps intercept it to build a rational-function solution
    (:mod:`repro.ctmc.parametric`), and any concrete solve reached with
    it falls back along :data:`_FALLBACK_CHAIN` deterministically.
    """
    if method is None:
        method = os.environ.get(SOLVER_ENV_VAR) or "auto"
    if method not in ("auto", "parametric") and method not in _REGISTRY:
        known = ", ".join(solver_choices())
        raise SolverError(
            f"unknown steady-state method {method!r} (use one of: {known})"
        )
    return method


def select_method(size: int, nnz: int, matrix_free: bool = False) -> str:
    """Automatic backend selection by chain size and sparsity.

    Small chains are factorised directly; mid-sized sparse chains go to
    the ILU-preconditioned Krylov solver; mid-sized chains with dense
    rows stay direct (the factorisation amortises better than Krylov
    iterations over dense mat-vecs); very large chains fall back to the
    low-memory vectorized Gauss-Seidel sweeps.

    With ``matrix_free=True`` (a :class:`LinearOperator` operand) only
    the backends that work from matvecs alone are eligible:
    unpreconditioned GMRES while restarts stay affordable, uniformized
    power iteration beyond.
    """
    if matrix_free:
        return "gmres" if size <= 50_000 else "power"
    if size <= 2_000:
        return "direct"
    average_degree = nnz / max(size, 1)
    if size <= 50_000:
        return "gmres" if average_degree <= 16.0 else "direct"
    return "sor"


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


def _anchor_row(problem: _Problem) -> int:
    """Index of the most diagonally dominant row of ``A = Q^T``.

    That balance equation is the safest one to sacrifice for the scale
    anchor: its information is best represented in the rest of the
    system, so replacing it perturbs the conditioning least.

    On a matrix-free operand the absolute row sums are not directly
    readable, but a generator's structure recovers them from one adjoint
    matvec: row ``i`` of ``A`` holds ``q_ii <= 0`` on the diagonal and
    the non-negative incoming rates off it, so ``|row_i|_1 = (A 1)_i -
    2 q_ii`` and the dominance ``2|q_ii| - |row_i|_1`` reduces to
    ``-(A 1)_i``.
    """
    if problem.matrix_free:
        column_sums = np.asarray(
            problem.a @ np.ones(problem.size), float
        ).reshape(-1)
        return int(np.argmax(-column_sums))
    absolute_row_sums = np.asarray(
        abs(problem.a).sum(axis=1)
    ).ravel()
    dominance = 2.0 * np.abs(problem.a.diagonal()) - absolute_row_sums
    return int(np.argmax(dominance))


def _anchored_system(
    problem: _Problem,
) -> Tuple[sparse.csr_matrix, np.ndarray, int]:
    """``A`` with the anchor equation replaced by ``x[anchor] = 1``.

    The replacement row is a *unit* row, not the dense all-ones
    normalisation row of textbook presentations: sparsity is fully
    preserved and the scale is fixed at the anchor state instead
    (renormalisation happens afterwards).  The dropped equation is
    linearly dependent on the remaining ones (the rows of ``Q^T`` sum to
    zero), so no information is lost, and the post-hoc residual check
    covers the ill-conditioned cases where floating point disagrees.
    """
    anchor = _anchor_row(problem)
    coo = problem.a.tocoo()
    keep = coo.row != anchor
    rows = np.append(coo.row[keep], anchor)
    cols = np.append(coo.col[keep], anchor)
    data = np.append(coo.data[keep], problem.scale)
    system = sparse.csr_matrix(
        (data, (rows, cols)), shape=problem.a.shape
    )
    rhs = np.zeros(problem.size)
    rhs[anchor] = problem.scale
    return system, rhs, anchor


def _anchored_operator(
    problem: _Problem,
) -> Tuple[sparse_linalg.LinearOperator, np.ndarray, int]:
    """Matrix-free counterpart of :func:`_anchored_system`.

    The anchored equation differs from the sparse path: the sacrificed
    balance row is replaced by the *normalisation* ``scale * sum(x) =
    scale`` rather than ``x[anchor] = 1``.  A dense row would ruin a
    sparse factorisation but costs nothing inside a matvec, and it pins
    the solution to the distribution itself (norm <= 1) instead of a
    vector normalised at one — typically tiny-probability — state.
    With the single-entry anchor the solution norm can reach ``1 /
    pi[anchor]``, parking the attainable true residual (rounding floor
    ``eps * ||A|| * ||x||``) far above any practical GMRES tolerance,
    so the solver grinds to maxiter on an iterate that was already
    converged; the normalisation row keeps the floor near ``eps *
    scale`` and restores an honest stopping test.
    """
    anchor = _anchor_row(problem)

    def matvec(x: np.ndarray) -> np.ndarray:
        y = np.asarray(problem.a @ x, float).reshape(-1).copy()
        y[anchor] = problem.scale * float(x.sum())
        return y

    system = sparse_linalg.LinearOperator(
        (problem.size, problem.size), matvec=matvec, dtype=float
    )
    rhs = np.zeros(problem.size)
    rhs[anchor] = problem.scale
    return system, rhs, anchor


@register_solver("direct")
def _solve_direct(
    problem: _Problem, options: SolverOptions
) -> Tuple[np.ndarray, int]:
    """Sparse LU factorisation of the anchored balance equations."""
    _require_materialized(problem, "direct")
    system, rhs, _ = _anchored_system(problem)
    try:
        solution = sparse_linalg.spsolve(system, rhs)
    except Exception as error:  # scipy raises various internal types
        raise SolverError(
            f"direct steady-state solve failed: {error}", method="direct"
        ) from error
    return solution, 1


@register_solver("gmres")
def _solve_gmres(
    problem: _Problem, options: SolverOptions
) -> Tuple[np.ndarray, int]:
    """ILU-preconditioned restarted GMRES on the anchored system.

    A matrix-free operand runs Jacobi-preconditioned on the anchored
    *operator* — incomplete factorisation needs the matrix entries, but
    the matrix-free contract guarantees an exact ``diagonal()``, and
    diagonal scaling is what turns the stiff anchored balance system
    into one restarted GMRES actually converges on (unpreconditioned it
    stalls orders of magnitude above tolerance).
    """
    preconditioner = None
    if problem.matrix_free:
        system, rhs, anchor = _anchored_operator(problem)
        jacobi = problem.diagonal.astype(float).copy()
        jacobi[anchor] = problem.scale
        # A generator diagonal is strictly negative off the anchor for
        # any irreducible chain; guard the degenerate zeros anyway.
        jacobi[jacobi == 0.0] = 1.0
        preconditioner = sparse_linalg.LinearOperator(
            system.shape, matvec=lambda x: x / jacobi, dtype=float
        )
    else:
        system, rhs, _ = _anchored_system(problem)
        try:
            ilu = sparse_linalg.spilu(
                system.tocsc(), drop_tol=1e-6, fill_factor=20.0
            )
            preconditioner = sparse_linalg.LinearOperator(
                system.shape, matvec=ilu.solve
            )
        except Exception:
            # Singular/zero pivots in the incomplete factorisation: run
            # unpreconditioned, the post-hoc residual check still
            # guards.
            preconditioner = None
    iterations = 0

    def count(pr_norm):
        nonlocal iterations
        iterations += 1
        if problem.observed:
            # GMRES exposes its preconditioned residual norm only; it
            # has no notion of a per-entry relative change.
            problem.observe_iteration(iterations, float(pr_norm), None)

    try:
        # Krylov depth 200: ILU-preconditioned (sparse) solves converge
        # long before the first restart, while the Jacobi-only
        # matrix-free solves need the deeper subspace — stiff fleet
        # operators stall indefinitely under restart-64 but converge in
        # a few thousand matvecs at 200.
        restart = min(problem.size, 200)
        solution, info = sparse_linalg.gmres(
            system,
            rhs,
            rtol=min(options.tolerance, 1e-10),
            atol=0.0,
            restart=restart,
            # scipy counts restart *cycles* here: divide so the option
            # bounds total inner iterations (matvecs), keeping failing
            # matrix-free solves from burning restart * max_iterations
            # operator applications before falling back.
            maxiter=max(1, -(-options.max_iterations // restart)),
            M=preconditioner,
            callback=count,
            callback_type="pr_norm",
        )
    except Exception as error:
        raise SolverError(
            f"GMRES steady-state solve failed: {error}", method="gmres"
        ) from error
    if info < 0:
        raise SolverError(
            f"GMRES received an illegal input (info={info})",
            method="gmres",
        )
    if info > 0:
        # The inner stopping rule works on the *anchored* system, whose
        # solution norm can dwarf the normalised distribution (the
        # anchor may be a tiny-probability state), making the requested
        # rtol unattainable in absolute terms.  What matters is the
        # residual of the normalised pi — accept the stalled iterate if
        # it passes that gate, otherwise report the failure.
        total = solution.sum()
        normalised = solution / total if total > 0.0 else solution
        residual = problem.residual(normalised)
        if not (
            total > 0.0
            and np.all(np.isfinite(solution))
            and residual <= options.residual_tolerance * problem.scale
        ):
            raise SolverError(
                f"GMRES did not converge within {info} iterations",
                method="gmres",
                residual=residual,
                iterations=iterations,
            )
    return solution, max(iterations, 1)


def _sor_sweep_operator(
    problem: _Problem, omega: float
) -> Tuple[sparse_linalg.SuperLU, sparse.csr_matrix, Optional[np.ndarray]]:
    """Factorise the SOR sweep ``(D/omega + L) x_new = rhs(x_old)``.

    The sweep matrix is lower triangular and constant across iterations,
    so it is factorised once (with natural ordering the LU of a
    triangular matrix is itself) and every sweep costs one sparse
    mat-vec plus one compiled triangular solve — the vectorized
    replacement of the historical O(iterations x nnz) pure-Python loop.
    """
    diagonal = problem.a.diagonal()
    if np.any(diagonal == 0.0):
        raise SolverError(
            "Gauss-Seidel needs non-zero diagonal entries "
            "(absorbing state?)",
            method="sor",
        )
    lower = sparse.tril(problem.a, k=0, format="csc")
    if omega != 1.0:
        lower = (
            lower + sparse.diags(diagonal * (1.0 / omega - 1.0))
        ).tocsc()
    upper = sparse.triu(problem.a, k=1, format="csr")
    relaxation = (
        diagonal * (1.0 / omega - 1.0) if omega != 1.0 else None
    )
    try:
        factor = sparse_linalg.splu(lower, permc_spec="NATURAL")
    except Exception as error:
        raise SolverError(
            f"Gauss-Seidel sweep factorisation failed: {error}",
            method="sor",
        ) from error
    return factor, upper, relaxation


@register_solver("sor")
def _solve_sor(
    problem: _Problem, options: SolverOptions, omega: float = 1.0
) -> Tuple[np.ndarray, int]:
    """Vectorized Gauss-Seidel (``omega=1``) / SOR sweeps on ``Q^T``.

    Sweeps in state order with in-place updates, exactly like the
    classic per-row formulation — the fixed point is identical — but
    each sweep runs in compiled sparse kernels.
    """
    _require_materialized(problem, "sor")
    factor, upper, relaxation = _sor_sweep_operator(problem, omega)
    x = np.full(problem.size, 1.0 / problem.size)
    for iteration in range(1, options.max_iterations + 1):
        old = x
        rhs = -(upper @ x)
        if relaxation is not None:
            rhs += relaxation * x
        x = factor.solve(rhs)
        total = x.sum()
        if not np.isfinite(total) or total <= 0.0:
            raise SolverError(
                "Gauss-Seidel diverged to a non-positive vector",
                method="sor",
                iterations=iteration,
            )
        x /= total
        residual = problem.residual(x)
        change = _relative_change(x, old)
        if problem.observed:
            problem.observe_iteration(iteration, residual, change)
        if _converged(change, residual, problem, options):
            return x, iteration
    raise SolverError(
        f"Gauss-Seidel did not converge within "
        f"{options.max_iterations} iterations",
        method="sor",
        iterations=options.max_iterations,
        residual=problem.residual(x),
    )


@register_solver("power")
def _solve_power(
    problem: _Problem, options: SolverOptions
) -> Tuple[np.ndarray, int]:
    """Power iteration on the uniformised DTMC of the recurrent class.

    On a matrix-free operand each step is ``x + (Q^T x) / Lambda`` — the
    same uniformised update (``P^T = I + Q^T / Lambda``) written as one
    adjoint matvec, since the off-diagonal cannot be sliced out of an
    operator.
    """
    exit_rates = -problem.diagonal
    uniformization_rate = float(exit_rates.max(initial=0.0)) * 1.02
    if uniformization_rate <= 0:
        raise SolverError(
            "power iteration needs a positive exit rate", method="power"
        )
    transition_t = stay = None
    if not problem.matrix_free:
        off_diagonal = problem.q - sparse.diags(problem.diagonal)
        transition_t = (
            (off_diagonal / uniformization_rate).transpose().tocsr()
        )
        stay = 1.0 - exit_rates / uniformization_rate
    x = np.full(problem.size, 1.0 / problem.size)
    for iteration in range(1, options.max_iterations + 1):
        if transition_t is None:
            updated = x + np.asarray(
                problem.a @ x, float
            ).reshape(-1) / uniformization_rate
        else:
            updated = transition_t @ x + stay * x
        total = updated.sum()
        if not np.isfinite(total) or total <= 0.0:
            raise SolverError(
                "power iteration diverged to a non-positive vector",
                method="power",
                iterations=iteration,
            )
        updated /= total
        residual = problem.residual(updated)
        change = _relative_change(updated, x)
        if problem.observed:
            problem.observe_iteration(iteration, residual, change)
        if _converged(change, residual, problem, options):
            return updated, iteration
        x = updated
    raise SolverError(
        f"power iteration did not converge within "
        f"{options.max_iterations} iterations",
        method="power",
        iterations=options.max_iterations,
        residual=problem.residual(x),
    )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _finalize(
    raw: np.ndarray,
    iterations: int,
    method: str,
    problem: _Problem,
    options: SolverOptions,
    fallbacks: Tuple[str, ...],
) -> SteadyStateSolution:
    """Validate a backend's raw output and attach its report.

    Raises :class:`~repro.errors.SolverError` (with diagnostics) on
    non-finite values, significant negative mass, a zero vector, or a
    final residual above tolerance — nothing is clipped silently.
    """
    raw = np.asarray(raw, float)
    if raw.shape != (problem.size,) or np.any(~np.isfinite(raw)):
        raise SolverError(
            "steady-state solve produced non-finite values",
            method=method,
            iterations=iterations,
        )
    magnitude = float(np.abs(raw).sum())
    if magnitude <= 0.0:
        raise SolverError(
            "steady-state solve produced a zero vector",
            method=method,
            iterations=iterations,
        )
    negative_mass = float(-raw[raw < 0.0].sum())
    if negative_mass > _NEGATIVE_MASS_LIMIT * magnitude:
        raise SolverError(
            f"steady-state solve produced significant negative "
            f"probability mass ({negative_mass / magnitude:.3e} of the "
            f"total); the chain is too ill-conditioned for this backend",
            method=method,
            iterations=iterations,
        )
    pi = np.maximum(raw, 0.0)
    total = pi.sum()
    if total <= 0.0:
        raise SolverError(
            "steady-state solve produced a zero vector",
            method=method,
            iterations=iterations,
        )
    pi = pi / total
    residual = problem.residual(pi)
    if residual > options.residual_tolerance * problem.scale:
        raise SolverError(
            f"steady-state residual ||pi Q||_inf = {residual:.3e} exceeds "
            f"tolerance {options.residual_tolerance:.1e} * "
            f"{problem.scale:.3g}",
            method=method,
            residual=residual,
            iterations=iterations,
        )
    report = SolverReport(
        method=method,
        size=problem.size,
        nnz=problem.nnz,
        iterations=iterations,
        residual=residual,
        mass_defect=negative_mass / magnitude,
        fallbacks=fallbacks,
        iteration_trace=tuple(problem.iterations) if problem.track else (),
    )
    return SteadyStateSolution(pi, report)


def _record_solve_metrics(
    report: SolverReport, elapsed: float
) -> None:
    """Always-on aggregate metrics (and a trace span) per solve.

    Every successful solve funnels through here regardless of which
    entry point initiated it, so this is also where the causal trace
    gets its ``solve`` span — nested under whatever span is current
    (a worker's execute span, or the phase span on the serial path).
    """
    tracing.record_span(
        "solve",
        elapsed,
        method=report.method,
        iterations=report.iterations,
        residual=report.residual,
        fallbacks=list(report.fallbacks),
    )
    registry = obs_metrics.get_registry()
    if not registry.enabled:
        return
    labels = {"method": report.method}
    obs_metrics.SOLVER_SOLVES.on(registry).labels(**labels).inc()
    obs_metrics.SOLVER_ITERATIONS.on(registry).labels(**labels).inc(
        report.iterations
    )
    obs_metrics.SOLVER_RESIDUAL.on(registry).labels(**labels).observe(
        report.residual
    )
    obs_metrics.SOLVER_SECONDS.on(registry).labels(**labels).observe(
        elapsed
    )
    for fallback in report.fallbacks:
        obs_metrics.SOLVER_FALLBACKS.on(registry).labels(
            method=fallback
        ).inc()


def solve_steady_state(
    q,
    method: Optional[str] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    residual_tolerance: float = DEFAULT_RESIDUAL_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    track_iterations: bool = False,
    iteration_callback: Optional[Callable] = None,
) -> SteadyStateSolution:
    """Solve ``pi Q = 0, sum(pi) = 1`` on an irreducible generator.

    *q* is a sparse generator submatrix, or a matrix-free
    :class:`~scipy.sparse.linalg.LinearOperator` with ``rmatvec`` and
    ``diagonal()`` (e.g. :class:`repro.ctmc.kronecker.KroneckerOperator`
    — the flat matrix is never formed).

    *method* is a registry name, ``auto`` or ``None``
    (= ``$REPRO_SOLVER`` or ``auto``).  ``auto`` selects by size and
    sparsity and falls back along :data:`_FALLBACK_CHAIN` when the
    preferred backend fails (matrix-free operands skip the
    materializing ``direct``/``sor`` backends); a named method never
    falls back.

    With ``track_iterations=True`` the per-iteration convergence series
    is attached to the report (``SolverReport.iteration_trace``);
    *iteration_callback* — any ``(iteration, residual,
    relative_change)`` callable — is invoked live instead/as well.
    Neither affects the computed distribution.
    """
    name = resolve_method(method)
    options = SolverOptions(tolerance, residual_tolerance, max_iterations)
    problem = _Problem(q)
    problem.track = track_iterations
    problem.callback = iteration_callback
    started = time.perf_counter()
    if name == "parametric":
        # A concrete per-chain solve was requested with the parametric
        # method: this chain has no prebuilt parametric solution (no
        # cached rate provenance, a structural parameter, or the
        # elimination fell back).  Solve along the deterministic
        # fallback chain and record the parametric miss in the report,
        # so results stay reproducible point by point.
        registry = obs_metrics.get_registry()
        if registry.enabled:
            obs_metrics.PARAMETRIC_FALLBACKS.on(registry).labels(
                reason="concrete"
            ).inc()
        failed = ["parametric"]
        last_error: Optional[SolverError] = None
        for candidate in _fallback_candidates(problem):
            problem.reset_observation()
            try:
                raw, iterations = _REGISTRY[candidate](problem, options)
                solution = _finalize(
                    raw, iterations, candidate, problem, options,
                    tuple(failed),
                )
                _record_solve_metrics(
                    solution.report, time.perf_counter() - started
                )
                return solution
            except SolverError as error:
                failed.append(candidate)
                last_error = error
        raise SolverError(
            f"every backend failed on this chain "
            f"(tried {', '.join(failed)}); last error: {last_error}"
        ) from last_error
    if name != "auto":
        raw, iterations = _REGISTRY[name](problem, options)
        solution = _finalize(raw, iterations, name, problem, options, ())
        _record_solve_metrics(
            solution.report, time.perf_counter() - started
        )
        return solution
    preferred = select_method(
        problem.size, problem.nnz, matrix_free=problem.matrix_free
    )
    candidates = [preferred]
    candidates.extend(
        fallback
        for fallback in _fallback_candidates(problem)
        if fallback not in candidates
    )
    failed: list = []
    last_error: Optional[SolverError] = None
    for candidate in candidates:
        problem.reset_observation()
        try:
            raw, iterations = _REGISTRY[candidate](problem, options)
            solution = _finalize(
                raw, iterations, candidate, problem, options,
                tuple(failed),
            )
            _record_solve_metrics(
                solution.report, time.perf_counter() - started
            )
            return solution
        except SolverError as error:
            failed.append(candidate)
            last_error = error
    raise SolverError(
        f"every backend failed on this chain "
        f"(tried {', '.join(failed)}); last error: {last_error}"
    ) from last_error
