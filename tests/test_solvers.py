"""Tests of the pluggable steady-state solver registry (docs/SOLVERS.md).

Covers the acceptance criteria of the solver backend work: all backends
agree on both case-study chains to tight inf-norm tolerance with small
reported residuals, the vectorized Gauss-Seidel reaches the identical
fixed point as the historical pure-Python sweep, the combined
relative-change + residual convergence test holds on a chain whose
stationary mass spans ~8 orders of magnitude, and every failure path
raises :class:`SolverError` with diagnostics attached.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.core.methodology import IncrementalMethodology
from repro.core.sweep import summarize_solver_records
from repro.ctmc import CTMC, build_ctmc
from repro.ctmc import solvers as solvers_module
from repro.ctmc.solvers import (
    SOLVER_ENV_VAR,
    available_solvers,
    gauss_seidel_reference,
    resolve_method,
    select_method,
    solve_steady_state,
    solver_choices,
)
from repro.ctmc.steady_state import (
    _submatrix,
    steady_state,
    steady_state_solution,
)
from repro.errors import SolverError

ALL_BACKENDS = available_solvers()
ITERATIVE_BACKENDS = ("gmres", "power", "sor")

#: Acceptance gates: backend agreement and per-solve residual.
AGREEMENT_TOLERANCE = 1e-9
RESIDUAL_GATE = 1e-8


def birth_death_generator(rates_up, rates_down) -> sparse.csr_matrix:
    """Irreducible birth-death generator submatrix (no CTMC wrapper)."""
    n = len(rates_up) + 1
    rows, cols, data = [], [], []
    diagonal = np.zeros(n)
    for i, rate in enumerate(rates_up):
        rows.append(i)
        cols.append(i + 1)
        data.append(rate)
        diagonal[i] -= rate
    for i, rate in enumerate(rates_down):
        rows.append(i + 1)
        cols.append(i)
        data.append(rate)
        diagonal[i + 1] -= rate
    for i in range(n):
        rows.append(i)
        cols.append(i)
        data.append(diagonal[i])
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


def recurrent_submatrix(ctmc: CTMC) -> sparse.csr_matrix:
    """Generator restricted to the (unique) recurrent class."""
    bsccs = ctmc.bottom_strongly_connected_components()
    assert len(bsccs) == 1
    recurrent = sorted(bsccs[0])
    index = {state: i for i, state in enumerate(recurrent)}
    return _submatrix(ctmc, recurrent, index)


@pytest.fixture(scope="module")
def rpc_ctmc(rpc_family):
    methodology = IncrementalMethodology(rpc_family)
    return build_ctmc(methodology.build_lts("markovian", "dpm"))


@pytest.fixture(scope="module")
def streaming_ctmc(streaming_family):
    methodology = IncrementalMethodology(streaming_family)
    return build_ctmc(methodology.build_lts("markovian", "dpm"))


@pytest.fixture(scope="module", params=["rpc", "streaming"])
def case_ctmc(request):
    return request.getfixturevalue(f"{request.param}_ctmc")


class TestBackendAgreement:
    """Every backend solves both case-study chains to the same answer."""

    def test_backends_agree_with_small_residuals(self, case_ctmc):
        solutions = {
            method: steady_state_solution(case_ctmc, method=method)
            for method in ALL_BACKENDS
        }
        for method, solution in solutions.items():
            assert solution.report.method == method
            assert solution.report.residual < RESIDUAL_GATE
            assert solution.pi.sum() == pytest.approx(1.0)
            assert (solution.pi >= 0).all()
        reference = solutions["direct"].pi
        for method, solution in solutions.items():
            gap = float(np.abs(solution.pi - reference).max())
            assert gap < AGREEMENT_TOLERANCE, (
                f"{method} disagrees with direct by {gap:.3e}"
            )


class TestVectorizedGaussSeidelPin:
    """The vectorized sweeps reach the historical sweep's fixed point."""

    def test_identical_fixed_point_on_case_studies(self, case_ctmc):
        sub_q = recurrent_submatrix(case_ctmc)
        reference = gauss_seidel_reference(sub_q, tolerance=1e-12)
        vectorized = solve_steady_state(sub_q, method="sor")
        gap = float(np.abs(vectorized.pi - reference).max())
        assert gap < AGREEMENT_TOLERANCE


class TestWideMagnitudeConvergence:
    """Regression for the absolute-tolerance convergence bug.

    On a chain whose stationary probabilities span ~8 orders of
    magnitude, an absolute-change test declares victory while the tiny
    states still carry large *relative* error.  The combined
    relative-change + residual contract keeps them accurate — these are
    exactly the DPM sleep states the paper's energy measures weight.
    """

    RATE_UP, RATE_DOWN, LEVELS = 1.0, 100.0, 4

    def closed_form(self):
        weights = np.array(
            [(self.RATE_UP / self.RATE_DOWN) ** n
             for n in range(self.LEVELS + 1)]
        )
        return weights / weights.sum()

    @pytest.mark.parametrize("method", ALL_BACKENDS)
    def test_tiny_states_converge_relatively(self, method):
        q = birth_death_generator(
            [self.RATE_UP] * self.LEVELS, [self.RATE_DOWN] * self.LEVELS
        )
        expected = self.closed_form()
        assert expected.min() < 1e-7  # the spread the bug needs
        solution = solve_steady_state(q, method=method)
        relative_error = np.abs(solution.pi - expected) / expected
        assert float(relative_error.max()) < 1e-6
        assert solution.report.residual < RESIDUAL_GATE


class TestFailurePaths:
    @pytest.mark.parametrize("method", ALL_BACKENDS)
    def test_multiple_bsccs_rejected(self, method):
        ctmc = CTMC(3)
        ctmc.add_transition(0, 1, 1.0)
        ctmc.add_transition(0, 2, 1.0)
        with pytest.raises(SolverError, match="bottom strongly connected"):
            steady_state(ctmc, method=method)

    @pytest.mark.parametrize("method", ITERATIVE_BACKENDS)
    def test_max_iterations_exhaustion_carries_diagnostics(self, method):
        q = birth_death_generator([1.0] * 400, [1.3] * 400)
        with pytest.raises(SolverError) as excinfo:
            solve_steady_state(q, method=method, max_iterations=1)
        error = excinfo.value
        assert "did not converge" in str(error)
        assert error.method == method
        assert error.iterations == 1

    @pytest.mark.parametrize(
        "raw, message",
        [
            (lambda size: np.full(size, np.nan), "non-finite"),
            (lambda size: np.zeros(size), "zero vector"),
            (
                lambda size: np.where(np.arange(size) % 2 == 0, 1.0, -1.0),
                "negative probability mass",
            ),
        ],
    )
    def test_invalid_backend_output_rejected(self, monkeypatch, raw, message):
        def broken(problem, options):
            return raw(problem.size), 1

        monkeypatch.setitem(solvers_module._REGISTRY, "broken", broken)
        q = birth_death_generator([1.0, 2.0], [3.0, 1.0])
        with pytest.raises(SolverError, match=message):
            solve_steady_state(q, method="broken")

    def test_residual_above_tolerance_rejected_not_clipped(self, monkeypatch):
        def sloppy(problem, options):
            # Uniform is NOT stationary for an asymmetric chain: a
            # backend returning it must be rejected by the post-hoc
            # residual check, not normalised into shape.
            return np.full(problem.size, 1.0 / problem.size), 7

        monkeypatch.setitem(solvers_module._REGISTRY, "sloppy", sloppy)
        q = birth_death_generator([1.0, 2.0], [3.0, 1.0])
        with pytest.raises(SolverError, match="residual") as excinfo:
            solve_steady_state(q, method="sloppy")
        assert excinfo.value.residual is not None
        assert excinfo.value.iterations == 7

    def test_unknown_method_lists_choices(self):
        with pytest.raises(SolverError, match="unknown steady-state method"):
            resolve_method("magic")

    def test_solver_error_message_embeds_diagnostics(self):
        error = SolverError(
            "boom", method="sor", residual=1.25e-6, iterations=42
        )
        assert "method=sor" in str(error)
        assert "1.250e-06" in str(error)
        assert "iterations=42" in str(error)


class TestRegistryAndSelection:
    def test_solver_choices_cover_backends_and_aliases(self):
        choices = solver_choices()
        assert "auto" in choices
        for backend in ("direct", "gmres", "power", "sor"):
            assert backend in choices

    def test_resolve_method_defaults_to_auto(self, monkeypatch):
        monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
        assert resolve_method(None) == "auto"

    def test_resolve_method_reads_environment(self, monkeypatch):
        monkeypatch.setenv(SOLVER_ENV_VAR, "power")
        assert resolve_method(None) == "power"
        # An explicit method always wins over the environment.
        assert resolve_method("sor") == "sor"

    def test_resolve_method_rejects_bad_environment(self, monkeypatch):
        monkeypatch.setenv(SOLVER_ENV_VAR, "nonsense")
        with pytest.raises(SolverError, match="unknown steady-state"):
            resolve_method(None)

    def test_select_method_heuristics(self):
        assert select_method(100, 500) == "direct"
        assert select_method(10_000, 40_000) == "gmres"
        assert select_method(10_000, 500_000) == "direct"
        assert select_method(100_000, 400_000) == "sor"

    def test_auto_falls_back_when_preferred_backend_fails(
        self, monkeypatch
    ):
        def failing(problem, options):
            raise SolverError("injected failure", method="direct")

        monkeypatch.setitem(solvers_module._REGISTRY, "direct", failing)
        monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
        q = birth_death_generator([1.0, 2.0], [3.0, 1.0])
        solution = solve_steady_state(q, method="auto")
        assert solution.report.method == "sor"
        assert solution.report.fallbacks == ("direct",)

    def test_named_method_never_falls_back(self, monkeypatch):
        def failing(problem, options):
            raise SolverError("injected failure", method="direct")

        monkeypatch.setitem(solvers_module._REGISTRY, "direct", failing)
        q = birth_death_generator([1.0, 2.0], [3.0, 1.0])
        with pytest.raises(SolverError, match="injected failure"):
            solve_steady_state(q, method="direct")


class TestReporting:
    def test_report_round_trips_as_dict(self, rpc_ctmc):
        solution = steady_state_solution(rpc_ctmc, method="direct")
        record = solution.report.as_dict()
        assert record["method"] == "direct"
        assert record["size"] > 0
        assert record["nnz"] > 0
        assert record["iterations"] == 1
        assert record["residual"] < RESIDUAL_GATE
        assert record["mass_defect"] >= 0.0
        assert record["fallbacks"] == []

    def test_single_recurrent_state_is_closed_form(self):
        ctmc = CTMC(2)
        ctmc.add_transition(0, 1, 1.0)
        solution = steady_state_solution(ctmc)
        assert solution.pi == pytest.approx([0.0, 1.0])
        assert solution.report.method == "closed_form"
        assert solution.report.residual == 0.0

    def test_methodology_records_every_solve(self, rpc_family):
        methodology = IncrementalMethodology(rpc_family, solver="direct")
        methodology.solve_markovian()
        methodology.sweep_markovian("shutdown_timeout", [0.5, 2.0])
        assert len(methodology.solver_records) == 3
        stats = methodology.runtime_stats()
        assert stats["solver"]["points"] == 3
        assert stats["solver"]["backends"] == {"direct": 3}
        assert stats["solver"]["max_residual"] < RESIDUAL_GATE

    def test_summarize_solver_records(self):
        records = [
            {"method": "direct", "iterations": 1, "residual": 1e-15,
             "mass_defect": 0.0},
            {"method": "sor", "iterations": 40, "residual": 3e-12,
             "mass_defect": 1e-16},
        ]
        summary = summarize_solver_records(records)
        assert summary["points"] == 2
        assert summary["backends"] == {"direct": 1, "sor": 1}
        assert summary["max_residual"] == 3e-12
        assert summary["max_mass_defect"] == 1e-16
        assert summary["total_iterations"] == 41

    def test_environment_variable_steers_default_solves(
        self, monkeypatch, rpc_ctmc
    ):
        monkeypatch.setenv(SOLVER_ENV_VAR, "power")
        solution = steady_state_solution(rpc_ctmc)
        assert solution.report.method == "power"
        assert solution.report.iterations > 1
