"""Tests of the parametric steady-state fast path (docs/SOLVERS.md).

Acceptance contract of the parametric work: a sweep solved through one
symbolic elimination must agree with per-point ``direct`` solves to
1e-9 at every point, dense ``auto`` sweeps engage the fast path while
the paper's coarse figures keep their bit-identical per-point solves,
an explicit ``parametric`` request degrades to the deterministic
fallback chain whenever elimination is impossible, and the runtime
trimmings (workers, checkpoints, cache stats, solver records) treat a
parametric sweep exactly like a concrete one.
"""

import random

import numpy as np
import pytest
from scipy import sparse

from repro.core.methodology import (
    PARAMETRIC_AUTO_THRESHOLD,
    IncrementalMethodology,
)
from repro.ctmc import ParametricOptions, build_parametric_solution
from repro.ctmc.parametric import dependent_consts
from repro.ctmc.solvers import (
    SOLVER_ENV_VAR,
    available_solvers,
    resolve_method,
    solve_steady_state,
    solver_choices,
)
from repro.errors import CheckpointError, ParametricError, SolverError
from repro.runtime import StructuralStateSpaceCache, SweepCheckpoint

#: (parameter, low, high) per case — the ranges the paper's figures sweep.
SWEEP_RANGES = {
    "rpc": ("shutdown_timeout", 0.5, 25.0),
    "streaming": ("awake_period", 10.0, 100.0),
}

#: Per-point agreement gate between parametric and direct solves.
AGREEMENT_TOLERANCE = 1e-9


@pytest.fixture
def families(rpc_family, streaming_family):
    return {"rpc": rpc_family, "streaming": streaming_family}


def _random_points(case, count=5):
    """Deterministically seeded 'random' sweep points inside the range."""
    parameter, low, high = SWEEP_RANGES[case]
    rng = random.Random(f"parametric:{case}")
    return parameter, [
        round(rng.uniform(low, high), 3) for _ in range(count)
    ]


def _assert_series_close(parametric, direct):
    assert set(parametric) == set(direct)
    for name in direct:
        for ours, reference in zip(parametric[name], direct[name]):
            scale = max(1.0, abs(reference))
            assert abs(ours - reference) <= AGREEMENT_TOLERANCE * scale, (
                f"{name}: parametric {ours!r} vs direct {reference!r}"
            )


def birth_death_generator(rates_up, rates_down) -> sparse.csr_matrix:
    """Tiny irreducible generator submatrix for registry-level tests."""
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


@pytest.mark.parametrize("case", sorted(SWEEP_RANGES))
class TestParametricVsDirect:
    """The differential oracle: one elimination vs per-point solves."""

    def test_agrees_at_random_sweep_points(self, case, families):
        parameter, points = _random_points(case)
        parametric_methodology = IncrementalMethodology(families[case])
        parametric = parametric_methodology.sweep_markovian(
            parameter, points, method="parametric"
        )
        direct = IncrementalMethodology(families[case]).sweep_markovian(
            parameter, points, method="direct"
        )
        _assert_series_close(parametric, direct)
        # Non-vacuous: every point really went through the fast path,
        # with the validated fit error inside the residual contract.
        records = parametric_methodology.solver_records
        assert len(records) == len(points)
        for record in records:
            assert record["method"] == "parametric"
            assert record["iterations"] == 0
            assert record["residual"] < 1e-8
            assert record["fallbacks"] == []

    def test_domain_endpoints_are_exact_enough(self, case, families):
        """The sweep's min/max define the fitted domain — no edge drift."""
        parameter, low, high = SWEEP_RANGES[case]
        points = [low, (low + high) / 2.0, high]
        parametric = IncrementalMethodology(families[case]).sweep_markovian(
            parameter, points, method="parametric"
        )
        direct = IncrementalMethodology(families[case]).sweep_markovian(
            parameter, points, method="direct"
        )
        _assert_series_close(parametric, direct)


class TestAutoThreshold:
    """Dense auto sweeps go parametric; the paper's coarse ones do not."""

    def test_dense_auto_sweep_uses_parametric(self, rpc_family):
        parameter, low, high = SWEEP_RANGES["rpc"]
        count = PARAMETRIC_AUTO_THRESHOLD
        step = (high - low) / (count - 1)
        values = [low + index * step for index in range(count)]
        methodology = IncrementalMethodology(rpc_family)
        methodology.sweep_markovian(parameter, values)  # method=auto
        stats = methodology.runtime_stats()
        assert stats["solver"]["backends"] == {"parametric": count}
        assert stats["solver"]["max_residual"] < 1e-8

    def test_coarse_auto_sweep_stays_concrete(self, rpc_family):
        parameter, points = _random_points("rpc", count=3)
        methodology = IncrementalMethodology(rpc_family)
        methodology.sweep_markovian(parameter, points)  # method=auto
        backends = methodology.runtime_stats()["solver"]["backends"]
        assert "parametric" not in backends
        assert methodology.cache.stats.parametric_builds == 0


class TestRegistry:
    """``parametric`` resolves everywhere a backend name is accepted."""

    def test_solver_choices_include_parametric(self):
        assert "parametric" in solver_choices()

    def test_resolve_method_accepts_parametric(self):
        assert resolve_method("parametric") == "parametric"

    def test_environment_variable_selects_parametric(self, monkeypatch):
        monkeypatch.setenv(SOLVER_ENV_VAR, "parametric")
        assert resolve_method(None) == "parametric"

    def test_concrete_solve_falls_back_deterministically(self):
        """A concrete (matrix-level) solve cannot be parametric: the

        request degrades along the fallback chain and the report says
        so instead of silently pretending.
        """
        q = birth_death_generator([1.0, 2.0], [3.0, 1.0])
        solution = solve_steady_state(q, method="parametric")
        assert solution.report.method in available_solvers()
        assert solution.report.fallbacks[0] == "parametric"
        reference = solve_steady_state(q, method="direct")
        assert float(np.abs(solution.pi - reference.pi).max()) < 1e-9


class TestForcedParametricFallback:
    """Explicit ``parametric`` requests that cannot eliminate still work."""

    def test_structural_parameter_falls_back_per_point(self, rpc_family):
        # loss_prob feeds immediate-choice weights: the state space
        # changes shape with it, so no skeleton (and no elimination)
        # can cover the sweep.
        points = [0.01, 0.05, 0.10]
        methodology = IncrementalMethodology(rpc_family)
        series = methodology.sweep_markovian(
            "loss_prob", points, method="parametric"
        )
        reference = IncrementalMethodology(rpc_family).sweep_markovian(
            "loss_prob", points, method="direct"
        )
        _assert_series_close(series, reference)
        for record in methodology.solver_records:
            assert record["method"] != "parametric"
            assert record["fallbacks"][0] == "parametric"

    def test_disabled_cache_falls_back_per_point(self, rpc_family):
        parameter, points = _random_points("rpc", count=3)
        methodology = IncrementalMethodology(
            rpc_family,
            statespace_cache=StructuralStateSpaceCache(enabled=False),
        )
        series = methodology.sweep_markovian(
            parameter, points, method="parametric"
        )
        reference = IncrementalMethodology(rpc_family).sweep_markovian(
            parameter, points, method="direct"
        )
        _assert_series_close(series, reference)
        for record in methodology.solver_records:
            assert record["fallbacks"][0] == "parametric"


class TestRuntimeIntegration:
    def test_parallel_sweep_bit_identical_to_serial(self, rpc_family):
        parameter, points = _random_points("rpc")
        serial = IncrementalMethodology(rpc_family).sweep_markovian(
            parameter, points, method="parametric", workers=1
        )
        parallel = IncrementalMethodology(rpc_family).sweep_markovian(
            parameter, points, method="parametric", workers=4
        )
        # ==, not approx: the same pickled solution evaluates the same
        # barycentric formula whichever process runs the point.
        assert serial == parallel

    def test_solution_is_built_once_then_cache_hit(self, rpc_family):
        parameter, points = _random_points("rpc")
        methodology = IncrementalMethodology(rpc_family)
        first = methodology.sweep_markovian(
            parameter, points, method="parametric"
        )
        second = methodology.sweep_markovian(
            parameter, points, method="parametric"
        )
        assert first == second
        stats = methodology.cache.stats
        assert stats.parametric_builds == 1
        assert stats.parametric_hits == 1
        assert methodology.cache.stats.as_dict()["parametric_builds"] == 1

    def test_checkpoint_fingerprint_embeds_parametric(
        self, tmp_path, rpc_family, sweep_spec
    ):
        parameter, points = _random_points("rpc")
        journal = tmp_path / "sweep.jsonl"
        baseline_methodology = IncrementalMethodology(rpc_family)
        baseline = baseline_methodology.sweep_markovian(
            parameter, points, method="parametric",
            checkpoint=str(journal),
        )
        # The journal's identity carries the *resolved* method: a
        # per-point ``direct`` resume must be refused outright ...
        direct = sweep_spec(
            IncrementalMethodology(rpc_family), "sweep_markovian",
            parameter, points, method="direct",
        )
        with pytest.raises(CheckpointError):
            SweepCheckpoint(journal, direct.fingerprint()).load()
        # ... while a parametric resume replays every point unchanged.
        resumed_methodology = IncrementalMethodology(rpc_family)
        resumed = resumed_methodology.sweep_markovian(
            parameter, points, method="parametric",
            checkpoint=str(journal),
        )
        assert resumed == baseline
        stats = resumed_methodology.runtime_stats()
        assert stats["checkpoint_hits"] == len(points)


class TestSolutionObject:
    @pytest.fixture(scope="class")
    def rpc_solution(self, rpc_family):
        archi = rpc_family.markovian_dpm
        cache = StructuralStateSpaceCache()
        parameter, low, high = SWEEP_RANGES["rpc"]
        skeleton = cache.skeleton(archi, None, 200_000)
        return build_parametric_solution(
            archi,
            skeleton,
            parameter,
            rpc_family.measures,
            (low, high),
            archi.bind_constants(None),
        )

    def test_evaluate_many_matches_scalar_evaluate(self, rpc_solution):
        low, high = rpc_solution.domain
        grid = np.linspace(low, high, 17)
        vectorized = rpc_solution.evaluate_many(grid)
        for position, value in enumerate(grid):
            scalar = rpc_solution.evaluate(float(value))
            for name in rpc_solution.measure_names:
                assert scalar[name] == pytest.approx(
                    float(vectorized[name][position]), rel=1e-12, abs=0.0
                )

    def test_report_dict_is_solver_record_shaped(self, rpc_solution):
        record = rpc_solution.report_dict()
        assert record["method"] == "parametric"
        assert record["size"] > 0
        assert record["nnz"] > 0
        assert record["iterations"] == 0
        assert record["residual"] == rpc_solution.max_fit_error
        assert record["mass_defect"] == 0.0
        assert record["fallbacks"] == []

    def test_diagnostics_describe_the_elimination(self, rpc_solution):
        diagnostics = rpc_solution.diagnostics
        assert diagnostics["recurrent"] == rpc_solution.size
        assert diagnostics["parametric_transitions"] > 0
        assert diagnostics["atoms"] >= 1
        assert diagnostics["fill_ops"] >= 0
        assert set(diagnostics["support"]) == set(
            rpc_solution.measure_names
        )

    def test_out_of_domain_evaluation_is_refused(self, rpc_solution):
        low, high = rpc_solution.domain
        with pytest.raises(ParametricError, match="outside the fitted"):
            rpc_solution.evaluate(high + 1.0)
        with pytest.raises(ParametricError, match="outside the fitted"):
            rpc_solution.evaluate(low - 1.0)

    def test_degenerate_domain_is_refused(self, rpc_family):
        archi = rpc_family.markovian_dpm
        cache = StructuralStateSpaceCache()
        skeleton = cache.skeleton(archi, None, 200_000)
        with pytest.raises(ParametricError, match="non-degenerate"):
            build_parametric_solution(
                archi, skeleton, "shutdown_timeout",
                rpc_family.measures, (5.0, 5.0),
                archi.bind_constants(None),
            )

    def test_state_budget_aborts_with_recoverable_error(self, rpc_family):
        archi = rpc_family.markovian_dpm
        cache = StructuralStateSpaceCache()
        skeleton = cache.skeleton(archi, None, 200_000)
        with pytest.raises(ParametricError) as info:
            build_parametric_solution(
                archi, skeleton, "shutdown_timeout",
                rpc_family.measures, (0.5, 25.0),
                archi.bind_constants(None),
                options=ParametricOptions(max_states=4),
            )
        assert info.value.reason == "budget"
        assert isinstance(info.value, SolverError)

    def test_options_require_enough_nodes(self):
        with pytest.raises(ParametricError, match="at least 8"):
            ParametricOptions(nodes=4)


class TestDependentConsts:
    def test_independent_parameter_has_no_dependents(self, rpc_family):
        archi = rpc_family.markovian_dpm
        assert dependent_consts(archi, "shutdown_timeout") == frozenset()

    def test_dependence_propagates_through_defaults(self):
        from types import SimpleNamespace

        from repro.aemilia.expressions import BinaryOp, Literal, Variable

        archi = SimpleNamespace(
            const_params=[
                SimpleNamespace(name="base", default=Literal(2.0)),
                SimpleNamespace(
                    name="derived",
                    default=BinaryOp("*", Variable("base"), Literal(3.0)),
                ),
                # Chained: depends on base only through derived.
                SimpleNamespace(
                    name="chained",
                    default=BinaryOp(
                        "+", Variable("derived"), Literal(1.0)
                    ),
                ),
                SimpleNamespace(name="other", default=Literal(1.0)),
            ]
        )
        assert dependent_consts(archi, "base") == frozenset(
            {"derived", "chained"}
        )
        assert dependent_consts(archi, "other") == frozenset()
