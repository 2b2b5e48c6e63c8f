"""Tests for the IncrementalMethodology driver."""

import pytest

from repro.core import IncrementalMethodology, ModelFamily
from repro.core.methodology import solve_markovian_architecture
from repro.errors import AnalysisError


class TestVariantHandling:
    def test_unknown_variant_rejected(self, rpc_family):
        methodology = IncrementalMethodology(rpc_family)
        with pytest.raises(AnalysisError, match="unknown variant"):
            methodology.solve_markovian("maybe")

    def test_measure_names_order(self, rpc_family):
        assert rpc_family.measure_names() == [
            "throughput", "waiting_time", "energy",
        ]

    def test_lts_cache_reused(self, rpc_family):
        methodology = IncrementalMethodology(rpc_family)
        first = methodology.build_lts("markovian", "dpm", {"shutdown_timeout": 5.0})
        second = methodology.build_lts("markovian", "dpm", {"shutdown_timeout": 5.0})
        assert first is second

    def test_lts_cache_distinguishes_overrides(self, rpc_family):
        methodology = IncrementalMethodology(rpc_family)
        first = methodology.build_lts("markovian", "dpm", {"shutdown_timeout": 5.0})
        second = methodology.build_lts("markovian", "dpm", {"shutdown_timeout": 9.0})
        assert first is not second


class TestPhases:
    def test_phase1_functional(self, rpc_family):
        methodology = IncrementalMethodology(rpc_family)
        result = methodology.assess_functionality()
        assert result.holds

    def test_phase2_solves_both_variants(self, rpc_family):
        methodology = IncrementalMethodology(rpc_family)
        dpm = methodology.solve_markovian("dpm")
        nodpm = methodology.solve_markovian("nodpm")
        assert set(dpm) == {"throughput", "waiting_time", "energy"}
        assert nodpm["energy"] > dpm["energy"]

    def test_phase2_sweep_shapes(self, rpc_family):
        methodology = IncrementalMethodology(rpc_family)
        series = methodology.sweep_markovian(
            "shutdown_timeout", [1.0, 5.0, 20.0], "dpm"
        )
        assert len(series["energy"]) == 3
        # Longer timeouts -> less aggressive DPM -> more energy.
        assert series["energy"][0] < series["energy"][1] < series["energy"][2]

    def test_phase2_solver_choice(self, rpc_family):
        methodology = IncrementalMethodology(rpc_family)
        direct = methodology.solve_markovian("dpm", method="direct")
        power = methodology.solve_markovian("dpm", method="power")
        for name in direct:
            assert direct[name] == pytest.approx(power[name], rel=1e-5)

    def test_phase3_simulation(self, rpc_family):
        methodology = IncrementalMethodology(rpc_family)
        replication = methodology.simulate_general(
            "dpm",
            {"shutdown_timeout": 5.0},
            run_length=3_000.0,
            runs=3,
            warmup=100.0,
        )
        assert replication["throughput"].mean > 0

    def test_missing_model_rejected(self, rpc_family):
        family = ModelFamily(
            name="partial",
            functional_dpm=rpc_family.functional_dpm,
            markovian_dpm=rpc_family.markovian_dpm,
            markovian_nodpm=rpc_family.markovian_nodpm,
            general_dpm=rpc_family.general_dpm,
            general_nodpm=None,
            high_patterns=rpc_family.high_patterns,
            low_patterns=rpc_family.low_patterns,
            measures=rpc_family.measures,
        )
        methodology = IncrementalMethodology(family)
        with pytest.raises(AnalysisError, match="no general_nodpm"):
            methodology.build_lts("general", "nodpm")


class TestStandaloneSolve:
    def test_solve_markovian_architecture(self, rpc_family):
        results = solve_markovian_architecture(
            rpc_family.markovian_nodpm, rpc_family.measures
        )
        assert results["throughput"] == pytest.approx(0.0866, rel=0.01)


class TestFullAssessment:
    def test_full_assessment_completes_on_rpc(self, rpc_family):
        from repro.core import IncrementalMethodology

        methodology = IncrementalMethodology(rpc_family)
        assessment = methodology.full_assessment(
            {"shutdown_timeout": 5.0},
            run_length=4_000.0,
            runs=4,
            warmup=200.0,
        )
        assert assessment.completed
        text = assessment.report()
        assert "phase 1" in text
        assert "phase 2" in text
        assert "phase 3b" in text
        assert assessment.markovian_dpm["energy"] < (
            assessment.markovian_nodpm["energy"]
        )

    def test_full_assessment_short_circuits_on_interference(self):
        from repro.casestudies.rpc import functional, general, markovian
        from repro.core import IncrementalMethodology, ModelFamily

        family = ModelFamily(
            name="rpc-broken",
            functional_dpm=functional.simplified_architecture(),
            markovian_dpm=markovian.dpm_architecture(),
            markovian_nodpm=markovian.nodpm_architecture(),
            general_dpm=general.dpm_architecture(),
            general_nodpm=general.nodpm_architecture(),
            high_patterns=functional.HIGH_PATTERNS,
            low_patterns=functional.LOW_PATTERNS,
            measures=markovian.measures(),
        )
        assessment = IncrementalMethodology(family).full_assessment()
        assert not assessment.completed
        assert assessment.markovian_dpm is None
        assert "phases 2-3 skipped" in assessment.report()


class TestRareSweep:
    def _sweep(self, rpc_family, tmp_path, **overrides):
        methodology = IncrementalMethodology(rpc_family)
        settings = dict(
            variant="dpm",
            run_length=60.0,
            levels=2,
            splits=2,
            segments=4,
            runs=2,
            seed=5,
            checkpoint=str(tmp_path / "rare.jsonl"),
        )
        settings.update(overrides)
        return methodology.sweep_rare(
            "shutdown_timeout", [4.0, 8.0], **settings
        )

    def test_rare_series_shapes(self, rpc_family, tmp_path):
        series = self._sweep(rpc_family, tmp_path)
        for name in rpc_family.measure_names() + [
            "rare_probability", "rare_low", "rare_high",
        ]:
            assert len(series[name]) == 2
        for low, prob, high in zip(
            series["rare_low"], series["rare_probability"],
            series["rare_high"],
        ):
            assert 0.0 <= low <= high
            assert prob >= 0.0

    def test_resume_is_bit_identical(self, rpc_family, tmp_path):
        first = self._sweep(rpc_family, tmp_path)
        resumed = self._sweep(rpc_family, tmp_path)
        assert resumed == first

    def test_journal_refuses_other_splitting_geometry(
        self, rpc_family, tmp_path
    ):
        from repro.errors import CheckpointError

        self._sweep(rpc_family, tmp_path)
        for change in (
            {"levels": 3},
            {"splits": 3},
            {"segments": 8},
            {"rare_measure": "energy"},
        ):
            with pytest.raises(CheckpointError):
                self._sweep(rpc_family, tmp_path, **change)


#: A 2-point grid and a tiny simulation budget shared by every sweep kind.
GRID = [2.0, 8.0]
SIMULATION = dict(run_length=300.0, runs=2, warmup=20.0, seed=11)
SPLITTING = dict(levels=2, splits=2, segments=4)


def _workload_classes():
    from repro.distributions import Exponential

    return {"spec": None, "exp": Exponential(1.0 / 9.7)}


def _sweep(kind, rpc_family, **kwargs):
    """Run one sweep kind on the 2-point grid; returns (driver, series)."""
    if kind == "fleet":
        from repro.fleet import FleetAssessment

        driver = FleetAssessment(2)
        return driver, driver.sweep("arrival_rate", GRID, **kwargs)
    driver = IncrementalMethodology(rpc_family)
    if kind == "markovian":
        series = driver.sweep_markovian("shutdown_timeout", GRID, **kwargs)
    elif kind == "general":
        series = driver.sweep_general(
            "shutdown_timeout", GRID, **SIMULATION, **kwargs
        )
    elif kind == "general-paired":
        series = driver.sweep_general_paired(
            "shutdown_timeout", GRID, **SIMULATION, **kwargs
        )
    elif kind == "rare":
        series = driver.sweep_rare(
            "shutdown_timeout", GRID, **SPLITTING, **SIMULATION, **kwargs
        )
    else:
        series = driver.sweep_workloads(
            _workload_classes(), "shutdown_timeout", GRID, **SIMULATION,
            **kwargs,
        )
    return driver, series


def _recompose(kind, family):
    """The series of *kind*, recomposed point by point from public layer
    calls on freshly generated state spaces (the driver's oracle)."""
    from repro.aemilia.semantics import generate_lts
    from repro.ctmc import build_ctmc
    from repro.ctmc.measures import evaluate_measures
    from repro.ctmc.solvers import resolve_method
    from repro.ctmc.steady_state import steady_state_solution
    from repro.sim.output import replicate, replicate_paired, resolve_engine
    from repro.sim.splitting import split_replicate
    from repro.workload.hooks import apply_workload

    names = family.measure_names()
    engine = resolve_engine(None)

    def lts(model, value=None):
        overrides = {} if value is None else {"shutdown_timeout": value}
        return generate_lts(getattr(family, model), overrides)

    def means(estimates):
        return {name: est.mean for name, est in estimates.items()}

    def columns(rows, keys=names):
        return {key: [row[key] for row in rows] for key in keys}

    if kind == "fleet":
        from repro.casestudies.fleet import DEFAULT_PARAMETERS, build_model
        from repro.fleet.solve import solve_fleet

        rows = []
        for value in GRID:
            model = build_model(
                2, "balanced",
                DEFAULT_PARAMETERS.override({"arrival_rate": value}),
            )
            rows.append(
                solve_fleet(
                    model.topology, model.measures,
                    method=resolve_method(None),
                ).measures
            )
        return columns(rows, list(rows[0]))
    if kind == "markovian":
        rows = []
        for value in GRID:
            ctmc = build_ctmc(lts("markovian_dpm", value))
            solution = steady_state_solution(ctmc, resolve_method(None))
            rows.append(
                evaluate_measures(ctmc, solution.pi, family.measures)
            )
        return columns(rows)
    if kind == "general":
        return columns([
            means(replicate(
                lts("general_dpm", value), family.measures,
                engine=engine, **SIMULATION,
            ).estimates)
            for value in GRID
        ])
    if kind == "general-paired":
        rows = []
        for value in GRID:
            paired = replicate_paired(
                lts("general_dpm", value), lts("general_nodpm"),
                family.measures, engine=engine, **SIMULATION,
            )
            rows.append({
                "dpm": means(paired.first.estimates),
                "nodpm": means(paired.second.estimates),
                "delta": means(paired.delta),
                "delta_half_width": {
                    name: est.half_width for name, est in paired.delta.items()
                },
            })
        return {
            group: columns([row[group] for row in rows])
            for group in ("dpm", "nodpm", "delta", "delta_half_width")
        }
    if kind == "rare":
        rows = []
        for value in GRID:
            result = split_replicate(
                lts("general_dpm", value), family.measures,
                engine=engine, **SPLITTING, **SIMULATION,
            )
            rare = result.rare_probability()
            rows.append({
                **means(result.estimates),
                "rare_probability": rare.mean,
                "rare_low": rare.low,
                "rare_high": rare.high,
            })
        return columns(
            rows, names + ["rare_probability", "rare_low", "rare_high"]
        )
    grid = {}
    for name, workload in _workload_classes().items():
        rows = []
        for value in GRID:
            model = lts("general_dpm", value)
            if workload is not None:
                model = apply_workload(
                    model, family.workload_pattern, workload
                )
            rows.append(means(replicate(
                model, family.measures, engine=engine, **SIMULATION,
            ).estimates))
        grid[name] = columns(rows)
    return grid


KINDS = [
    "markovian", "general", "general-paired", "rare", "workloads", "fleet",
]


class TestSweepDriver:
    """Every sweep kind runs through the one driver."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_series_equal_layer_recomposition(self, rpc_family, kind):
        _, series = _sweep(kind, rpc_family)
        assert series == _recompose(kind, rpc_family)

    # TestRareSweep.test_resume_is_bit_identical covers the rare kind.
    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "rare"])
    def test_resume_is_bit_identical(self, rpc_family, tmp_path, kind):
        journal = str(tmp_path / "journal.jsonl")
        _, first = _sweep(kind, rpc_family, checkpoint=journal)
        resumed_driver, resumed = _sweep(kind, rpc_family, checkpoint=journal)
        assert resumed == first
        tasks = 2 * len(GRID) if kind == "workloads" else len(GRID)
        assert resumed_driver.tracer.checkpoint_hits == tasks
