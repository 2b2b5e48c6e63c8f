"""Tests for the unified observability subsystem (repro.obs).

Pins the metric catalog (names, types, label schemas), the registry
semantics, both exporters, the hot-path instrumentation, and the core
invariant of the subsystem: results are bit-identical with metrics on,
off, or with per-iteration tracking enabled.
"""

import io
import json
import logging

import numpy as np
import pytest
from scipy import sparse

from repro.aemilia.rates import ExpRate
from repro.core.methodology import IncrementalMethodology
from repro.ctmc import measure, state_clause, trans_clause
from repro.ctmc.solvers import solve_steady_state
from repro.lts import LTS
from repro.obs import (
    CATALOG,
    IterationSeries,
    MetricRegistry,
    NullRegistry,
    configure_logging,
    emit,
    get_logger,
    get_registry,
    load_json_export,
    render_json,
    render_prometheus,
    set_registry,
    use_registry,
    write_exports,
)
from repro.obs import tracing
from repro.obs.log import verbosity_level
from repro.obs.metrics import (
    CACHE_EVENTS,
    RESIDUAL_BUCKETS,
    SIM_EVENTS,
    SIM_RUNS,
    SOLVER_ITERATIONS,
    SOLVER_SOLVES,
    SWEEP_POINTS,
    MetricError,
)
from repro.runtime.executor import ParallelExecutor
from repro.sim import Simulator, make_generator
from repro.sim.batch_means import batch_means

#: Every metric family the instrumentation may emit — the public
#: contract documented in docs/OBSERVABILITY.md.  Renaming or relabeling
#: any of these is a breaking change and must update docs + this test.
EXPECTED_CATALOG = {
    "repro_solver_solves_total": ("counter", ("method",)),
    "repro_solver_iterations_total": ("counter", ("method",)),
    "repro_solver_fallbacks_total": ("counter", ("method",)),
    "repro_solver_residual": ("histogram", ("method",)),
    "repro_sim_runs_total": ("counter", ()),
    "repro_sim_events_total": ("counter", ()),
    "repro_sim_deadlocks_total": ("counter", ()),
    "repro_sim_clock_carries_total": ("counter", ()),
    "repro_sim_batches_total": ("counter", ()),
    "repro_sim_batch_lag1": ("gauge", ("measure",)),
    "repro_cache_events_total": ("counter", ("kind",)),
    "repro_checkpoint_events_total": ("counter", ("kind",)),
    "repro_sweep_points_total": ("counter", ("case", "kind")),
    "repro_workload_traces_total": ("counter", ("source",)),
    "repro_workload_events_replayed_total": ("counter", ("mode",)),
    "repro_workload_fit_iterations_total": ("counter", ("family",)),
    "repro_workload_ks_statistic": ("gauge", ("family",)),
    "repro_splitting_trees_total": ("counter", ()),
    "repro_splitting_clones_total": ("counter", ()),
    "repro_splitting_merges_total": ("counter", ()),
    "repro_splitting_events_total": ("counter", ()),
    "repro_parametric_eliminations_total": ("counter", ("status",)),
    "repro_parametric_evaluations_total": ("counter", ()),
    "repro_parametric_fallbacks_total": ("counter", ("reason",)),
    "repro_fleet_devices": ("gauge", ()),
    "repro_fleet_product_states": ("gauge", ()),
    "repro_fleet_lumped_states": ("gauge", ()),
    "repro_fleet_operator_nnz_equivalent": ("gauge", ("representation",)),
    "repro_fleet_matvecs_total": ("counter", ("representation",)),
}


def birth_death(rates_up, rates_down):
    """Irreducible birth-death generator submatrix."""
    n = len(rates_up) + 1
    rows, cols, data = [], [], []
    diagonal = np.zeros(n)
    for i, rate in enumerate(rates_up):
        rows.append(i), cols.append(i + 1), data.append(rate)
        diagonal[i] -= rate
    for i, rate in enumerate(rates_down):
        rows.append(i + 1), cols.append(i), data.append(rate)
        diagonal[i + 1] -= rate
    for i in range(n):
        rows.append(i), cols.append(i), data.append(diagonal[i])
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


def two_state_lts():
    lts = LTS(0)
    for _ in range(2):
        lts.add_state()
    lts.add_transition(0, "up", 1, ExpRate(2.0), "up")
    lts.add_transition(1, "down", 0, ExpRate(3.0), "down")
    return lts


MEASURES = [
    measure("in0", state_clause("up", 1.0)),
    measure("ups", trans_clause("up", 1.0)),
]


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        registry = MetricRegistry()
        with pytest.raises(MetricError):
            registry.counter("c_total").inc(-1.0)

    def test_gauge_set_inc_dec(self):
        registry = MetricRegistry()
        gauge = registry.gauge("g")
        gauge.set(4.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == 3.0

    def test_histogram_cumulative_buckets(self):
        registry = MetricRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 5.0))
        for value in (0.5, 0.7, 3.0, 100.0):
            histogram.observe(value)
        child = histogram.labels()
        cumulative = dict(child.cumulative())
        assert cumulative["1.0"] == 2
        assert cumulative["5.0"] == 3
        assert cumulative["+Inf"] == 4
        assert child.count == 4
        assert child.sum == pytest.approx(104.2)

    def test_labels_schema_enforced(self):
        registry = MetricRegistry()
        family = registry.counter("c_total", labelnames=("kind",))
        family.labels(kind="hit").inc()
        with pytest.raises(MetricError):
            family.labels(other="x")
        with pytest.raises(MetricError):
            family.inc()  # labelled family needs .labels(...)

    def test_get_or_create_idempotent(self):
        registry = MetricRegistry()
        first = registry.counter("c_total", "help", ("kind",))
        second = registry.counter("c_total", "help", ("kind",))
        assert first is second

    def test_conflicting_type_or_labels_raise(self):
        registry = MetricRegistry()
        registry.counter("c_total", labelnames=("kind",))
        with pytest.raises(MetricError):
            registry.gauge("c_total", labelnames=("kind",))
        with pytest.raises(MetricError):
            registry.counter("c_total", labelnames=("other",))

    def test_snapshot_shape(self):
        registry = MetricRegistry()
        registry.counter("c_total", "help me", ("kind",)).labels(
            kind="hit"
        ).inc(3)
        snap = registry.snapshot()
        family = snap["c_total"]
        assert family["type"] == "counter"
        assert family["help"] == "help me"
        assert family["labelnames"] == ["kind"]
        assert family["series"] == [
            {"labels": {"kind": "hit"}, "value": 3.0}
        ]

    def test_merge_snapshot_adds_counters_and_histograms(self):
        source = MetricRegistry()
        source.counter("c_total").inc(2)
        source.histogram("h", buckets=(1.0, 5.0)).observe(0.5)
        target = MetricRegistry()
        target.counter("c_total").inc(1)
        target.merge_snapshot(source.snapshot())
        target.merge_snapshot(source.snapshot())
        assert target.value("c_total") == 5.0
        child = target.histogram("h", buckets=(1.0, 5.0)).labels()
        assert child.count == 2
        assert child.sum == pytest.approx(1.0)
        assert dict(child.cumulative())["1.0"] == 2

    def test_merge_snapshot_gauge_takes_max(self):
        source = MetricRegistry()
        source.gauge("g").set(7.0)
        target = MetricRegistry()
        target.gauge("g").set(3.0)
        target.merge_snapshot(source.snapshot())
        assert target.value("g") == 7.0
        # Merging the smaller value back does not regress the gauge:
        # max-merge makes the result independent of arrival order.
        smaller = MetricRegistry()
        smaller.gauge("g").set(3.0)
        target.merge_snapshot(smaller.snapshot())
        assert target.value("g") == 7.0

    def test_merge_snapshot_gauge_merge_is_order_invariant(self):
        snapshots = []
        for value in (5.0, -2.0, 9.0, 1.0):
            registry = MetricRegistry()
            registry.gauge("g").set(value)
            snapshots.append(registry.snapshot())
        import itertools

        results = set()
        for order in itertools.permutations(snapshots):
            target = MetricRegistry()
            for snapshot in order:
                target.merge_snapshot(snapshot)
            results.add(target.value("g"))
        assert results == {9.0}

    def test_merge_snapshot_gauge_negative_first_merge(self):
        # A fresh series must adopt the incoming value even when it is
        # negative (e.g. a lag-1 autocorrelation gauge), not be clamped
        # by the 0.0 default of a newly created child.
        source = MetricRegistry()
        source.gauge("g").set(-0.4)
        target = MetricRegistry()
        target.merge_snapshot(source.snapshot())
        assert target.value("g") == -0.4

    def test_value_and_reset(self):
        registry = MetricRegistry()
        registry.counter("c_total", labelnames=("kind",)).labels(
            kind="hit"
        ).inc()
        assert registry.value("c_total", {"kind": "hit"}) == 1.0
        assert registry.value("c_total", {"kind": "miss"}) == 0.0
        assert registry.value("absent") == 0.0
        registry.reset()
        assert registry.families() == []


class TestNullRegistry:
    def test_everything_is_a_noop(self):
        registry = NullRegistry()
        assert registry.enabled is False
        registry.counter("c_total").inc()
        registry.gauge("g").labels(any="x").set(3.0)
        registry.histogram("h").observe(1.0)
        assert registry.snapshot() == {}
        assert registry.families() == []


class TestDefaultRegistry:
    def test_use_registry_installs_and_restores(self):
        outer = get_registry()
        replacement = MetricRegistry()
        with use_registry(replacement) as installed:
            assert installed is replacement
            assert get_registry() is replacement
        assert get_registry() is outer

    def test_set_registry_returns_previous(self):
        current = get_registry()
        replacement = MetricRegistry()
        previous = set_registry(replacement)
        try:
            assert previous is current
            assert get_registry() is replacement
        finally:
            set_registry(current)


class TestCatalog:
    def test_catalog_pins_every_metric(self):
        actual = {
            spec.name: (spec.kind, spec.labelnames) for spec in CATALOG
        }
        assert actual == EXPECTED_CATALOG

    def test_spec_on_creates_matching_family(self):
        registry = MetricRegistry()
        for spec in CATALOG:
            family = spec.on(registry)
            assert family.name == spec.name
            assert family.kind == spec.kind
            assert family.labelnames == spec.labelnames

    def test_residual_histogram_uses_residual_buckets(self):
        registry = MetricRegistry()
        family = [s for s in CATALOG if s.name == "repro_solver_residual"][
            0
        ].on(registry)
        assert family.buckets == RESIDUAL_BUCKETS


class TestCatalogDrift:
    """The three views of the metric contract must not drift apart:
    the ``CATALOG`` specs, the docs/OBSERVABILITY.md table, and the
    families runtime instrumentation actually registers."""

    def _doc_names(self):
        import re
        from pathlib import Path

        doc = (
            Path(__file__).resolve().parent.parent
            / "docs"
            / "OBSERVABILITY.md"
        ).read_text()
        return set(re.findall(r"^\| `(repro_[a-z0-9_]+)` \|", doc, re.M))

    def test_docs_table_matches_catalog_exactly(self):
        catalog_names = {spec.name for spec in CATALOG}
        doc_names = self._doc_names()
        missing_from_docs = catalog_names - doc_names
        missing_from_catalog = doc_names - catalog_names
        assert not missing_from_docs, (
            f"catalogued metrics absent from the docs table: "
            f"{sorted(missing_from_docs)}"
        )
        assert not missing_from_catalog, (
            f"documented metrics absent from CATALOG: "
            f"{sorted(missing_from_catalog)}"
        )

    def test_runtime_registered_families_are_catalogued(self, rpc_family):
        """Everything a real sweep registers must be a catalogued name
        (an instrumentation site minting an uncatalogued family would
        escape the docs and the ``metrics`` command)."""
        registry = MetricRegistry()
        with use_registry(registry):
            methodology = IncrementalMethodology(rpc_family)
            methodology.sweep_markovian(
                "shutdown_timeout", [0.5, 2.0, 11.0]
            )
        catalog_names = {spec.name for spec in CATALOG}
        registered = set(registry.snapshot())
        uncatalogued = registered - catalog_names
        assert not uncatalogued, (
            f"runtime registered uncatalogued metrics: "
            f"{sorted(uncatalogued)}"
        )
        assert registered <= self._doc_names()


class TestExporters:
    def _populated(self):
        registry = MetricRegistry()
        registry.counter(
            "repro_cache_events_total", "Cache events.", ("kind",)
        ).labels(kind="hit").inc(4)
        registry.histogram(
            "repro_solver_residual", "Residual.", ("method",), (0.1, 1.0)
        ).labels(method="sor").observe(0.5)
        registry.gauge(
            "repro_workload_ks_statistic", "KS.", ("family",)
        ).labels(family="exp").set(123.5)
        return registry

    def test_prometheus_text_format(self):
        text = render_prometheus(self._populated())
        assert "# HELP repro_cache_events_total Cache events." in text
        assert "# TYPE repro_cache_events_total counter" in text
        assert 'repro_cache_events_total{kind="hit"} 4' in text
        assert "# TYPE repro_solver_residual histogram" in text
        assert 'repro_solver_residual_bucket{le="0.1",method="sor"} 0' in text
        assert 'repro_solver_residual_bucket{le="1.0",method="sor"} 1' in text
        assert (
            'repro_solver_residual_bucket{le="+Inf",method="sor"} 1' in text
        )
        assert 'repro_solver_residual_sum{method="sor"} 0.5' in text
        assert 'repro_solver_residual_count{method="sor"} 1' in text
        assert 'repro_workload_ks_statistic{family="exp"} 123.5' in text

    def test_json_roundtrip(self):
        registry = self._populated()
        decoded = json.loads(render_json(registry))
        assert decoded == json.loads(json.dumps(registry.snapshot()))

    def test_write_and_load_exports(self, tmp_path):
        prefix = str(tmp_path / "run")
        prom_path, json_path = write_exports(self._populated(), prefix)
        assert prom_path.endswith(".prom") and json_path.endswith(".json")
        loaded = load_json_export(json_path)
        assert loaded["repro_cache_events_total"]["series"][0]["value"] == 4
        with open(prom_path) as handle:
            assert "# TYPE" in handle.read()

    def test_load_json_export_inverts_render_json(self, tmp_path):
        registry = self._populated()
        path = tmp_path / "export.json"
        path.write_text(render_json(registry))
        assert load_json_export(str(path)) == registry.snapshot()

    def test_render_while_updating_from_threads(self):
        """Exporters render a consistent snapshot while other threads
        hammer the registry — no exceptions, every rendered value a
        valid intermediate state."""
        import threading

        registry = self._populated()
        counter = registry.counter(
            "repro_cache_events_total", "Cache events.", ("kind",)
        ).labels(kind="hit")
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                counter.inc()

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for worker in workers:
            worker.start()
        try:
            for _ in range(50):
                decoded = json.loads(render_json(registry))
                value = decoded["repro_cache_events_total"]["series"][0][
                    "value"
                ]
                assert value >= 4
                assert "# TYPE" in render_prometheus(registry)
        finally:
            stop.set()
            for worker in workers:
                worker.join()

    def test_load_rejects_empty_and_non_object(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(ValueError):
            load_json_export(str(empty))
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_json_export(str(array))


class TestSolverInstrumentation:
    Q = birth_death([2.0, 1.0, 0.5], [3.0, 2.0, 1.0])

    def test_iteration_series_records_sor_trace(self):
        series = IterationSeries()
        solution = solve_steady_state(
            self.Q, method="sor", iteration_callback=series
        )
        assert len(series) == solution.report.iterations
        iterations = [entry["iteration"] for entry in series.entries]
        assert iterations == list(range(1, len(series) + 1))
        final = series.entries[-1]
        assert final["residual"] == pytest.approx(
            solution.report.residual, rel=1e-6
        )
        assert final["relative_change"] is not None

    def test_report_dict_carries_no_series(self):
        series = IterationSeries()
        solution = solve_steady_state(
            self.Q, method="sor", iteration_callback=series
        )
        assert len(series) > 0
        assert set(solution.report.as_dict()) == {
            "method", "size", "nnz", "iterations", "residual",
            "mass_defect", "fallbacks",
        }

    def test_iteration_callback_sees_every_iteration(self):
        series = IterationSeries()
        solution = solve_steady_state(
            self.Q, method="power", iteration_callback=series
        )
        assert len(series) == solution.report.iterations
        residuals = [e["residual"] for e in series.entries]
        assert residuals[-1] == pytest.approx(
            solution.report.residual, rel=1e-6
        )

    def test_solver_metrics_recorded(self):
        with use_registry(MetricRegistry()) as registry:
            solution = solve_steady_state(self.Q, method="sor")
            assert (
                registry.value(SOLVER_SOLVES.name, {"method": "sor"}) == 1
            )
            assert registry.value(
                SOLVER_ITERATIONS.name, {"method": "sor"}
            ) == float(solution.report.iterations)

    def test_results_identical_with_metrics_on_off_and_tracked(self):
        with use_registry(NullRegistry()):
            off = solve_steady_state(self.Q, method="sor")
        with use_registry(MetricRegistry()):
            on = solve_steady_state(self.Q, method="sor")
            tracked = solve_steady_state(
                self.Q, method="sor", iteration_callback=IterationSeries()
            )
        assert np.array_equal(off.pi, on.pi)
        assert np.array_equal(off.pi, tracked.pi)
        assert off.report.iterations == tracked.report.iterations


class TestSweepInstrumentation:
    VALUES = [1.0, 5.0, 11.0]

    def test_sweep_emits_cache_and_sweep_metrics(self, rpc_family):
        with use_registry(MetricRegistry()) as registry:
            methodology = IncrementalMethodology(rpc_family)
            methodology.sweep_markovian("shutdown_timeout", self.VALUES)
            timings = methodology.runtime_stats()["timings"]
            assert registry.value(
                SWEEP_POINTS.name, {"case": "rpc", "kind": "markovian"}
            ) == float(len(self.VALUES))
            assert registry.value(CACHE_EVENTS.name, {"kind": "miss"}) == 1
            assert registry.value(
                CACHE_EVENTS.name, {"kind": "relabel"}
            ) == float(len(self.VALUES) - 1)
            assert registry.value(
                SOLVER_SOLVES.name, {"method": "direct"}
            ) == float(len(self.VALUES))
            assert timings["statespace"]["count"] == 1

    def test_sweep_results_bit_identical_metrics_on_vs_off(
        self, rpc_family
    ):
        with use_registry(NullRegistry()):
            off = IncrementalMethodology(rpc_family).sweep_markovian(
                "shutdown_timeout", self.VALUES
            )
        with use_registry(MetricRegistry()):
            on = IncrementalMethodology(rpc_family).sweep_markovian(
                "shutdown_timeout", self.VALUES
            )
        assert on == off

    @pytest.mark.parametrize("phase", ["markovian", "general"])
    def test_counters_equal_at_one_and_two_workers(self, rpc_family, phase):
        """Pool workers ship their metrics home: every counter and
        histogram series reads the same at one and two workers (gauges
        merge by max and are left out)."""

        def counted(workers):
            with use_registry(MetricRegistry()) as registry:
                methodology = IncrementalMethodology(
                    rpc_family, workers=workers
                )
                if phase == "markovian":
                    methodology.sweep_markovian(
                        "shutdown_timeout", self.VALUES
                    )
                else:
                    methodology.sweep_general(
                        "shutdown_timeout", self.VALUES,
                        run_length=300.0, runs=4, seed=3,
                    )
                snapshot = registry.snapshot()
            series = {}
            for name, family in snapshot.items():
                if family["type"] == "gauge":
                    continue
                for entry in family["series"]:
                    if "sum" in entry:  # summed in arrival order
                        entry["sum"] = pytest.approx(entry["sum"])
                series[name] = family["series"]
            return series

        serial = counted(1)
        assert serial["repro_sweep_points_total"]
        if phase == "markovian":
            assert "repro_solver_residual" in serial
        else:
            assert "repro_sim_runs_total" in serial
        assert counted(2) == serial


class TestSimInstrumentation:
    def test_run_metrics_recorded(self):
        before = tracing.totals()
        with use_registry(MetricRegistry()) as registry:
            result = Simulator(two_state_lts(), MEASURES).run(
                500.0, make_generator(3)
            )
            assert registry.value(SIM_RUNS.name) == 1
            assert registry.value(SIM_EVENTS.name) == float(
                result.events_fired
            )
        # the run's wall-clock time is its ``engine:run`` span
        runs = tracing.totals().since(before).timings()["engine:run"]
        assert runs["count"] == 1

    def test_batch_means_metrics_and_convergence(self):
        with use_registry(MetricRegistry()) as registry:
            result = batch_means(
                two_state_lts(), MEASURES, batch_length=200.0, batches=6,
                seed=1,
            )
            assert registry.value("repro_sim_batches_total") == 6
            # batches run back-to-back carry residual clocks
            assert registry.value("repro_sim_clock_carries_total") > 0
        for name in ("in0", "ups"):
            assert len(result.convergence[name]) == 5
            assert result.convergence[name][-1] == pytest.approx(
                result[name].half_width
            )

    def test_batch_means_identical_metrics_on_vs_off(self):
        with use_registry(NullRegistry()):
            off = batch_means(
                two_state_lts(), MEASURES, batch_length=200.0, batches=6,
                seed=1,
            )
        with use_registry(MetricRegistry()):
            on = batch_means(
                two_state_lts(), MEASURES, batch_length=200.0, batches=6,
                seed=1,
            )
        assert on.batch_means == off.batch_means
        assert on.convergence == off.convergence


def _double(shared, item):
    return 2 * item


class TestRuntimeTrace:
    def test_spans_leave_metrics_untouched(self):
        """Spans time and count executor work; the metric registry only
        counts domain work, so closing spans through every entry point
        registers no family."""
        before = tracing.totals()
        with use_registry(MetricRegistry()) as registry:
            with tracing.span("statespace"):
                pass
            tracing.record_span("execute", 0.5, phase="solve")
            tracing.add_span(
                "execute", None, 0.0, 0.25, status="retry", phase="solve",
            )
            assert ParallelExecutor(workers=1).map(
                _double, [1, 2, 3], phase="solve"
            ) == [2, 4, 6]
            assert registry.snapshot() == {}
        timings = tracing.totals().since(before).timings()
        assert timings["statespace"]["count"] == 1
        assert timings["execute"]["count"] == 5
        assert timings["point"]["count"] == 3


class TestLogging:
    def test_logger_hierarchy(self):
        assert get_logger().name == "repro"
        assert get_logger("cli").name == "repro.cli"

    def test_verbosity_level_mapping(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        assert verbosity_level(0) == logging.WARNING
        assert verbosity_level(1) == logging.INFO
        assert verbosity_level(2) == logging.DEBUG

    def test_env_sets_baseline_and_verbose_only_lowers(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "debug")
        assert verbosity_level(0) == logging.DEBUG
        assert verbosity_level(1) == logging.DEBUG
        monkeypatch.setenv("REPRO_LOG", "error")
        assert verbosity_level(1) == logging.INFO

    def test_configure_logging_writes_to_stream(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        stream = io.StringIO()
        logger = configure_logging(verbose=1, stream=stream, force=True)
        try:
            get_logger("unit").info("hello metrics")
            assert "[INFO repro.unit] hello metrics" in stream.getvalue()
            assert logger.level == logging.INFO
        finally:
            configure_logging(force=True)

    def test_emit_goes_to_stdout(self, capsys):
        emit("product line")
        assert capsys.readouterr().out == "product line\n"
