"""Unit tests for the workload subsystem (docs/WORKLOADS.md).

Covers the four layers in isolation — trace container + I/O,
generators, replay distribution, fitting — plus the hook-level helpers
(``apply_workload``, ``parse_workload``, ``workload_fingerprint``) on a
tiny hand-built LTS.  End-to-end behaviour through the methodology is in
``test_workload_integration.py``.
"""

import math
import pickle

import numpy as np
import pytest

from repro.aemilia.rates import (
    ExpRate,
    GeneralRate,
    ImmediateRate,
    PassiveRate,
)
from repro.distributions import (
    Deterministic,
    Exponential,
    Pareto,
    Weibull,
)
from repro.errors import WorkloadError
from repro.lts.lts import LTS
from repro.sim.random import make_generator
from repro.workload import (
    DiurnalGenerator,
    MMPPGenerator,
    ParetoGenerator,
    PoissonGenerator,
    TraceReplay,
    WorkloadTrace,
    apply_workload,
    fit_trace,
    ks_pvalue,
    ks_statistic,
    parse_generator_spec,
    parse_workload,
    read_trace,
    workload_fingerprint,
    write_trace,
)


def rng(seed=12345):
    return make_generator(seed)


def small_trace(values=(1.0, 2.0, 0.5, 3.0)):
    return WorkloadTrace(np.asarray(values), {"origin": "test"})


class TestWorkloadTrace:
    def test_payload_is_read_only_float64(self):
        trace = small_trace()
        assert trace.interarrivals.dtype == np.float64
        assert not trace.interarrivals.flags.writeable
        with pytest.raises(ValueError):
            trace.interarrivals[0] = 9.0

    def test_validation_rejects_bad_payloads(self):
        with pytest.raises(WorkloadError, match="one-dimensional"):
            WorkloadTrace(np.ones((2, 2)))
        with pytest.raises(WorkloadError, match="at least one event"):
            WorkloadTrace(np.array([]))
        with pytest.raises(WorkloadError, match="not finite"):
            WorkloadTrace(np.array([1.0, math.inf]))
        with pytest.raises(WorkloadError, match="strictly positive"):
            WorkloadTrace(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(WorkloadError, match="strictly positive"):
            WorkloadTrace(np.array([1.0, -0.5]))

    def test_event_times_round_trip(self):
        trace = small_trace()
        times = trace.event_times()
        assert times == pytest.approx([1.0, 3.0, 3.5, 6.5])
        back = WorkloadTrace.from_event_times(times)
        assert back == trace

    def test_moments_and_cv2(self):
        trace = small_trace()
        values = np.asarray([1.0, 2.0, 0.5, 3.0])
        assert trace.mean == pytest.approx(values.mean())
        assert trace.variance == pytest.approx(values.var(ddof=1))
        assert trace.cv2 == pytest.approx(
            values.var(ddof=1) / values.mean() ** 2
        )

    def test_fingerprint_is_content_identity(self):
        one = small_trace()
        two = WorkloadTrace(one.interarrivals, {"different": "metadata"})
        assert one.fingerprint == two.fingerprint
        assert one == two
        assert hash(one) == hash(two)
        other = small_trace((1.0, 2.0, 0.5, 3.0001))
        assert one.fingerprint != other.fingerprint
        assert one != other

    def test_rescaled_preserves_shape(self):
        trace = small_trace()
        scaled = trace.rescaled(9.7)
        assert scaled.mean == pytest.approx(9.7)
        assert scaled.cv2 == pytest.approx(trace.cv2)
        assert scaled.metadata["rescaled_to_mean"] == 9.7
        with pytest.raises(WorkloadError):
            trace.rescaled(0.0)

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_file_round_trip(self, tmp_path, suffix):
        trace = small_trace()
        path = write_trace(trace, tmp_path / f"trace{suffix}")
        loaded = read_trace(path)
        assert loaded == trace  # exact float64 round trip (repr floats)
        assert loaded.fingerprint == trace.fingerprint
        if suffix == ".jsonl":
            assert loaded.metadata["origin"] == "test"

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(WorkloadError, match="suffix"):
            write_trace(small_trace(), tmp_path / "trace.bin")
        with pytest.raises(WorkloadError, match="not found"):
            read_trace(tmp_path / "missing.jsonl")

    def test_jsonl_header_is_validated(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something-else"}\n1.0\n')
        with pytest.raises(WorkloadError, match="not a repro-workload"):
            read_trace(path)
        path.write_text("not json\n")
        with pytest.raises(WorkloadError, match="JSON header"):
            read_trace(path)
        path.write_text(
            '{"format": "repro-workload", "version": 99}\n1.0\n'
        )
        with pytest.raises(WorkloadError, match="version"):
            read_trace(path)

    def test_jsonl_bad_value_line_is_located(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format": "repro-workload", "version": 1}\n1.0\nbogus\n'
        )
        with pytest.raises(WorkloadError, match=":3"):
            read_trace(path)


class TestGenerators:
    @pytest.mark.parametrize(
        "generator",
        [
            PoissonGenerator(0.5),
            MMPPGenerator(2.0, 0.05, 5.0, 50.0),
            ParetoGenerator(1.5, 3.0),
            DiurnalGenerator(1.0, 0.8, 200.0),
        ],
    )
    def test_same_seed_bit_identical(self, generator):
        one = generator.generate(500, seed=7)
        two = generator.generate(500, seed=7)
        assert one.fingerprint == two.fingerprint
        assert len(one) == 500
        other = generator.generate(500, seed=8)
        assert one.fingerprint != other.fingerprint
        assert one.metadata == {"generator": generator.spec(), "seed": 7}

    def test_poisson_matches_exponential_moments(self):
        trace = PoissonGenerator(0.2).generate(20_000, seed=3)
        assert trace.mean == pytest.approx(5.0, rel=0.05)
        assert trace.cv2 == pytest.approx(1.0, abs=0.1)

    def test_mmpp_is_bursty(self):
        trace = MMPPGenerator(2.0, 0.05, 5.0, 50.0).generate(5_000, seed=3)
        assert trace.cv2 > 1.5  # over-dispersed vs Poisson

    def test_pareto_generator_matches_distribution(self):
        trace = ParetoGenerator(2.5, 1.0).generate(20_000, seed=3)
        assert trace.mean == pytest.approx(Pareto(2.5, 1.0).mean, rel=0.05)
        assert float(np.min(trace.interarrivals)) >= 1.0

    def test_diurnal_mean_rate_is_base_rate(self):
        # The sinusoid averages out over whole periods.
        trace = DiurnalGenerator(0.5, 0.8, 100.0).generate(20_000, seed=3)
        assert trace.mean == pytest.approx(2.0, rel=0.05)

    def test_parameter_validation(self):
        with pytest.raises(WorkloadError, match="rate_high"):
            MMPPGenerator(0.05, 2.0, 5.0, 50.0)
        with pytest.raises(WorkloadError, match="amplitude"):
            DiurnalGenerator(1.0, 1.5, 100.0)
        with pytest.raises(WorkloadError, match="positive"):
            PoissonGenerator(0.0)
        with pytest.raises(WorkloadError, match="length"):
            PoissonGenerator(1.0).generate(0, seed=1)

    def test_spec_round_trip(self):
        for text in (
            "poisson:0.5",
            "mmpp:2,0.05,5,50",
            "pareto:1.5,3",
            "diurnal:1,0.8,200",
        ):
            generator = parse_generator_spec(text)
            assert parse_generator_spec(generator.spec()) == generator

    def test_spec_errors_are_precise(self):
        with pytest.raises(WorkloadError, match="empty generator spec"):
            parse_generator_spec("  ")
        with pytest.raises(WorkloadError, match="unknown generator 'zeta'"):
            parse_generator_spec("zeta:1.0")
        with pytest.raises(WorkloadError, match="missing its arguments"):
            parse_generator_spec("poisson")
        with pytest.raises(WorkloadError, match="argument 2 .* not a number"):
            parse_generator_spec("pareto:1.5,fast")
        with pytest.raises(WorkloadError, match="expects 4"):
            parse_generator_spec("mmpp:2,0.05")


class TestTraceReplay:
    def test_bootstrap_draws_are_trace_values(self):
        trace = small_trace()
        replay = TraceReplay(trace)
        generator = rng()
        values = {replay.sample(generator) for _ in range(200)}
        assert values <= set(trace.interarrivals.tolist())
        assert len(values) == len(trace)  # all four hit within 200 draws

    def test_bootstrap_is_pure_function_of_rng_state(self):
        replay = TraceReplay(small_trace())
        one = [replay.sample(rng(5)) for _ in range(1)]
        first = rng(5)
        second = rng(5)
        assert [replay.sample(first) for _ in range(50)] == [
            replay.sample(second) for _ in range(50)
        ]

    def test_cycle_walks_the_trace_in_order(self):
        trace = small_trace()
        replay = TraceReplay(trace, "cycle")
        generator = rng()
        draws = [replay.sample(generator) for _ in range(8)]
        ring = trace.interarrivals.tolist() * 3
        start = ring.index(draws[0])
        assert draws == ring[start:start + 8]

    def test_cycle_cursors_are_per_generator(self):
        replay = TraceReplay(small_trace(), "cycle")
        a, b = rng(1), rng(2)
        seq_a = [replay.sample(a) for _ in range(4)]
        seq_b = [replay.sample(b) for _ in range(4)]
        # Each generator replays the full ring from its own offset.
        assert sorted(seq_a) == sorted(seq_b)

    def test_pickle_round_trip_drops_cursors(self):
        replay = TraceReplay(small_trace(), "cycle")
        generator = rng()
        replay.sample(generator)
        clone = pickle.loads(pickle.dumps(replay))
        assert clone == replay
        assert clone._cursors == {}
        # A fresh generator in the clone behaves like one in the original.
        assert clone.sample(rng(9)) == replay.sample(rng(9))

    def test_moments_and_empirical_cdf(self):
        trace = small_trace()
        replay = TraceReplay(trace)
        assert replay.mean == pytest.approx(trace.mean)
        assert replay.variance == pytest.approx(trace.variance)
        assert replay.cdf(0.4) == 0.0
        assert replay.cdf(1.0) == pytest.approx(0.5)  # 0.5 and 1.0
        assert replay.cdf(10.0) == 1.0

    def test_identity_follows_trace_and_mode(self):
        trace = small_trace()
        assert TraceReplay(trace) == TraceReplay(trace)
        assert TraceReplay(trace) != TraceReplay(trace, "cycle")
        assert hash(TraceReplay(trace)) == hash(TraceReplay(trace))

    def test_bad_arguments_rejected(self):
        with pytest.raises(WorkloadError, match="WorkloadTrace"):
            TraceReplay([1.0, 2.0])
        with pytest.raises(WorkloadError, match="unknown replay mode"):
            TraceReplay(small_trace(), "shuffle")


class TestFitting:
    def test_ks_statistic_on_exact_sample(self):
        # The empirical CDF of its own quantiles: D = 1/(2n) at best,
        # bounded by 1/n for the staircase offset.
        dist = Exponential(1.0)
        quantiles = [-math.log(1 - (i + 0.5) / 100) for i in range(100)]
        assert ks_statistic(np.asarray(quantiles), dist) <= 1.0 / 100

    def test_ks_pvalue_behaviour(self):
        assert ks_pvalue(0.0, 100) == 1.0
        assert ks_pvalue(0.5, 100) < 1e-6
        assert 0.0 < ks_pvalue(0.05, 400) < 1.0

    def test_exponential_trace_fits_exponential_best(self):
        trace = PoissonGenerator(1.0 / 9.7).generate(4_000, seed=11)
        report = fit_trace(trace)
        assert report.best.family in ("exp", "weibull", "erlang")
        exp_fit = report.candidate("exp")
        assert exp_fit.distribution.rate == pytest.approx(
            1.0 / trace.mean
        )
        assert exp_fit.pvalue > 0.01  # a correct model is not rejected

    def test_pareto_trace_fits_pareto_best(self):
        trace = ParetoGenerator(1.5, 3.0).generate(4_000, seed=11)
        report = fit_trace(trace)
        assert report.best.family == "pareto"
        assert report.best.distribution.alpha == pytest.approx(1.5, rel=0.1)
        assert report.best.distribution.xm == pytest.approx(3.0, rel=0.01)

    def test_degenerate_trace_skips_impossible_families(self):
        trace = WorkloadTrace(np.full(50, 2.5))
        report = fit_trace(trace)
        families = {candidate.family for candidate in report.candidates}
        # Only the total estimators survive a zero-variance sample.
        assert families == {"exp", "det"}
        assert report.candidate("det").distribution == Deterministic(2.5)

    def test_candidate_spec_round_trips(self):
        from repro.distributions import parse_distribution_spec

        trace = PoissonGenerator(0.2).generate(500, seed=2)
        for candidate in fit_trace(trace).candidates:
            parsed = parse_distribution_spec(candidate.spec)
            assert type(parsed) is type(candidate.distribution)
            assert parsed.mean == pytest.approx(
                candidate.distribution.mean, rel=1e-4
            )

    def test_unknown_family_rejected(self):
        with pytest.raises(WorkloadError, match="unknown fit families"):
            fit_trace(small_trace(), families=["exp", "zeta"])

    def test_weibull_fit_counts_iterations(self):
        trace = PoissonGenerator(1.0).generate(2_000, seed=5)
        candidate = fit_trace(trace, families=["weibull"]).candidate(
            "weibull"
        )
        assert candidate.iterations > 1
        assert isinstance(candidate.distribution, Weibull)

    def test_report_as_dict_shape(self):
        report = fit_trace(PoissonGenerator(1.0).generate(200, seed=1))
        payload = report.as_dict()
        assert payload["best"] == report.best.family
        assert payload["trace"]["events"] == 200
        assert all("spec" in entry for entry in payload["candidates"])


def _hooked_lts():
    """start --a(exp)--> mid --b(general)--> mid2 --c(passive)--> start."""
    lts = LTS(0)
    for _ in range(3):
        lts.add_state()
    lts.add_transition(0, "P.a", 1, ExpRate(2.0))
    lts.add_transition(1, "P.b", 2, GeneralRate(Deterministic(1.0)))
    lts.add_transition(2, "P.c", 0, ExpRate(1.0))
    return lts


class TestApplyWorkload:
    def test_replaces_matching_timed_transitions(self):
        lts = _hooked_lts()
        workload = Pareto(1.5, 3.0)
        rewritten = apply_workload(lts, "P.a", workload)
        rates = {t.label: t.rate for t in rewritten.transitions}
        assert isinstance(rates["P.a"], GeneralRate)
        assert rates["P.a"].distribution is workload
        assert isinstance(rates["P.c"], ExpRate)  # untouched
        # The original LTS is not mutated.
        original = {t.label: t.rate for t in lts.transitions}
        assert isinstance(original["P.a"], ExpRate)

    def test_replaces_general_rates_too(self):
        rewritten = apply_workload(_hooked_lts(), "P.b", Exponential(3.0))
        rates = {t.label: t.rate for t in rewritten.transitions}
        assert rates["P.b"].distribution == Exponential(3.0)

    def test_wildcard_pattern_matches_participant(self):
        rewritten = apply_workload(_hooked_lts(), "P.*", Exponential(3.0))
        assert all(
            isinstance(t.rate, GeneralRate) for t in rewritten.transitions
        )

    def test_no_match_is_an_error(self):
        with pytest.raises(WorkloadError, match="matched no timed"):
            apply_workload(_hooked_lts(), "Q.missing", Exponential(1.0))

    def test_untimed_match_is_an_error(self):
        lts = LTS(0)
        lts.add_state()
        lts.add_state()
        lts.add_transition(0, "P.a", 1, ImmediateRate(1, 1.0))
        lts.add_transition(1, "P.b", 0, ExpRate(1.0))
        with pytest.raises(WorkloadError, match="not an active .*timed"):
            apply_workload(lts, "P.a", Exponential(1.0))
        passive = LTS(0)
        passive.add_state()
        passive.add_state()
        passive.add_transition(0, "P.a", 1, PassiveRate(1, 1.0))
        passive.add_transition(1, "P.b", 0, ExpRate(1.0))
        with pytest.raises(WorkloadError, match="not an active .*timed"):
            apply_workload(passive, "P.a", Exponential(1.0))


class TestParseWorkloadAndFingerprint:
    def test_closed_form_specs(self):
        assert parse_workload("exp:0.103") == Exponential(0.103)
        assert parse_workload("pareto:1.5,3.23") == Pareto(1.5, 3.23)

    def test_spec_errors_become_workload_errors(self):
        with pytest.raises(WorkloadError, match="unknown distribution"):
            parse_workload("zeta:1.0")
        with pytest.raises(WorkloadError, match="empty workload spec"):
            parse_workload("   ")

    def test_trace_form_with_and_without_mode(self, tmp_path):
        path = write_trace(small_trace(), tmp_path / "trace.jsonl")
        bootstrap = parse_workload(f"trace:{path}")
        assert isinstance(bootstrap, TraceReplay)
        assert bootstrap.mode == "bootstrap"
        cycle = parse_workload(f"trace:{path}:cycle")
        assert cycle.mode == "cycle"
        with pytest.raises(WorkloadError, match="not found"):
            parse_workload(f"trace:{tmp_path}/missing.jsonl")
        with pytest.raises(WorkloadError, match="missing the trace path"):
            parse_workload("trace:")

    def test_fingerprints_are_stable_identities(self):
        assert workload_fingerprint(None) == "none"
        assert workload_fingerprint(Exponential(2.0)) == "exp(2)"
        trace = small_trace()
        fingerprint = workload_fingerprint(TraceReplay(trace, "cycle"))
        assert fingerprint == f"replay:cycle:{trace.fingerprint}"
        assert fingerprint != workload_fingerprint(TraceReplay(trace))


class TestSimTraceRecorderAlias:
    """The event-trajectory recorder imports without a warning."""

    def test_new_name_does_not_warn(self, mm1k, recwarn):
        from repro.aemilia import generate_lts
        from repro.sim.trace import EventTraceRecorder

        lts = generate_lts(mm1k)
        EventTraceRecorder(lts, capacity=5)
        assert not [
            w for w in recwarn if w.category is DeprecationWarning
        ]
