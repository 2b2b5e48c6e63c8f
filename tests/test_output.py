"""Tests for replication output analysis and confidence intervals."""

import math
from functools import lru_cache

import numpy as np
import pytest

from repro.aemilia.rates import ExpRate
from repro.aemilia.semantics import generate_lts
from repro.casestudies import rpc, streaming
from repro.ctmc import measure, state_clause, trans_clause
from repro.errors import SimulationError
from repro.lts import LTS
from repro.sim import Estimate, generator_for_run, replicate, summarize
from tests.oracles import replicate_reference

CASES = {"rpc": rpc.family, "streaming": streaming.family}


def simple_lts():
    lts = LTS(0)
    for _ in range(2):
        lts.add_state()
    lts.add_transition(0, "up", 1, ExpRate(2.0), "up")
    lts.add_transition(1, "down", 0, ExpRate(3.0), "down")
    return lts


class TestSummarize:
    def test_mean_and_halfwidth(self):
        estimate = summarize([1.0, 2.0, 3.0], confidence=0.90)
        assert estimate.mean == pytest.approx(2.0)
        assert estimate.runs == 3
        # half-width = t_{0.95,2} * s / sqrt(3) = 2.9199856 / sqrt(3).
        assert estimate.half_width == pytest.approx(
            2.9199856 / math.sqrt(3.0), rel=1e-4
        )

    def test_single_sample_infinite_interval(self):
        estimate = summarize([5.0])
        assert estimate.mean == 5.0
        assert math.isinf(estimate.half_width)

    def test_zero_samples_rejected(self):
        with pytest.raises(SimulationError):
            summarize([])

    def test_interval_bounds_and_overlap(self):
        estimate = Estimate(10.0, 1.0, 2.0, 5, 0.90)
        assert estimate.low == 9.0
        assert estimate.high == 11.0
        assert estimate.overlaps(10.5)
        assert not estimate.overlaps(12.0)

    def test_interval_intersection(self):
        a = Estimate(10.0, 1.0, 1.0, 5, 0.90)
        b = Estimate(11.5, 1.0, 1.0, 5, 0.90)
        c = Estimate(13.0, 0.5, 1.0, 5, 0.90)
        assert a.overlaps_estimate(b)
        assert not a.overlaps_estimate(c)

    def test_higher_confidence_widens_interval(self):
        narrow = summarize([1.0, 2.0, 3.0, 4.0], confidence=0.90)
        wide = summarize([1.0, 2.0, 3.0, 4.0], confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_str_format(self):
        estimate = summarize([1.0, 2.0, 3.0])
        text = str(estimate)
        assert "±" in text and "n=3" in text


class TestReplicate:
    def test_estimates_for_all_measures(self):
        measures = [
            measure("in0", state_clause("up", 1.0)),
            measure("ups", trans_clause("up", 1.0)),
        ]
        result = replicate(
            simple_lts(), measures, run_length=2_000.0, runs=6, seed=42
        )
        assert set(result.estimates) == {"in0", "ups"}
        assert result["in0"].mean == pytest.approx(0.6, rel=0.05)
        assert len(result.samples["ups"]) == 6

    def test_deterministic_given_seed(self):
        measures = [measure("in0", state_clause("up", 1.0))]
        first = replicate(
            simple_lts(), measures, run_length=500.0, runs=4, seed=99
        )
        second = replicate(
            simple_lts(), measures, run_length=500.0, runs=4, seed=99
        )
        assert first.samples == second.samples

    def test_different_seeds_differ(self):
        measures = [measure("in0", state_clause("up", 1.0))]
        first = replicate(
            simple_lts(), measures, run_length=500.0, runs=4, seed=1
        )
        second = replicate(
            simple_lts(), measures, run_length=500.0, runs=4, seed=2
        )
        assert first.samples != second.samples

    def test_needs_two_runs(self):
        with pytest.raises(SimulationError):
            replicate(simple_lts(), [], run_length=100.0, runs=1)

    def test_interval_shrinks_with_more_runs(self):
        measures = [measure("in0", state_clause("up", 1.0))]
        few = replicate(
            simple_lts(), measures, run_length=500.0, runs=4, seed=5
        )
        many = replicate(
            simple_lts(), measures, run_length=500.0, runs=24, seed=5
        )
        assert many["in0"].half_width < few["in0"].half_width

    def test_coverage_of_true_value(self):
        """90% CI from 30 runs should cover the analytic 0.6 (seeded)."""
        measures = [measure("in0", state_clause("up", 1.0))]
        result = replicate(
            simple_lts(), measures, run_length=2_000.0, runs=30, seed=7
        )
        assert result["in0"].overlaps(0.6)


class TestSeedStreams:
    def test_spawned_generators_are_independent(self):
        a = generator_for_run(123, 0).random(5)
        b = generator_for_run(123, 1).random(5)
        assert not np.allclose(a, b)

    def test_spawn_reproducible(self):
        for index in range(3):
            assert np.allclose(
                generator_for_run(321, index).random(4),
                generator_for_run(321, index).random(4),
            )


@lru_cache(maxsize=None)
def _general(case):
    family = CASES[case]()
    return generate_lts(family.general_dpm, None, 200_000), family.measures


class TestReplicateOracle:
    """``replicate`` runs chunks of run indices through the executor;
    its samples must equal the historical inline loop's, run for run."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "case,run_length,warmup",
        [("rpc", 400.0, 40.0), ("streaming", 3_000.0, 250.0)],
    )
    def test_samples_equal_the_inline_loop(
        self, case, run_length, warmup, workers
    ):
        lts, measures = _general(case)
        expected = replicate_reference(
            lts, measures, run_length, runs=5, warmup=warmup, seed=17
        )
        result = replicate(
            lts, measures, run_length, runs=5, warmup=warmup, seed=17,
            workers=workers,
        )
        assert result.samples == expected


class TestNearZeroIntervals:
    """Regression tests for the near-zero interval fix: symmetric
    Student-t intervals go negative (or collapse to zero width) exactly
    where rare-event probabilities live (docs/RELIABILITY.md)."""

    def test_wilson_zero_successes_has_positive_upper_bound(self):
        from repro.sim import wilson_interval

        low, high = wilson_interval(0, 20, confidence=0.95)
        assert low == pytest.approx(0.0, abs=1e-12)
        # k = 0 closed form: z^2 / (n + z^2).
        z = 1.959963984540054
        assert high == pytest.approx(z * z / (20 + z * z))
        assert high > 0.0

    def test_wilson_stays_inside_unit_interval(self):
        from repro.sim import wilson_interval

        for successes, trials in [(0, 5), (5, 5), (1, 3), (99, 100)]:
            low, high = wilson_interval(successes, trials)
            assert 0.0 <= low <= high <= 1.0

    def test_wilson_rejects_bad_counts(self):
        from repro.sim import wilson_interval

        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    def test_log_scale_lower_bound_never_negative(self):
        from repro.sim import log_scale_interval

        # Symmetric t interval here: 1e-6 +- 2.776 * 2e-6 / sqrt(5),
        # i.e. a negative lower bound; the log-scale one stays > 0.
        low, high = log_scale_interval(1e-6, 2e-6, 5, confidence=0.95)
        assert 0.0 < low < 1e-6 < high

    def test_log_scale_is_multiplicative(self):
        from repro.sim import log_scale_interval

        low, high = log_scale_interval(1e-4, 5e-5, 10)
        assert high / 1e-4 == pytest.approx(1e-4 / low)

    def test_log_scale_rejects_degenerate_input(self):
        from repro.sim import log_scale_interval

        with pytest.raises(ValueError):
            log_scale_interval(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            log_scale_interval(1e-6, 1.0, 1)

    def test_summarize_rare_all_zero_samples(self):
        from repro.sim import summarize_rare

        rare = summarize_rare([0.0] * 12, confidence=0.95)
        assert rare.method == "wilson"
        assert rare.mean == 0.0
        assert rare.low == pytest.approx(0.0, abs=1e-12)
        assert rare.high > 0.0
        assert not rare.overlaps(rare.high * 1.01)

    def test_summarize_rare_positive_samples_use_log_t(self):
        from repro.sim import summarize_rare

        rare = summarize_rare([1e-6, 3e-6, 2e-6, 5e-7], confidence=0.95)
        assert rare.method == "log-t"
        assert 0.0 < rare.low < rare.mean < rare.high

    def test_summarize_rare_rejects_negative_samples(self):
        from repro.sim import summarize_rare

        with pytest.raises(SimulationError):
            summarize_rare([0.1, -0.2])
