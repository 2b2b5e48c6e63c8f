"""Tests for rare-event importance splitting (repro.sim.splitting).

Covers the layer's contracts: the degenerate configuration collapses
bit-identically to naive replication on the per-event-type streams,
results are worker-count invariant, the estimator's interval covers the
analytic CTMC probability, weight is conserved, and a tree's slot
streams never replay a stream.  The literal values are pinned in
``tests/test_sim_pins.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aemilia.rates import GeneralRate
from repro.ctmc import measure, state_clause, trans_clause
from repro.distributions import Exponential
from repro.errors import SimulationError
from repro.lts import LTS
from repro.obs import MetricRegistry, render_prometheus, use_registry
from repro.sim import (
    ImportanceFunction,
    RunStreams,
    Simulator,
    reward_importance,
    split_replicate,
    splitting_event_generator,
    tabulate_importance,
)
from repro.sim.streams import _BLOCK as BLOCK

#: Literal protocol values (``tests/test_sim_pins.py``).
PINS = json.loads(Path(__file__).with_name("sim_pins.json").read_text())


def cascade_lts(depth, up=1.0, down=2.0, out=2.0):
    """Timeout cascade: states count consecutive timeouts; ``abort``
    fires only from the deepest state."""
    lts = LTS(0)
    for _ in range(depth + 1):
        lts.add_state()
    for k in range(depth):
        lts.add_transition(
            k, "C.expire_timeout", k + 1,
            GeneralRate(Exponential(up)), "C.expire_timeout",
        )
        if k > 0:
            lts.add_transition(
                k, "C.receive_result", 0,
                GeneralRate(Exponential(down)), "C.receive_result",
            )
    lts.add_transition(
        depth, "C.abort", 0, GeneralRate(Exponential(out)), "C.abort"
    )
    return lts


def analytic_abort_rate(depth, up=1.0, down=2.0, out=2.0):
    """Exact steady-state abort rate of the cascade's CTMC."""
    states = depth + 1
    generator = np.zeros((states, states))
    for k in range(depth):
        generator[k, k + 1] += up
        generator[k, k] -= up
        if k > 0:
            generator[k, 0] += down
            generator[k, k] -= down
    generator[depth, 0] += out
    generator[depth, depth] -= out
    system = np.vstack([generator.T, np.ones(states)])
    rhs = np.zeros(states + 1)
    rhs[-1] = 1.0
    pi = np.linalg.lstsq(system, rhs, rcond=None)[0]
    return float(pi[depth] * out)


def abort_measures():
    return [
        measure("abort_rate", trans_clause("C.abort", 1.0)),
        measure("deep", state_clause("C.abort", 1.0)),
    ]


class TestImportanceFunctions:
    def test_reward_importance_targets_top_level(self):
        lts = cascade_lts(4)
        importance = reward_importance(lts, abort_measures()[0], 4)
        # Only the deepest state enables C.abort, so it is the top
        # level and the levels grade down with BFS distance.
        assert importance.level(4) == 4
        assert importance.level(0) == 0
        levels = [importance.level(state) for state in range(5)]
        assert levels == sorted(levels)

    def test_reward_importance_without_support_rejected(self):
        lts = cascade_lts(3)
        ghost = measure("ghost", trans_clause("no_such_label", 1.0))
        with pytest.raises(SimulationError):
            reward_importance(lts, ghost, 3)

    def test_tabulate_validates_range(self):
        lts = cascade_lts(2)
        with pytest.raises(SimulationError):
            tabulate_importance(lts, lambda state: 99, 2)
        importance = tabulate_importance(lts, lambda state: state, 2)
        assert importance.table == (0, 1, 2)

    def test_prebuilt_importance_must_match_model_and_levels(self):
        lts = cascade_lts(3)
        wrong_size = ImportanceFunction(3, (0, 1, 2))
        with pytest.raises(SimulationError):
            split_replicate(
                lts, abort_measures(), 10.0, levels=3, splits=2,
                segments=2, runs=2, importance=wrong_size,
            )
        wrong_levels = ImportanceFunction(2, (0, 0, 1, 2))
        with pytest.raises(SimulationError):
            split_replicate(
                lts, abort_measures(), 10.0, levels=3, splits=2,
                segments=2, runs=2, importance=wrong_levels,
            )

    def test_unknown_rare_measure_rejected(self):
        with pytest.raises(SimulationError):
            split_replicate(
                cascade_lts(2), abort_measures(), 10.0, levels=2,
                splits=2, segments=2, runs=2, rare_measure="nope",
            )


class TestParameterValidation:
    def test_bad_geometry_rejected(self):
        lts = cascade_lts(2)
        with pytest.raises(SimulationError):
            split_replicate(lts, abort_measures(), 10.0, runs=1)
        with pytest.raises(SimulationError):
            split_replicate(lts, abort_measures(), 10.0, levels=0)
        with pytest.raises(SimulationError):
            split_replicate(lts, abort_measures(), 10.0, splits=0)
        with pytest.raises(SimulationError):
            split_replicate(lts, abort_measures(), 10.0, segments=0)
        with pytest.raises(SimulationError):
            split_replicate(lts, abort_measures(), 0.0)


class TestDegenerateCollapse:
    """splits=1 must be *bit-identical* to naive replication on the
    per-event-type streams — the anchor tying the splitting layer to
    the engine."""

    @pytest.mark.parametrize("baseline", ["fast", "reference"])
    def test_one_split_equals_naive_replication(self, baseline):
        """``fast``: the naive replication the retired vectorized kernel
        produced on these streams (recorded in ``tests/sim_pins.json``);
        ``reference``: the engine, run live on the same streams."""
        lts = cascade_lts(3)
        if baseline == "fast":
            recorded = PINS["split_one"]["protocol"]
            naive = recorded["samples"]
            events = recorded["events"]
        else:
            simulator = Simulator(lts, abort_measures())
            runs = [
                simulator.run(400.0, RunStreams(97, run), 20.0)
                for run in range(6)
            ]
            naive = {
                name: [result.measures[name] for result in runs]
                for name in ("abort_rate", "deep")
            }
            events = sum(result.events_fired for result in runs)
        split = split_replicate(
            lts, abort_measures(), 400.0, levels=3, splits=1,
            segments=17, runs=6, warmup=20.0, seed=97,
        )
        for name in ("abort_rate", "deep"):
            assert split.samples[name] == naive[name]
        assert split.events == events
        assert split.clones == 0
        assert split.merges == 0
        assert split.peak_trajectories == 1


class TestDeterminism:
    def _run(self, **kwargs):
        settings = dict(
            levels=3, splits=3, segments=25, runs=4, warmup=5.0,
            seed=41,
        )
        settings.update(kwargs)
        return split_replicate(
            cascade_lts(3), abort_measures(), 50.0, **settings
        )

    def test_worker_count_invariant(self):
        serial = self._run(workers=1)
        parallel = self._run(workers=3)
        assert serial.samples == parallel.samples
        assert serial.occupancy == parallel.occupancy
        assert serial.events == parallel.events

    def test_engines_bit_identical(self):
        """The engine grows, bit for bit, the trees the retired
        vectorized kernel grew for this configuration (recorded in
        ``tests/sim_pins.json``)."""
        result = self._run()
        recorded = PINS["split_cascade"]["protocol"]
        assert result.samples == recorded["samples"]
        assert result.occupancy == recorded["occupancy"]
        assert result.clones == recorded["clones"]
        assert result.merges == recorded["merges"]

    def test_seed_reproducible_and_sensitive(self):
        first = self._run()
        again = self._run()
        other = self._run(seed=42)
        assert first.samples == again.samples
        assert first.samples != other.samples


class TestEstimator:
    def test_interval_covers_analytic_probability(self):
        # Acceptance: the splitting estimate of the cascade's rare
        # probability (P[deep] ~ 0.0123) must cover the direct CTMC
        # solve within its 95% interval.
        truth = analytic_abort_rate(3) / 2.0  # pi_deep = rate / out
        result = split_replicate(
            cascade_lts(3), abort_measures(), 100.0, levels=3,
            splits=4, segments=200, runs=30, warmup=5.0, seed=7,
            confidence=0.95, workers=4,
        )
        rare = result.rare["deep"]
        assert rare.low <= truth <= rare.high
        assert rare.mean == pytest.approx(truth, rel=0.5)

    def test_rare_probability_matches_top_occupancy(self):
        result = split_replicate(
            cascade_lts(3), abort_measures(), 50.0, levels=3, splits=3,
            segments=25, runs=4, warmup=5.0, seed=41,
        )
        top = result.occupancy[result.levels]
        rare = result.rare_probability()
        assert rare.mean == pytest.approx(float(np.mean(top)))

    def test_level_conditionals_telescope(self):
        result = split_replicate(
            cascade_lts(3), abort_measures(), 50.0, levels=3, splits=3,
            segments=25, runs=4, warmup=5.0, seed=41,
        )
        conditionals = result.level_conditionals
        assert len(conditionals) == result.levels
        product = float(np.prod(conditionals))
        assert product == pytest.approx(
            result.rare_probability().mean, rel=1e-9
        )


@st.composite
def cascade_configs(draw):
    depth = draw(st.integers(min_value=1, max_value=3))
    up = draw(st.floats(min_value=0.3, max_value=2.0))
    down = draw(st.floats(min_value=0.5, max_value=3.0))
    splits = draw(st.integers(min_value=1, max_value=4))
    segments = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return depth, up, down, splits, segments, seed


class TestInvariantProperties:
    @settings(max_examples=15, deadline=None)
    @given(cascade_configs())
    def test_weight_conservation_and_monotone_occupancy(self, config):
        depth, up, down, splits, segments, seed = config
        result = split_replicate(
            cascade_lts(depth, up=up, down=down),
            abort_measures(), 30.0, levels=depth, splits=splits,
            segments=segments, runs=2, seed=seed,
        )
        # Total weight 1 per tree: base occupancy is exactly the
        # weight average over boundaries.
        for sample in result.occupancy[0]:
            assert sample == pytest.approx(1.0, abs=1e-9)
        # P(level >= l) is non-increasing in l, and every conditional
        # is a probability.
        for run in range(2):
            per_level = [
                result.occupancy[level][run]
                for level in range(depth + 1)
            ]
            for higher, lower in zip(per_level, per_level[1:]):
                assert lower <= higher + 1e-9
        for conditional in result.level_conditionals:
            assert 0.0 <= conditional <= 1.0 + 1e-9
        for sample in result.samples["abort_rate"]:
            assert sample >= 0.0


class TestAllocatorDynamicRows:
    """Slot-stream invariants the splitting layer depends on: a tree's
    slots are a list of :class:`RunStreams`, appended for a new key and
    cut back after compaction."""

    def _drain(self, streams, name, count):
        dist = Exponential(1.0)
        return [streams.duration(name, dist) for _ in range(count)]

    def test_streams_cross_block_boundaries_byte_identically(self):
        # A stream drained one draw at a time across several block
        # refills, interleaved with another event type's draws, must
        # match a second one drained in one sweep — the buffer refill
        # logic cannot skew bytes.
        one = RunStreams(5, (2, 7))
        two = RunStreams(5, (2, 7))
        count = 2 * BLOCK + BLOCK // 2 + 3
        first = self._drain(one, "C.expire_timeout", count)
        interleaved = []
        dist = Exponential(1.0)
        for index in range(count):
            interleaved.append(two.duration("C.expire_timeout", dist))
            if index % 3 == 0:
                two.duration("C.receive_result", dist)
        assert first == interleaved

    def test_restart_at_exact_block_boundary_neither_skips_nor_redraws(self):
        # A trajectory restarted when its buffer is exactly used up (the
        # refill trigger) must continue with the sample an
        # uninterrupted run would have drawn next.
        paused = RunStreams(5, (2, 7))
        whole = RunStreams(5, (2, 7))
        prefix = self._drain(paused, "C.abort", BLOCK)
        sweep = self._drain(whole, "C.abort", BLOCK + 5)
        assert prefix == sweep[:BLOCK]
        # ...checkpoint/restart happens here, buffer exhausted...
        continuation = self._drain(paused, "C.abort", 5)
        assert continuation == sweep[BLOCK:]

    def test_engine_segmented_restart_matches_uninterrupted_run(self):
        # Engine-level byte identity: running one trajectory in two
        # segments — restarting from (final_state, final_clocks) on
        # the same streams — reproduces the uninterrupted run.
        lts = cascade_lts(3)
        simulator = Simulator(lts, abort_measures())
        whole = simulator.run(100.0, RunStreams(9, 0))
        streams = RunStreams(9, 0)
        first = simulator.run(50.0, streams)
        second = simulator.run(
            50.0,
            streams,
            start_state=first.final_state,
            start_clocks=first.final_clocks,
        )
        assert second.final_state == whole.final_state
        assert (
            first.events_fired + second.events_fired
            == whole.events_fired
        )
        for name in ("abort_rate", "deep"):
            stitched = (
                first.measures[name] + second.measures[name]
            ) / 2.0
            assert stitched == pytest.approx(
                whole.measures[name], rel=1e-12, abs=1e-15
            )

    def test_slot_key_defines_the_stream(self):
        # The same (run, slot) key yields the same stream wherever the
        # slot sits in the list and whatever its neighbours drew.
        tall = [RunStreams(5, (1, key)) for key in (0, 5, 9)]
        self._drain(tall[0], "C.abort", 3)
        self._drain(tall[1], "C.abort", 3)
        short = [RunStreams(5, (1, 9))]
        assert self._drain(tall[2], "C.abort", 10) == self._drain(
            short[0], "C.abort", 10
        )

    def test_add_row_opens_a_fresh_slot_stream(self):
        slots = [RunStreams(5, (1, 0))]
        self._drain(slots[0], "C.abort", 7)
        slots.append(RunStreams(5, (1, 3)))
        fresh = RunStreams(5, (1, 3))
        assert self._drain(slots[1], "C.abort", 10) == self._drain(
            fresh, "C.abort", 10
        )

    def test_truncate_then_new_key_never_replays(self):
        slots = [RunStreams(5, (1, 0))]
        slots.append(RunStreams(5, (1, 1)))
        burned = self._drain(slots[1], "C.abort", 5)
        del slots[1:]
        slots.append(RunStreams(5, (1, 2)))
        assert len(slots) == 2  # slot position reused...
        fresh = self._drain(slots[1], "C.abort", 5)
        assert fresh != burned  # ...but the stream is new
        # And the surviving slot's stream is untouched by the churn.
        quiet = RunStreams(5, (1, 0))
        assert self._drain(slots[0], "C.abort", 8) == self._drain(
            quiet, "C.abort", 8
        )

    def test_composite_keys_dispatch_to_splitting_namespace(self):
        drawn = self._drain(RunStreams(5, (4, 2)), "C.abort", 4)
        generator = splitting_event_generator(5, 4, 2, "C.abort")
        expected = [
            Exponential(1.0).sample(generator) for _ in range(4)
        ]
        assert drawn == expected


class TestMetricsEmission:
    def test_splitting_counters_emitted(self):
        registry = MetricRegistry()
        with use_registry(registry):
            split_replicate(
                cascade_lts(2), abort_measures(), 30.0, levels=2,
                splits=3, segments=10, runs=2, seed=3,
            )
        rendered = render_prometheus(registry)
        assert "repro_splitting_trees_total 2" in rendered
        assert "repro_splitting_events_total" in rendered
