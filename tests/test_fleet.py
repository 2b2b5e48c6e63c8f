"""Differential and property tests of the fleet compositional engine.

Three independently built representations of the same N-device fleet —
the flat BFS oracle (:mod:`repro.fleet.flat`), the Kronecker product
generator and the exchangeability-lumped operator — must agree on every
reward measure to 1e-9 at the sizes where the flat chain is tractable
(N in {2, 3, 4}).  Exchangeability itself is checked as a hypothesis
property: permuting which device sits on which product axis leaves
every fleet measure unchanged, even for heterogeneous device rates.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudies.fleet import (
    DEFAULT_PARAMETERS,
    POLICIES,
    build_model,
    coordinator_automaton,
    device_automaton,
    measures as fleet_measures,
    policy as resolve_policy,
    sync_events,
)
from repro.ctmc.solvers import solve_steady_state
from repro.ctmc.steady_state import steady_state_solution
from repro.errors import SpecificationError, StateSpaceLimitError
from repro.fleet import (
    FleetAssessment,
    LumpedFleet,
    build_flat_topology,
    build_product,
    evaluate_flat,
    evaluate_product,
    multisets,
    permuted_product,
    product_generator,
    solve_fleet,
)
from repro.obs.metrics import (
    FLEET_DEVICES,
    FLEET_MATVECS,
    FLEET_PRODUCT_STATES,
    MetricRegistry,
    use_registry,
)

AGREEMENT = 1e-9


def flat_oracle_measures(model):
    """Measures from the independent flat-enumeration oracle.

    Solved with the SOR backend: product-structured chains suffer
    catastrophic ILU/LU fill-in, and SOR is also fully disjoint from
    the matrix-free gmres/power paths under test.
    """
    flat = build_flat_topology(model.topology)
    solution = steady_state_solution(flat.ctmc, method="sor")
    return evaluate_flat(model.measures, solution.pi, flat)


def assert_measures_close(left, right, tolerance=AGREEMENT):
    assert set(left) == set(right)
    for name in left:
        assert left[name] == pytest.approx(
            right[name], abs=tolerance
        ), f"measure {name!r}: {left[name]} != {right[name]}"


class TestDifferential:
    """Flat oracle vs Kronecker product vs exchangeability lumping."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_lumped_matches_flat_n2_all_policies(self, policy):
        model = build_model(2, policy)
        lumped = solve_fleet(model.topology, model.measures).measures
        assert_measures_close(lumped, flat_oracle_measures(model))

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("policy", ["balanced", "emergency"])
    def test_lumped_matches_flat_larger_fleets(self, n, policy):
        model = build_model(n, policy)
        lumped = solve_fleet(model.topology, model.measures).measures
        assert_measures_close(lumped, flat_oracle_measures(model))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("policy", ["balanced", "staggered"])
    def test_product_matches_flat(self, n, policy):
        model = build_model(n, policy)
        product = solve_fleet(
            model.topology, model.measures, representation="product"
        ).measures
        assert_measures_close(product, flat_oracle_measures(model))

    def test_product_distribution_projects_onto_lumped(self):
        model = build_model(3, "balanced")
        product = solve_fleet(
            model.topology,
            model.measures,
            representation="product",
            keep_distribution=True,
        )
        lumped = solve_fleet(
            model.topology,
            model.measures,
            representation="lumped",
            keep_distribution=True,
        )
        projected = LumpedFleet(model.topology).project(product.pi)
        np.testing.assert_allclose(
            projected, lumped.pi, atol=AGREEMENT
        )


class TestLumping:
    def test_lumped_size_is_multiset_counting(self):
        for n in (1, 2, 5, 9):
            model = build_model(n, "balanced")
            d = model.topology.device.num_states
            c = model.topology.coordinator.num_states
            expected = c * math.comb(n + d - 1, d - 1)
            assert model.topology.lumped_states == expected
            lumped = LumpedFleet(model.topology)
            assert lumped.operator().shape == (expected, expected)

    def test_multisets_enumeration(self):
        counts = multisets(3, 2)
        assert len(counts) == math.comb(2 + 3 - 1, 3 - 1)
        assert all(sum(count) == 2 for count in counts)
        assert len(set(counts)) == len(counts)

    def test_product_space_grows_exponentially_lumped_polynomially(self):
        small = build_model(4, "balanced").topology
        large = build_model(8, "balanced").topology
        d = small.device.num_states
        # Doubling N multiplies the product space by |S|^N but the
        # lumped multiset space (a degree d-1 polynomial in N) by at
        # most 2^(d-1).
        assert large.product_states == small.product_states * d**4
        assert large.lumped_states < small.lumped_states * 2 ** (d - 1)
        assert large.lumped_states * 100 < large.product_states


class TestPolicies:
    def test_handoffs_only_under_emergency(self):
        for policy in sorted(POLICIES):
            model = build_model(2, policy)
            measures = solve_fleet(model.topology, model.measures).measures
            if policy == "emergency":
                assert measures["handoffs"] > 0.0
            else:
                assert measures["handoffs"] == 0.0

    def test_staggered_wakeups_below_balanced(self):
        balanced = build_model(3, "balanced")
        staggered = build_model(3, "staggered")
        wake_balanced = solve_fleet(
            balanced.topology, balanced.measures
        ).measures["wakeups"]
        wake_staggered = solve_fleet(
            staggered.topology, staggered.measures
        ).measures["wakeups"]
        assert 0.0 < wake_staggered < wake_balanced

    def test_unknown_policy_rejected(self):
        with pytest.raises(SpecificationError):
            build_model(2, "frantic")


class TestExchangeability:
    """Permuting device axes never changes a fleet measure."""

    @staticmethod
    def _heterogeneous_devices(factors):
        return tuple(
            device_automaton(
                DEFAULT_PARAMETERS.override(
                    {"service_time": 0.2 * factor, "drain_rate": 0.05 * factor}
                )
            )
            for factor in factors
        )

    @given(
        permutation=st.permutations(list(range(3))),
        factors=st.lists(
            st.sampled_from([0.5, 1.0, 2.0]), min_size=3, max_size=3
        ),
    )
    @settings(max_examples=5, deadline=None)
    def test_device_permutation_leaves_measures_unchanged(
        self, permutation, factors
    ):
        chosen = resolve_policy("balanced")
        coordinator = coordinator_automaton(DEFAULT_PARAMETERS, chosen)
        events = sync_events(chosen)
        devices = self._heterogeneous_devices(factors)
        measures = fleet_measures(DEFAULT_PARAMETERS)

        base = product_generator(coordinator, devices, events)
        shuffled = permuted_product(devices, coordinator, events, permutation)
        base_pi = solve_steady_state(base.generator.operator()).pi
        shuffled_pi = solve_steady_state(shuffled.generator.operator()).pi
        assert_measures_close(
            evaluate_product(measures, base_pi, base),
            evaluate_product(measures, shuffled_pi, shuffled),
        )

    def test_invalid_permutation_rejected(self):
        chosen = resolve_policy("balanced")
        coordinator = coordinator_automaton(DEFAULT_PARAMETERS, chosen)
        devices = self._heterogeneous_devices([1.0, 1.0])
        with pytest.raises(SpecificationError):
            permuted_product(
                devices, coordinator, sync_events(chosen), [0, 0]
            )


class TestFlatOracle:
    def test_flat_enumeration_is_size_gated(self):
        model = build_model(4, "balanced")
        with pytest.raises(StateSpaceLimitError):
            build_flat_topology(model.topology, max_states=100)

    def test_flat_reaches_all_dynamically_possible_states(self):
        # The flat oracle enumerates reachable states only.  At N=2 the
        # sole unreachable combinations are "queue empty while every
        # device is awaking": a wake fires only on a backlogged queue,
        # and awaking devices cannot drain it.
        model = build_model(2, "balanced")
        flat = build_flat_topology(model.topology)
        assert len(flat.states) == model.topology.product_states - 4
        awaking = {
            index
            for index, name in enumerate(model.topology.device.state_names)
            if name.startswith("awaking")
        }
        empty_queue = model.topology.coordinator.state_index("queue_0")
        reached = set(flat.states)
        for c in range(model.topology.coordinator.num_states):
            for pair in itertools.product(
                range(model.topology.device.num_states), repeat=2
            ):
                state = (c, pair)
                if state not in reached:
                    assert c == empty_queue
                    assert set(pair) <= awaking


class TestAssessment:
    """The sweep driver: determinism, checkpoints, metrics."""

    def test_sweep_workers_bit_identical(self):
        values = [0.5, 1.5, 3.0]
        serial = FleetAssessment(2, workers=1).sweep("arrival_rate", values)
        parallel = FleetAssessment(2, workers=2).sweep(
            "arrival_rate", values
        )
        assert serial == parallel

    def test_sweep_checkpoint_resume_bit_identical(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        values = [0.5, 1.5]
        first = FleetAssessment(2).sweep(
            "arrival_rate", values, checkpoint=journal
        )
        resumed_assessment = FleetAssessment(2)
        resumed = resumed_assessment.sweep(
            "arrival_rate", values, checkpoint=journal
        )
        assert first == resumed
        stats = resumed_assessment.runtime_stats()
        assert stats["checkpoint_hits"] == len(values)

    def test_sweep_rejects_unknown_parameter(self):
        with pytest.raises(SpecificationError):
            FleetAssessment(2).sweep("warp_factor", [1.0])

    def test_solver_and_operator_records_accumulate(self):
        assessment = FleetAssessment(2, representation="product")
        series = assessment.sweep("arrival_rate", [1.0, 2.0])
        assert len(assessment.solver_records) == 2
        assert len(assessment.operator_records) == 2
        record = assessment.operator_records[0]
        assert record["representation"] == "product"
        assert record["states"] == record["product_states"]
        assert record["matvecs"] > 0
        assert all(len(points) == 2 for points in series.values())

    def test_fleet_metrics_recorded(self):
        registry = MetricRegistry()
        with use_registry(registry):
            model = build_model(3, "balanced")
            solve_fleet(model.topology, model.measures)
        snapshot = registry.snapshot()
        devices = snapshot[FLEET_DEVICES.name]["series"][0]["value"]
        assert devices == 3
        product_states = snapshot[FLEET_PRODUCT_STATES.name]["series"][0][
            "value"
        ]
        assert product_states == model.topology.product_states
        matvec_series = snapshot[FLEET_MATVECS.name]["series"]
        assert matvec_series[0]["labels"] == {"representation": "lumped"}
        assert matvec_series[0]["value"] > 0
