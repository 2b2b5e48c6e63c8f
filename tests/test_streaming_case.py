"""Paper-shape tests for the streaming case study (Sect. 3.2, 4.2, 5.3)."""

import pytest

from repro.casestudies import streaming
from repro.core import IncrementalMethodology
from repro.experiments.figures import STREAMING


@pytest.fixture(scope="module")
def methodology():
    from repro.casestudies.streaming import family

    return IncrementalMethodology(family())


def indices(results):
    series = {name: [value] for name, value in results.items()}
    derived = STREAMING.derive(series)
    return {name: values[0] for name, values in derived.items()}


class TestMarkovianShapes:
    """Fig. 4."""

    def test_energy_per_frame_decreases_with_awake_period(self, methodology):
        values = []
        for period in (25.0, 100.0, 400.0):
            results = methodology.solve_markovian(
                "dpm", {"awake_period": period}
            )
            values.append(indices(results)["energy_per_frame"])
        assert values[0] > values[1] > values[2]

    def test_miss_increases_quality_decreases(self, methodology):
        low = indices(
            methodology.solve_markovian("dpm", {"awake_period": 25.0})
        )
        high = indices(
            methodology.solve_markovian("dpm", {"awake_period": 400.0})
        )
        assert high["miss"] > low["miss"]
        assert high["quality"] < low["quality"]
        assert low["quality"] == pytest.approx(1.0 - low["miss"])

    def test_seventy_percent_saving_at_100ms(self, methodology):
        """Paper: ~70% energy saving around 50-100 ms awake periods."""
        dpm = indices(
            methodology.solve_markovian("dpm", {"awake_period": 100.0})
        )
        nodpm = indices(methodology.solve_markovian("nodpm"))
        saving = 1.0 - dpm["energy_per_frame"] / nodpm["energy_per_frame"]
        assert saving > 0.60

    def test_nodpm_power_is_full_awake_power(self, methodology):
        results = methodology.solve_markovian("nodpm")
        assert results["nic_power"] == pytest.approx(
            streaming.DEFAULT_PARAMETERS.power_awake
        )

    def test_frame_conservation(self, methodology):
        """The NIC cannot deliver more frames than the server produced,
        and the AP-overflow + channel-loss gap stays moderate."""
        results = methodology.solve_markovian(
            "dpm", {"awake_period": 100.0}
        )
        produced = results["frames_produced"]
        received = results["frames_received"]
        assert received <= produced
        # AP overflow (~10% at this period) + 2% channel loss.
        assert received >= produced * 0.85
        # Client fetch attempts happen at the rendering rate.
        assert results["frame_gets"] == pytest.approx(produced, rel=0.01)


class TestGeneralShapes:
    """Fig. 6 and the Sect. 5.3 findings."""

    SIM = dict(run_length=30_000.0, runs=3, warmup=1_500.0)

    def test_no_loss_and_no_miss_at_100ms(self, methodology):
        replication = methodology.simulate_general(
            "dpm", {"awake_period": 100.0}, **self.SIM
        )
        raw = {name: replication[name].mean for name in replication.estimates}
        derived = indices(raw)
        assert derived["loss"] == pytest.approx(0.0, abs=1e-6)
        assert derived["miss"] < 0.03

    def test_energy_saving_with_unaffected_quality_at_100ms(self, methodology):
        dpm_rep = methodology.simulate_general(
            "dpm", {"awake_period": 100.0}, **self.SIM
        )
        nodpm_rep = methodology.simulate_general("nodpm", **self.SIM)
        dpm = indices({n: dpm_rep[n].mean for n in dpm_rep.estimates})
        nodpm = indices({n: nodpm_rep[n].mean for n in nodpm_rep.estimates})
        saving = 1.0 - dpm["energy_per_frame"] / nodpm["energy_per_frame"]
        assert saving > 0.60
        assert dpm["quality"] > 0.95

    def test_long_awake_period_degrades_quality(self, methodology):
        """Beyond the client-buffer horizon (10 frames x 67 ms ~ 670 ms)
        the deterministic model starts missing deadlines and overflowing
        the AP buffer.  (Our general model pre-buffers the full client
        buffer and drains the whole AP buffer per wake-up, so the
        degradation onset sits at longer awake periods than the paper's
        plot — see EXPERIMENTS.md.)"""
        replication = methodology.simulate_general(
            "dpm", {"awake_period": 800.0}, **self.SIM
        )
        derived = indices(
            {n: replication[n].mean for n in replication.estimates}
        )
        assert derived["miss"] > 0.05
        assert derived["loss"] > 0.01

    def test_general_model_less_pessimistic_than_markovian(self, methodology):
        """The Markovian model overestimates misses at 100 ms (paper:
        simulation results are 'much more informative')."""
        markov = indices(
            methodology.solve_markovian("dpm", {"awake_period": 100.0})
        )
        replication = methodology.simulate_general(
            "dpm", {"awake_period": 100.0}, **self.SIM
        )
        general = indices(
            {n: replication[n].mean for n in replication.estimates}
        )
        assert general["miss"] < markov["miss"]


class TestParameters:
    def test_aironet_periods(self):
        assert streaming.AIRONET_AWAKE_PERIODS == [100.0, 200.0]

    def test_const_overrides_cover_architecture(self, streaming_family):
        overrides = streaming.DEFAULT_PARAMETERS.const_overrides()
        declared = {
            p.name for p in streaming_family.general_dpm.const_params
        }
        assert set(overrides) <= declared

    def test_power_levels_ordered(self):
        params = streaming.DEFAULT_PARAMETERS
        assert params.power_doze < params.power_awake < params.power_awaking


class TestFamily:
    def test_family_is_complete(self, streaming_family):
        assert streaming_family.functional_dpm is not None
        assert len(streaming_family.measures) == 6

    def test_functional_capacities_reduced(self):
        caps = streaming.functional.FUNCTIONAL_CAPACITIES
        assert caps["ap_capacity"] < 10
        assert caps["b_capacity"] < 10

    def test_untimed_spec_has_no_rates(self):
        spec = streaming.functional.FUNCTIONAL_SPEC
        assert "exp(" not in spec
        assert "inf(" not in spec
