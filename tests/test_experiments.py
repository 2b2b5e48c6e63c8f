"""Tests for the experiment registry, figure regeneration and the CLI."""

import pytest

from repro.experiments import all_experiments, run_experiment
from repro.experiments import cli
from repro.experiments.cli import build_parser, main
from repro.experiments.extensions import SurvivalResult
from repro.experiments.registry import Experiment
from repro.experiments.results import (
    FigureResult,
    constant_series,
    ratio_series,
)
from repro.experiments.figures import (
    RPC,
    STREAMING,
    noninterference_figure,
    sweep_figure,
)

EXPECTED_IDS = {
    "sec3-rpc",
    "sec3-streaming",
    "fig3-markov",
    "fig3-general",
    "fig4",
    "fig4-dense",
    "fig5",
    "fig6",
    "fig7",
    "fig7-workloads",
    "fig8",
    "streaming-validation",
    "tab-params",
    "ext-battery",
    "ext-fleet",
    "ext-sensitivity",
    "ext-survival",
}


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        assert set(all_experiments()) == EXPECTED_IDS

    def test_experiments_carry_descriptions(self):
        for experiment in all_experiments().values():
            assert experiment.paper_artifact

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            run_experiment("fig99", quick=True)


class TestResultsHelpers:
    def test_constant_series(self):
        assert constant_series(3.0, 4) == [3.0, 3.0, 3.0, 3.0]

    def test_ratio_series_with_zero_denominator(self):
        assert ratio_series([1.0, 2.0], [2.0, 0.0]) == [0.5, 0.0]

    def test_figure_result_report_renders_tables_and_charts(self):
        figure = FigureResult(
            figure_id="figX",
            title="demo",
            parameter_name="p",
            parameter_values=[1.0, 2.0],
            dpm_series={"m": [0.1, 0.2]},
            nodpm_series={"m": [0.3, 0.3]},
            notes=["a note"],
        )
        text = figure.report()
        assert "figX" in text
        assert "m (DPM)" in text and "m (NO-DPM)" in text
        assert "note: a note" in text
        bare = figure.report(charts=False)
        assert "EXISTS" not in bare
        assert len(bare) < len(text)

    def test_figure_series_accessor(self):
        figure = FigureResult(
            "f", "t", "p", [1.0], {"m": [0.5]}, {"m": [0.6]}
        )
        assert figure.series("m") == [0.5]
        assert figure.series("m", "nodpm") == [0.6]


class TestCheapExperiments:
    def test_sec3_rpc_report(self):
        result = noninterference_figure(RPC)
        assert not result.simplified.holds
        assert result.revised.holds
        text = result.report()
        assert "FAILS" in text and "HOLDS" in text
        assert "C.send_rpc_packet#RCS.get_packet" in text

    def test_fig3_markov_quick(self):
        figure = sweep_figure(RPC, "markovian", [1.0, 10.0])
        assert figure.parameter_values == [1.0, 10.0]
        assert len(figure.dpm_series["energy_per_request"]) == 2
        # NO-DPM baseline is constant across the sweep.
        nodpm = figure.nodpm_series["throughput"]
        assert nodpm[0] == nodpm[1]

    def test_fig4_quick(self):
        figure = sweep_figure(STREAMING, "markovian", [50.0, 400.0])
        assert set(figure.dpm_series) == {
            "energy_per_frame", "loss", "miss", "quality",
        }
        energy = figure.dpm_series["energy_per_frame"]
        assert energy[0] > energy[1]

    def test_params_table(self):
        text = run_experiment("tab-params", quick=True)
        assert "service time" in text
        assert "AP buffer size" in text


class TestDerivations:
    def test_streaming_indices(self):
        series = {
            "nic_power": [1.0],
            "frames_received": [0.01],
            "frames_produced": [0.015],
            "frames_lost": [0.0015],
            "frame_misses": [0.003],
            "frame_gets": [0.015],
        }
        derived = STREAMING.derive(series)
        assert derived["energy_per_frame"][0] == pytest.approx(100.0)
        assert derived["loss"][0] == pytest.approx(0.1)
        assert derived["miss"][0] == pytest.approx(0.2)
        assert derived["quality"][0] == pytest.approx(0.8)


class TestCli:
    def test_parser_flags(self):
        args = build_parser().parse_args(["fig4", "--quick", "--no-charts"])
        assert args.experiment == "fig4"
        assert args.quick and args.no_charts

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3-markov" in out

    def test_run_single_experiment(self, capsys):
        assert main(["tab-params", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "tab-params done" in out

    @pytest.mark.parametrize("figure", [True, False])
    def test_type_error_inside_report_propagates(self, figure, monkeypatch):
        calls = []

        class Broken(FigureResult if figure else object):
            def __init__(self):
                pass

            def report(self, charts=True):
                calls.append(charts)
                raise TypeError("broken report")

        broken = Experiment("broken", "raising report", lambda q, o: Broken())
        monkeypatch.setattr(
            cli, "all_experiments", lambda: {"broken": broken}
        )
        with pytest.raises(TypeError, match="broken report"):
            run_experiment("broken", quick=True, charts=False)
        # Rendered once: no second attempt without the charts argument.
        assert calls == ([False] if figure else [True])

    @pytest.mark.parametrize("charts", [True, False])
    def test_survival_chart_follows_charts_flag(self, charts, monkeypatch):
        result = SurvivalResult([50.0, 100.0], [0.9, 0.5], [0.8, 0.2], 12)
        survival = Experiment("ext-survival", "survival", lambda q, o: result)
        monkeypatch.setattr(
            cli, "all_experiments", lambda: {"ext-survival": survival}
        )
        text = run_experiment("ext-survival", quick=True, charts=charts)
        assert "P(alive) NO-DPM" in text
        assert ("battery survival probability" in text) == charts

    def test_run_figure_with_charts(self, capsys):
        assert main(["fig3-markov", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fig3-left" in out
        assert "|" in out  # chart frame
