"""Golden reports of every paper-pipeline experiment at ``--quick``.

Each file under ``tests/data/figure_reports`` is the text that
``run_experiment(id, quick=True, charts=True)`` printed before the two
case-study figure modules were folded into one pipeline.  A report must
stay byte-identical, except for the decimal numbers of its ``runtime:``
line (phase durations and the solver residual), which are masked on
both sides.  The cache hit/miss/relabel counts, the solver backend
counts and the span names of that line stay pinned.
"""

import re
from pathlib import Path

import pytest

from repro.experiments import run_experiment

GOLDEN = Path(__file__).parent / "data" / "figure_reports"

IDS = [
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
]

_DECIMAL = re.compile(r"\d+\.\d+(?:e[-+]?\d+)?")


def masked(text: str) -> str:
    """*text* with every decimal number of its runtime lines masked."""
    return "\n".join(
        _DECIMAL.sub("#", line) if line.startswith("runtime:") else line
        for line in text.split("\n")
    )


def test_mask_covers_durations_and_residuals():
    line = "runtime: workers=1, hits=0, solver directx7 max residual=" \
        "1.21e-17; ctmc:build 0.18s, solve 0.05s"
    assert masked(line) == (
        "runtime: workers=1, hits=0, solver directx7 max residual=#; "
        "ctmc:build #s, solve #s"
    )
    assert masked("value 0.25") == "value 0.25"


@pytest.mark.parametrize("identifier", IDS)
def test_report_matches_golden(identifier, monkeypatch):
    # The golden runs chose the solver backend automatically.
    monkeypatch.delenv("REPRO_SOLVER", raising=False)
    report = run_experiment(identifier, quick=True, charts=True)
    golden = (GOLDEN / f"{identifier}.txt").read_text()
    assert masked(report + "\n") == masked(golden)
