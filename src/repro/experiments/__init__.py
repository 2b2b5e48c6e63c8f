"""Regeneration of every table and figure of the paper's evaluation."""

from . import figures
from .cli import main, run_experiment
from .registry import Experiment, all_experiments
from .results import FigureResult, constant_series, ratio_series

__all__ = [
    "figures",
    "main",
    "run_experiment",
    "Experiment",
    "all_experiments",
    "FigureResult",
    "constant_series",
    "ratio_series",
]
