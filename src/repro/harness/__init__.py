"""Litmus-running harness: incantations, runner, histograms, reports."""

from .histogram import Histogram
from .incantations import (ALL_COMBINATIONS, Incantations, TABLE6, best_for,
                           efficacy)
from .runner import (PAPER_ITERATIONS, RunResult, default_iterations,
                     run_litmus, run_paper_config)
from .report import comparison_line, figure_table

__all__ = [
    "Histogram",
    "ALL_COMBINATIONS", "Incantations", "TABLE6", "best_for", "efficacy",
    "PAPER_ITERATIONS", "RunResult", "default_iterations", "run_litmus",
    "run_paper_config",
    "comparison_line", "figure_table",
]
