"""Litmus-running harness: incantations, histograms, reports."""

from .._util import default_iterations
from .histogram import Histogram
from .incantations import (ALL_COMBINATIONS, Incantations, TABLE6, best_for,
                           efficacy)
from .report import comparison_line, figure_table

__all__ = [
    "Histogram",
    "ALL_COMBINATIONS", "Incantations", "TABLE6", "best_for", "efficacy",
    "default_iterations",
    "comparison_line", "figure_table",
]
