"""Tests for the small shared utilities and report formatting."""

import pytest

from repro._util import (HIGH_BIT32, format_table, to_signed32, wrap32,
                         wrap64)
from repro.api import Session
from repro.harness import comparison_line, figure_table
from repro.litmus import library


class TestIntegerHelpers:
    def test_wrap32(self):
        assert wrap32(0xFFFFFFFF + 1) == 0
        assert wrap32(-1) == 0xFFFFFFFF

    def test_wrap64(self):
        assert wrap64(2 ** 64) == 0

    def test_to_signed32(self):
        assert to_signed32(0xFFFFFFFF) == -1
        assert to_signed32(5) == 5
        assert to_signed32(HIGH_BIT32) == -(2 ** 31)


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [["x", "y"], ["long", "z"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "----" in lines[1]

    def test_ragged_rows(self):
        text = format_table(["a"], [["x", "extra"]])
        assert "extra" in text

    def test_non_string_cells(self):
        assert "42" in format_table(["n"], [[42]])


class TestReportHelpers:
    def test_figure_table_includes_paper_numbers(self):
        test = library.build("mp")
        result = Session(cache=False).run(test, "GTX7", iterations=50, seed=0)
        text = figure_table(
            "t", [("mp", "mp")], ["GTX7"], {("mp", "GTX7"): result},
            paper={("mp", "GTX7"): 3})
        assert "paper 3" in text

    def test_figure_table_missing_cell_is_na(self):
        text = figure_table("t", [("mp", "mp")], ["GTX7"], {})
        assert "n/a" in text

    def test_comparison_line_shapes(self):
        assert "shape-ok" in comparison_line("mp", "Titan", 10.0, 100)
        assert "SHAPE-MISMATCH" in comparison_line("mp", "Titan", 0.0, 100)
        assert "paper n/a" in comparison_line("mp", "Titan", 5.0, "n/a")


class TestPackageSurface:
    def test_version(self):
        import repro
        assert repro.__version__

    def test_top_level_exports(self):
        import repro
        assert callable(repro.parse_litmus)
        assert callable(repro.write_litmus)

    def test_all_modules_importable(self):
        import importlib
        for module in [
            "repro.ptx", "repro.hierarchy", "repro.litmus", "repro.model",
            "repro.model.cat", "repro.model.models", "repro.model.operational",
            "repro.diy", "repro.sim", "repro.harness", "repro.compiler",
            "repro.apps", "repro.data", "repro.cli",
        ]:
            importlib.import_module(module)
