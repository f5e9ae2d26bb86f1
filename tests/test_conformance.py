"""Tests for the Sec. 5.4 conformance subsystem: the dual-backend
soundness pipeline, the report, streaming session execution and the
``repro-litmus soundness`` CLI."""

import pytest

from repro.api import (CellConformance, ConformanceReport, Session,
                      Violation, run_soundness, uniquify_tests)
from repro.cli import main
from repro.errors import ReproError
from repro.litmus import library
from repro.litmus.condition import FinalState
from repro.sim import resolve_engine


def _tests(*names):
    return [library.build(name) for name in names]


class TestRunSoundness:
    def test_ptx_model_sound_on_library_corpus(self):
        report = run_soundness(_tests("mp", "sb", "lb", "coRR"),
                               ["Titan", "GTX6"], iterations=400, seed=3)
        assert report.ok
        assert report.violations == []
        assert len(report.cells) == 4 * 2
        assert report.tests == ["mp", "sb", "lb", "coRR"]
        assert report.chips == ["Titan", "GTX6"]
        # Every test got a non-empty allowed set.
        assert all(count > 0 for count in report.allowed_counts.values())

    def test_model_enumerates_once_per_test_not_per_chip(self):
        report = run_soundness(_tests("mp", "sb"),
                               ["Titan", "GTX6", "GTX7"], iterations=200)
        assert report.model_stats["executed"] == 2
        assert report.sim_stats["executed"] == 6

    def test_injected_violation_is_reported_not_swallowed(self):
        # SC forbids mp's weak outcome; the simulated Titan observes it
        # under the paper's incantations — a deliberately wrong model
        # must surface as violations, not be silently merged away.
        report = run_soundness(_tests("mp"), ["Titan"], model="sc",
                               iterations=2000, seed=3)
        assert not report.ok
        assert report.violations
        violation = report.violations[0]
        assert violation.test == "mp" and violation.chip == "Titan"
        assert violation.count > 0
        assert "forbids" in violation.describe()
        assert any("mp on Titan" in line for line in report.violation_lines())
        # The unsound cell is flagged in the rendered grid.
        assert "forbidden" in report.summary_table()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ReproError, match="duplicate test name"):
            run_soundness(_tests("mp", "mp"), ["Titan"], iterations=100)

    def test_uniquify_tests_renames_deterministically(self):
        family = uniquify_tests(_tests("mp", "sb", "mp", "mp"))
        assert [test.name for test in family] == ["mp", "sb", "mp-2", "mp-3"]
        # First occurrence keeps its identity (same object, same text).
        assert family[0].name == "mp"
        report = run_soundness(family, ["Titan"], iterations=100)
        assert len(report.cells) == 4

    def test_streaming_chunks_cover_whole_corpus(self):
        tests = _tests("mp", "sb", "lb", "coRR", "dlb-lb")
        report = run_soundness(tests, ["Titan"], iterations=100,
                               chunk_size=2)
        assert len(report.cells) == 5
        assert report.tests == [test.name for test in tests]

    def test_accepts_generator_corpus(self):
        report = run_soundness((library.build(name) for name in ("mp", "sb")),
                               ["Titan"], iterations=100, chunk_size=1)
        assert len(report.cells) == 2

    def test_second_run_served_from_cache(self, tmp_path):
        cache_dir = str(tmp_path / "soundness-cache")
        first = run_soundness(_tests("mp", "sb"), ["Titan", "GTX6"],
                              iterations=200, cache_dir=cache_dir)
        second = run_soundness(_tests("mp", "sb"), ["Titan", "GTX6"],
                               iterations=200, cache_dir=cache_dir)
        assert first.sim_stats["executed"] == 4
        assert second.sim_stats["executed"] == 0
        assert second.sim_stats["cache_hits"] == 4
        assert second.model_stats["executed"] == 0
        assert second.cached_cells == 4
        # Identical verdicts either way.
        assert first.ok and second.ok
        assert [cell.observations for cell in first.cells] == \
            [cell.observations for cell in second.cells]

    def test_shared_pool_parallel_matches_serial(self):
        serial = run_soundness(_tests("mp", "sb"), ["Titan"],
                               iterations=300, seed=5)
        parallel = run_soundness(_tests("mp", "sb"), ["Titan"],
                                 iterations=300, seed=5, jobs=4)
        assert [cell.observations for cell in serial.cells] == \
            [cell.observations for cell in parallel.cells]

    def test_needs_a_chip(self):
        with pytest.raises(ReproError):
            run_soundness(_tests("mp"), [], iterations=100)


class TestConformanceReport:
    def _cell(self, test="mp", chip="Titan", observations=3,
              violations=()):
        return CellConformance(
            test=test, chip=chip, incantations="stress", iterations=1000,
            observations=observations, per_100k=observations * 100.0,
            distinct_states=4, cached=False, violations=tuple(violations))

    def test_coverage_by_chip_and_incantations(self):
        report = ConformanceReport(model="model:ptx", engine="fast")
        report.add_test("mp", 4)
        report.add_cell(self._cell(chip="Titan"))
        report.add_cell(self._cell(chip="GTX6", observations=0))
        by_chip = report.coverage_by_chip()
        assert by_chip["Titan"]["weak"] == 1
        assert by_chip["GTX6"]["weak"] == 0
        assert report.coverage_by_incantations()["stress"]["cells"] == 2
        assert "Titan" in report.coverage_table()
        assert "stress" in report.incantation_table()

    def test_summary_table_elides_sound_rows_but_keeps_violations(self):
        state = FinalState.make({(0, "r1"): 1}, {"x": 1})
        report = ConformanceReport(model="model:ptx", engine="fast")
        for index in range(6):
            name = "t%d" % index
            report.add_test(name, 2)
            violations = ()
            if index == 5:
                violations = (Violation(test=name, chip="Titan",
                                        state=state, count=2),)
            report.add_cell(self._cell(test=name, violations=violations))
        table = report.summary_table(max_rows=2)
        assert "t0" in table and "t1" in table
        assert "t5" in table            # unsound row survives the cap
        assert "t3" not in table
        assert "elided" in table

    def test_summary_counts(self):
        report = ConformanceReport(model="model:ptx", engine="fast")
        report.add_test("mp", 4)
        report.add_cell(self._cell())
        assert "1 tests x 1 chips" in report.summary()
        assert report.summary().endswith("1000 iterations on the fast engine")
        assert report.total_iterations == 1000


class TestSessionStreaming:
    def test_run_stream_matches_run_specs(self):
        session = Session(jobs=1, cache=False)
        specs = list(session.plan(_tests("mp", "sb"), ["Titan", "GTX6"],
                                  iterations=150, seed=2))
        batch = session.run_specs(specs)
        streamed = list(Session(jobs=1, cache=False).run_stream(
            iter(specs), chunk_size=3))
        assert [result.histogram.counts for result in batch] == \
            [result.histogram.counts for result in streamed]

    def test_plan_is_lazy(self):
        session = Session(jobs=1, cache=False)

        def corpus():
            yield library.build("mp")
            raise AssertionError("second test must not be built eagerly")

        plan = session.plan(corpus(), ["Titan"], iterations=100)
        first = next(plan)
        assert first.test.name == "mp"

    def test_stream_rejects_bad_chunk_size(self):
        session = Session(jobs=1, cache=False)
        with pytest.raises(ReproError):
            list(session.run_stream([], chunk_size=0))

    def test_external_pool_not_shut_down(self):
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=2) as pool:
            session = Session(jobs=2, cache=False, pool=pool)
            first = session.run(library.build("mp"), "Titan", iterations=100)
            # A second plan on the same pool still works (the session
            # must not have closed it).
            second = session.run(library.build("sb"), "Titan",
                                 iterations=100)
        assert first.histogram.total == second.histogram.total == 100


class TestSoundnessCli:
    def test_soundness_subcommand(self, capsys):
        code = main(["soundness", "--length", "3", "--max-tests", "4",
                     "--chips", "Titan", "GTX6", "--iterations", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "soundness vs model:ptx" in out
        assert "on the %s engine" % resolve_engine(None) in out
        assert "0 violations" in out
        assert "model session:" in out

    def test_soundness_unsound_model_exits_nonzero(self, capsys):
        # SC is deliberately too strong for GPU observations.
        code = main(["soundness", "--length", "3", "--max-tests", "4",
                     "--chips", "Titan", "--iterations", "2000",
                     "--model", "sc", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATION:" in out

    def test_soundness_empty_corpus_exits(self):
        with pytest.raises(SystemExit):
            main(["soundness", "--length", "2", "--max-tests", "0",
                  "--chips", "Titan"])

    def test_generate_is_name_sorted_and_shaped(self, capsys):
        assert main(["generate", "--length", "3", "--fences", "none"]) == 0
        out = capsys.readouterr().out
        assert "membar" not in out
        names = [line.split()[1] for line in out.splitlines()
                 if line.startswith("GPU_PTX")]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_generate_scope_restriction(self, capsys):
        assert main(["generate", "--length", "3", "--fences", "none",
                     "--scopes", "dev"]) == 0
        dev_only = capsys.readouterr().out
        # cta-scoped pools produce intra-CTA placements the dev pool lacks.
        assert main(["generate", "--length", "3", "--fences", "none",
                     "--scopes", "cta"]) == 0
        cta_only = capsys.readouterr().out
        assert dev_only != cta_only

    def test_generate_max_alias_still_works(self, capsys):
        assert main(["generate", "--length", "3", "--max", "2"]) == 0
        out = capsys.readouterr()
        assert out.err.strip().endswith("2 tests")
