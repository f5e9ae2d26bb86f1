"""Tests for the Sorensen operational model (Sec. 6) and the CLI."""

import pytest

from repro.cli import main
from repro.litmus import library
from repro.model.operational import (SorensenOperationalModel,
                                     unsoundness_witness)
from repro.sim import chip


class TestSorensenModel:
    def test_forbids_lb_with_cta_fences(self):
        model = SorensenOperationalModel(chip("Titan"))
        assert not model.allows_condition(library.build("lb+membar.ctas"))

    def test_scope_blind_machine_never_witnesses_it(self):
        model = SorensenOperationalModel(chip("Titan"))
        test = library.build("lb+membar.ctas")
        assert not model.observes_condition(test, runs=1500, seed=0)

    def test_allows_plain_lb(self):
        model = SorensenOperationalModel(chip("Titan"))
        assert model.allows_condition(library.build("lb"))
        assert model.observes_condition(library.build("lb"), runs=1500, seed=0)

    def test_unsoundness_witness_on_titan(self):
        """The paper's refutation: forbidden by the model, observed on the
        chip (586/100k on Titan; 19/100k on GTX 660)."""
        forbids, observed = unsoundness_witness(chip("Titan"), runs=4000,
                                                seed=2)
        assert forbids
        assert observed > 0

    def test_sampled_outcomes_subset_of_axiomatic(self):
        model = SorensenOperationalModel(chip("Titan"))
        test = library.build("lb")
        from repro.model.enumerate import (allowed_final_states,
                                           enumerate_executions)
        allowed = allowed_final_states(enumerate_executions(test),
                                       model=model._axiomatic)
        assert model.sample_outcomes(test, runs=400, seed=1) <= allowed

    def test_unsoundness_witness_on_gtx660(self):
        """The other refutation chip of Sec. 6 — a far rarer observation
        than Titan's (19/100k vs 586/100k), so the sampling budget is
        bigger."""
        forbids, observed = unsoundness_witness(chip("GTX6"), runs=20000,
                                                seed=2)
        assert forbids
        assert observed > 0

    def test_no_witness_on_the_in_order_chip(self):
        """GTX280 reorders nothing, so the model stays forbidding and
        the hardware never observes the outcome: no refutation there."""
        forbids, observed = unsoundness_witness(chip("GTX280"), runs=4000,
                                                seed=2)
        assert forbids
        assert observed == 0

    def test_sample_outcomes_are_seed_deterministic(self):
        model = SorensenOperationalModel(chip("Titan"))
        test = library.build("lb")
        first = model.sample_outcomes(test, runs=300, seed=4)
        second = model.sample_outcomes(test, runs=300, seed=4)
        assert first == second

    def test_exhaustive_explorer_confirms_the_refutation(self):
        """Sec. 6 closed loop: the outcome the scope-blind model forbids
        is exhaustively *reachable* on the chip semantics, with a
        concrete witness trace — the refutation is a proof, not a
        sampling artefact."""
        from repro.exhaustive import explore_test

        test = library.build("lb+membar.ctas")
        model = SorensenOperationalModel(chip("Titan"))
        assert not model.allows_condition(test)
        result = explore_test(test, chip("Titan"))
        assert result.losses > 0
        assert result.witness is not None
        assert test.condition.holds(result.witness.state)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "coRR" in out and "Titan" in out and "ptx" in out

    def test_run_library_test(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ITERS", "200")
        assert main(["run", "coRR", "--chip", "Titan"]) == 0
        out = capsys.readouterr().out
        assert "Histogram" in out and "coRR on Titan" in out

    def test_model_verdict(self, capsys):
        assert main(["model", "coRR"]) == 0
        out = capsys.readouterr().out
        assert "Allowed" in out

    def test_model_forbidden(self, capsys):
        assert main(["model", "mp+membar.gls", "--model", "ptx"]) == 0
        assert "Forbidden" in capsys.readouterr().out

    def test_run_litmus_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ITERS", "100")
        from repro.litmus import write_litmus
        path = tmp_path / "sb.litmus"
        path.write_text(write_litmus(library.build("sb")))
        assert main(["run", str(path), "--chip", "GTX7"]) == 0

    def test_unknown_test_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "not-a-test"])

    def test_run_incantations_none_reproduces_bare_setup(self, capsys,
                                                         monkeypatch):
        """The bare Sec. 4.2 configuration: no incantations, hence no
        weak observations on Nvidia chips."""
        monkeypatch.setenv("REPRO_ITERS", "400")
        assert main(["run", "mp", "--chip", "Titan",
                     "--incantations", "none"]) == 0
        out = capsys.readouterr().out
        assert "[none]" in out
        assert "0/400 weak" in out

    def test_run_incantations_flags(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ITERS", "200")
        assert main(["run", "mp", "--chip", "Titan",
                     "--incantations", "stress+sync+random"]) == 0
        assert "[stress+sync+random]" in capsys.readouterr().out

    def test_run_incantations_bad_value_exits(self, monkeypatch):
        monkeypatch.setenv("REPRO_ITERS", "100")
        with pytest.raises(SystemExit):
            main(["run", "mp", "--incantations", "banana"])

    def test_run_with_jobs_and_backend_flags(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ITERS", "200")
        assert main(["run", "mp", "--chip", "Titan", "--jobs", "2"]) == 0
        assert "via sim" in capsys.readouterr().out

    def test_run_exhaustive_backend_lists_reachable_states(self, capsys):
        assert main(["run", "mp", "--chip", "Titan",
                     "--backend", "exhaustive"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("Exploration (4 reachable states")
        assert sum(1 for line in lines if " : " in line) == 4
        assert any(line.startswith("Observation 1/4 ") for line in lines)
        assert not any("__" in line for line in lines)

    def test_run_analysis_backend_prints_the_verdict(self, capsys):
        assert main(["run", "mp", "--chip", "Titan",
                     "--backend", "analysis"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "Analysis verdict: racy"
        assert "__" not in out

    def test_campaign_subcommand(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ITERS", "200")
        argv = ["campaign", "mp", "lb", "--chips", "Titan", "HD7970",
                "--jobs", "2", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "obs/100k" in out and "Titan" in out and "HD7970" in out
        assert "4 cells" in out

        # Warm disk cache: the rerun performs zero new simulations.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 simulated iterations" in out

    def test_campaign_model_backend(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ITERS", "50")
        assert main(["campaign", "mp", "--chips", "Titan",
                     "--backend", "model"]) == 0
        assert "obs/100k" in capsys.readouterr().out

    def test_generate(self, capsys):
        assert main(["generate", "--length", "3", "--max", "5"]) == 0
        out = capsys.readouterr().out
        assert "GPU_PTX" in out

    def test_verify_fenced_scenario(self, capsys):
        assert main(["verify", "-s", "isolation", "--fenced", "on",
                     "--chips", "Titan"]) == 0
        out = capsys.readouterr().out
        assert "verified: 0 losses over all executions" in out

    def test_verify_unfenced_scenario_reports_the_loss(self, capsys):
        """An unfenced cell losing is the expected result, not a
        failure: exit 0, but with a concrete losing trace."""
        assert main(["verify", "-s", "deque-mp", "--fenced", "off",
                     "--chips", "Titan"]) == 0
        out = capsys.readouterr().out
        assert "LOST" in out and "losing execution" in out

    def test_app_exhaustive_mode(self, capsys):
        assert main(["app", "-s", "deque-mp", "--chips", "Titan",
                     "--mode", "exhaustive"]) == 0
        out = capsys.readouterr().out
        assert "exhaustive verification" in out and "LOST" in out

    def test_unknown_backend_mentions_exhaustive(self):
        from repro.api import make_backend
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="exhaustive"):
            make_backend("banana")

    @pytest.mark.parametrize("command", (["run", "mp"], ["campaign", "mp"],
                                         ["app"], ["verify"], ["analyze"],
                                         ["soundness"]))
    def test_pool_flags_on_every_campaign_subcommand(self, command):
        from repro.cli import build_parser
        parser = build_parser()
        defaults = parser.parse_args(command)
        assert ((defaults.jobs, defaults.executor, defaults.cache_dir)
                == (1, "process", None))
        args = parser.parse_args(command + ["--jobs", "3", "--executor",
                                            "thread", "--cache-dir", "D"])
        assert (args.jobs, args.executor, args.cache_dir) == (3, "thread", "D")
        with pytest.raises(SystemExit):
            parser.parse_args(command + ["--executor", "fiber"])

    def test_run_soundness_executor_default_matches_cli(self):
        import inspect
        from repro.api.conformance import run_soundness
        from repro.cli import build_parser
        library_default = inspect.signature(run_soundness).parameters[
            "executor"].default
        cli_default = build_parser().parse_args(["soundness"]).executor
        assert library_default == cli_default == "process"


def _malformed_test_file(tmp_path, kind):
    """A path ``repro-litmus`` cannot load a test from, of one kind."""
    from repro.litmus import write_litmus
    path = tmp_path / ("bad-" + kind)
    if kind == "no-condition":
        text = write_litmus(library.build("mp"))
        path.write_text("\n".join(line for line in text.splitlines()
                                  if not line.startswith("exists")))
    elif kind == "bad-header":
        path.write_text("garbage\n")
    elif kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe\x00\x80" * 16)
    return str(path)


@pytest.mark.parametrize("kind", ["no-condition", "bad-header", "directory",
                                  "binary"])
@pytest.mark.parametrize("command", ["run", "campaign", "model", "witness"])
def test_malformed_test_file_is_a_one_line_error(command, kind, tmp_path):
    """Every subcommand that loads a test file turns a file it cannot
    read or parse into a one-line exit message naming the file."""
    path = _malformed_test_file(tmp_path, kind)
    with pytest.raises(SystemExit) as excinfo:
        main([command, path])
    message = excinfo.value.code
    assert isinstance(message, str)  # non-zero exit, printed, no traceback
    assert "\n" not in message
    assert path in message


def test_malformed_test_file_prints_no_traceback(tmp_path):
    import os
    import subprocess
    import sys

    path = _malformed_test_file(tmp_path, "directory")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", path],
        capture_output=True, text=True, env=env)
    assert completed.returncode == 1
    assert completed.stdout == ""
    assert len(completed.stderr.splitlines()) == 1
    assert path in completed.stderr and "Traceback" not in completed.stderr
