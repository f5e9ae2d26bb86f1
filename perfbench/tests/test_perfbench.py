"""Tests for the benchmark's own logic: tail percentiles, span self
time, failure counting, the seed/inputs boundary and the layer
instrumentation."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# -- percentile choice ------------------------------------------------------

@pytest.mark.parametrize("count, percentile", [
    (100, 90.0), (88, 75.0), (1844, 99.0), (20, 50.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(count,
                                                             percentile):
    values = list(range(count, 0, -1))
    chosen, value = spans.tail_percentile(values)
    assert chosen == percentile
    assert sum(1 for v in values if v > value) >= 10


def test_tail_needs_ten_samples_beyond_even_the_median():
    assert spans.tail_percentile(list(range(19))) == (None, None)
    assert spans.tail_percentile([]) == (None, None)


def test_median_of_even_and_odd_counts():
    assert spans.median([3, 1, 2]) == 2
    assert spans.median([4, 1, 3, 2]) == 2.5


# -- span self time ---------------------------------------------------------

class _Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class _Spec:
    def __init__(self, fingerprint):
        self._fingerprint = fingerprint

    def fingerprint(self):
        return self._fingerprint


def _nested_spans():
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 9]
    recorder = spans.Recorder(clock=_Clock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = recorder.begin("bench")
    a = recorder.begin("api.run_specs", cell=_Spec("cell-a"))
    leaf = recorder.begin("sim.exec", iterations=7)
    recorder.end(leaf)
    recorder.end(a)
    b = recorder.begin("model.enum")
    recorder.end(b)
    recorder.end(root)
    return recorder.spans


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(_nested_spans()) == [3, 2, 1, 4]


def test_span_table_shares_are_of_root_wall_time():
    rows = {name: (own, share, calls)
            for name, own, share, calls in spans.span_table(_nested_spans())}
    assert rows["model.enum"] == (4, 0.4, 1)
    assert rows["bench"] == (3, 0.3, 1)
    assert sum(share for _, share, _ in rows.values()) == pytest.approx(1.0)


def test_children_inherit_the_cell_and_trace_records_parents():
    trace = spans.chrome_trace(_nested_spans())["traceEvents"]
    by_name = {event["name"]: event for event in trace}
    assert by_name["sim.exec"]["id"] == by_name["api.run_specs"]["id"] \
        == "cell-a"
    assert "id" not in by_name["model.enum"]
    assert by_name["sim.exec"]["args"]["parent"] == 1
    assert by_name["bench"]["args"]["parent"] is None
    assert by_name["sim.exec"]["dur"] == pytest.approx(1e6)
    assert by_name["sim.exec"]["args"]["iterations"] == 7


# -- failure counting -------------------------------------------------------

def _pass(name="cold", cells=4, failures=None, executed=0, hits=4,
          digest=None):
    record = child.Pass(name)
    record.cells = cells
    for cell, message in (failures or {}).items():
        record.fail(cell, message)
    record.stats.update(planned=4, executed=executed, cache_hits=hits)
    record.digest = dict(digest or {"t@Titan": [1, 2, 0]})
    return record.to_json()


class _Child:
    def __init__(self, passes, returncode=0):
        self.result = {"passes": passes} if returncode == 0 else None
        self.returncode = returncode
        self.stderr = "Traceback ...\nRuntimeError: boom\n"

    @property
    def passes(self):
        return self.result["passes"]


def test_failed_cells_are_counted_once_and_named():
    verdict = run.Verdict()
    verdict.add_child(_Child([_pass(failures={"t@Titan": "lost",
                                              "u@Titan": "bounded"})]), 1)
    assert (verdict.attempted, verdict.failed) == (4, 2)
    assert not verdict.correct
    assert "cold pass: t@Titan: lost" in verdict.messages


def test_a_crash_fails_every_cell_of_the_call():
    record = child.Pass("cold")
    try:
        raise RuntimeError("budget exhausted")
    except RuntimeError as error:
        record.crash(12, error)
    summary = record.to_json()
    assert (summary["cells"], summary["failed"]) == (12, 12)
    assert "budget exhausted" in summary["failures"]["*"]


def test_a_dead_child_counts_as_a_failure():
    verdict = run.Verdict()
    verdict.add_child(_Child([], returncode=1), 1)
    assert (verdict.attempted, verdict.failed) == (1, 1)
    assert "boom" in verdict.messages[0]


def test_warm_pass_must_hit_cache_execute_nothing_and_agree():
    verdict = run.Verdict()
    verdict.check_warm(_pass(), _pass("warm"))
    assert verdict.correct

    verdict = run.Verdict()
    verdict.check_warm(_pass(), _pass("warm", executed=3, hits=1))
    assert verdict.failed == 3

    verdict = run.Verdict()
    verdict.check_warm(_pass(), _pass("warm", digest={"t@Titan": [0, 2, 0]}))
    assert verdict.failed == 1
    assert "t@Titan" in verdict.messages[0]


# -- the seed is the driver's; the program sees generated inputs -------------

@pytest.mark.parametrize("workload", ["soundness", "apps", "verify"])
def test_child_receives_generated_inputs_not_the_seed(workload):
    inputs = run.make_inputs(workload, 7)
    assert inputs == run.make_inputs(workload, 7)
    argv = run.child_argv(workload, inputs, "cache", "out.json", 2, "cold")
    assert "--seed" not in argv
    args = child.parse_args(argv[2:])
    assert args.inputs == json.loads(json.dumps(inputs))
    with pytest.raises(SystemExit):
        child.parse_args(argv[2:] + ["--seed", "7"])


def test_the_seed_becomes_the_campaign_seed():
    for workload in ("soundness", "apps"):
        assert run.make_inputs(workload, 1)["seed"] == 1
        assert run.make_inputs(workload, 1) != run.make_inputs(workload, 2)


# -- instrumentation --------------------------------------------------------

def test_instrument_spans_every_layer_of_a_small_soundness_run(tmp_path):
    from repro.api.conformance import run_soundness
    from repro.api.session import Session
    recorder = spans.Recorder()
    undo = spans.instrument(recorder)
    try:
        tests = child.build_corpus(run.CORPUS)[:3]
        report = run_soundness(tests, ["Titan"], iterations=50, seed=1,
                               cache_dir=str(tmp_path))
    finally:
        undo()
    assert not hasattr(Session.run_specs, "__wrapped__")
    assert report.ok
    names = {span.name for span in recorder.spans}
    assert {"diy.generate", "api.run_specs", "api.cache.get",
            "api.cache.put", "api.shard", "sim.lower", "sim.exec",
            "model.enum"} <= names
    executed = {spans.cell_id(span) for span in recorder.spans
                if span.name == "sim.exec"}
    assert len(executed) == 3 and None not in executed
    metrics = spans.layer_metrics(
        recorder.spans, dict.fromkeys(child.STAT_KEYS, 0),
        {"numpy_imported": 0, "tests": 3, "transitions": 0,
         "executions": 0})
    assert metrics["sim.iterations"] == 150
    assert metrics["model.enumerations"] == 3
    assert metrics["sim.cells"] == 3


# -- the result line matches BENCHMARK.json ----------------------------------

def _benchmark():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_timed_metrics_are_the_end_to_end_metrics_with_their_units():
    def made(wall, setup, cpu=3.0, rss=40.0, cells=10):
        return run.Child(spawned=0.0, wall=wall, cpu=cpu, peak_rss_mb=rss,
                         returncode=0, stderr="",
                         result={"setup_done": setup,
                                 "passes": [{"cells": cells}]})
    colds = [made(5.0, 1.0), made(7.0, 1.0), made(6.0, 2.0)]
    warms = [made(1.5, 1.0)]
    metrics = run.end_to_end_metrics(colds, warms, [1.0, 1.0, 2.0, 1.0])
    expected = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == expected
    assert metrics["wall_s"][0] == 6.0
    assert metrics["cells_per_s"][0] == 2.5     # median of 10/4, 10/6, 10/4
    assert metrics["setup_s"][0] == 1.0


def test_traced_metrics_are_the_per_layer_metrics_with_their_units():
    names = set(spans.layer_metrics(
        [], dict.fromkeys(child.STAT_KEYS, 0),
        {"numpy_imported": 0, "tests": 0, "transitions": 0,
         "executions": 0})) | {"trace.overhead_frac"}
    expected = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert {name: run.layer_unit(name) for name in names} == expected
