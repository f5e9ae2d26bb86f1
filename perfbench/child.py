"""One benchmark child process: set up a workload, run its passes, and
write what it saw as JSON.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload soundness --inputs '{...}' \\
        --cache-dir .perfbench/cache --jobs 2 --passes cold --out r.json

The driver (``run.py``) spawns this once per timed pass, so each pass
pays interpreter start and imports like a CLI invocation does.  The
child never sees the workload seed: ``--inputs`` carries the inputs the
driver generated from it.  ``--passes cold,warm`` runs both passes in
one process (the traced run); ``--trace FILE`` wraps every layer in
spans and writes them as a Chrome trace; ``--setup-only`` exits once
set-up is done (extra ``setup_s`` samples).

Every pass calls the same public functions the matching
``repro-litmus`` command calls, with the CLI's defaults:
``soundness`` -> ``run_soundness``, ``apps`` -> ``app_session`` +
``run_app_campaign``, ``verify`` -> ``exhaustive_session`` +
``verify_scenarios``, plus the exact corpus check (exhaustive
reachable sets joined against ``ModelBackend`` allowed sets).
"""

import argparse
import json
import sys
import time
import traceback

from spans import Recorder, chrome_trace, instrument, layer_metrics, \
    span_table

#: Session counters summed over a pass's sessions.
STAT_KEYS = ("planned", "executed", "cache_hits", "deduplicated",
             "shards_executed", "plan_cache_hits", "plan_cache_misses")


def _cell(name, chip):
    return "%s@%s" % (name, chip)


class Pass:
    """What one pass did: cells attempted, failures by cell, a digest of
    every verdict (compared cold vs warm), Session counters and work
    counts."""

    def __init__(self, name):
        self.name = name
        self.cells = 0
        self.failures = {}
        self.digest = {}
        self.stats = dict.fromkeys(STAT_KEYS, 0)
        self.work = {"transitions": 0, "executions": 0}
        self.crashed = False

    def fail(self, cell, message):
        self.failures.setdefault(cell, message)

    def crash(self, cells, error):
        """A call raised (a budget abort, a worker death, a bug): every
        cell it was computing counts as failed."""
        traceback.print_exc()
        self.cells += cells
        self.fail("*", "%s: %s" % (type(error).__name__, error))
        self.crashed = True

    def add_stats(self, stats):
        for key in STAT_KEYS:
            self.stats[key] += stats[key]

    def to_json(self):
        failed = self.cells if self.crashed else len(self.failures)
        return {"name": self.name, "cells": self.cells, "failed": failed,
                "failures": self.failures, "digest": self.digest,
                "stats": self.stats, "work": self.work}


# -- set-up -----------------------------------------------------------------

def build_corpus(corpus):
    """The diy corpus the ``soundness`` CLI builds from its corpus
    flags, sorted by (unique) test name."""
    import repro.diy as diy
    pool = diy.default_pool(scopes=diy.scopes_from_names(corpus["scopes"]),
                            fences=diy.fences_from_names(corpus["fences"]))
    tests = diy.generate_tests(pool, max_length=corpus["length"])
    return sorted(tests, key=lambda test: test.name)


def setup(workload, inputs):
    from repro.apps import select_scenarios
    state = {"tests": [], "scenarios": []}
    if workload in ("soundness", "verify"):
        state["tests"] = build_corpus(inputs["corpus"])
    if workload in ("apps", "verify"):
        state["scenarios"] = select_scenarios(inputs["scenarios"])
    return state


# -- passes -----------------------------------------------------------------

def soundness_pass(record, state, inputs, cache_dir, jobs):
    from repro.api.conformance import run_soundness
    tests, chips = state["tests"], inputs["chips"]
    if len(tests) != inputs["corpus"]["tests"]:
        record.fail("corpus", "diy generated %d tests, expected %d"
                    % (len(tests), inputs["corpus"]["tests"]))
    try:
        report = run_soundness(tests, chips, iterations=inputs["iterations"],
                               seed=inputs["seed"], jobs=jobs,
                               executor="process", cache_dir=cache_dir)
    except Exception as error:
        record.crash(len(tests) * len(chips), error)
        return
    record.cells += len(report.cells)
    if len(report.cells) != len(tests) * len(chips):
        record.fail("report", "%d cells reported, expected %d"
                    % (len(report.cells), len(tests) * len(chips)))
    record.add_stats(report.sim_stats)
    record.add_stats(report.model_stats)
    for name, allowed in report.allowed_counts.items():
        record.digest[name] = allowed
        if not allowed:
            record.fail(name, "empty allowed set")
    for cell in report.cells:
        key = _cell(cell.test, cell.chip)
        record.digest[key] = [cell.observations, cell.distinct_states,
                              len(cell.violations)]
        if cell.violations:
            record.fail(key, cell.violations[0].describe())


def apps_pass(record, state, inputs, cache_dir, jobs):
    from repro.apps import app_session, run_app_campaign
    scenarios, chips = state["scenarios"], inputs["chips"]
    session = app_session(jobs=jobs, executor="process", cache_dir=cache_dir)
    try:
        campaign = run_app_campaign(scenarios, chips, runs=inputs["runs"],
                                    seed=inputs["seed"],
                                    engine=inputs["engine"], session=session)
    except Exception as error:
        record.crash(len(scenarios) * len(chips), error)
        return
    record.cells += len(campaign)
    record.add_stats(session.stats.snapshot())
    lost_on_weak = set()
    for result in campaign:
        scenario = result.spec.scenario
        key = _cell(scenario.name, result.chip.short)
        record.digest[key] = result.observations
        if result.observations and scenario.fenced:
            record.fail(key, "fenced scenario lost %d of %d launches"
                        % (result.observations, result.iterations))
        if result.observations and result.chip.short in inputs["weak_chips"]:
            lost_on_weak.add(scenario.name)
    for scenario in scenarios:
        if not scenario.fenced and scenario.name not in lost_on_weak:
            for chip in inputs["weak_chips"]:
                record.fail(_cell(scenario.name, chip),
                            "published variant never lost on a weak chip")


def verify_pass(record, state, inputs, cache_dir, jobs):
    from repro.api import ModelBackend, RunSpec, Session, matrix
    from repro.exhaustive import (exhaustive_session, exhaustive_verdict,
                                  split_exhaustive_histogram,
                                  verify_scenarios)
    scenarios, chips = state["scenarios"], inputs["chips"]
    session = exhaustive_session(jobs=jobs, executor="process",
                                 cache_dir=cache_dir)
    try:
        report = verify_scenarios(scenarios, chips, session=session)
    except Exception as error:
        record.crash(len(scenarios) * len(chips), error)
    else:
        record.cells += len(report.rows)
        for row in report.rows:
            key = _cell(row.scenario, row.chip)
            witness = row.witness.lines() if row.witness else None
            record.digest[key] = [row.losses, row.executions,
                                  row.transitions, row.states, row.bounded,
                                  witness]
            record.work["transitions"] += row.transitions
            record.work["executions"] += row.executions
            if row.bounded:
                record.fail(key, "exploration came back bounded")
            if row.fenced and not row.verified:
                record.fail(key, "fenced scenario " + row.verdict())
            if not row.verified and row.witness is None:
                record.fail(key, "LOST verdict without a witness")

    # The exact leg: every reachable final state of every corpus cell
    # must be allowed by the PTX model, one model verdict per test.
    tests, corpus_chips = state["tests"], inputs["corpus_chips"]
    model = Session(backend=ModelBackend("ptx"), jobs=jobs,
                    executor="process", cache=session.cache)
    try:
        verdicts = model.run_specs(
            RunSpec.make(test, corpus_chips[0], incantations=None,
                         iterations=1, seed=0) for test in tests)
        allowed = {test.name: frozenset(result.histogram.counts)
                   for test, result in zip(tests, verdicts)}
        explored = session.run_specs(matrix(tests, corpus_chips,
                                            iterations=1, seed=0))
    except Exception as error:
        record.crash(len(tests) * len(corpus_chips), error)
        return
    finally:
        record.add_stats(session.stats.snapshot())
        record.add_stats(model.stats.snapshot())
    record.cells += len(explored)
    for result in explored:
        key = _cell(result.test.name, result.chip.short)
        reachable, _ = split_exhaustive_histogram(result.histogram)
        verdict = exhaustive_verdict(result.histogram,
                                     result.test.condition)
        record.digest[key] = [len(reachable), verdict["executions"],
                              verdict["transitions"]]
        record.work["transitions"] += verdict["transitions"]
        record.work["executions"] += verdict["executions"]
        if verdict["bounded"]:
            record.fail(key, "exploration came back bounded")
        forbidden = set(reachable.counts) - allowed[result.test.name]
        if forbidden:
            record.fail(key, "reachable but not PTX-allowed: %s"
                        % sorted(map(str, forbidden))[0])


PASSES = {"soundness": soundness_pass, "apps": apps_pass,
          "verify": verify_pass}


# -- entry point ------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--inputs", required=True, type=json.loads)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--passes", required=True,
                        help="comma-separated: cold, warm or cold,warm")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None, metavar="FILE")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # The untraced child records only these few spans; --trace adds the
    # layer spans of instrument().
    recorder = Recorder()
    root = recorder.begin("bench")
    span = recorder.begin("cli.import")
    import repro.cli  # noqa: F401  (the CLI's import cost is set-up)
    numpy_imported = int("numpy" in sys.modules)
    recorder.end(span)
    undo = instrument(recorder) if args.trace else None
    state = setup(args.workload, args.inputs)
    result = {"setup_done": time.monotonic(), "passes": []}
    for name in [] if args.setup_only else args.passes.split(","):
        record = Pass(name)
        recorder.phase = name
        span = recorder.begin("bench." + name)
        PASSES[args.workload](record, state, args.inputs, args.cache_dir,
                              args.jobs)
        recorder.end(span)
        result["passes"].append(record.to_json())
    recorder.end(root)
    if args.trace:
        undo()
        totals = dict.fromkeys(STAT_KEYS, 0)
        for record in result["passes"]:
            for key in STAT_KEYS:
                totals[key] += record["stats"][key]
        cold = result["passes"][0]["work"]
        result["layers"] = layer_metrics(recorder.spans, totals, {
            "numpy_imported": numpy_imported,
            "tests": len(state["tests"]),
            "transitions": cold["transitions"],
            "executions": cold["executions"]})
        result["table"] = span_table(recorder.spans)
        with open(args.trace, "w") as handle:
            json.dump(chrome_trace(recorder.spans), handle)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
