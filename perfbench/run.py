"""End-to-end benchmark of the ``soundness``, ``apps`` and ``verify``
workflows, with a traced per-layer breakdown.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload soundness --seed 1 --seconds 40 \\
        --trace 0

``--trace 0`` times the workflow the way a user runs it: rounds of one
cold pass (fresh ``--cache-dir``) then two warm passes (same
directory), each in a fresh child process at ``jobs=2,
executor="process"``, plus a few set-up-only children, until
``--seconds`` is used up.  It reports medians of the end-to-end metrics
in ``BENCHMARK.json``.

``--trace 1`` runs the workflow once at ``jobs=1`` in one traced child
(cold then warm pass) and once untraced for the overhead figure, writes
``.perfbench/trace-<workload>.json`` (Chrome trace events), prints the
per-span table and reports the per-layer metrics.

Every pass's outputs are checked (see ``child.py``); the warm pass must
execute nothing, hit the cache on every lookup and reproduce the cold
pass's verdicts.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

from spans import format_span_table, median

HERE = os.path.dirname(os.path.abspath(__file__))

#: Chips of the ``soundness`` CLI default (``SOUNDNESS_CHIPS``).
SOUNDNESS_CHIPS = ["TesC", "GTX6", "Titan", "GTX7"]
#: The seven chips the paper reports results for (``RESULT_CHIPS``).
RESULT_CHIPS = ["GTX5", "TesC", "GTX6", "Titan", "GTX7", "HD6570",
                "HD7970"]
#: The CLI's default soundness corpus: ``--length 4 --fences cta gl``
#: over both scopes, which yields 461 tests.
CORPUS = {"length": 4, "fences": ["cta", "gl"], "scopes": ["dev", "cta"],
          "tests": 461}

#: Child worker count for the timed passes (the CLI's ``--jobs``).
JOBS = 2
#: Set-up-only children per timed run, for extra ``setup_s`` samples.
SETUP_PROBES = 3
#: Warm children per cold child: a warm pass only reads the cache, so
#: repeating it buys ``warm_wall_s`` samples cheaply.
WARM_REPEATS = 2
#: A run ends within this many seconds: a child still running at the
#: deadline is killed and its cells count as failed.
RUN_DEADLINE = 170.0


def make_inputs(workload, seed):
    """The inputs a workload's children receive; the seed reaches the
    program only as the campaign seed inside them (``verify`` records
    it, but exhaustive verdicts do not depend on it)."""
    if workload == "soundness":
        return {"corpus": CORPUS, "chips": SOUNDNESS_CHIPS,
                "iterations": 300, "seed": seed}
    if workload == "apps":
        return {"scenarios": ["all"],
                "chips": ["Titan", "HD7970", "GTX280", "TesC"],
                "weak_chips": ["Titan", "HD7970", "TesC"],
                "runs": 10000, "engine": "batch", "seed": seed}
    if workload == "verify":
        return {"scenarios": ["all"], "chips": RESULT_CHIPS,
                "corpus": CORPUS, "corpus_chips": SOUNDNESS_CHIPS,
                "seed": seed}
    raise ValueError("unknown workload %r" % (workload,))


def child_argv(workload, inputs, cache_dir, out, jobs, passes,
               trace=None, setup_only=False):
    argv = [sys.executable, os.path.join(HERE, "child.py"),
            "--workload", workload, "--inputs", json.dumps(inputs),
            "--cache-dir", cache_dir, "--jobs", str(jobs),
            "--passes", passes, "--out", out]
    if trace:
        argv += ["--trace", trace]
    if setup_only:
        argv.append("--setup-only")
    return argv


class Child:
    """One finished child: wall time from spawn to exit, CPU and peak
    RSS of it and its pool workers, and the JSON it wrote."""

    def __init__(self, spawned, wall, cpu, peak_rss_mb, returncode, result,
                 stderr):
        self.spawned = spawned
        self.wall = wall
        self.cpu = cpu
        self.peak_rss_mb = peak_rss_mb
        self.returncode = returncode
        self.result = result
        self.stderr = stderr

    @property
    def setup_s(self):
        return self.result["setup_done"] - self.spawned

    @property
    def passes(self):
        return self.result["passes"] if self.result else []


def spawn(root, workdir, argv_of, deadline):
    """Run one child to completion, killing its process group at
    ``deadline`` (a ``time.monotonic`` value).  ``argv_of(out)`` builds
    its command line.  ``wait4`` gives the rusage of the child together
    with the pool workers it reaped (user + sys time, largest
    ``maxrss``)."""
    out = os.path.join(workdir, "child.json")
    if os.path.exists(out):
        os.remove(out)
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    with open(os.path.join(workdir, "child.log"), "w+") as log:
        spawned = time.monotonic()
        process = subprocess.Popen(argv_of(out), cwd=root, env=env,
                                   stdout=log, stderr=log,
                                   start_new_session=True)
        watchdog = threading.Timer(max(0.0, deadline - spawned),
                                   _kill_group, (process.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - spawned
        process.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(process.pid)   # a leaked grandchild must not outlive us
        log.seek(0)
        stderr = log.read()[-2000:]
    result = None
    if process.returncode == 0 and os.path.exists(out):
        with open(out) as handle:
            result = json.load(handle)
    return Child(spawned, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, process.returncode, result,
                 stderr)


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Verdict:
    """Cells attempted and failed across a run, with the first few
    failure messages (each names its cell)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def note(self, message):
        if len(self.messages) < 20:
            self.messages.append(message)

    def add_child(self, child, expected_passes):
        if child.result is None:
            self.failed += 1
            self.attempted += 1
            self.note("child exited %d: %s"
                      % (child.returncode, child.stderr.strip()[-500:]))
            return
        if len(child.passes) != expected_passes:
            self.failed += 1
            self.note("child ran %d passes, expected %d"
                      % (len(child.passes), expected_passes))
        for record in child.passes:
            self.attempted += record["cells"]
            self.failed += record["failed"]
            for cell, message in sorted(record["failures"].items()):
                self.note("%s pass: %s: %s" % (record["name"], cell, message))

    def check_warm(self, cold, warm):
        """The warm pass reads what the cold pass stored: nothing
        executes, every lookup hits, every verdict is identical."""
        stats = warm["stats"]
        if stats["executed"]:
            self.note("warm pass executed %d cells" % stats["executed"])
        lookups = stats["planned"] - stats["deduplicated"]
        missed = lookups - stats["cache_hits"]
        if missed:
            self.note("warm pass hit the cache %d of %d times"
                      % (stats["cache_hits"], lookups))
        differing = sorted(key for key in set(cold["digest"])
                           | set(warm["digest"])
                           if cold["digest"].get(key)
                           != warm["digest"].get(key))
        for key in differing[:5]:
            self.note("warm verdict differs from cold: %s: %r != %r"
                      % (key, warm["digest"].get(key),
                         cold["digest"].get(key)))
        self.failed += max(stats["executed"], missed, len(differing))

    @property
    def correct(self):
        return self.failed == 0


def timed_run(root, workdir, workload, inputs, seconds, deadline):
    verdict = Verdict()
    cache_dir = os.path.join(workdir, "cache")
    colds, warms, setup_samples = [], [], []
    started = time.monotonic()

    def run_child(passes, setup_only=False):
        child = spawn(root, workdir, lambda out: child_argv(
            workload, inputs, cache_dir, out, JOBS, passes,
            setup_only=setup_only), deadline)
        verdict.add_child(child, 0 if setup_only else 1)
        if child.result is not None:
            setup_samples.append(child.setup_s)
        return child

    def run_warm(cold):
        warm = run_child("warm")
        if warm.result is not None:
            verdict.check_warm(cold.passes[0], warm.passes[0])
            warms.append(warm)
        return warm.result is not None

    for _ in range(SETUP_PROBES):
        run_child("cold", setup_only=True)
    while True:
        round_start = time.monotonic()
        shutil.rmtree(cache_dir, ignore_errors=True)
        cold = run_child("cold")
        if cold.result is None:
            break
        colds.append(cold)
        if not all(run_warm(cold) for _ in range(WARM_REPEATS)):
            break
        now = time.monotonic()
        if now - started + (now - round_start) > seconds:
            # No room for another round: spend what is left on warm
            # passes over the last cold pass's cache.
            while (time.monotonic() - started + warms[-1].wall <= seconds
                   and run_warm(cold)):
                pass
            break
    shutil.rmtree(cache_dir, ignore_errors=True)
    if not colds or not warms:
        return verdict, None
    print("%s: %d cold, %d warm, %d set-up samples"
          % (workload, len(colds), len(warms), len(setup_samples)))
    for label, samples in (("cold wall", [c.wall for c in colds]),
                           ("warm wall", [w.wall for w in warms]),
                           ("cold cpu", [c.cpu for c in colds]),
                           ("set-up", setup_samples)):
        print("  %-9s %s" % (label, " ".join("%.3f" % value
                                             for value in samples)))
    return verdict, end_to_end_metrics(colds, warms, setup_samples)


def end_to_end_metrics(colds, warms, setup_samples):
    """``{name: (value, unit)}``: medians over a timed run's children."""
    return {
        "wall_s": (median(c.wall for c in colds), "s"),
        "setup_s": (median(setup_samples), "s"),
        "warm_wall_s": (median(w.wall for w in warms), "s"),
        "cells_per_s": (median(c.passes[0]["cells"] / (c.wall - c.setup_s)
                               for c in colds), "1/s"),
        "cpu_s": (median(c.cpu for c in colds), "s"),
        "peak_rss_mb": (median(c.peak_rss_mb for c in colds), "MB"),
    }


def traced_run(root, workdir, workload, inputs, deadline):
    verdict = Verdict()
    cache_dir = os.path.join(workdir, "cache")
    trace_file = os.path.join(workdir, "trace-%s.json" % workload)
    walls = {}
    traced = None
    for mode in ("untraced", "traced"):
        shutil.rmtree(cache_dir, ignore_errors=True)
        child = spawn(root, workdir, lambda out: child_argv(
            workload, inputs, cache_dir, out, 1, "cold,warm",
            trace=trace_file if mode == "traced" else None), deadline)
        verdict.add_child(child, 2)
        if child.result is None:
            return verdict, None
        verdict.check_warm(*child.passes)
        walls[mode] = child.wall
        traced = child
    shutil.rmtree(cache_dir, ignore_errors=True)
    layers = dict(traced.result["layers"])
    layers["trace.overhead_frac"] = walls["traced"] / walls["untraced"] - 1.0
    print(format_span_table(traced.result["table"]))
    print("trace written to %s" % os.path.relpath(trace_file, root))
    return verdict, {name: (value, layer_unit(name))
                     for name, value in layers.items()}


def layer_unit(name):
    """A per-layer metric's unit, read off its name's suffix."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("soundness", "apps", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("perfbench: run from the root of a checkout; %s has no "
              "src/repro" % root, file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    inputs = make_inputs(args.workload, args.seed)
    deadline = time.monotonic() + RUN_DEADLINE
    if args.trace:
        verdict, metrics = traced_run(root, workdir, args.workload, inputs,
                                      deadline)
    else:
        verdict, metrics = timed_run(root, workdir, args.workload, inputs,
                                     args.seconds, deadline)
    for message in verdict.messages:
        print("FAILED: %s" % message)
    if metrics is None:
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print("%-28s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": max(1, verdict.attempted),
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
