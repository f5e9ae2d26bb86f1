"""Timing harness for application campaigns (``BENCH_apps.json``).

The app-layer sibling of :mod:`repro.perf.enginebench`: measures, per
cell of a pinned ``(scenario, chip)`` corpus, how many *launches* per
second each engine sustains —

* ``reference`` — the generic :class:`~repro.sim.machine.GpuMachine`
  interpreter (what ``repro.apps`` ran on before the campaign rebase);
* ``fast (cold)`` — one :func:`~repro.sim.compile.compile_cell` pass
  *plus* the run (a process-pool worker's first shard of a cell);
* ``fast (warm)`` — the compiled cell reused: the steady state of every
  app campaign, where the spin-loop kernels compile once and machine
  state is reused across launches;
* ``batch (cold/warm)`` — the numpy lockstep lowering of
  :mod:`repro.sim.batch` (null fields when numpy is not installed).

Each timed run cross-checks the engine contracts twice over: the
reference and fast engines must produce identical outcome histograms
**and** identical loss counts from the same seed, so a perf number can
never come from a semantically diverged fast path; the batch engine
must stay distribution-equivalent (total variation distance within the
sampling-noise envelope) and agree on the scenario loss verdict.

``benchmarks/bench_perf_apps.py`` emits the report as
``BENCH_apps.json``; CI runs the tiny corpus as a perf-smoke gate and
uploads the JSON next to ``BENCH_engine.json``/``BENCH_model.json``.
"""

import json
import random
from dataclasses import asdict, dataclass

from ..apps.backend import DEFAULT_APP_SHARD_SIZE
from ..errors import ReproError
from ..sim.batch import compile_batch_cell, have_numpy
from ..sim.compile import compile_cell
from ..sim.engine import run_batch
from ..sim.machine import GpuMachine
from .enginebench import _timed_set, summarize, tvd, tvd_envelope

#: The pinned app perf corpus: one cell per scenario shape the campaign
#: layer spends its cycles on — CAS spin locks (CAS loop + atomics),
#: the exchange lock, an intra-CTA critical section, the branchy deque
#: steals (predicated If bodies), the two-slot round trip (the largest
#: kernel pair), the ticket lock (volatile spin + plain handoff) and
#: the isolation read.  Chips cover both vendors and the strong/weak
#: switch sets.
APP_PINNED_CORPUS = (
    ("dot-cbe", "Titan"),
    ("dot-so", "HD7970"),
    ("dot-heyu-cta", "TesC"),
    ("isolation", "Titan"),
    ("deque-mp", "Titan"),
    ("deque-lb", "HD7970"),
    ("deque-rt", "GTX6"),
    ("ticket", "TesC"),
)

#: CI-sized subset for the perf-smoke job.
APP_TINY_CORPUS = (
    ("dot-cbe", "Titan"),
    ("deque-lb", "HD7970"),
    ("ticket", "TesC"),
)

_APP_CORPORA = {"pinned": APP_PINNED_CORPUS, "tiny": APP_TINY_CORPUS}

#: Default intensity for timed cells (the campaign default).
BENCH_INTENSITY = 100.0

#: Default launches per timed cell: one campaign shard.  The bench
#: times the unit the session layer actually dispatches — and the
#: batch engine sizes its chunks adaptively within that width, so
#: timing a narrower slice would understate the lockstep density a
#: real campaign shard enjoys.
BENCH_APP_RUNS = DEFAULT_APP_SHARD_SIZE

#: A warm pass reuses what the matching cold pass had to build, so it
#: can only lose to cold through measurement noise; re-measure up to
#: this many times before declaring a persistent inversion an error.
_WARM_FLOOR = 0.9
_WARM_RETRIES = 2


def _warm_checked(label, measure_pair):
    """Measure a cold/warm pair under the warm-floor invariant:
    ``warm rate >= _WARM_FLOOR * cold rate`` per cell.
    ``measure_pair`` returns ``(cold seconds, cold counts, warm
    seconds, warm counts)`` measured interleaved; on inversion the
    whole pair is re-measured (either side may have eaten the noise),
    a bounded number of times."""
    cold_seconds, cold_counts, warm_seconds, warm_counts = measure_pair()
    for _ in range(_WARM_RETRIES):
        if warm_seconds * _WARM_FLOOR <= cold_seconds:
            break
        cold_seconds, cold_counts, warm_seconds, warm_counts = \
            measure_pair()
    if warm_seconds * _WARM_FLOOR > cold_seconds:
        raise ReproError(
            "appbench warm-vs-cold inversion persists for %s: warm "
            "%.4fs vs cold %.4fs (floor %.0f%%) after %d re-measures — "
            "the warm pass is re-lowering instead of reusing its cell"
            % (label, warm_seconds, cold_seconds, 100 * _WARM_FLOOR,
               _WARM_RETRIES))
    return cold_seconds, cold_counts, warm_seconds, warm_counts


def app_corpus_by_name(name):
    """Resolve an app corpus name (``pinned``/``tiny``) to cell pairs."""
    try:
        return _APP_CORPORA[name]
    except KeyError:
        raise ReproError("unknown app perf corpus %r (expected %s)"
                         % (name, "/".join(sorted(_APP_CORPORA)))) from None


@dataclass(frozen=True)
class AppBenchCell:
    """Measured rates for one (scenario, chip) cell, launches/second."""

    scenario: str
    chip: str
    runs: int
    losses: int               #: loss-predicate observations (both engines)
    reference_lps: float
    fast_cold_lps: float      #: includes the one-off compile
    fast_warm_lps: float      #: compiled cell reused (steady state)
    speedup_cold: float
    speedup_warm: float
    identical: bool           #: same-seed histograms + losses matched
    #: Batch-engine columns (None when numpy is not installed).
    #: Speedups are against the fast warm rate; ``batch_equivalent``
    #: couples the distribution cross-check with loss-verdict agreement.
    batch_cold_lps: float = None
    batch_warm_lps: float = None
    batch_speedup_cold: float = None
    batch_speedup_warm: float = None
    batch_losses: int = None
    batch_tvd: float = None
    batch_equivalent: bool = None


def bench_app_cell(scenario_name, chip_short, runs=BENCH_APP_RUNS, seed=0,
                   intensity=BENCH_INTENSITY, repeats=3):
    """Measure one corpus cell; returns an :class:`AppBenchCell`."""
    from ..apps.scenario import get_scenario
    from ..harness.histogram import Histogram
    from ..sim.chip import CHIPS

    scenario = get_scenario(scenario_name)
    test = scenario.test()
    chip = CHIPS[chip_short]

    def reference():
        return GpuMachine(test, chip, intensity=intensity)

    def compiled():
        return compile_cell(test, chip, intensity=intensity)

    def batched():
        return compile_batch_cell(test, chip, intensity=intensity)

    def pair(cold_setup, warm_machine):
        def measure():
            (c_sec, c_counts), (w_sec, w_counts) = _timed_set(
                [(None, cold_setup), (warm_machine, None)], runs, seed,
                repeats=repeats)
            return c_sec, c_counts, w_sec, w_counts
        return measure

    (ref_seconds, ref_counts), = _timed_set([(None, reference)], runs,
                                            seed, repeats=repeats)
    warm_cell = compile_cell(test, chip, intensity=intensity)
    run_batch(warm_cell, 50, random.Random(seed))  # pre-touch
    cold_seconds, cold_counts, warm_seconds, warm_counts = _warm_checked(
        "%s/%s fast" % (scenario_name, chip_short),
        pair(compiled, warm_cell))

    identical = ref_counts == cold_counts == warm_counts
    losses = Histogram(dict(ref_counts)).observations(test.condition)
    fast_losses = Histogram(dict(warm_counts)).observations(test.condition)
    identical = identical and losses == fast_losses

    batch = {}
    if have_numpy():
        # The warm cell is lowered once up front — the steady state of
        # a campaign worker's memo — so a warm deficit can only be
        # measurement noise (and trips the warm-floor check rather than
        # landing in the report).
        batch_cell = batched()
        run_batch(batch_cell, 50, random.Random(seed))  # pre-touch
        (batch_cold_seconds, _,
         batch_warm_seconds, batch_counts) = _warm_checked(
            "%s/%s batch" % (scenario_name, chip_short),
            pair(batched, batch_cell))
        batch_losses = Histogram(dict(batch_counts)).observations(
            test.condition)
        distance = tvd(warm_counts, batch_counts, runs)
        # Loss-*verdict* agreement, not loss-count equality: counts are
        # statistical, so only a decisive loss mass may contradict a
        # zero on the other engine.
        decisive = max(losses, batch_losses) >= 5
        verdict_ok = (not decisive) or ((losses > 0) == (batch_losses > 0))
        batch = {
            "batch_cold_lps": runs / batch_cold_seconds,
            "batch_warm_lps": runs / batch_warm_seconds,
            "batch_speedup_cold": warm_seconds / batch_cold_seconds,
            "batch_speedup_warm": warm_seconds / batch_warm_seconds,
            "batch_losses": batch_losses,
            "batch_tvd": distance,
            "batch_equivalent": (distance <= tvd_envelope(runs)
                                 and verdict_ok),
        }

    return AppBenchCell(
        scenario=scenario_name, chip=chip_short, runs=runs, losses=losses,
        reference_lps=runs / ref_seconds,
        fast_cold_lps=runs / cold_seconds,
        fast_warm_lps=runs / warm_seconds,
        speedup_cold=ref_seconds / cold_seconds,
        speedup_warm=ref_seconds / warm_seconds,
        identical=identical,
        **batch)


def bench_apps(corpus=APP_PINNED_CORPUS, runs=BENCH_APP_RUNS, seed=0,
               intensity=BENCH_INTENSITY, repeats=3):
    """Measure every corpus cell; returns a list of cells."""
    return [bench_app_cell(scenario, chip, runs=runs, seed=seed,
                           intensity=intensity, repeats=repeats)
            for scenario, chip in corpus]


def summarize_apps(cells):
    """Aggregate stats over measured cells (geomean/min speedups).

    App cells share the engine-bench cells' speedup/identical attribute
    names, so the summary schema is shared too — one place to change.
    """
    return summarize(cells)


#: Report schema version (bump on layout changes).  v2 added the batch
#: engine columns.
APP_SCHEMA_VERSION = 2


def write_app_report(path, cells, corpus_name, runs, seed, extra=None):
    """Write the ``BENCH_apps.json`` trajectory entry."""
    payload = {
        "version": APP_SCHEMA_VERSION,
        "benchmark": "apps",
        "corpus": corpus_name,
        "runs_per_cell": runs,
        "seed": seed,
        "cells": [
            {key: (round(value, 1) if isinstance(value, float) else value)
             for key, value in asdict(cell).items()}
            for cell in cells
        ],
        "summary": summarize_apps(cells),
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=False)
        handle.write("\n")
    return payload


def render_app_table(cells):
    """Human-readable comparison table for the console."""
    from .._util import format_table

    def opt(value, fmt):
        return "-" if value is None else fmt % value

    rows = [[cell.scenario, cell.chip, cell.runs, cell.losses,
             "%.0f" % cell.reference_lps,
             "%.0f" % cell.fast_warm_lps,
             opt(cell.batch_warm_lps, "%.0f"),
             "%.2fx" % cell.speedup_cold,
             "%.2fx" % cell.speedup_warm,
             opt(cell.batch_speedup_warm, "%.2fx"),
             "yes" if cell.identical else "NO",
             ("-" if cell.batch_equivalent is None
              else ("yes" if cell.batch_equivalent else "NO"))]
            for cell in cells]
    return format_table(
        ["scenario", "chip", "runs", "losses", "ref l/s", "fast-warm l/s",
         "batch-warm l/s", "fast cold", "fast warm", "batch/fast",
         "bit-identical", "batch-equiv"], rows)
