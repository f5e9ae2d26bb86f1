"""Straggler-tail hand-off contracts.

The batch engine's tail hand-off drains a chunk's last spinning
survivors on the compiled fast engine instead of paying full-width
numpy dispatch.  Its contracts, enforced here:

* the default stream is **bit-identical** to the one the batch engine
  drew before its fixed-width legacy path was deleted (pinned golden
  histogram signatures);
* the tailed stream stays **distribution-equivalent** to the fast
  engine (TVD inside the sampling envelope, loss verdicts agreeing) on
  the spin-heavy scenarios the hand-off exists for;
* results are deterministic per seed (two lowerings of one cell draw
  the same stream) and invariant across the session's jobs/executor
  decomposition, including a disk-backed process pool whose workers
  each lower the cell themselves and leave nothing but result entries
  in the cache directory.
"""

import hashlib
import os
import random

import pytest

from repro.apps import app_session, get_scenario, run_scenario
from repro.harness.histogram import Histogram
from repro.litmus import library
from repro.perf import tvd, tvd_envelope
from repro.sim import CHIPS, compile_batch_cell, compile_cell, have_numpy
from repro.sim.engine import run_batch

requires_numpy = pytest.mark.skipif(not have_numpy(),
                                    reason="numpy not installed")

#: The scenarios whose spin loops motivate the hand-off (CAS, exchange,
#: intra-CTA and ticket locks), each on a chip from the perf corpus.
SPIN_CELLS = (
    ("dot-cbe", "Titan"),
    ("dot-so", "HD7970"),
    ("dot-heyu-cta", "TesC"),
    ("ticket", "TesC"),
)

#: Pinned histogram signatures of the default batch stream.  Any
#: optimisation that perturbs its RNG draw order shows up here first.
LITMUS_GOLDENS = (
    ("mp", "Titan", 3000, 11, "9c02bc0211d22054"),
    ("sb", "GTX5", 3000, 13, "f8df65608216ae38"),
    # Several adaptive chunks and tail hand-offs in one run.
    ("mp", "Titan", 26000, 5, "9348454f01b5e2b4"),
)
DOT_GOLDEN = ("dot-cbe", "Titan", 3000, 17, "029379b67897e1d6")


def _signature(histogram):
    payload = repr(sorted((str(k), v) for k, v in histogram.counts.items()))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _losses(histogram, test):
    return Histogram(dict(histogram.counts)).observations(test.condition)


@requires_numpy
class TestDefaultStreamGoldens:
    """The default batch stream reproduces its pinned signatures."""

    @pytest.mark.parametrize("name,chip,n,seed,expected", LITMUS_GOLDENS)
    def test_litmus_goldens(self, name, chip, n, seed, expected):
        cell = compile_batch_cell(library.build(name), CHIPS[chip])
        histogram = run_batch(cell, n, random.Random(seed))
        assert _signature(histogram) == expected

    def test_scenario_golden(self):
        name, chip, n, seed, expected = DOT_GOLDEN
        cell = compile_batch_cell(get_scenario(name).test(), CHIPS[chip],
                                  intensity=100.0)
        histogram = run_batch(cell, n, random.Random(seed))
        assert _signature(histogram) == expected


@requires_numpy
class TestTailParity:
    """The hand-off changes the RNG stream, never the distribution."""

    @pytest.mark.parametrize("name,chip", SPIN_CELLS)
    def test_spin_scenarios_match_fast(self, name, chip):
        runs, seed = 4000, 0
        test = get_scenario(name).test()
        profile = CHIPS[chip]
        tailed = compile_batch_cell(test, profile, intensity=100.0)
        fast = compile_cell(test, profile, intensity=100.0)
        tailed_h = run_batch(tailed, runs, random.Random(seed))
        fast_h = run_batch(fast, runs, random.Random(seed))
        assert tvd(tailed_h.counts, fast_h.counts, runs) <= tvd_envelope(runs)
        losses = _losses(tailed_h, test)
        fast_losses = _losses(fast_h, test)
        if max(losses, fast_losses) >= 5:  # decisive mass only
            assert (losses > 0) == (fast_losses > 0)


@requires_numpy
class TestTailDeterminism:
    def test_same_seed_reproduces(self):
        test = get_scenario("dot-cbe").test()
        for _ in range(2):
            cell = compile_batch_cell(test, CHIPS["Titan"], intensity=100.0)
            histogram = run_batch(cell, 3000, random.Random(7))
            if _ == 0:
                first = histogram.counts
        assert histogram.counts == first

    @pytest.mark.parametrize("name,chip", (("mp", "Titan"), ("sb", "GTX5")))
    def test_independent_lowerings_draw_the_same_stream(self, name, chip):
        """Each worker lowers its own cell, so two lowerings of one cell
        must be interchangeable: same seed, same histogram."""
        test = library.build(name)
        first = compile_batch_cell(test, CHIPS[chip])
        second = compile_batch_cell(test, CHIPS[chip])
        a = run_batch(first, 2000, random.Random(3))
        b = run_batch(second, 2000, random.Random(3))
        assert a.counts == b.counts

    def test_jobs_and_executor_invariant(self, tmp_path):
        kwargs = dict(runs=600, seed=3, engine="batch")
        serial = app_session(cache=False, shard_size=150)
        threaded = app_session(cache=False, shard_size=150, jobs=3)
        process = app_session(cache=False, shard_size=150, jobs=2,
                              executor="process")
        on_disk = app_session(cache_dir=str(tmp_path), shard_size=150,
                              jobs=2, executor="process")
        sessions = (serial, threaded, process, on_disk)
        results = [run_scenario("ticket", "TesC", session=session, **kwargs)
                   for session in sessions]
        for result in results[1:]:
            assert result.histogram.counts == results[0].histogram.counts
        assert serial.stats.shards_executed == 4  # ceil(600 / 150)
        assert on_disk.stats.executed == 1
        assert "plans" not in os.listdir(tmp_path)


class TestProcessPoolResultCache:
    """A disk-backed process pool caches results only: a warm session
    replays the cold histogram without executing a cell, and the cache
    directory never grows a ``plans/`` entry."""

    @pytest.mark.parametrize("engine", (
        "fast", pytest.param("batch", marks=requires_numpy)))
    def test_cold_then_warm(self, tmp_path, engine):
        kwargs = dict(runs=300, seed=1, engine=engine)
        cold = app_session(cache_dir=str(tmp_path), shard_size=150, jobs=2,
                           executor="process")
        first = run_scenario("dot-cbe", "Titan", session=cold, **kwargs)
        assert cold.stats.executed == 1
        warm = app_session(cache_dir=str(tmp_path), shard_size=150, jobs=2,
                           executor="process")
        second = run_scenario("dot-cbe", "Titan", session=warm, **kwargs)
        assert second.cached
        assert warm.stats.executed == 0
        assert second.histogram.counts == first.histogram.counts
        for stats in (cold.stats.snapshot(), warm.stats.snapshot()):
            assert stats["plan_cache_hits"] == 0
            assert stats["plan_cache_misses"] == 0
        assert "plans" not in os.listdir(tmp_path)

    def test_leftover_plan_directory_is_ignored(self, tmp_path):
        """A cache directory written by an older release may still hold
        pickled plans; they are neither read nor a reason to fail."""
        plans = tmp_path / "plans"
        plans.mkdir()
        (plans / "0123abcd.plan").write_bytes(b"not a pickle")
        kwargs = dict(runs=300, seed=1, engine="fast")
        serial = app_session(cache=False, shard_size=150)
        expected = run_scenario("dot-cbe", "Titan", session=serial, **kwargs)
        session = app_session(cache_dir=str(tmp_path), jobs=2,
                              executor="process", shard_size=150)
        result = run_scenario("dot-cbe", "Titan", session=session, **kwargs)
        assert result.histogram.counts == expected.histogram.counts
        assert (plans / "0123abcd.plan").read_bytes() == b"not a pickle"
