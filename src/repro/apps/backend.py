"""The application backend: scenario campaigns on the campaign stack.

:class:`AppBackend` runs :class:`~repro.apps.scenario.ScenarioSpec`
cells as a :class:`repro.api.backends.SimBackend` subclass, which is
what buys application campaigns everything litmus campaigns have —
deterministic sharded parallel execution, two-tier result caching,
in-plan deduplication, the shared compiled-cell memo and session
accounting — without the session layer knowing
scenarios exist:

* **sharding** — a spec's launches split into fixed-size shards through
  the shared planner (:func:`repro.api.backends.plan_shards`); shard 0
  runs on the spec's own seed, so a single-shard campaign cell consumes
  the exact ``Random(seed)`` stream of one
  :func:`~repro.sim.engine.run_batch` over the cell, and later shards
  derive their seeds from the fingerprint.
* **engines** — ``spec.engine`` picks ``fast`` (one
  :func:`repro.sim.compile.compile_cell` per scenario x chip x
  intensity, memoised per worker thread and reused across shards; the
  spin-loop kernels compile once and the machine state is reused across
  launches), ``batch`` (the numpy lockstep lowering of
  :mod:`repro.sim.batch` — one :func:`~repro.sim.batch.compile_batch_cell`
  per cell under the same memo discipline, each shard executed as one
  structure-of-arrays batch).  ``fast`` is bit-identical to the generic
  :class:`~repro.sim.machine.GpuMachine` interpreter; ``batch`` is
  distribution-equivalent under the documented seeded stream-break, and
  the two are kept apart in the cache signature.
* **projection** — each shard's raw histogram is folded onto the
  scenario's observable locations before it leaves the backend, so the
  cache stores (and campaigns merge) the projected outcome histograms
  the loss predicates read.
"""

import random

from ..api.backends import SimBackend
from ..harness.histogram import Histogram
from ..sim.engine import run_batch
# Lowering is inherited from SimBackend and looks these names up in
# repro.api.backends; they stay importable from this module because the
# traced benchmark (perfbench/spans.py) wraps all three here too.
from ..sim.batch import compile_batch_cell  # noqa: F401
from ..sim.compile import compile_cell  # noqa: F401

#: Default launches per shard.  Application launches are an order of
#: magnitude slower than litmus iterations (spin loops, multi-statement
#: critical sections), so app campaigns shard finer than the sim
#: backend's 25k: a paper-scale 100k-launch cell splits into ten
#: parallelisable shards while every interactive/test-sized cell still
#: fits in one shard and reproduces a serial ``Random(seed)`` loop exactly.
#: The batch engine sizes its own chunks adaptively from the cell's
#: retirement profile (see :func:`repro.sim.batch.compile_batch_cell`),
#: so the shard is a pure parallelism granule — wide shards keep the
#: numpy lockstep dense instead of fragmenting it.
DEFAULT_APP_SHARD_SIZE = 10000


class AppBackend(SimBackend):
    """Scenario execution on the simulated chips (Secs. 3.2, 6-7).

    A :class:`~repro.api.backends.SimBackend` whose cells lower with
    the spec's stress ``intensity`` and fixed placement, and whose
    shards project onto the scenario's observable locations.
    """

    name = "app"

    #: Compiled-cell memo cap per worker thread.
    MAX_COMPILED = 128

    def _lowering(self, spec):
        return spec.intensity, False

    def run_shard(self, spec, shard):
        histogram = run_batch(self._machine(spec), shard.iterations,
                              random.Random(shard.seed), Histogram())
        return spec.scenario.project_histogram(histogram)
