"""Pluggable execution backends and deterministic shard planning.

A :class:`Backend` turns a :class:`~repro.api.spec.RunSpec` into a
:class:`~repro.harness.histogram.Histogram` of final states, or into the
typed subclass it names as :attr:`Backend.result_type` (the exhaustive
and analysis backends).  Two implementations ship here:

* :class:`SimBackend` — "run it on silicon": executes the spec on the
  operational GPU simulator on the engine the spec names (``fast``: a
  memoised :class:`~repro.sim.compile.CompiledCell`, iteration by
  iteration; ``batch``: a memoised :class:`~repro.sim.batch.BatchCell`,
  one lockstep batch per shard).  Supports *sharding*: a spec's
  iterations are split into fixed-size shards, each with a
  deterministic seed, so a pool can run them in parallel and merge the
  histograms bit-identically to the serial order.
* :class:`ModelBackend` — "check it against the model": enumerates the
  candidate executions of an axiomatic model
  (:mod:`repro.model.models`) and returns the *allowed* final states as
  a histogram (count 1 each), so operational campaigns and model
  checking share one request/result shape (cf. GPUMC's unified driver).

Shard seeding.  Shard 0 always uses the spec's own seed with a fresh
``random.Random`` — for a single-shard run this is the stream of a plain
serial loop over ``Random(seed)``.  Later shards derive their
seeds from the spec fingerprint and the shard index via SHA-256, so the
decomposition depends only on the spec and the shard size, never on the
worker count or execution order.
"""

import hashlib
import random
import threading
from dataclasses import dataclass

from ..harness.histogram import Histogram
from ..harness.incantations import efficacy
from ..litmus.writer import write_litmus
from ..model.models import MODELS, load_model
from ..sim.batch import compile_batch_cell
from ..sim.compile import compile_cell
from ..sim.engine import run_batch

#: Default iterations per shard.  Small campaign cells (every tier-1
#: test and the CI-sized benchmarks) fit in one shard and therefore
#: reproduce the legacy serial iteration stream bit for bit; the paper's
#: 100k-iteration cells split into four parallelisable shards.
DEFAULT_SHARD_SIZE = 25000


@dataclass(frozen=True)
class Shard:
    """One slice of a spec's iterations with its deterministic seed."""

    index: int
    iterations: int
    seed: int


def shard_seed(spec, index):
    """The deterministic seed of shard ``index`` of ``spec``.

    Shard 0 is the spec's own seed (legacy-stream parity); later shards
    hash the fingerprint and index so no two shards share a stream.
    """
    if index == 0:
        return spec.seed
    digest = hashlib.sha256(
        ("%s#shard-%d" % (spec.fingerprint(), index)).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def plan_shards(spec, shard_size=DEFAULT_SHARD_SIZE):
    """Split ``spec.iterations`` into deterministic shards.

    The decomposition is a pure function of the spec and the shard size
    — never of the worker count — which is what makes parallel and
    serial execution merge to bit-identical histograms.
    """
    if shard_size < 1:
        from ..errors import ReproError
        raise ReproError("shard_size must be >= 1, got %r" % shard_size)
    shards = []
    remaining = spec.iterations
    index = 0
    while remaining > 0:
        size = min(shard_size, remaining)
        shards.append(Shard(index=index, iterations=size,
                            seed=shard_seed(spec, index)))
        remaining -= size
        index += 1
    return shards


class Backend:
    """Protocol for execution backends.

    A backend splits a spec into independent work units (:meth:`shards`)
    and executes one at a time (:meth:`run_shard`); each returns an
    instance of :attr:`result_type`, and merging every shard's result in
    shard order (:meth:`run`) is the spec's result.  The session and the
    result cache use :attr:`result_type` to merge shards and to decode
    cached entries, so an oracle with more to say than final-state
    counts declares a typed :class:`~repro.harness.histogram.Histogram`
    subclass here.
    """

    name = "backend"
    result_type = Histogram

    def cache_signature(self, spec):
        """The part of ``spec`` this backend's result depends on.

        Defaults to the full fingerprint; backends whose results ignore
        some fields override this so equivalent cells share cache
        entries (e.g. a model verdict does not depend on the chip).
        """
        return spec.fingerprint()

    def shards(self, spec, shard_size):
        """Split ``spec`` into independent parallel work units.

        The default is the iteration decomposition of
        :func:`plan_shards`; backends whose unit of work is not an
        iteration batch (one model verdict per test) override this.
        """
        return plan_shards(spec, shard_size)

    def cache_variant(self, spec, shard_size):
        """The execution-parameter component of the cache key.

        Empty by default: most backends' results do not depend on how
        the work was decomposed.  The sim backend overrides this
        because per-shard seeding makes the histogram a function of the
        effective decomposition.
        """
        return ""

    def run(self, spec, shard_size=DEFAULT_SHARD_SIZE):
        """Execute ``spec`` fully and serially: the shard-order merge of
        :meth:`run_shard` over :meth:`shards`."""
        return self.result_type.merge(
            self.run_shard(spec, shard)
            for shard in self.shards(spec, shard_size))

    def run_shard(self, spec, shard):
        """Execute one shard of ``spec``; returns a :attr:`result_type`."""
        raise NotImplementedError


class SimBackend(Backend):
    """Operational execution on the simulated chips (Sec. 4 campaigns).

    ``spec.engine`` picks the execution engine per cell: ``"fast"``
    lowers the cell once through :func:`repro.sim.compile.compile_cell`
    and reuses the compiled machine for every shard this process runs
    (the memo is process-local — compiled cells hold closures and do not
    pickle, so process-pool workers each compile their own, amortised
    over a shard's iterations); ``"batch"`` lowers through
    :func:`repro.sim.batch.compile_batch_cell` into numpy
    structure-of-arrays kernels executing each shard as one lockstep
    batch (same memo discipline — batch cells hold numpy buffers and
    closures and do not pickle either).  ``fast`` produces histograms
    bit-identical to the :class:`~repro.sim.machine.GpuMachine`
    interpreter for the same shard seeds; ``batch`` is
    distribution-equivalent under a documented seeded stream-break
    (see :mod:`repro.sim.batch`).  The cache signature keeps the two
    apart (see :meth:`cache_signature`).

    Either engine lowers a cell in the worker that runs it, once per
    process and cell.

    Subclasses running other spec kinds (the app backend) override
    :meth:`_lowering` — the intensity and placement-shuffle flag a
    cell lowers with — and :meth:`run_shard`; the memo and engine
    dispatch are shared.  :meth:`_machine` is the one place a
    cell becomes something answering ``run_once``/``run_many``, so a
    subclass overriding it alone (say, one interpreting through
    :class:`~repro.sim.machine.GpuMachine` for a parity check) reuses
    the shard planner, the session and the cache unchanged.
    """

    name = "sim"

    #: Compiled-cell memo cap; a long-lived session (e.g. the benchmark
    #: suite's shared one) must not accumulate closures without bound.
    MAX_COMPILED = 512

    def __init__(self):
        # Per-*thread* memo: a CompiledCell mutates its own machine
        # state during run_once, so two pool threads must never share
        # one.  (Process pools sidestep this via pickling, which drops
        # the memo entirely — see __getstate__.)
        self._local = threading.local()

    def __getstate__(self):
        # Compiled cells hold closures; drop the memo when a process
        # pool pickles the backend into its workers.
        state = self.__dict__.copy()
        del state["_local"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._local = threading.local()

    def cache_signature(self, spec):
        """Fingerprint plus engine.

        The fingerprint deliberately excludes the engine (shard seeds
        stay engine-neutral), but cached results must not cross
        engines: a histogram cached by one engine would otherwise
        satisfy (and silently mask) a run requested on another —
        including the equivalence tests that enforce the
        bit-identity/distribution-equivalence contracts in the first
        place, and the batch engine's histograms are only
        distribution-equivalent, not bit-identical.
        """
        return "%s-%s" % (spec.fingerprint(), spec.engine)

    def cache_variant(self, spec, shard_size):
        """Per-shard seeding makes the histogram a function of the
        decomposition, which is fully determined by
        ``min(shard_size, iterations)`` — two shard sizes that both
        cover the whole spec produce the identical single shard and may
        share an entry."""
        return "shard%d" % min(shard_size, spec.iterations)

    def _lowering(self, spec):
        """``(intensity, shuffle_placement)``: what ``spec`` lowers
        with besides its test and chip — the incantation column's
        efficacy and its thread-randomisation flag."""
        intensity = efficacy(spec.chip.vendor, spec.test.idiom or "mp",
                             spec.incantations)
        return intensity, spec.incantations.thread_rand

    def _machine(self, spec):
        intensity, shuffle = self._lowering(spec)
        cells = getattr(self._local, "cells", None)
        if cells is None:
            cells = self._local.cells = {}
        # Key on exactly what the lowering receives, so iteration/seed
        # variants of one cell share a single compilation (and the two
        # engines never share one).
        key = (spec.engine, write_litmus(spec.test), repr(spec.chip),
               intensity, shuffle)
        machine = cells.get(key)
        if machine is None:
            if len(cells) >= self.MAX_COMPILED:
                cells.clear()
            lower = (compile_batch_cell if spec.engine == "batch"
                     else compile_cell)
            machine = cells[key] = lower(spec.test, spec.chip,
                                         intensity=intensity,
                                         shuffle_placement=shuffle)
        return machine

    def run_shard(self, spec, shard):
        return run_batch(self._machine(spec), shard.iterations,
                         random.Random(shard.seed), Histogram())


class ModelBackend(Backend):
    """Axiomatic model checking behind the campaign API.

    The histogram holds each final state the model *allows* with count
    1; ``iterations`` in the spec is ignored (enumeration is exhaustive,
    not statistical).  ``SpecResult.observations > 0`` therefore reads
    as the paper's Allowed verdict for the test's condition.

    The model is compiled once and the enumeration pruned with its
    monotone checks (``AxiomaticModel.allowed_outcomes``).

    *Sharding.*  A verdict is one indivisible enumeration, so each spec
    is its own shard: a campaign's test list spreads across the worker
    pool one verdict per worker (the verdict — one per test text — is
    already the memoisation unit, so chips never multiply the work).
    """

    def __init__(self, model="ptx", fuel=128, max_executions=None):
        self.model = load_model(model) if isinstance(model, str) else model
        self.name = "model:%s" % self.model.name
        self.fuel = fuel
        self.max_executions = max_executions

    def cache_signature(self, spec):
        """Verdicts depend only on the test text and the enumeration
        fuel — not chip, iterations, seed or sim engine — so a campaign
        across the seven result chips enumerates each test once, not
        seven times."""
        payload = "%s\x1e fuel=%d" % (write_litmus(spec.test), self.fuel)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def shards(self, spec, shard_size):
        """One verdict, one work unit.  ``iterations=0`` keeps the
        session's simulated-iteration accounting a sim-only statistic."""
        return [Shard(index=0, iterations=0, seed=spec.seed)]

    def run_shard(self, spec, shard):
        # on_limit="error" is non-negotiable here: the campaign layer
        # treats this histogram as the *complete* allowed set, and a
        # truncated enumeration would manufacture false "violations" in
        # soundness campaigns.  ``max_executions`` therefore acts as a
        # safety valve (refuse combinatorial blow-ups loudly), never as a
        # silent sampler.
        allowed = self.model.allowed_outcomes(
            spec.test, fuel=self.fuel, max_executions=self.max_executions,
            on_limit="error")
        histogram = Histogram()
        for state in allowed:
            histogram.add(state)
        return histogram


def make_backend(backend):
    """Resolve a backend argument: an instance, ``"sim"``, ``"model"``
    (the paper's PTX model), ``"model:<name>"`` for any registered
    axiomatic model, ``"app"`` (application scenario campaigns),
    ``"analysis"`` (static race/ordering verdicts), or ``"exhaustive"``
    (DPOR stateless model checking of the compiled cell)."""
    if isinstance(backend, Backend):
        return backend
    if backend == "sim":
        return SimBackend()
    if backend == "model":
        return ModelBackend()
    if backend == "app":
        # Local import: the apps package sits above the api layer.
        from ..apps.backend import AppBackend
        return AppBackend()
    if backend == "analysis":
        # Local import: the analysis package sits above the api layer.
        from ..analysis.backend import AnalysisBackend
        return AnalysisBackend()
    if backend == "exhaustive":
        # Local import: the exhaustive package sits above the api layer.
        from ..exhaustive.backend import ExhaustiveBackend
        return ExhaustiveBackend()
    if isinstance(backend, str) and backend.startswith("model:"):
        return ModelBackend(backend.split(":", 1)[1])
    from ..errors import ReproError
    raise ReproError(
        "unknown backend %r (expected 'analysis', 'app', 'exhaustive', "
        "'model', 'sim', or 'model:NAME' where NAME is one of: %s)"
        % (backend, ", ".join(sorted(MODELS))))
