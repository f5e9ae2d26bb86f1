"""The :class:`Session`: plan, shard, execute, merge, memoise.

A session is the single front door for campaign execution.  It owns

* a :class:`~repro.api.backends.Backend` (sim or model),
* a worker pool configuration (``jobs`` threads or processes),
* a shard size (iterations per unit of parallel work), and
* an optional :class:`~repro.api.cache.ResultCache`.

``Session.run`` executes one cell; ``Session.run_specs`` executes any
plan; ``Session.campaign`` plans the test x chip cartesian product and
returns a
:class:`~repro.api.result.CampaignResult`.

Determinism.  The shard decomposition and per-shard seeds are pure
functions of each spec (:func:`~repro.api.backends.plan_shards`), and
shard histograms are merged in shard-index order — so ``jobs=8``
produces bit-identical histograms to ``jobs=1`` for the same specs, and
a single-shard run reproduces the legacy serial iteration stream.
"""

import contextlib
from concurrent import futures as _futures
from dataclasses import asdict, dataclass

from ..errors import ReproError
from .backends import DEFAULT_SHARD_SIZE, make_backend
from .cache import ResultCache, cache_key
from .result import CampaignResult, SpecResult
from .spec import BEST, RunSpec, matrix

#: Specs per :meth:`Session.run_stream` execution chunk.  Large enough to
#: keep a worker pool busy and let in-plan deduplication catch twins,
#: small enough that a 10k-test corpus never holds more than a chunk of
#: histograms in memory at once.
DEFAULT_CHUNK_SIZE = 64


def chunked(iterable, size):
    """Yield lists of up to ``size`` items — the streaming unit shared by
    :meth:`Session.run_stream` and the conformance pipeline."""
    chunk = []
    for item in iterable:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _execute_shard(backend, spec, shard):
    """Module-level so process pools can pickle the work unit."""
    return backend.run_shard(spec, shard)


def _broken_pool(spec, shard):
    """The error for a pool that broke before ``shard`` finished.  The
    named shard is the first one still pending in plan order, not
    necessarily the one whose worker crashed."""
    return ReproError("the process pool broke (a worker died) before "
                      "shard %d of %s@%s finished"
                      % ((shard.index,) + spec.key))


def _submit(pool, backend, spec, shard):
    try:
        return pool.submit(_execute_shard, backend, spec, shard)
    except _futures.BrokenExecutor as error:
        raise _broken_pool(spec, shard) from error


def _outcome(spec, shard, future):
    """A parallel shard's result; a broken pool is reported against the
    cell, not as a bare pool error."""
    try:
        return future.result()
    except _futures.BrokenExecutor as error:
        raise _broken_pool(spec, shard) from error


@dataclass
class SessionStats:
    """What a session actually did (the cache test's instrument)."""

    planned: int = 0                #: specs requested
    executed: int = 0               #: specs that ran on the backend
    cache_hits: int = 0             #: specs satisfied from the cache
    deduplicated: int = 0           #: specs satisfied by an in-plan twin
    shards_executed: int = 0        #: shards run on the backend
    simulated_iterations: int = 0   #: iterations executed (sharded backends)
    # Always 0: perfbench/child.py's STAT_KEYS still reads these two.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0

    def snapshot(self):
        return asdict(self)


class Session:
    """A configured execution engine for litmus campaigns.

    Parameters
    ----------
    backend:
        ``"sim"`` (default), ``"model"``, ``"model:<name>"`` or a
        :class:`~repro.api.backends.Backend` instance.
    jobs:
        Worker count.  ``1`` (default) runs in-process and serially;
        ``>1`` shards specs across a pool.
    cache:
        ``True`` (default) attaches an in-memory
        :class:`~repro.api.cache.ResultCache`; ``False``/``None``
        disables memoisation; or pass a cache instance to share one
        across sessions.
    cache_dir:
        Adds the on-disk JSON tier (implies caching).
    shard_size:
        Iterations per shard (default
        :data:`~repro.api.backends.DEFAULT_SHARD_SIZE`).  The
        decomposition determines the per-shard seeds, so it is part of
        a result's identity: runs (and cache entries) with different
        *effective* decompositions are distinct, while any two shard
        sizes that yield the same decomposition (e.g. both at least the
        iteration count) share results.  Worker count never matters.
    executor:
        ``"thread"`` (default) or ``"process"``.  Threads are cheap and
        deterministic; processes sidestep the GIL for large campaigns
        (every work unit pickles cleanly).
    pool:
        An externally managed ``concurrent.futures`` executor to submit
        parallel work to instead of creating one per plan.  The caller
        owns its lifetime (the session never shuts it down), which lets
        several sessions — e.g. the sim and model halves of a
        conformance pipeline — share one worker pool.
    engine:
        Default simulation engine for specs this session builds:
        ``"batch"`` (numpy lockstep shards, distribution-equivalent
        histograms) or ``"fast"`` (compiled cells, the bit-reproducible
        stream).  ``None`` defers to the ``REPRO_ENGINE`` environment
        variable, then to ``batch`` when numpy is importable and
        ``fast`` otherwise; a prepared :class:`RunSpec` always keeps
        its own ``engine``.

    Example::

        session = Session(jobs=4, engine="fast")
        result = session.run(library.build("mp"), "Titan",
                             iterations=100000)
        print(result.summary())
    """

    def __init__(self, backend="sim", jobs=1, cache=True, cache_dir=None,
                 shard_size=DEFAULT_SHARD_SIZE, executor="thread", pool=None,
                 engine=None):
        self.backend = make_backend(backend)
        if jobs < 1:
            raise ReproError("jobs must be >= 1, got %r" % jobs)
        self.jobs = int(jobs)
        if shard_size < 1:
            raise ReproError("shard_size must be >= 1, got %r" % shard_size)
        self.shard_size = int(shard_size)
        if executor not in ("thread", "process"):
            raise ReproError("executor must be 'thread' or 'process', got %r"
                             % (executor,))
        self.executor = executor
        self.pool = pool
        if engine is not None:
            from ..sim.engine import resolve_engine
            engine = resolve_engine(engine)
        self.engine = engine
        if isinstance(cache, ResultCache):
            self.cache = cache
        elif cache_dir or cache:
            self.cache = ResultCache(cache_dir=cache_dir)
        else:
            self.cache = None
        self.stats = SessionStats()

    # -- public API -------------------------------------------------------

    def run(self, test, chip=None, incantations=BEST, iterations=None,
            seed=0, engine=None):
        """Execute one cell; accepts a prepared :class:`RunSpec` or the
        (test, chip, ...) fields of one.

        >>> from repro.api import Session
        >>> from repro.litmus import library
        >>> session = Session(cache=False)
        >>> result = session.run(library.build("mp"), "Titan",
        ...                      iterations=500, seed=1)
        >>> result.iterations
        500
        """
        if isinstance(test, RunSpec):
            spec = test
        else:
            if chip is None:
                raise ReproError("Session.run needs a chip unless given a "
                                 "RunSpec")
            spec = RunSpec.make(test, chip, incantations=incantations,
                                iterations=iterations, seed=seed,
                                engine=self._engine(engine))
        return self.run_specs([spec])[0]

    def run_specs(self, specs):
        """Execute a plan; returns results in plan order.

        Duplicate specs within one plan (same backend cache key)
        execute once; the later occurrences share the first's result.
        """
        specs = list(specs)
        self.stats.planned += len(specs)
        results = {}
        pending = []
        first_seen = {}
        duplicates = {}
        for index, spec in enumerate(specs):
            key = self._cache_key(spec)
            if key in first_seen:
                duplicates[index] = first_seen[key]
                self.stats.deduplicated += 1
                continue
            first_seen[key] = index
            cached = self._lookup(spec)
            if cached is not None:
                self.stats.cache_hits += 1
                results[index] = cached
            else:
                pending.append((index, spec))
        if pending:
            if self.jobs > 1:
                executed = self._run_parallel(pending)
            else:
                executed = self._run_serial(pending)
            for index, result in executed:
                self._store(result)
                results[index] = result
        for index, original in duplicates.items():
            # Each plan position gets its own histogram copy so callers
            # mutating one result cannot corrupt its duplicates.
            source = results[original]
            results[index] = SpecResult(
                spec=specs[index], backend=source.backend,
                histogram=source.histogram.copy(), cached=True)
        return [results[index] for index in range(len(specs))]

    def campaign(self, tests, chips, incantations=BEST, iterations=None,
                 seed=0, engine=None):
        """Plan and execute the cartesian product campaign."""
        specs = matrix(tests, chips, incantations=incantations,
                       iterations=iterations, seed=seed,
                       engine=self._engine(engine))
        campaign = CampaignResult()
        for result in self.run_specs(specs):
            campaign.add(result)
        return campaign

    def plan(self, tests, chips, incantations=BEST, iterations=None, seed=0,
             engine=None):
        """Lazily yield the cartesian-product plan of :meth:`campaign`.

        The generator twin of :func:`~repro.api.spec.matrix`: ``tests``
        may itself be a generator (e.g. a diy corpus being synthesised on
        the fly) — specs are built test by test, so a 10k-test corpus
        never materialises as a spec list.  Feed the result to
        :meth:`run_stream`.
        """
        chips = list(chips)
        engine = self._engine(engine)
        for test in tests:
            for chip in chips:
                yield RunSpec.make(test, chip, incantations=incantations,
                                   iterations=iterations, seed=seed,
                                   engine=engine)

    def run_stream(self, specs, chunk_size=DEFAULT_CHUNK_SIZE):
        """Execute a plan in chunks; yields results in plan order.

        The streaming twin of :meth:`run_specs`: ``specs`` is any
        iterable (including a generator from :meth:`plan`), consumed
        ``chunk_size`` specs at a time, so at most one chunk of
        histograms is in flight at once.  Within a chunk the usual
        machinery applies — parallel sharding, cache lookups, in-plan
        deduplication; across chunks the result cache still catches
        repeats.  Bit-identical results to :meth:`run_specs` on the same
        plan.
        """
        if chunk_size < 1:
            raise ReproError("chunk_size must be >= 1, got %r" % (chunk_size,))
        for chunk in chunked(specs, chunk_size):
            for result in self.run_specs(chunk):
                yield result

    def _engine(self, engine):
        """Per-call engine override, else the session default (which may
        itself be ``None`` = environment default)."""
        return engine if engine is not None else self.engine

    # -- execution strategies ---------------------------------------------

    def _run_serial(self, pending):
        executed = []
        for index, spec in pending:
            shards = self.backend.shards(spec, self.shard_size)
            results = [_execute_shard(self.backend, spec, shard)
                       for shard in shards]
            executed.append((index, self._result(spec, shards, results)))
        return executed

    def _run_parallel(self, pending):
        with self._pool() as pool:
            plans = []
            for index, spec in pending:
                shards = self.backend.shards(spec, self.shard_size)
                futures = [_submit(pool, self.backend, spec, shard)
                           for shard in shards]
                plans.append((index, spec, shards, futures))
            executed = []
            for index, spec, shards, futures in plans:
                # Merge in shard-index order: bit-identical to the serial
                # path no matter which worker finished first.
                results = [_outcome(spec, shard, future)
                           for shard, future in zip(shards, futures)]
                executed.append((index, self._result(spec, shards, results)))
            return executed

    def _pool(self):
        if self.pool is not None:
            # Shared pool: the with-block in _run_parallel must not
            # shut it down, so hand back a non-closing view.
            return contextlib.nullcontext(self.pool)
        if self.executor == "process":
            return _futures.ProcessPoolExecutor(max_workers=self.jobs)
        return _futures.ThreadPoolExecutor(max_workers=self.jobs)

    # -- bookkeeping ------------------------------------------------------

    def _result(self, spec, shards, results):
        """Merge one spec's shard results and account for the work."""
        stats = self.stats
        stats.executed += 1
        stats.shards_executed += len(shards)
        stats.simulated_iterations += sum(shard.iterations for shard in shards)
        histogram = self.backend.result_type.merge(results)
        return SpecResult(spec=spec, backend=self.backend.name,
                          histogram=histogram, cached=False)

    def _variant(self, spec):
        """The execution-parameter component of the cache key —
        delegated to the backend (the sim backend keys on the effective
        shard decomposition; model verdicts are decomposition-free)."""
        return self.backend.cache_variant(spec, self.shard_size)

    def _cache_key(self, spec):
        return cache_key(self.backend.name, self.backend.cache_signature(spec),
                         self._variant(spec))

    def _lookup(self, spec):
        if self.cache is None:
            return None
        return self.cache.get(self.backend.name, spec,
                              signature=self.backend.cache_signature(spec),
                              variant=self._variant(spec),
                              result_type=self.backend.result_type)

    def _store(self, result):
        if self.cache is not None:
            self.cache.put(result,
                           signature=self.backend.cache_signature(result.spec),
                           variant=self._variant(result.spec))

