"""The litmus runner: execute a test many times on a simulated chip.

This is the reproduction of the paper's testing tool (Sec. 4.2): given a
litmus test it produces a histogram of all observed outcomes and the
observation count of the final condition, under a chosen combination of
incantations.  ``run_paper_config`` mirrors the paper's reporting: 100k
executions (scaled by ``REPRO_ITERS`` for CI-sized runs) under the most
effective incantations.

Since the :mod:`repro.api` redesign these functions are thin
backwards-compatible wrappers: planning, sharding, parallelism and
caching live in :class:`repro.api.Session`; the wrappers build one-off
sessions (no cache, one worker) and repackage the results in the legacy
:class:`RunResult` shape.  For campaigns, prefer the session API — it
is the same engine with the knobs exposed.

Determinism note: every run is reproducible for the same seed and
engine.  With ``engine="fast"``, up to one shard
of iterations (:data:`repro.api.DEFAULT_SHARD_SIZE`, 25000) the
wrappers reproduce the pre-1.1 single-RNG-stream histograms bit for
bit; beyond that, iterations run in deterministically seeded shards,
not the legacy stream.  The default engine is ``batch`` when numpy is
importable, whose histograms are distribution-equivalent to that
stream but not identical.
"""

from dataclasses import dataclass

from .._util import env_int
from ..sim.chip import CHIPS, ChipProfile
from .histogram import Histogram
from .incantations import Incantations, best_for

#: The paper's iteration count per test.
PAPER_ITERATIONS = 100000


def default_iterations(fallback=10000):
    """Iteration count for benchmarks: ``REPRO_ITERS`` env or ``fallback``.

    A non-integer value fails fast with a clear
    :class:`~repro.errors.ConfigurationError`.
    """
    return env_int("REPRO_ITERS", fallback)


@dataclass
class RunResult:
    """Outcome of running one litmus test on one chip."""

    test: object
    chip: ChipProfile
    incantations: Incantations
    histogram: Histogram
    iterations: int

    @property
    def observations(self):
        return self.histogram.observations(self.test.condition)

    @property
    def per_100k(self):
        return self.histogram.per_100k(self.test.condition)

    @property
    def observed_weak(self):
        return self.observations > 0

    def summary(self):
        return ("%s on %s [%s]: %d/%d weak (%.0f per 100k)"
                % (self.test.name, self.chip.short, self.incantations,
                   self.observations, self.iterations, self.per_100k))


def _resolve_chip(chip):
    if isinstance(chip, ChipProfile):
        return chip
    return CHIPS[chip]


def _session(session):
    if session is not None:
        return session
    from ..api import Session
    return Session(backend="sim", jobs=1, cache=False)


def _legacy_result(result):
    return RunResult(test=result.spec.test, chip=result.spec.chip,
                     incantations=result.spec.incantations,
                     histogram=result.histogram,
                     iterations=result.spec.iterations)


def run_litmus(test, chip, incantations=None, iterations=None, seed=0,
               session=None, engine=None):
    """Run ``test`` on ``chip`` under ``incantations``.

    ``incantations=None`` means the bare Sec. 4.2 setup (no incantations
    enabled) — which, as the paper reports, rarely witnesses anything on
    Nvidia chips.  Pass ``session`` to reuse a configured
    :class:`repro.api.Session` (workers, cache) for many calls, and
    ``engine`` to pick the simulation engine (``"fast"``, the
    bit-reproducible stream, or ``"batch"``; ``None`` takes
    :func:`~repro.sim.engine.resolve_engine`'s default).
    """
    from ..api import RunSpec

    spec = RunSpec.make(test, chip,
                        incantations=incantations or Incantations.none(),
                        iterations=iterations, seed=seed, engine=engine)
    return _legacy_result(_session(session).run(spec))


def run_paper_config(test, chip, iterations=None, seed=0, session=None,
                     engine=None):
    """Run with the most effective incantations — the configuration whose
    observation counts the paper's figures report."""
    chip = _resolve_chip(chip)
    incantations = best_for(chip.vendor, test.idiom or "mp")
    return run_litmus(test, chip, incantations=incantations,
                      iterations=iterations, seed=seed, session=session,
                      engine=engine)

