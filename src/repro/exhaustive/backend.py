"""The :class:`ExhaustiveBackend`: verified verdicts behind the campaign API.

The verifier tier of the ROADMAP: one exhaustive exploration per
:class:`~repro.api.spec.RunSpec` / :class:`~repro.apps.scenario.ScenarioSpec`,
delivered through the same :class:`~repro.api.session.Session` machinery
as simulations, model enumerations and static analyses —
fingerprint-keyed caching, in-plan deduplication, ``Shard.iterations=0``
accounting (an exploration is not a sampled iteration).

Explorations shard by root branch: :meth:`ExhaustiveBackend.shards`
materialises one shard per :meth:`~repro.exhaustive.explore.Explorer.root_plan`
entry, each worker explores its branch independently
(:meth:`~repro.exhaustive.explore.Explorer.run_branch`), and the
session's shard-index-ordered merge reassembles exactly the serial
result — ``repro-litmus verify --jobs N`` scales with cores without
perturbing a single verdict bit.

Results are :class:`Exploration` objects, the backend's
:attr:`~repro.api.backends.Backend.result_type`: a
:class:`~repro.harness.histogram.Histogram` of the reachable final
states (count 1 each, like a model's allowed set) with the exploration's
typed counters — executions, transitions and losses, summed when branch
results merge, and the bounded flag, OR'd.  The cache's JSON round-trip
and the ``SpecResult`` plumbing carry those fields unchanged, and
:meth:`~repro.harness.histogram.Histogram.observations` over an
exploration counts reachable witness states.

Exploration is *intensity-structural*: only which relaxation intents are
non-zero matters (the explorer enumerates both branches of every
surviving choice point), so verdicts dedupe across all positive
intensities, seeds and iteration counts — the cache signature covers the
litmus text, the chip, the structural intent vector, the loop bound and
the strategy.
"""

import hashlib
from dataclasses import dataclass

from ..api.backends import Backend, Shard
from ..harness.histogram import Histogram
from ..litmus.writer import write_litmus
from .explore import (DEFAULT_LOOP_BOUND, DEFAULT_MAX_TRANSITIONS, Explorer)

#: Bump to invalidate cached explorations when the explorer changes.
#: v2: branch-sharded explorations, intra-thread independence and
#: state-hash loop closure.
EXHAUSTIVE_VERSION = 2


@dataclass
class Exploration(Histogram):
    """The reachable final states of an exploration (count 1 each) plus
    its counters — of a whole spec or of a single root branch."""

    executions: int = 0     #: complete executions explored
    transitions: int = 0    #: transitions executed (the pruning metric)
    losses: int = 0         #: executions satisfying the condition
    bounded: bool = False   #: spin retries truncated at the loop bound

    @classmethod
    def of(cls, result):
        """The :class:`Exploration` of an
        :class:`~repro.exhaustive.explore.ExhaustiveResult`."""
        return cls(counts=dict.fromkeys(sorted(result.reachable, key=str), 1),
                   executions=result.executions,
                   transitions=result.transitions, losses=result.losses,
                   bounded=result.bounded)

    @classmethod
    def merge(cls, explorations):
        """Union the reachable states (listed in a canonical order, so
        fresh and cached explorations print alike), sum the counters
        and OR the bounded flags."""
        merged = cls()
        states = set()
        for part in explorations:
            states.update(part.counts)
            merged.executions += part.executions
            merged.transitions += part.transitions
            merged.losses += part.losses
            merged.bounded = merged.bounded or part.bounded
        merged.counts = dict.fromkeys(sorted(states, key=str), 1)
        return merged

    def header(self):
        return ("Exploration (%d reachable states, %d executions, "
                "%d transitions, %d losses%s)"
                % (len(self), self.executions, self.transitions, self.losses,
                   ", bounded" if self.bounded else ""))


def split_exhaustive_histogram(histogram):
    """``(reachable, meta)`` of an exhaustive result: the reachable
    states as a plain :class:`~repro.harness.histogram.Histogram` and
    the counters by name.  Raises :class:`~repro.errors.ReproError` on
    anything but an :class:`Exploration`."""
    if not isinstance(histogram, Exploration):
        from ..errors import ReproError
        raise ReproError("not an exhaustive result: %s"
                         % type(histogram).__name__)
    return Histogram(dict(histogram.counts)), {
        "executions": histogram.executions,
        "transitions": histogram.transitions,
        "losses": histogram.losses, "bounded": histogram.bounded}


def exhaustive_verdict(histogram, condition):
    """The verdict dict of an :class:`Exploration`.

    Returns ``{"states", "executions", "transitions", "losses",
    "bounded", "losing_states", "verified"}`` where ``losing_states``
    are the reachable states satisfying ``condition`` (the loss
    predicate) and ``verified`` means the exploration saw zero losing
    executions.
    """
    reachable, meta = split_exhaustive_histogram(histogram)
    return dict(meta, states=len(reachable),
                losing_states=reachable.witnesses(condition),
                verified=meta["losses"] == 0)


class ExhaustiveBackend(Backend):
    """Stateless model checking as a campaign backend.

    ``shards`` splits the spec's exploration into its root branches (one
    shard each, ``iterations=0`` — the session's simulated-iteration
    statistic stays a sim/app-only number) and ``run_shard`` explores a
    single branch; the session merges the per-branch explorations in
    shard order, which by the explorer's determinism invariant
    reproduces the serial result bit for bit.  The verdict is a pure
    function of the spec — independent of ``--jobs``, the executor and
    the seed — so cached and fresh results are interchangeable.

    A fresh :class:`~repro.exhaustive.explore.Explorer` is compiled per
    ``run_shard`` call: compiled cells hold closures (unpicklable, so
    process workers must compile locally anyway) and per-run mutable
    state (so thread workers must not share one).  Compilation is
    microseconds against any exploration worth sharding.
    """

    name = "exhaustive"
    result_type = Exploration

    def __init__(self, strategy="dpor", loop_bound=DEFAULT_LOOP_BOUND,
                 max_transitions=DEFAULT_MAX_TRANSITIONS):
        self.strategy = strategy
        self.loop_bound = loop_bound
        self.max_transitions = max_transitions

    def _structural_intent(self, spec):
        """Exploration depends on intensity only through zero/non-zero."""
        return 1 if float(getattr(spec, "intensity", 1.0)) > 0.0 else 0

    def _explorer(self, spec):
        intensity = float(getattr(spec, "intensity", 1.0))
        return Explorer(
            spec.test, spec.chip,
            intensity=intensity if intensity > 0.0 else 0.0,
            strategy=self.strategy, loop_bound=self.loop_bound,
            max_transitions=self.max_transitions)

    def cache_signature(self, spec):
        payload = "exhaustive-v%d\x1e%s\x1e%s\x1eintent=%d\x1ebound=%d\x1e%s" \
            % (EXHAUSTIVE_VERSION, write_litmus(spec.test), repr(spec.chip),
               self._structural_intent(spec), self.loop_bound, self.strategy)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def shards(self, spec, shard_size):
        plan = self._explorer(spec).root_plan()
        return [Shard(index=index, iterations=0, seed=spec.seed)
                for index in range(len(plan))]

    def run_shard(self, spec, shard):
        return Exploration.of(self._explorer(spec).run_branch(shard.index))


def exhaustive_session(jobs=1, executor="thread", cache=True, cache_dir=None,
                       pool=None, strategy="dpor",
                       loop_bound=DEFAULT_LOOP_BOUND,
                       max_transitions=DEFAULT_MAX_TRANSITIONS):
    """A :class:`~repro.api.session.Session` wired to the exhaustive
    backend (the verifying twin of
    :func:`repro.analysis.backend.analysis_session`)."""
    from ..api.session import Session
    return Session(backend=ExhaustiveBackend(strategy=strategy,
                                             loop_bound=loop_bound,
                                             max_transitions=max_transitions),
                   jobs=jobs, executor=executor, cache=cache,
                   cache_dir=cache_dir, pool=pool)
