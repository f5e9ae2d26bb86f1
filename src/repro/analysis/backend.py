"""The :class:`AnalysisBackend`: static verdicts behind the campaign API.

The triage tier of the ROADMAP: one verdict per
:class:`~repro.api.spec.RunSpec` / :class:`~repro.apps.scenario.ScenarioSpec`,
delivered through the same :class:`~repro.api.session.Session` machinery
as simulations and model enumerations — fingerprint-keyed caching,
in-plan deduplication, ``Shard.iterations=0`` accounting (an analysis is
not a simulated iteration).

Results are :class:`AnalysisVerdict` objects, the backend's
:attr:`~repro.api.backends.Backend.result_type`: a state-less
:class:`~repro.harness.histogram.Histogram` whose typed ``verdict``
field the cache's JSON round-trip and the ``SpecResult`` plumbing carry
unchanged.  Since the signature covers only the litmus text (which
includes the scope tree), a campaign across the seven result chips
analyses each scenario once, like model verdicts.

:func:`prescreen` and :func:`run_prescreened` implement the ``--prescreen``
flow: analyse every spec first, skip simulation for provably-clean cells
(their results are empty histograms — zero losses, by proof), and run
the rest through the real session.
"""

import hashlib
from dataclasses import dataclass

from ..api.backends import Backend, Shard
from ..harness.histogram import Histogram
from ..litmus.writer import write_litmus
from .races import CLEAN, RACY, UNKNOWN, analyze_test

#: Bump to invalidate cached verdicts when the analysis rules change.
ANALYSIS_VERSION = 1

#: Verdicts from least to most severe.
_SEVERITY = (CLEAN, UNKNOWN, RACY)


@dataclass
class AnalysisVerdict(Histogram):
    """A static verdict: no final states, just ``racy``/``unknown``/
    ``clean``."""

    verdict: str = CLEAN

    @classmethod
    def merge(cls, verdicts):
        """The most severe of the parts' verdicts."""
        return cls(verdict=max((part.verdict for part in verdicts),
                               key=_SEVERITY.index, default=CLEAN))

    def pretty(self, condition=None):
        return "Analysis verdict: %s" % self.verdict


class AnalysisBackend(Backend):
    """Static analysis as a campaign backend.

    ``run_shard`` analyses the spec's litmus test and returns its
    :class:`AnalysisVerdict`.  Like the model backend, each spec is one
    indivisible work unit with ``iterations=0`` (pure static work — the
    session's simulated-iteration statistic stays a sim/app-only
    number), and the cache signature covers only the test text plus the
    analyzer version, so verdicts dedupe across chips, seeds and
    iteration counts.
    """

    name = "analysis"
    result_type = AnalysisVerdict

    def cache_signature(self, spec):
        payload = "analysis-v%d\x1e%s" % (ANALYSIS_VERSION,
                                          write_litmus(spec.test))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def shards(self, spec, shard_size):
        return [Shard(index=0, iterations=0, seed=spec.seed)]

    def run_shard(self, spec, shard):
        return AnalysisVerdict(verdict=analyze_test(spec.test).verdict)


def analysis_session(jobs=1, executor="thread", cache=True, cache_dir=None,
                     pool=None):
    """A :class:`~repro.api.session.Session` wired to the analysis
    backend (the static twin of :func:`repro.apps.campaign.app_session`)."""
    from ..api.session import Session
    return Session(backend=AnalysisBackend(), jobs=jobs, executor=executor,
                   cache=cache, cache_dir=cache_dir, pool=pool)


def prescreen(specs, session=None):
    """Analyse a plan; returns the verdict list aligned with ``specs``.

    ``session`` may supply a shared analysis session (for cache/pool
    reuse); any other backend is rejected.
    """
    specs = list(specs)
    if session is None:
        session = analysis_session()
    if session.backend.name != AnalysisBackend.name:
        from ..errors import ReproError
        raise ReproError("prescreen needs an analysis session, got backend "
                         "%r" % session.backend.name)
    return [result.histogram.verdict for result in session.run_specs(specs)]


def condition_skippable(test):
    """Is ``test``'s condition provably unobservable, so a campaign cell
    may skip execution and report zero observations?

    A clean verdict alone is *not* enough for litmus conditions: clean
    means race-free, and a race-free-by-intent test can still observe
    its condition — mp-volatile is clean (volatile races are exempt as
    intentional) yet weak (volatiles order nothing, Fig. 5).  The proof
    needs all three: clean, the verdict implying SC
    (:attr:`~repro.analysis.races.AnalysisReport.sc_obligation`), and
    the SC model forbidding the condition.
    """
    report = analyze_test(test)
    if report.verdict != CLEAN or not report.sc_obligation:
        return False
    from ..model.models import load_model
    return not load_model("sc").allows_condition(test)


def run_prescreened(specs, session, analysis=None, skip=None):
    """Run a plan with static triage: provably-clean specs skip the
    backend entirely.

    Returns ``(results, verdicts)``, both aligned with ``specs``.  A
    skipped spec's result is a :class:`~repro.api.result.SpecResult`
    tagged ``backend="analysis"`` with an *empty* histogram — zero
    observations; everything else carries the real session's result.

    ``skip(spec, verdict)`` decides what to skip; the default skips
    every clean spec, which is sound for *scenario* plans (observations
    are losses, and the clean proof is exactly "ordered pairs cannot
    lose").  Litmus-condition plans must pass a stricter predicate built
    on :func:`condition_skippable` — clean does not make a condition
    unobservable.
    """
    from ..api.result import SpecResult
    specs = list(specs)
    verdicts = prescreen(specs, session=analysis)
    if skip is None:
        skip = lambda spec, verdict: verdict == CLEAN
    skips = [bool(skip(spec, verdict))
             for spec, verdict in zip(specs, verdicts)]
    to_run = [spec for spec, skipped in zip(specs, skips) if not skipped]
    executed = iter(session.run_specs(to_run))
    results = []
    for spec, skipped in zip(specs, skips):
        if skipped:
            results.append(SpecResult(spec=spec, backend=AnalysisBackend.name,
                                      histogram=Histogram(), cached=False))
        else:
            results.append(next(executed))
    return results, verdicts
