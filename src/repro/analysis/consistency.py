"""Cross-checking analyzer verdicts against the dynamic subsystems.

A ``clean`` verdict is a *proof obligation*; this module discharges it
three ways, turning the analyzer, the simulator and the exhaustive
explorer into soundness oracles for each other (the CI
``analysis-consistency`` job runs all three):

* **Scenarios vs campaigns** — a scenario the analyzer certifies clean
  must never lose in simulation, on any chip, at campaign intensity.
  One loss in a clean cell is a bug in exactly one of the two
  subsystems, loudly.
* **Litmus tests vs models** — a clean (data-race-free) litmus test must
  be SC: the PTX model's allowed final states must be a subset of the
  SC model's (DRF guarantees nothing weaker than sequential
  consistency).  A clean test with a PTX-only outcome means the
  analyzer certified a racy program.  The obligation applies only where
  clean actually implies SC (``AnalysisReport.sc_obligation``):
  volatile races are exempt from race reporting as intentional but
  volatiles *order nothing* (Fig. 5 — mp-volatile is clean and weak),
  and atomic RMW races on more than one location can still interleave
  weakly even though each lock word is coherence-ordered.
* **Scenarios vs exhaustive verification** — strictly stronger than the
  campaign oracle: a clean scenario must report **zero losses over all
  executions** under :mod:`repro.exhaustive`, on every chip, not merely
  over the sampled runs.  This is the differential lock between the
  static tier and the verifier tier — a clean cell that loses *any*
  execution convicts one of them.

``racy`` and ``unknown`` verdicts impose no constraint — the analyzer
is conservative by design, and weak behaviours are *allowed*, not
required, so a racy scenario observing zero losses is not a
contradiction.
"""

from dataclasses import dataclass, field

from .._util import default_iterations
from ..litmus import library
from ..model.models import load_model
from .races import CLEAN, analyze_test


@dataclass(frozen=True)
class ConsistencyProblem:
    """One contradiction between a clean verdict and a dynamic result."""

    kind: str     #: "campaign-loss" | "model-weak" | "exhaustive-loss"
    subject: str  #: scenario or test name
    detail: str

    def __str__(self):
        return "%s [%s]: %s" % (self.kind, self.subject, self.detail)


@dataclass
class ConsistencyReport:
    """The outcome of one cross-check run."""

    scenario_rows: list = field(default_factory=list)
    library_rows: list = field(default_factory=list)
    exhaustive_rows: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems

    def lines(self):
        out = []
        if self.scenario_rows:
            out.append("scenario verdicts vs campaign losses:")
            for name, verdict, losses, runs in self.scenario_rows:
                out.append("  %-22s %-8s %d losses / %d cell-runs"
                           % (name, verdict, losses, runs))
        if self.library_rows:
            out.append("library verdicts vs model allowed-sets:")
            for name, verdict, note in self.library_rows:
                out.append("  %-22s %-8s %s" % (name, verdict, note))
        if self.exhaustive_rows:
            out.append("clean-scenario verdicts vs exhaustive "
                       "verification:")
            for name, verdict, losses, executions, bounded in \
                    self.exhaustive_rows:
                note = "%d losses / %d executions" % (losses, executions)
                if bounded:
                    note += " (loop-bounded)"
                out.append("  %-22s %-8s %s" % (name, verdict, note))
        for problem in self.problems:
            out.append("CONTRADICTION: %s" % problem)
        if not self.problems:
            out.append("consistency: ok (%d scenarios, %d library tests, "
                       "%d exhaustively verified)"
                       % (len(self.scenario_rows), len(self.library_rows),
                          len(self.exhaustive_rows)))
        return out


def check_scenarios(scenarios=None, chips=None, runs=None, seed=0,
                    intensity=None, jobs=1, executor="thread",
                    cache_dir=None, session=None):
    """Run the selected scenarios through an app campaign and flag any
    loss in an analyzer-certified-clean cell.

    Returns ``(rows, problems)`` where each row is ``(name, verdict,
    total losses, total runs)`` summed over the chips.
    """
    from ..apps.campaign import app_session, run_app_campaign
    from ..apps.scenario import SCENARIOS, STRESS
    from ..sim.chip import RESULT_CHIPS

    if scenarios is None:
        scenarios = list(SCENARIOS.values())
    scenarios = list(scenarios)
    chips = list(chips) if chips is not None else list(RESULT_CHIPS)
    if runs is None:
        runs = default_iterations(300)
    if intensity is None:
        intensity = STRESS
    reports = {scenario.name: analyze_test(scenario.test())
               for scenario in scenarios}
    if session is None:
        session = app_session(jobs=jobs, executor=executor,
                              cache_dir=cache_dir)
    campaign = run_app_campaign(scenarios, chips, runs=runs, seed=seed,
                                intensity=intensity, session=session)
    rows, problems = [], []
    for scenario in scenarios:
        verdict = reports[scenario.name].verdict
        cells = campaign.by_test(scenario.name)
        losses = sum(result.observations for result in cells.values())
        total = sum(result.iterations for result in cells.values())
        rows.append((scenario.name, verdict, losses, total))
        if verdict == CLEAN and losses:
            lossy = sorted(short for short, result in cells.items()
                           if result.observations)
            problems.append(ConsistencyProblem(
                "campaign-loss", scenario.name,
                "certified clean but lost %d/%d on %s"
                % (losses, total, ", ".join(lossy))))
    return rows, problems


def check_library(tests=None, fuel=128):
    """Check every clean litmus test is SC: PTX allowed-set within the
    SC model's.  Returns ``(rows, problems)``.

    Clean tests whose only races are sync-exempt volatile pairs (or
    atomic races spread over several locations) carry no SC obligation —
    see :attr:`~repro.analysis.races.AnalysisReport.sc_obligation`.
    """
    if tests is None:
        tests = [library.build(name) for name in sorted(library.PAPER_TESTS)]
    tests = list(tests)
    ptx, sc = load_model("ptx"), load_model("sc")
    rows, problems = [], []
    for test in tests:
        report = analyze_test(test)
        if report.verdict != CLEAN:
            rows.append((test.name, report.verdict, "no obligation"))
            continue
        if not report.sc_obligation:
            rows.append((test.name, report.verdict,
                         "clean, sync races exempt (volatiles order "
                         "nothing — Fig. 5); no SC obligation"))
            continue
        ptx_allowed = set(ptx.allowed_outcomes(test, fuel=fuel))
        sc_allowed = set(sc.allowed_outcomes(test, fuel=fuel))
        extra = ptx_allowed - sc_allowed
        if extra:
            sample = sorted(extra, key=str)[0]
            problems.append(ConsistencyProblem(
                "model-weak", test.name,
                "certified clean but the PTX model allows non-SC "
                "outcome %s" % (sample,)))
            rows.append((test.name, report.verdict,
                         "%d PTX-only outcomes" % len(extra)))
        else:
            rows.append((test.name, report.verdict,
                         "SC (%d allowed states)" % len(ptx_allowed)))
    return rows, problems


def check_exhaustive(scenarios=None, chips=None, loop_bound=None,
                     jobs=1, executor="thread", cache_dir=None):
    """Exhaustively verify every analyzer-certified-clean scenario.

    The strongest of the three oracles: a clean scenario must lose
    *zero* of all executions on every chip — the campaign oracle's
    sampled losses become a universally quantified claim.  Returns
    ``(rows, problems)`` where each row is ``(name, verdict, losses,
    executions, bounded)`` summed over the chips.  Non-clean scenarios
    impose no constraint and are skipped (their unfenced losses are the
    paper's point, not a contradiction).
    """
    from ..apps.scenario import SCENARIOS
    from ..exhaustive import DEFAULT_LOOP_BOUND, verify_scenarios
    from ..sim.chip import RESULT_CHIPS

    if scenarios is None:
        scenarios = list(SCENARIOS.values())
    scenarios = list(scenarios)
    chips = list(chips) if chips is not None else list(RESULT_CHIPS)
    if loop_bound is None:
        loop_bound = DEFAULT_LOOP_BOUND
    clean = [scenario for scenario in scenarios
             if analyze_test(scenario.test()).verdict == CLEAN]
    rows, problems = [], []
    if not clean:
        return rows, problems
    report = verify_scenarios(clean, chips, loop_bound=loop_bound,
                              jobs=jobs, executor=executor,
                              cache_dir=cache_dir, witnesses=False)
    by_name = {}
    for row in report.rows:
        losses, executions, bounded, lossy = by_name.get(
            row.scenario, (0, 0, False, []))
        if row.losses:
            lossy = lossy + [row.chip]
        by_name[row.scenario] = (losses + row.losses,
                                 executions + row.executions,
                                 bounded or row.bounded, lossy)
    for scenario in clean:
        losses, executions, bounded, lossy = by_name[scenario.name]
        rows.append((scenario.name, CLEAN, losses, executions, bounded))
        if losses:
            problems.append(ConsistencyProblem(
                "exhaustive-loss", scenario.name,
                "certified clean but lost %d of %d exhaustively "
                "enumerated executions on %s"
                % (losses, executions, ", ".join(sorted(lossy)))))
    return rows, problems


def run_consistency(scenarios=None, tests=None, chips=None, runs=None,
                    seed=0, intensity=None, jobs=1, executor="thread",
                    cache_dir=None, fuel=128, loop_bound=None):
    """The full cross-check; returns a :class:`ConsistencyReport`."""
    scenario_rows, scenario_problems = check_scenarios(
        scenarios, chips=chips, runs=runs, seed=seed, intensity=intensity,
        jobs=jobs, executor=executor, cache_dir=cache_dir)
    library_rows, library_problems = check_library(tests, fuel=fuel)
    exhaustive_rows, exhaustive_problems = check_exhaustive(
        scenarios, chips=chips, loop_bound=loop_bound, jobs=jobs,
        executor=executor, cache_dir=cache_dir)
    return ConsistencyReport(scenario_rows=scenario_rows,
                             library_rows=library_rows,
                             exhaustive_rows=exhaustive_rows,
                             problems=(scenario_problems + library_problems
                                       + exhaustive_problems))
