"""Application campaigns: scenarios x chips through a shared Session.

The front door for running :mod:`repro.apps.scenario` scenarios at
scale.  Everything routes through :class:`repro.api.session.Session`
with an :class:`~repro.apps.backend.AppBackend`, so application
campaigns inherit the litmus campaigns' guarantees verbatim: sharded
parallel execution whose histograms merge bit-identically to the serial
order, two-tier result caching keyed by content fingerprint, in-plan
deduplication, and the fast/batch engine switch.

Results are ordinary :class:`~repro.api.result.SpecResult` /
:class:`~repro.api.result.CampaignResult` values whose observation
counts are the scenarios' *loss* counts (lost tasks, wrong sums,
isolation violations) — ``campaign.summary_table()`` therefore prints
the paper-style losses-per-100k grid of Sec. 3.2.

Example::

    from repro.apps import run_app_campaign, select_scenarios

    campaign = run_app_campaign(select_scenarios(["deque-mp", "ticket"]),
                                ["Titan", "HD7970"], runs=2000, jobs=4)
    print(campaign.summary_table())
"""

from ..api.result import CampaignResult
from ..api.session import Session
from .backend import DEFAULT_APP_SHARD_SIZE, AppBackend
from .scenario import STRESS, ScenarioSpec


def app_session(jobs=1, executor="thread", cache=True, cache_dir=None,
                shard_size=DEFAULT_APP_SHARD_SIZE, pool=None):
    """A :class:`Session` configured for application campaigns.

    ``shard_size`` is the session's decomposition unit (launches per
    parallel work unit) — the app default is finer than the sim
    backend's because launches cost more than litmus iterations.
    """
    return Session(backend=AppBackend(), jobs=jobs,
                   executor=executor, cache=cache, cache_dir=cache_dir,
                   shard_size=shard_size, pool=pool)


def app_matrix(scenarios, chips, runs=None, seed=0, intensity=STRESS,
               engine=None):
    """Cartesian-product campaign plan: one :class:`ScenarioSpec` per
    (scenario, chip) cell — the app twin of :func:`repro.api.spec.matrix`."""
    specs = []
    for scenario in scenarios:
        for chip in chips:
            specs.append(ScenarioSpec.make(scenario, chip, runs=runs,
                                           seed=seed, intensity=intensity,
                                           engine=engine))
    return specs


def run_scenario(scenario, chip, runs=None, seed=0, intensity=STRESS,
                 engine=None, jobs=1, session=None):
    """Execute one scenario cell; returns its
    :class:`~repro.api.result.SpecResult` (``result.observations`` is
    the loss count over ``runs`` launches)."""
    if session is None:
        session = app_session(jobs=jobs)
    spec = ScenarioSpec.make(scenario, chip, runs=runs, seed=seed,
                             intensity=intensity, engine=engine)
    return session.run_specs([spec])[0]


def run_app_campaign(scenarios, chips, runs=None, seed=0, intensity=STRESS,
                     engine=None, jobs=1, executor="thread",
                     cache_dir=None, session=None):
    """Plan and execute a scenarios x chips campaign; returns a
    :class:`~repro.api.result.CampaignResult` keyed by
    ``(scenario name, chip short)``."""
    if session is None:
        session = app_session(jobs=jobs, executor=executor,
                              cache_dir=cache_dir)
    specs = app_matrix(scenarios, chips, runs=runs, seed=seed,
                       intensity=intensity, engine=engine)
    campaign = CampaignResult()
    for result in session.run_specs(specs):
        campaign.add(result)
    return campaign
