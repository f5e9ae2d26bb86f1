"""Published GPU applications the paper studies, on the simulator.

Two layers:

* :mod:`~repro.apps.scenario` — the declarative scenario corpus
  (kernels + init memory + placement + projection + loss predicate) and
  its registry, built from the lock and deque kernels of
  :mod:`~repro.apps.spinlock` and :mod:`~repro.apps.deque`;
* :mod:`~repro.apps.campaign` / :mod:`~repro.apps.backend` — scenario
  campaigns on the sharded, memoising ``repro.api`` Session stack.
"""

from .deque import (owner_roundtrip_kernel, pop_then_push_kernel,
                    push_kernel, steal_kernel, thief_roundtrip_kernel)
from .spinlock import (LOCKS, cuda_by_example_lock, he_yu_lock,
                       stuart_owens_lock, ticket_kernel)
from .scenario import (DEFAULT_RUNS, FAMILIES, SCENARIOS, STRESS, Scenario,
                       ScenarioSpec, build_launch_test, dot_product_scenario,
                       get_scenario, select_scenarios)
from .backend import DEFAULT_APP_SHARD_SIZE, AppBackend
from .campaign import (app_matrix, app_session, run_app_campaign,
                       run_scenario)

__all__ = [
    "owner_roundtrip_kernel", "pop_then_push_kernel", "push_kernel",
    "steal_kernel", "thief_roundtrip_kernel",
    "LOCKS", "cuda_by_example_lock", "he_yu_lock", "stuart_owens_lock",
    "ticket_kernel",
    "DEFAULT_RUNS", "FAMILIES", "SCENARIOS", "STRESS", "Scenario",
    "ScenarioSpec", "build_launch_test", "dot_product_scenario",
    "get_scenario", "select_scenarios",
    "DEFAULT_APP_SHARD_SIZE", "AppBackend",
    "app_matrix", "app_session", "run_app_campaign", "run_scenario",
]
