"""Tests for the application studies: spin locks and the deque."""

import pytest

from repro.apps import Scenario, build_launch_test, he_yu_lock, run_scenario
from repro.compiler.cuda import Kernel, Load, Store
from repro.litmus.condition import Condition, MemEq, Not

#: High intensity stands in for the paper's stressful workloads: the app
#: bugs occur at 4-750 per 100k on hardware, far below unit-test budgets.
STRESS = 100.0


def losses(name, chip, runs, seed, intensity=STRESS):
    """Loss count of one registry scenario cell."""
    return run_scenario(name, chip, runs=runs, seed=seed,
                        intensity=intensity).observations


class TestRuntime:
    def test_launch_returns_final_memory(self):
        scenario = Scenario.make(
            "store-load", "store-load", False,
            kernels=[Kernel([Store("x", 1)]), Kernel([Load("v", "x")])],
            init_mem={"x": 0}, loss=Condition("exists", Not(MemEq("x", 1))))
        result = run_scenario(scenario, "GTX7", runs=20, seed=0,
                              intensity=1.0)
        assert result.observations == 0
        assert [state.loc("x") for state in result.histogram.counts] == [1]

    def test_empty_memory_rejected(self):
        with pytest.raises(ValueError):
            build_launch_test([Kernel([Store("x", 1)])], init_mem={})

    def test_launch_many_deterministic(self):
        first, second = (run_scenario("deque-mp", "Titan", runs=50, seed=1)
                         for _ in range(2))
        assert not second.cached
        assert first.histogram.counts == second.histogram.counts


class TestCudaByExampleLock:
    def test_buggy_lock_loses_updates_on_weak_chips(self):
        assert losses("dot-cbe", "Titan", runs=200, seed=1) > 0

    def test_fenced_lock_always_correct(self):
        assert losses("dot-cbe+fenced", "Titan", runs=200, seed=1) == 0

    def test_maxwell_unaffected(self):
        # GTX 750 orders atomics: the published lock happens to work.
        assert losses("dot-cbe", "GTX7", runs=200, seed=1) == 0

    def test_amd_also_affected(self):
        assert losses("dot-cbe", "HD7970", runs=200, seed=1) > 0


class TestStuartOwensLock:
    def test_exchange_is_no_substitute_for_a_fence(self):
        assert losses("dot-so", "Titan", runs=200, seed=2) > 0

    def test_fenced_version_correct(self):
        assert losses("dot-so+fenced", "Titan", runs=200, seed=2) == 0


class TestHeYuLock:
    def test_isolation_violated_by_published_lock(self):
        assert losses("isolation", "Titan", runs=200, seed=1) > 0

    def test_fixed_lock_preserves_isolation(self):
        assert losses("isolation+fenced", "Titan", runs=200, seed=1) == 0

    def test_lock_shapes(self):
        acquire, release = he_yu_lock(fixed=False)
        # The published release is a plain store followed by the useless
        # trailing fence (Fig. 10 lines 10-11).
        assert any(isinstance(s, Store) for s in release)


class TestWorkStealingDeque:
    def test_mp_bug_loses_pushed_task(self):
        assert losses("deque-mp", "Titan", runs=300, seed=1) > 0

    def test_mp_bug_fixed_by_fences(self):
        assert losses("deque-mp+fenced", "Titan", runs=300, seed=1) == 0

    def test_lb_bug_steals_future_push(self):
        assert losses("deque-lb", "Titan", runs=300, seed=1) > 0

    def test_lb_bug_fixed_by_fences(self):
        assert losses("deque-lb+fenced", "Titan", runs=300, seed=1) == 0

    def test_deque_safe_on_strong_chip(self):
        assert losses("deque-mp", "GTX280", runs=200, seed=1) == 0
        assert losses("deque-lb", "GTX280", runs=200, seed=1) == 0

    def test_lb_bug_on_gcn(self):
        # Fig. 8: HD7970 shows dlb-lb at 13591/100k — the strongest case.
        # So strong that it shows unstressed, at intensity 1.0.
        assert losses("deque-lb", "HD7970", runs=300, seed=1,
                      intensity=1.0) > 0
