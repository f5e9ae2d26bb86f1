"""Differential tests locking the exhaustive explorer to the other oracles.

Three independent implementations answer "which final states can this
cell reach?": the axiomatic model (candidate-graph enumeration), the
operational simulator (sampling), and the exhaustive explorer (stateless
DPOR search).  Any mismatch is a real bug in exactly one of them:

* exhaustive reachable sets must **equal** the PTX model's allowed sets
  on the small library corpus for the weak Nvidia chips (whose
  relaxation sets realise every model-allowed behaviour), and stay a
  **subset** on every chip (a chip without a relaxation reaches less,
  never more);
* every state observed by a 50k-run batch-engine campaign must be
  exhaustive-reachable (sampling can only see what enumeration proves
  possible);
* sampled simulator outcomes on litmus cells are exhaustive-reachable
  for any engine and intensity (the structural-intent monotonicity
  contract).
"""

import random

import pytest

from repro.apps.scenario import ScenarioSpec, get_scenario
from repro.exhaustive import explore_test
from repro.harness.histogram import Histogram
from repro.litmus import library
from repro.model.models import load_model
from repro.sim import CHIPS
from repro.sim.batch import have_numpy
from repro.sim.compile import compile_cell
from repro.sim.engine import run_batch

#: The library corpus both enumeration oracles cover exactly.
LIBRARY_CORPUS = ("mp", "sb", "lb", "coRR", "mp+membar.gls",
                  "lb+membar.gls", "lb+membar.ctas", "mp-L1", "coRR-L2-L1")

#: Weak Nvidia chips whose relaxation sets realise every PTX-allowed
#: behaviour of the corpus (verified cell by cell; GTX280 is the
#: in-order control and HD7970 lacks the coRR/ctas relaxations, so both
#: reach strict subsets on some cells).
COMPLETE_CHIPS = ("TesC", "Titan", "GTX6")

#: Every chip the subset direction must hold on.
ALL_CHIPS = sorted(CHIPS)


def ptx_allowed(test):
    return set(load_model("ptx").allowed_outcomes(test, fuel=128))


class TestExhaustiveVsModel:
    @pytest.mark.parametrize("chip_short", COMPLETE_CHIPS)
    @pytest.mark.parametrize("name", LIBRARY_CORPUS)
    def test_reachable_equals_allowed_on_weak_chips(self, name, chip_short):
        test = library.build(name)
        result = explore_test(test, CHIPS[chip_short])
        assert result.complete, "corpus cells have no loops to bound"
        assert result.reachable == ptx_allowed(test)

    @pytest.mark.parametrize("chip_short", ALL_CHIPS)
    def test_reachable_subset_of_allowed_everywhere(self, chip_short):
        for name in ("mp", "lb+membar.ctas", "coRR"):
            test = library.build(name)
            result = explore_test(test, CHIPS[chip_short])
            assert result.reachable <= ptx_allowed(test), \
                "%s on %s reached a model-forbidden state" % (name,
                                                              chip_short)

    def test_in_order_control_chip_reaches_strict_subset(self):
        """GTX280 (no relaxations) must miss the weak mp outcome the
        model allows — equality there would mean the explorer invents
        behaviours the chip profile forbids."""
        test = library.build("mp")
        result = explore_test(test, CHIPS["GTX280"])
        assert result.reachable < ptx_allowed(test)
        assert result.losses == 0

    @pytest.mark.parametrize("chip_short", ("Titan", "TesC"))
    def test_condition_verdict_matches_model(self, chip_short):
        """The exists-condition verdict agrees cell by cell."""
        ptx = load_model("ptx")
        for name in LIBRARY_CORPUS:
            test = library.build(name)
            result = explore_test(test, CHIPS[chip_short])
            assert (result.losses > 0) == ptx.allows_condition(test)


class TestExhaustiveVsSimulation:
    @pytest.mark.parametrize("name", ("mp", "sb", "coRR"))
    @pytest.mark.parametrize("chip_short", ("Titan", "GTX280"))
    def test_sampled_outcomes_are_reachable(self, name, chip_short):
        """2k sampled fast-engine runs at stress intensity never leave
        the exhaustive reachable set (structural-intent monotonicity:
        sampling draws a subset of the explorer's choice points)."""
        test = library.build(name)
        chip = CHIPS[chip_short]
        reachable = explore_test(test, chip).reachable
        cell = compile_cell(test, chip, intensity=100.0)
        histogram = run_batch(cell, 2000, random.Random(7), Histogram())
        assert set(histogram.counts) <= reachable

    @pytest.mark.skipif(not have_numpy(), reason="needs the [batch] extra")
    @pytest.mark.parametrize("scenario_name",
                             ("deque-mp", "isolation", "ticket+fenced"))
    def test_50k_batch_campaign_states_are_reachable(self, scenario_name):
        """Every state a 50k-launch batch campaign observes on Titan is
        exhaustive-reachable after scenario projection."""
        from repro.apps.backend import DEFAULT_APP_SHARD_SIZE, AppBackend

        scenario = get_scenario(scenario_name)
        chip = CHIPS["Titan"]
        result = explore_test(scenario.test(), chip)
        projected = {scenario.project(state) for state in result.reachable}
        spec = ScenarioSpec(scenario=scenario, chip=chip, iterations=50000,
                            seed=11, intensity=100.0, engine="batch")
        histogram = AppBackend().run(spec, shard_size=DEFAULT_APP_SHARD_SIZE)
        assert set(histogram.counts) <= projected
        # The campaign's loss verdict can never contradict the
        # verifier: losses sampled => losses proven reachable.
        losses = histogram.observations(scenario.loss)
        if losses:
            assert result.losses > 0

    def test_verified_scenarios_never_lose_in_campaigns(self):
        """A verified fenced cell (zero losses over *all* executions)
        must show zero sampled losses at any budget."""
        scenario = get_scenario("deque-mp+fenced")
        chip = CHIPS["Titan"]
        result = explore_test(scenario.test(), chip)
        assert result.verified
        cell = compile_cell(scenario.test(), chip, intensity=100.0)
        histogram = run_batch(cell, 3000, random.Random(3), Histogram())
        assert histogram.observations(scenario.loss) == 0
