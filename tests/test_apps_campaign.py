"""Tests for the scenario campaign subsystem (apps on the Session stack).

Covers the PR's contracts:

* fast-engine/interpreter parity for every registered scenario across
  the chip table (bit-identical projected histograms, the interpreter
  side run by :class:`reference_backends.ReferenceAppBackend`);
* sharded/serial and thread/process RNG-stream parity;
* single-shard campaign cells reproduce the ``Grid.launch_many`` stream
  (legacy driver parity);
* two-tier cache-hit correctness for the app backend, including engine
  separation;
* the paper's behaviours: every published (unfenced) scenario loses on
  the weak chips under stress, every fenced variant stays clean on the
  whole table;
* the satellite fixes: ``_as_chip`` raises ``ConfigurationError``, the
  trivial condition replaces the placeholder hack, ``repro-litmus app``
  and the scenario listing work.
"""

import random

import pytest

from repro import cli
from repro.api import CampaignResult, Session, make_backend
from repro.api.cache import ResultCache
from repro.apps import (AppBackend, Grid, LaunchResult, SCENARIOS,
                        ScenarioSpec, app_session, dot_product_scenario,
                        get_scenario, launch, run_app_campaign,
                        run_scenario, select_scenarios)
from repro.compiler.cuda import Kernel, Load, Store
from repro.errors import ConfigurationError, ReproError
from repro.litmus.condition import Always, trivial_condition
from repro.sim import GpuMachine, have_numpy, run_batch
from repro.sim.chip import RESULT_CHIPS
from reference_backends import ReferenceAppBackend

STRESS = 100.0

#: The chip table the parity tests sweep: every result chip plus the
#: strong GTX 280.
CHIP_TABLE = list(RESULT_CHIPS) + ["GTX280"]

UNFENCED = sorted(name for name, s in SCENARIOS.items() if not s.fenced)
FENCED = sorted(name for name, s in SCENARIOS.items() if s.fenced)


@pytest.fixture(scope="module")
def session():
    """One shared session: the compiled-cell memo and the result cache
    persist across tests, which is exactly the production shape."""
    return app_session()


@pytest.fixture(scope="module")
def reference_session():
    """The interpreter-backed twin of :func:`session`."""
    return Session(backend=ReferenceAppBackend())


class TestRegistry:
    def test_every_scenario_has_a_fenced_twin(self):
        for name in UNFENCED:
            assert name + "+fenced" in SCENARIOS
        assert len(UNFENCED) == len(FENCED)

    def test_registry_is_validated(self):
        for scenario in SCENARIOS.values():
            scenario.validate()
            # Loss predicates read only projected locations.
            projection = set(scenario.projection) or {
                location for location, _ in scenario.init_mem}
            assert scenario.loss.locations() <= projection

    def test_expected_families_present(self):
        names = set(SCENARIOS)
        for family in ("deque-mp", "deque-lb", "deque-rt", "isolation",
                       "ticket", "dot-cbe", "dot-cbe-cta", "dot-so",
                       "dot-so-cta", "dot-heyu", "dot-heyu-cta"):
            assert family in names and family + "+fenced" in names

    def test_get_scenario_unknown_name(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_scenario("nope")
        assert "deque-mp" in str(excinfo.value)

    def test_select_scenarios(self):
        both = select_scenarios(["deque-mp"])
        assert [s.name for s in both] == ["deque-mp", "deque-mp+fenced"]
        off = select_scenarios(["deque-mp"], fenced="off")
        assert [s.name for s in off] == ["deque-mp"]
        assert len(select_scenarios(["all"])) == len(SCENARIOS)
        with pytest.raises(ConfigurationError):
            select_scenarios(["bogus"])
        with pytest.raises(ConfigurationError):
            select_scenarios(["all"], fenced="sometimes")

    def test_scenario_test_condition_is_loss_predicate(self):
        scenario = get_scenario("dot-cbe")
        assert scenario.test().condition is scenario.loss


class TestSpec:
    def test_fingerprint_excludes_engine(self):
        fast = ScenarioSpec.make("deque-mp", "Titan", runs=100, seed=1,
                                 engine="fast")
        batch = fast.with_engine("batch")
        assert fast.fingerprint() == batch.fingerprint()

    def test_fingerprint_covers_content(self):
        base = ScenarioSpec.make("deque-mp", "Titan", runs=100, seed=1)
        assert base.fingerprint() != ScenarioSpec.make(
            "deque-mp", "Titan", runs=100, seed=2).fingerprint()
        assert base.fingerprint() != ScenarioSpec.make(
            "deque-mp", "Titan", runs=101, seed=1).fingerprint()
        assert base.fingerprint() != ScenarioSpec.make(
            "deque-mp", "Titan", runs=100, seed=1,
            intensity=50.0).fingerprint()
        assert base.fingerprint() != ScenarioSpec.make(
            "deque-mp", "GTX6", runs=100, seed=1).fingerprint()
        assert base.fingerprint() != ScenarioSpec.make(
            "deque-mp+fenced", "Titan", runs=100, seed=1).fingerprint()

    def test_spec_validation(self):
        with pytest.raises(ReproError):
            ScenarioSpec.make("deque-mp", "Titan", runs=0)
        with pytest.raises(ConfigurationError):
            ScenarioSpec.make("deque-mp", "NoSuchChip")

    def test_key_and_runs(self):
        spec = ScenarioSpec.make("ticket", "GTX6", runs=42)
        assert spec.key == ("ticket", "GTX6")
        assert spec.runs == spec.iterations == 42


class TestEngineParity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_fast_matches_reference_across_chip_table(self, name, session,
                                                      reference_session):
        scenario = SCENARIOS[name]
        for chip in CHIP_TABLE:
            spec = ScenarioSpec.make(scenario, chip, runs=20, seed=3,
                                     intensity=STRESS, engine="fast")
            fast = session.run_specs([spec])[0]
            ref = reference_session.run_specs([spec])[0]
            assert fast.histogram.counts == ref.histogram.counts, \
                "engine divergence: %s on %s" % (name, chip)
            assert fast.observations == ref.observations


class TestShardingParity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_sharded_equals_serial(self, name):
        serial = app_session(cache=False, shard_size=13)
        threaded = app_session(cache=False, shard_size=13, jobs=3)
        spec = ScenarioSpec.make(name, "Titan", runs=40, seed=5,
                                 intensity=STRESS)
        a = serial.run_specs([spec])[0]
        b = threaded.run_specs([spec])[0]
        assert a.histogram.counts == b.histogram.counts
        assert serial.stats.shards_executed == 4  # ceil(40 / 13)

    def test_process_pool_parity(self):
        spec = ScenarioSpec.make("deque-mp", "Titan", runs=60, seed=5,
                                 intensity=STRESS)
        serial = app_session(cache=False, shard_size=17)
        process = app_session(cache=False, shard_size=17, jobs=2,
                              executor="process")
        a = serial.run_specs([spec])[0]
        b = process.run_specs([spec])[0]
        assert a.histogram.counts == b.histogram.counts

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_single_shard_reproduces_grid_stream(self, name):
        """Legacy driver parity: one campaign shard == Grid.launch_many."""
        scenario = SCENARIOS[name]
        spec = ScenarioSpec.make(scenario, "HD7970", runs=30, seed=7,
                                 intensity=STRESS, engine="fast")
        result = app_session(cache=False).run_specs([spec])[0]
        grid = Grid(list(scenario.kernels), "HD7970",
                    dict(scenario.init_mem), placement=scenario.placement,
                    intensity=STRESS, engine="fast")
        expected = scenario.project_histogram(grid.launch_batch(30, seed=7))
        assert result.histogram.counts == expected.counts


class TestAppBackendCache:
    def test_memory_tier_hit(self):
        session = app_session()
        spec = ScenarioSpec.make("isolation", "Titan", runs=30, seed=1)
        first = session.run_specs([spec])[0]
        assert not first.cached
        second = session.run_specs([spec])[0]
        assert second.cached
        assert second.histogram.counts == first.histogram.counts
        assert session.stats.executed == 1
        assert session.stats.cache_hits == 1

    def test_disk_tier_survives_sessions(self, tmp_path):
        spec = ScenarioSpec.make("ticket", "GTX6", runs=25, seed=4)
        first = app_session(cache_dir=str(tmp_path)).run_specs([spec])[0]
        fresh = app_session(cache_dir=str(tmp_path))
        second = fresh.run_specs([spec])[0]
        assert second.cached
        assert second.histogram.counts == first.histogram.counts
        assert fresh.stats.executed == 0

    @pytest.mark.skipif(not have_numpy(), reason="numpy not installed")
    def test_engines_never_share_cache_entries(self):
        cache = ResultCache()
        fast_session = app_session(cache=cache)
        batch_session = app_session(cache=cache)
        spec = ScenarioSpec.make("deque-lb", "Titan", runs=20, seed=2,
                                 engine="fast")
        fast_session.run_specs([spec])
        batch_session.run_specs([spec.with_engine("batch")])
        # Same fingerprint, different engines: both executed, no cross-hit.
        assert batch_session.stats.cache_hits == 0
        assert batch_session.stats.executed == 1

    def test_in_plan_deduplication(self):
        session = app_session()
        spec = ScenarioSpec.make("deque-rt", "TesC", runs=20, seed=9)
        results = session.run_specs([spec, spec])
        assert session.stats.deduplicated == 1
        assert results[0].histogram.counts == results[1].histogram.counts

    def test_make_backend_resolves_app(self):
        assert isinstance(make_backend("app"), AppBackend)
        with pytest.raises(ReproError) as excinfo:
            make_backend("appp")
        assert "'app'" in str(excinfo.value)


class TestPaperBehaviours:
    @pytest.mark.parametrize("name", UNFENCED)
    def test_published_code_loses_on_weak_chips(self, name, session):
        result = run_scenario(name, "Titan", runs=150, seed=1,
                              intensity=STRESS, session=session)
        assert result.observations > 0, \
            "%s showed no losses on the Titan under stress" % name

    @pytest.mark.parametrize("name", FENCED)
    def test_fenced_variants_stay_clean_on_the_whole_table(self, name,
                                                           session):
        campaign = run_app_campaign([SCENARIOS[name]], CHIP_TABLE, runs=80,
                                    seed=2, intensity=STRESS,
                                    session=session)
        assert campaign.weak_cells() == []

    def test_strong_chip_shows_nothing(self, session):
        campaign = run_app_campaign(select_scenarios(["all"], fenced="off"),
                                    ["GTX280"], runs=60, seed=3,
                                    intensity=STRESS, session=session)
        assert campaign.weak_cells() == []

    def test_campaign_grid_shape(self, session):
        campaign = run_app_campaign(select_scenarios(["deque-mp"]),
                                    ["Titan", "GTX7"], runs=40, seed=1,
                                    session=session)
        assert isinstance(campaign, CampaignResult)
        assert len(campaign) == 4
        assert campaign.get("deque-mp", "Titan").observations >= 0
        table = campaign.summary_table()
        assert "deque-mp+fenced" in table and "Titan" in table


class TestRuntimeSatellites:
    def test_unknown_chip_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError) as excinfo:
            launch([Kernel([Store("x", 1)])], "GTX999", init_mem={"x": 0})
        message = str(excinfo.value)
        assert "GTX999" in message and "Titan" in message

    def test_trivial_condition(self):
        condition = trivial_condition()
        assert isinstance(condition.expr, Always)
        assert condition.registers() == set()
        assert condition.locations() == set()
        grid = Grid([Kernel([Store("x", 1)])], "GTX280", init_mem={"x": 0})
        assert isinstance(grid.test.condition.expr, Always)
        state = next(iter(grid.launch_batch(3, seed=0).counts))
        assert condition.holds(state)

    def test_launch_result_has_no_dead_iterations_field(self):
        result = launch([Kernel([Store("x", 1)])], "GTX280",
                        init_mem={"x": 0})
        assert isinstance(result, LaunchResult)
        assert not hasattr(result, "iterations")
        assert result["x"] == 1

    def test_grid_engines_bit_identical(self):
        kernels = [Kernel([Store("x", 1)]), Kernel([Load("v", "x")])]
        fast = Grid(kernels, "Titan", {"x": 0}, intensity=STRESS,
                    engine="fast")
        ref = GpuMachine(fast.test, fast.chip, intensity=STRESS)
        assert (fast.launch_batch(50, seed=6).counts
                == run_batch(ref, 50, random.Random(6)).counts)

    def test_custom_locals_build_adhoc_scenario(self):
        from repro.apps import dot_product, cuda_by_example_lock
        wrong, runs = dot_product("GTX280", cuda_by_example_lock,
                                  fenced=False, locals_=(1, 2, 3), runs=20,
                                  seed=1)
        assert (wrong, runs) == (0, 20)

    def test_ticket_counter_honours_locals(self):
        from repro.apps import ticket_counter
        # A single ticket has no handoff race: always correct, unlike
        # the default two-ticket client under stress.
        alone, _ = ticket_counter("Titan", fenced=False, locals_=(1,),
                                  runs=50, seed=1, intensity=STRESS)
        racing, _ = ticket_counter("Titan", fenced=False, runs=50, seed=1,
                                   intensity=STRESS)
        assert alone == 0
        assert racing > 0

    def test_dot_product_scenario_unknown_lock(self):
        with pytest.raises(ConfigurationError):
            dot_product_scenario("mystery", fenced=False)


class TestCli:
    def test_list_includes_scenarios(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "deque-rt+fenced" in out
        assert "ticket" in out
        assert "app scenario families" in out

    def test_app_subcommand(self, capsys):
        code = cli.main(["app", "--scenario", "deque-mp", "--chips",
                         "Titan", "GTX280", "--runs", "60", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "deque-mp+fenced" in out
        assert "losses per 100k" in out

    def test_app_subcommand_rejects_bad_selector(self):
        with pytest.raises(SystemExit):
            cli.main(["app", "--scenario", "bogus"])
