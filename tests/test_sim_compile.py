"""Fast-path equivalence: compiled cells vs the reference interpreter.

The contract of :mod:`repro.sim.compile` is *bit-identity*: for the same
seed, a compiled cell consumes the ``Random`` stream in exactly the same
sequence as :class:`~repro.sim.machine.GpuMachine` and produces the same
final states — so every figure benchmark and the soundness campaign can
run on the fast engine without a single count changing.  These tests
enforce that contract across the litmus library, the chip stable, the
incantation combinations, diy-generated dependency corpora and arbitrary
shard decompositions — the interpreter side runs through
:class:`reference_backends.ReferenceSimBackend`, so both engines share
the real shard planner and session — and pin down the engine switch's
plumbing through ``RunSpec``/``SimBackend``/``Session``/CLI.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.batch as batch_module
from repro.api import (RunSpec, Session, SimBackend, plan_shards,
                       run_soundness)
from repro.api.backends import DEFAULT_SHARD_SIZE
from repro.apps import run_app_campaign
from repro.diy import default_pool, generate_tests
from repro.errors import ConfigurationError, ReproError
from repro.harness.histogram import Histogram
from repro.harness.incantations import Incantations, efficacy
from repro.litmus import library
from repro.sim import (CHIPS, GpuMachine, RESULT_CHIPS, compile_cell,
                       default_engine, have_numpy, resolve_engine,
                       run_batch, run_iterations)
from reference_backends import ReferenceSimBackend

LIBRARY_TESTS = sorted(library.PAPER_TESTS)
ALL_CHIPS = list(RESULT_CHIPS) + ["GTX280"]


def _histograms(test, chip, incantations, iterations, seed,
                shard_size=DEFAULT_SHARD_SIZE):
    """Run one cell on the interpreter and the fast engine through the
    real backend/shard path; returns (reference counts, fast counts)."""
    spec = RunSpec.make(test, chip, incantations=incantations,
                        iterations=iterations, seed=seed, engine="fast")
    return [backend.run(spec, shard_size=shard_size).counts
            for backend in (ReferenceSimBackend(), SimBackend())]


class TestBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(LIBRARY_TESTS),
           chip=st.sampled_from(ALL_CHIPS),
           column=st.integers(1, 16),
           seed=st.integers(0, 2**32 - 1),
           shard_size=st.sampled_from([7, 23, DEFAULT_SHARD_SIZE]))
    def test_library_tests_bit_identical(self, name, chip, column, seed,
                                         shard_size):
        """The headline property: every library test x chip x incantation
        combo yields the same histogram on both engines, under any shard
        decomposition."""
        test = library.build(name)
        reference, fast = _histograms(
            test, chip, Incantations.from_column(column), iterations=60,
            seed=seed, shard_size=shard_size)
        assert reference == fast

    @settings(max_examples=25, deadline=None)
    @given(index=st.integers(0, 10**6),
           chip=st.sampled_from(["Titan", "TesC", "HD7970", "GTX7"]),
           seed=st.integers(0, 2**16))
    def test_diy_corpus_bit_identical(self, index, chip, seed):
        """Generated tests — including address/data/control dependency
        chains, which exercise register-relative addressing and guarded
        instructions — agree between engines."""
        corpus = self._corpus()
        test = corpus[index % len(corpus)]
        reference, fast = _histograms(test, chip, Incantations.all(),
                                      iterations=50, seed=seed)
        assert reference == fast

    _CORPUS = None

    @classmethod
    def _corpus(cls):
        if cls._CORPUS is None:
            tests = generate_tests(default_pool(), max_length=4,
                                   max_tests=None)
            # Keep every dependency-edge test plus a slice of the rest.
            dep = [t for t in tests
                   if "Addr" in t.name or "Data" in t.name
                   or "Ctrl" in t.name]
            cls._CORPUS = dep[:40] + tests[:20]
        return cls._CORPUS

    def test_rng_stream_parity(self):
        """Stronger than equal histograms: after any run the underlying
        Random streams are at the same position, so engines may be
        interleaved mid-stream."""
        test = library.build("mp-L1")
        chip = CHIPS["TesC"]
        intensity = efficacy(chip.vendor, "mp", Incantations.all())
        reference = GpuMachine(test, chip, intensity=intensity,
                               shuffle_placement=True)
        fast = compile_cell(test, chip, intensity=intensity,
                            shuffle_placement=True)
        r1, r2 = random.Random(42), random.Random(42)
        for _ in range(200):
            assert reference.run_once(r1) == fast.run_once(r2)
            assert r1.random() == r2.random()

    def test_scope_blind_bit_identical(self):
        """The Sec. 6 scope-blind mode compiles to the same outcomes."""
        test = library.build("mp-L1+membar.ctas")
        chip = CHIPS["TesC"]
        reference = GpuMachine(test, chip, scope_blind=True)
        fast = compile_cell(test, chip, scope_blind=True)
        r1, r2 = random.Random(5), random.Random(5)
        for _ in range(300):
            assert reference.run_once(r1) == fast.run_once(r2)

    def test_shared_memory_tests_bit_identical(self):
        """Shared-memory (scratchpad) locations take the non-global
        paths through the compiled memory system."""
        for name in LIBRARY_TESTS:
            test = library.build(name)
            if any(test.space_of(loc).value == "shared"
                   for loc in test.locations()):
                reference, fast = _histograms(
                    test, "Titan", Incantations.none(), iterations=40,
                    seed=3)
                assert reference == fast


class TestEngineSwitch:
    @pytest.mark.skipif(not have_numpy(), reason="numpy not installed")
    def test_default_engine_is_batch_with_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert default_engine() == "batch"
        spec = RunSpec.make(library.build("mp"), "Titan", iterations=10)
        assert spec.engine == "batch"

    def test_default_engine_is_fast_without_numpy(self, monkeypatch):
        """Without numpy every default sim workflow falls back to the
        fast engine instead of raising a ConfigurationError."""
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.setattr(batch_module, "np", None)
        assert default_engine() == "fast"
        test = library.build("mp")
        assert RunSpec.make(test, "Titan", iterations=10).engine == "fast"
        result = Session(cache=False).run(test, "Titan", iterations=20)
        assert result.spec.engine == "fast"
        assert sum(run_iterations(test, CHIPS["Titan"], 20).values()) == 20
        campaign = run_app_campaign(["dot-cbe"], ["Titan"], runs=20)
        assert all(result.spec.engine == "fast"
                   for result in campaign.results.values())
        tests = generate_tests(default_pool(), max_length=3, max_tests=4)
        report = run_soundness(tests, ["Titan", "GTX6"], iterations=50,
                               cache=False)
        assert report.engine == "fast"
        assert len(report) == 8
        assert report.ok

    def test_fast_overrides_the_default(self, monkeypatch):
        test = library.build("mp")
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        assert resolve_engine(None) == "fast"
        assert RunSpec.make(test, "Titan", iterations=10).engine == "fast"
        result = Session(cache=False).run(test, "Titan", iterations=10)
        assert result.spec.engine == "fast"
        monkeypatch.delenv("REPRO_ENGINE")
        spec = RunSpec.make(test, "Titan", iterations=10, engine="fast")
        assert spec.engine == "fast"
        result = Session(engine="fast", cache=False).run(test, "Titan",
                                                         iterations=10)
        assert result.spec.engine == "fast"
        report = run_soundness([test], ["Titan"], iterations=50,
                               cache=False, engine="fast")
        assert report.engine == "fast"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "batch")
        assert resolve_engine(None) == "batch"
        spec = RunSpec.make(library.build("mp"), "Titan", iterations=10)
        assert spec.engine == "batch"

    def test_bad_env_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "warp-speed")
        with pytest.raises(ConfigurationError):
            resolve_engine(None)

    def test_bad_engine_argument(self):
        with pytest.raises(ReproError):
            RunSpec.make(library.build("mp"), "Titan", iterations=10,
                         engine="warp-speed")

    def test_fingerprint_engine_independent(self):
        """Shard seeds derive from the fingerprint, so the fingerprint
        must not see the engine — that is what makes cross-engine runs
        comparable shard by shard."""
        test = library.build("mp")
        fast = RunSpec.make(test, "Titan", iterations=100, engine="fast")
        batch = fast.with_engine("batch")
        assert fast.fingerprint() == batch.fingerprint()
        assert ([shard.seed for shard in plan_shards(fast, 30)]
                == [shard.seed for shard in plan_shards(batch, 30)])

    def test_cache_signature_engine_dependent(self):
        """Cached histograms must not cross engines: a batch histogram
        answering a bit-exact fast request would be silently wrong."""
        backend = SimBackend()
        test = library.build("mp")
        fast = RunSpec.make(test, "Titan", iterations=100, engine="fast")
        assert (backend.cache_signature(fast)
                != backend.cache_signature(fast.with_engine("batch")))

    def test_session_engine_default_and_override(self):
        session = Session(engine="batch", cache=False)
        test = library.build("mp")
        spec, = session.plan([test], ["Titan"], iterations=20, seed=1)
        assert spec.engine == "batch"
        result = session.run(test, "Titan", iterations=20, seed=1,
                             engine="fast")
        assert result.spec.engine == "fast"

    def test_sessions_bit_identical_across_engines(self):
        """An interpreter-backed session and a fast-engine session give
        the same histogram, serially in one shard and on a thread pool
        over several."""
        test = library.build("cas-sl")
        for jobs, shard_size in ((1, DEFAULT_SHARD_SIZE), (3, 70)):
            reference, fast = [
                Session(backend=backend, cache=False, jobs=jobs,
                        shard_size=shard_size, executor="thread").run(
                    test, "GTX6", iterations=400, seed=9,
                    engine="fast").histogram.counts
                for backend in (ReferenceSimBackend(), "sim")]
            assert reference == fast

    def test_threaded_session_matches_serial(self):
        """jobs>1 with the thread executor shares one SimBackend across
        workers: the per-thread compile memo must keep cells isolated
        and the merged histogram bit-identical to the serial run."""
        test = library.build("mp")
        serial = Session(cache=False, jobs=1, shard_size=50)
        threaded = Session(cache=False, jobs=4, shard_size=50,
                           executor="thread")
        a = serial.run(test, "Titan", iterations=400, seed=2)
        b = threaded.run(test, "Titan", iterations=400, seed=2)
        assert a.histogram.counts == b.histogram.counts

    def test_run_iterations_engines_agree(self):
        test = library.build("sb")
        chip = CHIPS["TesC"]
        fast = run_iterations(test, chip, 300, seed=4, engine="fast")
        machine = GpuMachine(test, chip)
        rng = random.Random(4)
        reference = {}
        for _ in range(300):
            state = machine.run_once(rng)
            reference[state] = reference.get(state, 0) + 1
        assert fast == reference

    def test_cli_engine_flag(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["run", "mp", "--engine", "batch"])
        assert args.engine == "batch"
        args = parser.parse_args(["soundness", "--engine", "fast"])
        assert args.engine == "fast"
        args = parser.parse_args(["campaign", "mp"])
        assert args.engine is None  # defer to REPRO_ENGINE / default


class TestRemovedOptions:
    """``reference`` is no engine choice and ``--model-engine`` is gone:
    the interpreter and the enumerate-then-check model path are reached
    only by direct calls."""

    @pytest.mark.parametrize("argv", [
        ["run", "mp", "--engine", "reference"],
        ["campaign", "mp", "--engine", "reference"],
        ["app", "--engine", "reference"],
        ["soundness", "--engine", "reference"],
        ["run", "mp", "--model-engine", "fast"],
        ["campaign", "mp", "--model-engine", "fast"],
        ["model", "mp", "--model-engine", "fast"],
        ["soundness", "--model-engine", "fast"],
    ])
    def test_cli_rejects_removed_values(self, argv, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    def test_env_reference_is_a_one_line_configuration_error(
            self, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_ENGINE", "reference")
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_engine(None)
        assert "fast/batch" in str(excinfo.value)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "mp", "--iterations", "10"])
        message = str(excinfo.value.code)
        assert message == ("REPRO_ENGINE must be one of fast/batch, got "
                           "'reference'")

    def test_session_and_spec_reject_reference(self):
        for build in (lambda: Session(engine="reference"),
                      lambda: RunSpec.make(library.build("mp"), "Titan",
                                           iterations=10,
                                           engine="reference")):
            with pytest.raises(ReproError) as excinfo:
                build()
            message = str(excinfo.value)
            assert "'reference'" in message
            assert "'fast'" in message and "'batch'" in message


class TestFastStreamGolden:
    """``fast`` is the bit-reproducible stream: the pinned
    Sec. 5.4 sweep CI runs (40 diy tests x 4 chips x 300 iterations,
    seed 17) must print exactly these bytes on it.  The hash was taken
    when ``fast`` was still the default engine, from that release's
    stdout plus the summary line's engine suffix."""

    SUMMARY = ("soundness vs model:ptx: 40 tests x 4 chips = 160 cells, "
               "36 weak, 0 violations, 0 cached, 48000 iterations on the "
               "fast engine")
    SHA256 = ("631cce0696f1d607ae7fa55cd085b9fe"
              "8777d4a02a7d626e64c5564d9702a41d")

    def test_pinned_soundness_sweep(self, capsys):
        from repro.cli import main

        code = main(["soundness", "--max-tests", "40", "--jobs", "2",
                     "--iterations", "300", "--seed", "17",
                     "--engine", "fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert self.SUMMARY in out.splitlines()
        assert hashlib.sha256(out.encode()).hexdigest() == self.SHA256


class TestRunBatch:
    def test_accumulates_into_given_histogram(self):
        test = library.build("mp")
        cell = compile_cell(test, CHIPS["Titan"])
        histogram = Histogram()
        out = run_batch(cell, 25, random.Random(0), histogram)
        assert out is histogram
        assert histogram.total == 25
        run_batch(cell, 25, random.Random(1), histogram)
        assert histogram.total == 50

    def test_fresh_histogram_when_omitted(self):
        cell = compile_cell(library.build("sb"), CHIPS["GTX7"])
        histogram = run_batch(cell, 10, random.Random(0))
        assert histogram.total == 10

    def test_machine_state_reuse_is_clean(self):
        """Back-to-back batches on one compiled cell match fresh cells:
        nothing leaks across iterations or batches."""
        test = library.build("coRR-L2-L1")
        chip = CHIPS["TesC"]
        cell = compile_cell(test, chip, intensity=1.0)
        first = run_batch(cell, 120, random.Random(8)).counts
        again = run_batch(cell, 120, random.Random(8)).counts
        fresh = run_batch(compile_cell(test, chip, intensity=1.0), 120,
                          random.Random(8)).counts
        assert first == again == fresh


class TestCompiledCellErrors:
    def test_uninstalled_address_raises(self):
        from repro.errors import SimulationError
        from repro.litmus import LitmusTest
        from repro.litmus.condition import Condition, MemEq
        from repro.ptx import Addr, Imm, Mov, Reg, St
        from repro.ptx.program import ThreadProgram

        # A register-addressed store to an address no location owns.
        program = ThreadProgram(tid=0, instructions=(
            Mov(Reg("r2"), Imm(0x1234)),
            St(Addr(Reg("r2")), Imm(1)),
        ))
        test = LitmusTest(name="bad-addr", threads=(program,),
                          condition=Condition("exists", MemEq("x", 0)),
                          init_mem={"x": 0})
        cell = compile_cell(test, CHIPS["Titan"])
        with pytest.raises(SimulationError):
            cell.run_once(random.Random(0))
