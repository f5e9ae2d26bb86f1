"""Shared state under concurrent processes, and bad input that must end
in a one-line :class:`~repro.errors.ReproError` instead of a traceback.

* Several processes writing the same result-cache entry at once (two
  sessions sharing a ``--cache-dir``) never raise, the entry reads
  back, and no temp file is left behind.
* Processes reading that entry while it is being rewritten see either
  a miss (before the first write lands) or the complete entry — never
  an exception, a torn entry, or a miss once the entry exists.
* A write that fails part-way leaves the old entry and no temp file.
* A ``cache_dir`` that names an existing file is refused by path.
* ``Session.run`` takes a library test name and rejects an unknown one.
* A disk entry that does not decode (not an object, truncated, an older
  format) is a miss: the cell is recomputed and the entry rewritten.
* A process-pool worker that dies mid-shard is reported against the
  cell and shard it was running.
"""

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro._util import atomic_write
from repro.api import RunSpec, Session, SimBackend
from repro.api.cache import DISK_FORMAT_VERSION, ResultCache
from repro.errors import ReproError
from repro.litmus import library

WRITERS = 4
WRITES = 200
READERS = 2
READS = 300


def _hammer(cache_dir):
    """Write one shared cache key ``WRITES`` times from this process."""
    cache = ResultCache(cache_dir=cache_dir)
    result = Session(cache=False).run(library.build("mp"), "Titan",
                                      iterations=1)
    for _ in range(WRITES):
        cache.put(result, signature="shared")
    return WRITES


def test_concurrent_writers_share_one_entry(tmp_path):
    cache_dir = str(tmp_path / "cache")
    os.makedirs(cache_dir)
    with ProcessPoolExecutor(max_workers=WRITERS,
                             mp_context=multiprocessing.get_context("spawn")
                             ) as pool:
        written = list(pool.map(_hammer, [cache_dir] * WRITERS,
                                timeout=120))
    assert written == [WRITES] * WRITERS
    spec = RunSpec.make(library.build("mp"), "Titan", iterations=1)
    hit = ResultCache(cache_dir=cache_dir).get("sim", spec,
                                               signature="shared")
    assert hit is not None and hit.histogram.total == 1
    assert not [name for name in os.listdir(cache_dir)
                if name.endswith(".tmp")]


def _read_while_writing(cache_dir):
    """Read the shared key through fresh caches (so every read goes to
    disk) until ``READS`` hits or a deadline; returns ``(hits, misses
    after the first hit, hits whose histogram was wrong)``."""
    spec = RunSpec.make(library.build("mp"), "Titan", iterations=1)
    expected = Session(cache=False).run(spec).histogram
    hits = late_misses = wrong = 0
    deadline = time.monotonic() + 60
    while hits < READS and time.monotonic() < deadline:
        hit = ResultCache(cache_dir=cache_dir).get("sim", spec,
                                                   signature="shared")
        if hit is None:
            if hits:
                late_misses += 1
            else:
                time.sleep(0.001)
            continue
        hits += 1
        if hit.histogram != expected:
            wrong += 1
    return hits, late_misses, wrong


def test_concurrent_readers_see_whole_entries(tmp_path):
    cache_dir = str(tmp_path / "cache")
    os.makedirs(cache_dir)
    with ProcessPoolExecutor(max_workers=READERS + WRITERS,
                             mp_context=multiprocessing.get_context("spawn")
                             ) as pool:
        readers = [pool.submit(_read_while_writing, cache_dir)
                   for _ in range(READERS)]
        writers = [pool.submit(_hammer, cache_dir) for _ in range(WRITERS)]
        assert [writer.result(timeout=120) for writer in writers] \
            == [WRITES] * WRITERS
        outcomes = [reader.result(timeout=120) for reader in readers]
    assert outcomes == [(READS, 0, 0)] * READERS


def test_failed_atomic_write_keeps_old_entry(tmp_path):
    path = str(tmp_path / "entry")
    atomic_write(path, lambda stream: stream.write("old"))

    def torn(stream):
        stream.write("partial")
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError):
        atomic_write(path, torn)
    with open(path) as stream:
        assert stream.read() == "old"
    assert os.listdir(str(tmp_path)) == ["entry"]


def test_cache_dir_naming_a_file_is_a_repro_error(tmp_path):
    path = tmp_path / "not-a-directory"
    path.write_text("")
    with pytest.raises(ReproError) as excinfo:
        Session(cache_dir=str(path))
    assert str(path) in str(excinfo.value)


def test_session_run_accepts_a_library_test_name():
    session = Session(cache=False)
    by_name = session.run("mp", "Titan", iterations=200, seed=3)
    by_test = session.run(library.build("mp"), "Titan", iterations=200,
                          seed=3)
    assert by_name.histogram.counts == by_test.histogram.counts
    with pytest.raises(ReproError) as excinfo:
        session.run("no-such-test", "Titan", iterations=10)
    assert "no-such-test" in str(excinfo.value)


def test_undecodable_cache_entries_are_recomputed(tmp_path):
    cache_dir = str(tmp_path)
    spec = RunSpec.make(library.build("mp"), "Titan", iterations=50, seed=2)
    fresh = Session(cache_dir=cache_dir).run(spec)
    (name,) = [name for name in os.listdir(cache_dir)
               if name.endswith(".json")]
    path = os.path.join(cache_dir, name)
    with open(path) as handle:
        good = handle.read()
    v1 = dict(json.loads(good), version=1)
    v1["histogram"] = v1.pop("result")["states"]
    for bad in ("[]", "null", good[:len(good) // 2], json.dumps(v1)):
        with open(path, "w") as handle:
            handle.write(bad)
        session = Session(cache_dir=cache_dir)
        result = session.run(spec)
        assert not result.cached and session.stats.executed == 1
        assert result.histogram == fresh.histogram
        with open(path) as handle:
            assert json.load(handle)["version"] == DISK_FORMAT_VERSION


class DyingBackend(SimBackend):
    """Kills its worker process on shard 1 of ``sb``."""

    def run_shard(self, spec, shard):
        if spec.test.name == "sb" and shard.index == 1:
            os._exit(3)
        return super().run_shard(spec, shard)


def test_dead_worker_names_the_cell_and_shard():
    specs = [RunSpec.make(library.build(name), "Titan", iterations=30)
             for name in ("mp", "sb")]
    # One worker runs the shards in submission order, so shard 1 of sb
    # is the first future the dead worker breaks.
    with ProcessPoolExecutor(max_workers=1) as pool:
        session = Session(backend=DyingBackend(), jobs=2, shard_size=10,
                          cache=False, pool=pool)
        with pytest.raises(ReproError) as excinfo:
            session.run_specs(specs)
    assert "before shard 1 of sb@Titan finished" in str(excinfo.value)
