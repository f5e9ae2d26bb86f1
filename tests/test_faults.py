"""Shared state under concurrent processes, and bad input that must end
in a one-line :class:`~repro.errors.ReproError` instead of a traceback.

* Several processes writing the same result-cache entry at once (two
  sessions sharing a ``--cache-dir``) never raise, the entry reads
  back, and no temp file is left behind.
* A write that fails part-way leaves the old entry and no temp file.
* A ``cache_dir`` that names an existing file is refused by path.
* ``Session.run`` takes a library test name and rejects an unknown one.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro._util import atomic_write
from repro.api import RunSpec, Session
from repro.api.cache import ResultCache
from repro.errors import ReproError
from repro.litmus import library

WRITERS = 4
WRITES = 200


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
