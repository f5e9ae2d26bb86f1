"""The interface the end-to-end benchmark consumes: the ``soundness``,
``apps`` and ``verify`` passes of ``perfbench/child.py``, each run cold
then warm on a shared cache directory.

Every pass must fail no cell, reproduce its cold digest warm from the
cache alone, and report every Session counter ``child.STAT_KEYS``
reads, so a counter deleted from ``SessionStats`` fails here instead
of crashing every benchmark cell.

The verify pass reads exhaustive results through
``split_exhaustive_histogram`` and ``exhaustive_verdict`` and joins
them against model verdicts from a second session sharing the first
one's cache, so it covers the typed exploration result end to end:
process-pool shards, the cache codec and the cross-backend cache.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import child  # noqa: E402
import pytest  # noqa: E402
from repro.apps import select_scenarios  # noqa: E402
from repro.diy import default_pool, generate_tests  # noqa: E402
from repro.sim import have_numpy  # noqa: E402


def _cold_then_warm(run_pass, state, inputs, cache_dir, cells):
    """Run ``run_pass`` cold then warm on ``cache_dir``; check the
    contract every pass shares and return both records."""
    passes = []
    for name in ("cold", "warm"):
        record = child.Pass(name)
        run_pass(record, state, inputs, str(cache_dir), jobs=2)
        passes.append(record.to_json())
    cold, warm = passes
    for record in passes:
        assert record["failed"] == 0, record["failures"]
        assert record["cells"] == cells
        assert set(child.STAT_KEYS) <= set(record["stats"])
    assert cold["stats"]["executed"] > 0
    assert warm["stats"]["executed"] == 0
    assert warm["digest"] == cold["digest"]
    return cold, warm


def _tiny_corpus():
    return generate_tests(default_pool(), max_length=3, max_tests=2)


def test_soundness_pass_cold_then_warm(tmp_path):
    tests = _tiny_corpus()
    state = {"tests": tests, "scenarios": []}
    inputs = {"corpus": {"tests": len(tests)}, "chips": ["Titan"],
              "iterations": 50, "seed": 1}
    _cold_then_warm(child.soundness_pass, state, inputs, tmp_path,
                    cells=len(tests))


@pytest.mark.skipif(not have_numpy(), reason="numpy not installed")
def test_apps_pass_cold_then_warm(tmp_path):
    state = {"tests": [], "scenarios": select_scenarios(["dot-cbe"])}
    inputs = {"chips": ["Titan"], "weak_chips": ["Titan"], "runs": 300,
              "engine": "batch", "seed": 1}
    _cold_then_warm(child.apps_pass, state, inputs, tmp_path, cells=2)


def test_verify_pass_cold_then_warm(tmp_path):
    state = {"tests": _tiny_corpus(),
             "scenarios": select_scenarios(["deque-mp"], fenced="off")}
    inputs = {"chips": ["Titan"], "corpus_chips": ["Titan"]}
    cold, _ = _cold_then_warm(child.verify_pass, state, inputs, tmp_path,
                              cells=1 + 2)
    assert cold["work"]["transitions"] > 0
