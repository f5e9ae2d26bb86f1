"""The interface the end-to-end benchmark consumes: ``perfbench/child.py``'s
``verify`` pass, run cold then warm on a shared cache directory.

The pass reads exhaustive results through ``split_exhaustive_histogram``
and ``exhaustive_verdict`` and joins them against model verdicts from a
second session sharing the first one's cache, so it covers the typed
exploration result end to end: process-pool shards, the cache codec
and the cross-backend cache.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import child  # noqa: E402
from repro.apps import select_scenarios  # noqa: E402
from repro.diy import default_pool, generate_tests  # noqa: E402


def test_verify_pass_cold_then_warm(tmp_path):
    state = {"tests": generate_tests(default_pool(), max_length=3,
                                     max_tests=2),
             "scenarios": select_scenarios(["deque-mp"], fenced="off")}
    inputs = {"chips": ["Titan"], "corpus_chips": ["Titan"]}
    passes = []
    for name in ("cold", "warm"):
        record = child.Pass(name)
        child.verify_pass(record, state, inputs, str(tmp_path), jobs=2)
        passes.append(record.to_json())
    cold, warm = passes
    for record in passes:
        assert record["failed"] == 0, record["failures"]
        assert record["cells"] == 1 + 2
    assert cold["stats"]["executed"] > 0
    assert warm["stats"]["executed"] == 0
    assert cold["work"]["transitions"] > 0
    assert warm["digest"] == cold["digest"]
