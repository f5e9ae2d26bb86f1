"""Each tracked root ``BENCH_*.json`` keeps pace with the schema of its
CI baseline in ``benchmarks/baselines``: a root file whose ``version``
lags its baseline was not regenerated after the schema changed."""

import glob
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
BASELINES = sorted(glob.glob(os.path.join(ROOT, "benchmarks", "baselines",
                                          "BENCH_*.tiny.json")))


def _version(path):
    with open(path) as handle:
        return json.load(handle)["version"]


def test_baselines_found():
    assert BASELINES


@pytest.mark.parametrize("baseline", BASELINES, ids=os.path.basename)
def test_root_bench_schema_not_behind_baseline(baseline):
    name = os.path.basename(baseline).replace(".tiny.json", ".json")
    tracked = os.path.join(ROOT, name)
    assert os.path.exists(tracked), "%s has no tracked root file" % baseline
    assert _version(tracked) >= _version(baseline), (
        "%s is schema v%d but its baseline is v%d; regenerate it with "
        "its benchmarks/bench_perf_*.py script"
        % (name, _version(tracked), _version(baseline)))
