#!/usr/bin/env python
"""Model-engine perf benchmark: reference vs fast, tracked in BENCH_model.json.

Times both model-checking engines on a pinned corpus — paper tests plus
deterministic length-6/7 diy cycles (:data:`repro.perf.MODEL_PINNED_CORPUS`;
``--corpus tiny`` for the CI smoke subset) — prints the comparison table
and writes the machine-readable trajectory file.  Exits non-zero if

* the fast engine's allowed-set time exceeds ``--min-speedup`` times the
  reference engine's on any cell, or
* any cell's allowed sets diverge between the engines (the parity
  contract; also property-tested in ``tests/test_model_compile.py``).

Usage::

    python benchmarks/bench_perf_model.py                  # pinned corpus
    python benchmarks/bench_perf_model.py --corpus tiny \\
        --repeats 3 --min-speedup 1.0 --output BENCH_model.json
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.errors import ReproError  # noqa: E402
from repro.perf import (bench_models, model_corpus_by_name,  # noqa: E402
                        render_model_table, summarize_model,
                        write_model_report)

#: Default output: the tracked trajectory file at the repo root.
DEFAULT_OUTPUT = os.path.join(os.path.dirname(__file__), "..",
                              "BENCH_model.json")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", default="pinned",
                        choices=("pinned", "tiny"),
                        help="cell set: pinned (default) or the CI-sized "
                             "tiny subset")
    parser.add_argument("--model", default="ptx",
                        help="axiomatic model to check against "
                             "(default ptx)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats (default 3)")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="fail if any cell's speedup is below this "
                             "(default 1.0: the fast engine must never "
                             "lose to the reference engine)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write BENCH_model.json "
                             "(default: repo root)")
    args = parser.parse_args(argv)

    try:
        corpus = model_corpus_by_name(args.corpus)
        cells = bench_models(corpus, model=args.model,
                             repeats=args.repeats)
    except ReproError as error:
        raise SystemExit(str(error))
    summary = summarize_model(cells)
    print(render_model_table(cells))
    print("geomean speedup: %.2fx (min %.2fx, max %.2fx)"
          % (summary["geomean_speedup"], summary["min_speedup"],
             summary["max_speedup"]))
    write_model_report(args.output, cells, args.corpus, args.repeats,
                       extra={"model": args.model})
    print("wrote %s" % os.path.relpath(args.output))

    failures = []
    if not summary["all_identical"]:
        failures.append("engines diverged: some cell's allowed sets are "
                        "not identical")
    slow = [cell for cell in cells if cell.speedup < args.min_speedup]
    for cell in slow:
        failures.append("%s under %s: speedup %.2fx < %.2fx"
                        % (cell.test, cell.model, cell.speedup,
                           args.min_speedup))
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
