"""repro.perf — the performance-measurement subsystem.

Times the fast engines against their reference twins on pinned corpora
and records the repo's perf trajectory: the operational side in
``BENCH_engine.json`` (``benchmarks/bench_perf_engine.py``), the
axiomatic side in ``BENCH_model.json``
(``benchmarks/bench_perf_model.py``), the application-campaign side
in ``BENCH_apps.json`` (``benchmarks/bench_perf_apps.py``) and the
exhaustive explorer's DPOR-vs-naive pruning factor in
``BENCH_exhaust.json`` (``benchmarks/bench_perf_exhaust.py``), all
checked in CI's perf-smoke job.
"""

from .appbench import (APP_PINNED_CORPUS, APP_TINY_CORPUS, AppBenchCell,
                       app_corpus_by_name, bench_app_cell, bench_apps,
                       render_app_table, summarize_apps, write_app_report)
from .compare import (CompareResult, DEFAULT_THRESHOLD, MetricDelta,
                      compare_reports, load_report, render_compare)
from .exhaustbench import (EXHAUST_DPOR_ONLY, EXHAUST_PINNED_CORPUS,
                           EXHAUST_TINY_CORPUS, ExhaustBenchCell,
                           balance_bound, bench_exhaust,
                           bench_exhaust_cell, exhaust_corpus_by_name,
                           exhaust_corpus_test, padded_mp,
                           render_exhaust_table, summarize_exhaust,
                           write_exhaust_report)
from .enginebench import (EngineBenchCell, PINNED_CORPUS, TINY_CORPUS,
                          bench_engines, corpus_by_name, render_table,
                          summarize, tvd, tvd_envelope, write_report)
from .modelbench import (MODEL_PINNED_CORPUS, MODEL_TINY_CORPUS,
                         ModelBenchCell, bench_model_cell,
                         bench_models, deep_corpus_tests,
                         model_corpus_by_name, render_model_table,
                         summarize_model, write_model_report)

__all__ = [
    "APP_PINNED_CORPUS", "APP_TINY_CORPUS", "AppBenchCell",
    "app_corpus_by_name", "bench_app_cell", "bench_apps",
    "render_app_table", "summarize_apps", "write_app_report",
    "CompareResult", "DEFAULT_THRESHOLD", "MetricDelta",
    "compare_reports", "load_report", "render_compare",
    "EXHAUST_DPOR_ONLY", "EXHAUST_PINNED_CORPUS", "EXHAUST_TINY_CORPUS",
    "ExhaustBenchCell", "balance_bound",
    "bench_exhaust", "bench_exhaust_cell", "exhaust_corpus_by_name",
    "exhaust_corpus_test", "padded_mp", "render_exhaust_table",
    "summarize_exhaust", "write_exhaust_report",
    "EngineBenchCell", "PINNED_CORPUS", "TINY_CORPUS",
    "bench_engines", "corpus_by_name", "render_table", "summarize",
    "tvd", "tvd_envelope", "write_report",
    "MODEL_PINNED_CORPUS", "MODEL_TINY_CORPUS", "ModelBenchCell",
    "bench_model_cell", "bench_models", "deep_corpus_tests",
    "model_corpus_by_name", "render_model_table", "summarize_model",
    "write_model_report",
]
