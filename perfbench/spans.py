"""In-memory spans for the traced benchmark run.

The traced run wraps the public entry point of each ``repro`` layer in
a span (:func:`instrument`), keeps every span in memory, and at the end
derives the per-layer metrics (:func:`layer_metrics`), a per-layer
table (:func:`span_table`) and a Chrome trace-event file
(:func:`chrome_trace`).  A span's layer is the first dotted component
of its name, which is the ``src/repro`` package it measures; the
``bench`` layer is the benchmark's own glue, so its self time is the
traced wall time no layer span accounts for.

Nothing here runs at import time; the wrappers exist only between
:func:`instrument` and the undo function it returns.
"""

import math
import time


class Span:
    """One timed call: name, start, end, parent span index and the
    campaign cell it worked on (inherited from the enclosing span when
    the call itself names none).

    The cell is kept as the spec object and turned into its fingerprint
    only when the spans are read (:func:`cell_id`): a spec the program
    never fingerprints must not pay for a digest inside a timed span.
    """

    __slots__ = ("name", "start", "end", "parent", "cell", "phase", "args")

    def __init__(self, name, start, parent, cell, phase, args):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.cell = cell
        self.phase = phase
        self.args = args

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """A single-threaded span stack (the traced run is ``jobs=1``)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.phase = None
        self._stack = []

    def begin(self, name, cell=None, **args):
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = self.spans[parent].cell
        self._stack.append(len(self.spans))
        span = Span(name, self.clock(), parent, cell, self.phase, args)
        self.spans.append(span)
        return span

    def end(self, span):
        span.end = self.clock()
        self._stack.pop()


def cell_id(span):
    """The fingerprint of the span's cell, or ``None``."""
    return span.cell.fingerprint() if span.cell is not None else None


def self_times(spans):
    """Each span's duration minus the durations of its direct children
    (children never overlap: the recorder is a strict stack)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - covered[index] for index, span in enumerate(spans)]


def span_table(spans):
    """``[(name, self_s, share, calls)]`` by descending self time; share
    is of the root spans' total wall time."""
    wall = sum(span.duration for span in spans if span.parent is None)
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, [0.0, 0])
        entry[0] += own
        entry[1] += 1
    rows = [(name, own, own / wall if wall else 0.0, calls)
            for name, (own, calls) in totals.items()]
    return sorted(rows, key=lambda row: -row[1])


def format_span_table(rows):
    lines = ["%-20s %10s %7s %8s" % ("span", "self_s", "share", "calls")]
    for name, own, share, calls in rows:
        lines.append("%-20s %10.4f %6.1f%% %8d" % (name, own, 100 * share,
                                                    calls))
    return "\n".join(lines)


def chrome_trace(spans, pid=1):
    """Chrome trace-event JSON (``chrome://tracing`` / Perfetto): one
    complete event per span, microseconds from the first span."""
    origin = min((span.start for span in spans), default=0.0)
    events = []
    for index, span in enumerate(spans):
        event = {"name": span.name, "cat": span.layer, "ph": "X",
                 "ts": (span.start - origin) * 1e6,
                 "dur": span.duration * 1e6, "pid": pid, "tid": 1,
                 "args": dict(span.args, span=index, parent=span.parent,
                              phase=span.phase)}
        if span.cell is not None:
            event["id"] = cell_id(span)
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


#: Candidate percentiles for a tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values, beyond=10):
    """``(p, value)`` for the highest percentile of
    :data:`TAIL_PERCENTILES` with at least ``beyond`` samples ranked
    above it (nearest-rank), or ``(None, None)`` when even the median
    has fewer."""
    ordered = sorted(values)
    count = len(ordered)
    for percentile in TAIL_PERCENTILES:
        # Rounded first so 99.9% of 10000 ranks 9990, not 9991.
        rank = max(1, math.ceil(round(percentile * count / 100.0, 6)))
        if count - rank >= beyond:
            return percentile, ordered[rank - 1]
    return None, None


def median(values):
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def _spec_argument(index):
    return lambda *args, **kwargs: args[index]


def _result_spec(cache, result, *args, **kwargs):
    return result.spec


def _run_batch_args(machine, iterations, *args, **kwargs):
    return {"iterations": iterations}


def _cache_hit(span, result):
    span.args["hit"] = result is not None


def instrument(recorder):
    """Wrap each layer's public entry points in spans; returns a
    function that restores the originals.

    Patches are installed where the callers look the names up: module
    globals for the functions the backends import by name, class
    attributes for methods.
    """
    import repro.diy as diy
    from repro.api import backends as api_backends
    from repro.api.cache import ResultCache
    from repro.api.session import Session
    from repro.apps import backend as app_backend
    from repro.exhaustive import verify as exhaustive_verify
    from repro.exhaustive.backend import ExhaustiveBackend
    from repro.model.models import AxiomaticModel

    targets = [
        (diy, "generate_tests", "diy.generate", None, None, None),
        (Session, "run_specs", "api.run_specs", None, None, None),
        (ResultCache, "get", "api.cache.get", _spec_argument(2), None,
         _cache_hit),
        (ResultCache, "put", "api.cache.put", _result_spec, None,
         None),
        (AxiomaticModel, "allowed_outcomes", "model.enum", None, None, None),
        (ExhaustiveBackend, "shards", "exhaustive.plan",
         _spec_argument(1), None, None),
        (ExhaustiveBackend, "run_shard", "exhaustive.explore",
         _spec_argument(1), None, None),
        (exhaustive_verify, "explore_test", "exhaustive.witness", None, None,
         None),
    ]
    for backend_class in (api_backends.SimBackend, api_backends.ModelBackend,
                          app_backend.AppBackend):
        targets.append((backend_class, "run_shard", "api.shard",
                        _spec_argument(1), None, None))
    for module in (api_backends, app_backend):
        targets += [
            (module, "compile_cell", "sim.lower", None, None, None),
            (module, "compile_batch_cell", "sim.lower", None, None, None),
            (module, "run_batch", "sim.exec", None, _run_batch_args, None),
        ]

    originals = []
    for owner, attribute, name, cell_of, args_of, on_result in targets:
        original = owner.__dict__[attribute]
        originals.append((owner, attribute, original))
        setattr(owner, attribute, _wrap(recorder, original, name, cell_of,
                                        args_of, on_result))

    def undo():
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
    return undo


def _wrap(recorder, function, name, cell_of, args_of, on_result):
    def wrapper(*args, **kwargs):
        span = recorder.begin(
            name, cell=cell_of(*args, **kwargs) if cell_of else None,
            **(args_of(*args, **kwargs) if args_of else {}))
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.end(span)
        if on_result is not None:
            on_result(span, result)
        return result
    wrapper.__wrapped__ = function
    return wrapper


def layer_metrics(spans, stats, work):
    """The benchmark's per-layer metrics from one traced run.

    ``stats`` sums the Session counters over every pass; ``work`` holds
    the counts only the workflow outputs carry (corpus size, explored
    transitions and executions).  ``api.cache.hit_ratio`` is taken over
    the warm pass alone, which must be served entirely from the cache.
    """
    own = self_times(spans)
    durations = {}
    self_by_name = {}
    calls = {}
    for span, self_s in zip(spans, own):
        durations[span.name] = durations.get(span.name, 0.0) + span.duration
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + self_s
        calls[span.name] = calls.get(span.name, 0) + 1

    def total(name):
        return durations.get(name, 0.0)

    cell_exec = {}
    iterations = 0
    for span in spans:
        if span.name == "sim.exec":
            cell = cell_id(span)
            cell_exec[cell] = cell_exec.get(cell, 0.0) + span.duration
            iterations += span.args["iterations"]
    per_cell_ms = [1000.0 * value for value in cell_exec.values()]
    tail_p, tail_ms = tail_percentile(per_cell_ms)
    warm_gets = [span for span in spans
                 if span.name == "api.cache.get" and span.phase == "warm"]
    exec_s = total("sim.exec")
    return {
        "cli.import_s": total("cli.import"),
        "cli.numpy_imported": work["numpy_imported"],
        "diy.generate_s": total("diy.generate"),
        "diy.tests": work["tests"],
        "api.self_s": (self_by_name.get("api.run_specs", 0.0)
                       + self_by_name.get("api.shard", 0.0)),
        "api.cells_executed": stats["executed"],
        "api.shards": stats["shards_executed"],
        "api.dedup": stats["deduplicated"],
        "api.cache_hits": stats["cache_hits"],
        "api.cache.get_s": total("api.cache.get"),
        "api.cache.gets": calls.get("api.cache.get", 0),
        "api.cache.put_s": total("api.cache.put"),
        "api.cache.puts": calls.get("api.cache.put", 0),
        "api.cache.hit_ratio": (
            sum(1 for span in warm_gets if span.args["hit"]) / len(warm_gets)
            if warm_gets else 0.0),
        "sim.lower_s": total("sim.lower"),
        "sim.lowerings": calls.get("sim.lower", 0),
        "sim.plan_cache_hits": stats["plan_cache_hits"],
        "sim.plan_cache_misses": stats["plan_cache_misses"],
        "sim.exec_s": exec_s,
        "sim.iterations": iterations,
        "sim.iters_per_s": iterations / exec_s if exec_s else 0.0,
        "sim.cells": len(per_cell_ms),
        "sim.cell_p50_ms": median(per_cell_ms) if per_cell_ms else 0.0,
        "sim.cell_tail_pct": tail_p or 0.0,
        "sim.cell_tail_ms": tail_ms or 0.0,
        "model.enum_s": total("model.enum"),
        "model.enumerations": calls.get("model.enum", 0),
        "exhaustive.plan_s": total("exhaustive.plan"),
        "exhaustive.explore_s": total("exhaustive.explore"),
        "exhaustive.branches": calls.get("exhaustive.explore", 0),
        "exhaustive.transitions": work["transitions"],
        "exhaustive.executions": work["executions"],
        "exhaustive.witness_s": total("exhaustive.witness"),
        "exhaustive.witness_replays": calls.get("exhaustive.witness", 0),
        "trace.unattributed_s": sum(
            self_s for span, self_s in zip(spans, own)
            if span.layer == "bench"),
    }
