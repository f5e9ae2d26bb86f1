"""Result memoisation keyed by spec fingerprint.

The cache has two tiers: an in-memory dict (always on when a cache is
attached to a :class:`~repro.api.session.Session`) and an optional
on-disk JSON tier, one file per entry, so campaign results survive the
process and can be shared between sessions.  Keys combine the backend
name with the :meth:`RunSpec.fingerprint` — the same cell simulated and
model-checked are distinct entries.

Disk entries store the histogram as a list of ``{regs, mem, count}``
records (a :class:`~repro.litmus.condition.FinalState` is a pair of
sorted tuples, which maps cleanly onto JSON lists) plus enough metadata
to audit the cache directory by hand.
"""

import json
import os

from .._util import atomic_write
from ..errors import ReproError
from ..harness.histogram import Histogram
from ..litmus.condition import FinalState
from .result import SpecResult

#: Bump when the on-disk entry layout changes; mismatched versions are
#: treated as misses so stale caches degrade to re-simulation, not errors.
DISK_FORMAT_VERSION = 1


def cache_key(backend_name, signature, variant=""):
    """The cache key for a spec whose backend-relevant content hashes to
    ``signature`` (:meth:`Backend.cache_signature`).

    ``variant`` captures execution parameters outside the spec that
    still shape the result — for sharding backends the canonical shard
    decomposition, since per-shard seeding makes the histogram a
    function of the decomposition, not just the spec.
    """
    parts = [backend_name.replace(":", "_")]
    if variant:
        parts.append(variant)
    parts.append(signature)
    return "-".join(parts)


def _encode_state(state, count):
    return {"regs": [[tid, reg, value] for (tid, reg), value in state.regs],
            "mem": [[loc, value] for loc, value in state.mem],
            "count": count}


def _decode_state(record):
    regs = {(tid, reg): value for tid, reg, value in record["regs"]}
    mem = {loc: value for loc, value in record["mem"]}
    return FinalState.make(regs, mem), record["count"]


def encode_histogram(histogram):
    return [_encode_state(state, count)
            for state, count in sorted(histogram.counts.items(),
                                       key=lambda kv: str(kv[0]))]


def decode_histogram(records):
    histogram = Histogram()
    for record in records:
        state, count = _decode_state(record)
        histogram.add(state, count)
    return histogram


class ResultCache:
    """Two-tier (memory + optional disk) memo of completed specs."""

    def __init__(self, cache_dir=None):
        self.cache_dir = cache_dir
        self._memory = {}
        self.hits = 0
        self.misses = 0
        if cache_dir:
            try:
                os.makedirs(cache_dir, exist_ok=True)
            except OSError as error:
                raise ReproError("cannot use %r as the cache directory: %s"
                                 % (cache_dir, error.strerror or error)
                                 ) from None

    def __len__(self):
        return len(self._memory)

    def _path(self, key):
        return os.path.join(self.cache_dir, key + ".json")

    def get(self, backend_name, spec, signature=None, variant=""):
        """The cached :class:`SpecResult` for ``spec``, or ``None``.

        Returned results are marked ``cached=True``, rebound to the
        *caller's* spec object (signature equality guarantees the
        backend-relevant content matches) and carry a *fresh* histogram
        copy, so mutating a returned histogram can never poison later
        hits.
        """
        key = cache_key(backend_name, signature or spec.fingerprint(),
                        variant)
        entry = self._memory.get(key)
        if entry is None and self.cache_dir:
            entry = self._read_disk(key)
            if entry is not None:
                self._memory[key] = entry
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return SpecResult(spec=spec, backend=backend_name,
                          histogram=Histogram(dict(entry.counts)),
                          cached=True)

    def put(self, result, signature=None, variant=""):
        key = cache_key(result.backend,
                        signature or result.spec.fingerprint(), variant)
        # Store a private copy: callers own (and may mutate) the result
        # histogram they were handed.
        self._memory[key] = Histogram(dict(result.histogram.counts))
        if self.cache_dir:
            self._write_disk(key, result)

    def _read_disk(self, key):
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                payload = json.load(handle)
            if payload.get("version") != DISK_FORMAT_VERSION:
                return None
            return decode_histogram(payload["histogram"])
        except (ValueError, KeyError, TypeError, OSError):
            # A corrupt entry must never poison a campaign: treat as miss.
            return None

    def _write_disk(self, key, result):
        payload = {
            "version": DISK_FORMAT_VERSION,
            "backend": result.backend,
            "test": result.spec.test.name,
            "chip": result.spec.chip.short,
            "incantations": str(result.spec.incantations),
            "iterations": result.spec.iterations,
            "seed": result.spec.seed,
            "fingerprint": result.spec.fingerprint(),
            "histogram": encode_histogram(result.histogram),
        }
        atomic_write(self._path(key),
                     lambda stream: json.dump(payload, stream, indent=1))
