"""Result memoisation keyed by spec fingerprint.

The cache has two tiers: an in-memory dict (always on when a cache is
attached to a :class:`~repro.api.session.Session`) and an optional
on-disk JSON tier, one file per entry, so campaign results survive the
process and can be shared between sessions.  Keys combine the backend
name with the :meth:`RunSpec.fingerprint` — the same cell simulated and
model-checked are distinct entries.

Disk entries store the result's own JSON form
(:meth:`~repro.harness.histogram.Histogram.to_json`: ``{regs, mem,
count}`` state records plus any typed fields) and enough metadata to
audit the cache directory by hand.  An entry decodes as the
``result_type`` of the backend asking for it, and any entry that fails
to decode is a miss.
"""

import json
import os

from .._util import atomic_write
from ..errors import ReproError
from ..harness.histogram import Histogram
from .result import SpecResult

#: Bump when the on-disk entry layout changes; mismatched versions are
#: treated as misses so stale caches degrade to re-simulation, not errors.
#: v2: typed results (:meth:`Histogram.to_json`) replace the state list.
DISK_FORMAT_VERSION = 2


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

    def get(self, backend_name, spec, signature=None, variant="",
            result_type=Histogram):
        """The cached :class:`SpecResult` for ``spec``, or ``None``.

        Returned results are marked ``cached=True``, rebound to the
        *caller's* spec object (signature equality guarantees the
        backend-relevant content matches) and carry a *fresh* histogram
        copy, so mutating a returned histogram can never poison later
        hits.  Disk entries decode as ``result_type``, the asking
        backend's :attr:`~repro.api.backends.Backend.result_type`.
        """
        key = cache_key(backend_name, signature or spec.fingerprint(),
                        variant)
        entry = self._memory.get(key)
        if entry is None and self.cache_dir:
            entry = self._read_disk(key, result_type)
            if entry is not None:
                self._memory[key] = entry
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return SpecResult(spec=spec, backend=backend_name,
                          histogram=entry.copy(), cached=True)

    def put(self, result, signature=None, variant=""):
        key = cache_key(result.backend,
                        signature or result.spec.fingerprint(), variant)
        # Store a private copy: callers own (and may mutate) the result
        # histogram they were handed.
        self._memory[key] = result.histogram.copy()
        if self.cache_dir:
            self._write_disk(key, result)

    def _read_disk(self, key, result_type):
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                payload = json.load(handle)
            if (not isinstance(payload, dict)
                    or payload.get("version") != DISK_FORMAT_VERSION):
                return None
            return result_type.from_json(payload["result"])
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
            "result": result.histogram.to_json(),
        }
        atomic_write(self._path(key),
                     lambda stream: json.dump(payload, stream, indent=1))
