"""Cross-worker compiled-plan cache for the batch engine.

Batch cells do not pickle — their numpy buffers and kernel closures are
rebuilt per process — so a process-pool campaign used to pay the full
lowering cost (program analysis, register allocation, slot tables) once
per *worker* rather than once per campaign.  A :class:`PlanStore` keeps
the picklable half of that work — the :meth:`~repro.sim.batch.BatchCell.plan`
analysis product — in a directory of pickle files next to the result
cache, so any worker (present or future process) can skip straight to
closure generation.

Safety model: entries are keyed by a SHA-256 of the full cell content
(litmus text, chip profile, intensity, plan format version), written
atomically (temp file + ``os.replace``) so concurrent workers never see
a torn file, and read tolerantly — any unreadable or undecodable entry
is a miss, and :class:`~repro.sim.batch.BatchCell` itself re-validates
the plan version before trusting it.  The cache is therefore purely an
accelerator: deleting the directory at any time only costs re-lowering.
"""

import hashlib
import os
import pickle
import threading

from .._util import atomic_write

#: Per-process singletons, one per cache directory, so hit/miss counts
#: aggregate across every backend instance (and pool thread) of a
#: process and ``consume_stats`` deltas add up to the true totals.
_STORES = {}
_STORES_LOCK = threading.Lock()


def plan_store(directory):
    """The process-wide :class:`PlanStore` for ``directory``."""
    with _STORES_LOCK:
        store = _STORES.get(directory)
        if store is None:
            store = _STORES[directory] = PlanStore(directory)
        return store


def plan_signature(*parts):
    """Stable content key for one lowered cell.

    Callers pass everything the plan depends on (litmus text, chip
    repr, intensity, format version); the digest keeps file names flat
    and content-addressed.
    """
    payload = "\x1e".join(str(part) for part in parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class PlanStore:
    """Disk-backed store of pickled lowering plans with hit accounting."""

    def __init__(self, directory):
        self.directory = directory
        self.hits = 0
        self.misses = 0
        self._consumed_hits = 0
        self._consumed_misses = 0
        self._lock = threading.Lock()

    def _path(self, signature):
        return os.path.join(self.directory, signature + ".plan")

    def get(self, signature):
        """The stored plan for ``signature``, or ``None`` (a miss).

        Any I/O or decode failure — missing file, torn write from a
        crashed worker, version skew in pickled classes — degrades to a
        miss; the caller re-lowers and overwrites the entry.
        """
        try:
            with open(self._path(signature), "rb") as handle:
                plan = pickle.load(handle)
        except Exception:
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return plan

    def put(self, signature, plan):
        """Store ``plan`` atomically; concurrent writers last-win with
        identical content, so the race is harmless."""
        try:
            os.makedirs(self.directory, exist_ok=True)
            atomic_write(self._path(signature),
                         lambda stream: pickle.dump(
                             plan, stream, protocol=pickle.HIGHEST_PROTOCOL),
                         mode="wb")
        except OSError:
            # A read-only or full cache directory must never fail the
            # run itself; the plan simply is not shared.
            pass

    def consume_stats(self):
        """Hit/miss counts accumulated since the previous call."""
        with self._lock:
            hits = self.hits - self._consumed_hits
            misses = self.misses - self._consumed_misses
            self._consumed_hits = self.hits
            self._consumed_misses = self.misses
        return {"plan_cache_hits": hits, "plan_cache_misses": misses}
