"""Static race classification over litmus tests (the analyzer core).

Every pair of same-location accesses from different threads where at
least one side writes is classified as one of:

* ``sync`` — both sides are synchronisation accesses (atomics or
  volatiles): intentional racing in the CUDA idiom, exempt from race
  reporting (volatility still never *orders* anything — Fig. 5 shows
  volatiles reordering freely).
* ``ordered`` — a fence/atomic chain provably orders the two accesses
  under the chip's scoped-fence semantics, in either direction.  Two
  proof rules are implemented (below); both match the paper's ``(+)``
  fence fixes.
* ``racy`` — provably unordered: either the pair mixes a plain store
  with an atomic on one location (PTX *annuls* atomic guarantees then,
  Sec. 3.2.3 — the He-Yu release bug), or neither direction has even a
  candidate publish/acquire edge (no covering fence after the first
  access, and no covering fence or control/data dependency before the
  second).
* ``unknown`` — everything else.  The per-test verdict is ``racy`` if
  any pair is, else ``unknown`` if any pair (or any computed-address
  access) is, else ``clean``.  Only ``clean`` carries an obligation —
  the CI consistency job checks clean scenarios never lose in
  simulation and clean litmus tests stay SC (model allowed-sets).

Ordering proof rules
--------------------

*Fenced handshake* (orders ``a`` in Ti before ``b`` in Tj through a
flag ``f``): ``b`` has a control dependency on a load of ``f`` admitting
value set ``A``; ``b`` is reached from that load through a covering
fence (or ``b`` is a write — the simulator stalls guarded instructions
and the PTX model's ``dp`` includes ``ctrl``, so the dependency itself
orders the write); the initial value of ``f`` is not in ``A``; and every
store of a possibly-admitted value to ``f`` is either po-after a
covering fence that is po-after ``a`` (in Ti), po-after ``b`` (in Tj),
or provably stores an excluded value.  This is exactly the deque fix:
``st task; membar; st tail`` publishing into ``if (tail != 0) { membar;
ld task }``.

*Lock protection* (mutual exclusion): a location ``L`` accessed only
atomically, where each side has an *acquire* — a control dependency
whose governing instruction is an RMW on ``L`` admitting only values
distinct from what that RMW stores (a CAS/exchange that observed the
lock free), followed by a covering fence — and a *release* — a po-later
atomic write to ``L`` behind a covering fence.  This certifies the three
published locks once the paper's two fences are added.

Both rules refuse ``.ca`` endpoints and ``.ca`` guard loads: an L1-hit
load can return a stale value even across fences (Fig. 3, mp-L1), so a
``.ca`` read is never provably ordered after anything.
"""

from dataclasses import dataclass, field

from ..ptx.types import Scope
from .accesses import _stored_value, compatible_guards, summarize_test

#: Pair verdicts.
SYNC = "sync"
ORDERED = "ordered"
RACY = "racy"
UNKNOWN = "unknown"

#: Per-test verdicts (RACY/UNKNOWN shared with the pair vocabulary).
CLEAN = "clean"

#: Per-test verdicts, weakest-wins order.
VERDICTS = (CLEAN, UNKNOWN, RACY)


@dataclass(frozen=True)
class PairFinding:
    """One classified conflicting pair."""

    location: str
    a: str              #: display form of the first access
    b: str              #: display form of the second access
    verdict: str        #: sync | ordered | racy | unknown
    reason: str

    def __str__(self):
        return "[%s] %s / %s: %s (%s)" % (
            self.location, self.a, self.b, self.verdict, self.reason)


@dataclass(frozen=True)
class Diagnostic:
    """One guard finding: spin-deadlock, warp-divergence, an unordered
    cross-thread guard, or an annulled atomic flag."""

    kind: str
    thread: str
    location: str
    message: str

    def __str__(self):
        return "%s [%s, %s]: %s" % (self.kind, self.thread, self.location,
                                    self.message)


@dataclass
class AnalysisReport:
    """The analyzer's full output for one litmus test."""

    test_name: str
    verdict: str
    pairs: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    unresolved: list = field(default_factory=list)
    #: sync-exempt pairs involving a volatile access (volatiles never
    #: order — Fig. 5 — so these void the DRF-implies-SC reading)
    volatile_sync_pairs: int = 0
    #: locations with cross-thread atomic-atomic sync pairs
    atomic_sync_locations: frozenset = frozenset()

    @property
    def sc_obligation(self):
        """Does ``clean`` imply sequential consistency for this test?

        Volatile races void the implication (a volatile pair is exempt
        from race reporting as intentional, but volatiles reorder —
        mp-volatile is clean *and* weak).  Atomic RMW races are
        tolerated on at most one location: coherence totally orders one
        lock word, but racing RMWs spread over several locations can
        still interleave weakly (an all-RMW store-buffering shape).
        """
        return (self.verdict == CLEAN and self.volatile_sync_pairs == 0
                and len(self.atomic_sync_locations) <= 1)

    @property
    def racy_pairs(self):
        return [pair for pair in self.pairs if pair.verdict == RACY]

    def summary(self):
        counts = {}
        for pair in self.pairs:
            counts[pair.verdict] = counts.get(pair.verdict, 0) + 1
        detail = ", ".join("%d %s" % (counts[v], v)
                           for v in (RACY, UNKNOWN, ORDERED, SYNC)
                           if v in counts) or "no conflicting pairs"
        if self.unresolved:
            detail += ", %d unresolved address(es)" % len(self.unresolved)
        return "%s: %s (%s)" % (self.test_name, self.verdict, detail)

    def lines(self):
        out = [self.summary()]
        for pair in self.pairs:
            out.append("  pair %s" % pair)
        for note in self.unresolved:
            out.append("  unresolved %s" % note)
        for diagnostic in self.diagnostics:
            out.append("  diag %s" % diagnostic)
        return out


def _location_display(key):
    name, offset = key
    return "%s+%d" % (name, offset) if offset else name


def _initial_value(test, key):
    """The initial value of a (location, offset) cell: the test's
    ``init_mem`` for the base cell, zero-filled elsewhere."""
    name, offset = key
    return test.initial_value(name) if offset == 0 else 0


def _required_rank(tree, name_a, name_b):
    """The fence scope rank that covers communication between two
    threads: CTA suffices inside one CTA, device scope across CTAs."""
    if tree.same_cta(name_a, name_b):
        return Scope.CTA.rank
    return Scope.GL.rank


# -- ordering proofs --------------------------------------------------------

def _handshake(test, summaries, src, dst, rank):
    """Try to prove ``src`` happens-before ``dst`` through a flag
    handshake; returns a reason string or ``None``."""
    if src.stale_l1 or dst.stale_l1:
        return None
    ts, td = summaries[src.tid], summaries[dst.tid]
    for dep in td.deps_of(dst):
        if dep.stale_l1:
            continue
        flag = dep.key
        # The dependency's own load must be able to see the handshake:
        # an edge from the flag load into dst — a covering fence, or dst
        # being a write (ctrl deps order writes: the simulator cannot
        # retire a guarded store before its predicate resolves, and the
        # model's dp includes ctrl).
        if not (dst.writes
                or td.fence_between(dep.load_index, dst.index, rank,
                                    compatible_guards(dst))):
            continue
        if dep.admitted.admits(_initial_value(test, flag)):
            continue  # the guard can pass without any communication
        if _enabling_stores_fenced(test, summaries, src, dst, dep, flag,
                                   rank):
            return ("fenced handshake through %s (admitted %s) orders %s "
                    "before %s" % (_location_display(flag), dep.admitted,
                                   src.thread, dst.thread))
    return None


def _enabling_stores_fenced(test, summaries, src, dst, dep, flag, rank):
    """Every store that could make ``dep`` admit must be po-after a
    covering fence that is po-after ``src`` (or excluded/irrelevant)."""
    for summary in summaries:
        for store in summary.accesses:
            if not store.writes or store.key != flag:
                continue
            if (store.tid == dst.tid and store.index == dep.load_index):
                continue  # the dependency's own RMW
            possibly_admitted = (store.stored is None
                                 or dep.admitted.admits(store.stored))
            if not possibly_admitted:
                continue
            if store.tid == dst.tid:
                if store.index < dst.index:
                    return False  # could feed the guard locally
                continue  # po-after dst: cannot enable its own guard
            if store.tid != src.tid:
                return False  # a third thread could enable the guard
            guards = compatible_guards(src) | compatible_guards(store)
            if store.index <= src.index:
                return False
            if not summaries[src.tid].fence_between(src.index, store.index,
                                                    rank, guards):
                return False
    return True


def _lock_ordered(test, summaries, sync_locations, a, b, rank):
    """Try to prove mutual exclusion of ``a`` and ``b`` under a common
    all-atomic lock location; returns a reason string or ``None``."""
    if a.stale_l1 or b.stale_l1:
        return None
    for lock in sorted(sync_locations):
        if (_lock_protects(summaries[a.tid], a, lock, rank)
                and _lock_protects(summaries[b.tid], b, lock, rank)):
            return ("both accesses hold the %s lock (CAS/exchange "
                    "acquire with covering fences, atomic release)"
                    % _location_display(lock))
    return None


def _lock_protects(summary, access, lock, rank):
    """Acquire-fence-access-fence-release around ``access`` on ``lock``."""
    for dep in summary.deps_of(access):
        if dep.key != lock or not dep.atomic or dep.stale_l1:
            continue
        governing = summary.program.instructions[dep.load_index]
        stored = _stored_value(governing)
        if stored is None or not dep.admitted.excludes(stored):
            # The acquire RMW must have observed the lock *free* — its
            # own deposited value must not satisfy the admit set, else
            # this is no mutual exclusion (e.g. a bare atom.inc).
            continue
        guards = compatible_guards(access)
        if not (access.writes
                or summary.fence_between(dep.load_index, access.index, rank,
                                         guards)):
            continue
        for release in summary.accesses:
            if (release.index > access.index and release.key == lock
                    and release.atomic and release.writes
                    and summary.fence_between(
                        access.index, release.index, rank,
                        guards | compatible_guards(release))):
                return True
    return False


# -- the provably-racy rule -------------------------------------------------

def _can_publish(summary, access, rank):
    """Could anything order ``access`` before a later remote access?
    Any covering fence po-after it counts (even guarded — this rule
    only ever *blocks* a racy claim)."""
    return summary.any_fence_after(access.index, rank)


def _can_acquire(summary, access, rank):
    """Could anything order ``access`` after an earlier remote access?
    A covering fence po-before it; or, for writes, a control position
    (a guard, or sitting after a loop) or a data dependency — ctrl/data
    deps order writes after the loads they depend on."""
    if summary.any_fence_before(access.index, rank):
        return True
    if access.writes:
        if access.guard is not None:
            return True
        if any(tail < access.index for tail in summary.loop_tails):
            return True
        if access.index in summary.data_dep_stores:
            return True
    return False


# -- pair classification ----------------------------------------------------

def _classify_pair(test, summaries, sync_locations, a, b, rank):
    key = _location_display(a.key)
    if a.sync and b.sync:
        return PairFinding(key, a.describe(), b.describe(), SYNC,
                           "both sides are synchronisation accesses "
                           "(atomic/volatile)")
    reason = (_lock_ordered(test, summaries, sync_locations, a, b, rank)
              or _handshake(test, summaries, a, b, rank)
              or _handshake(test, summaries, b, a, rank))
    if reason:
        return PairFinding(key, a.describe(), b.describe(), ORDERED, reason)
    if a.atomic != b.atomic:
        plain = b if a.atomic else a
        if plain.writes:
            return PairFinding(
                key, a.describe(), b.describe(), RACY,
                "a plain store races an atomic on one location — PTX "
                "annuls atomic guarantees (Sec. 3.2.3)")
    forward = (_can_publish(summaries[a.tid], a, rank)
               and _can_acquire(summaries[b.tid], b, rank))
    backward = (_can_publish(summaries[b.tid], b, rank)
                and _can_acquire(summaries[a.tid], a, rank))
    if not forward and not backward:
        return PairFinding(
            key, a.describe(), b.describe(), RACY,
            "no covering fence or dependency can order these accesses "
            "in either direction")
    return PairFinding(key, a.describe(), b.describe(), UNKNOWN,
                       "a candidate ordering edge exists but none is "
                       "provable")


# -- guard diagnostics ------------------------------------------------------

def _guard_diagnostics(test, summaries, tree):
    diagnostics = []
    mixed_atomic = _mixed_atomic_locations(summaries)
    for summary in summaries:
        for point in summary.guard_points:
            flag = (point.location, point.offset)
            display = _location_display(flag)
            if flag in mixed_atomic:
                diagnostics.append(Diagnostic(
                    "annulled-atomic", point.thread, display,
                    "the guard's flag mixes plain stores with atomics; "
                    "PTX annuls atomic guarantees (Sec. 3.2.3)"))
            if point.admitted.admits(_initial_value(test, flag)):
                continue  # satisfiable without cross-thread data
            enabling = [store for other in summaries if other.tid != point.tid
                        for store in other.accesses
                        if store.writes and store.key == flag
                        and (store.stored is None
                             or point.admitted.admits(store.stored))]
            if not enabling:
                kind = ("spin-deadlock" if point.kind == "loop"
                        else "dead-guard")
                diagnostics.append(Diagnostic(
                    kind, point.thread, display,
                    "guard admits %s but no other thread ever stores an "
                    "admitted value (initially %d)"
                    % (point.admitted, _initial_value(test, flag))))
                continue
            if point.kind == "loop":
                same_warp = [store for store in enabling
                             if tree.same_warp(point.thread,
                                               summaries[store.tid].name)]
                if same_warp:
                    diagnostics.append(Diagnostic(
                        "warp-divergence", point.thread, display,
                        "spin loop waits on a same-warp writer (%s); SIMT "
                        "lockstep can starve it forever"
                        % summaries[same_warp[0].tid].name))
            ordered_writers = []
            for store in enabling:
                rank = _required_rank(tree, point.thread,
                                      summaries[store.tid].name)
                if summaries[store.tid].any_fence_before(store.index, rank):
                    ordered_writers.append(store)
            if not ordered_writers:
                diagnostics.append(Diagnostic(
                    "unordered-guard", point.thread, display,
                    "the %s body depends on cross-thread data but no "
                    "enabling store is behind a covering fence — stale "
                    "reads past the guard (the Fig. 7 shape)"
                    % ("loop exit" if point.kind == "loop" else "if")))
    return diagnostics


def _mixed_atomic_locations(summaries):
    atomic, plain_store = set(), set()
    for summary in summaries:
        for access in summary.accesses:
            if access.location is None:
                continue
            if access.atomic:
                atomic.add(access.key)
            elif access.writes:
                plain_store.add(access.key)
    return atomic & plain_store


# -- entry point ------------------------------------------------------------

def analyze_test(test):
    """Statically classify every conflicting pair of ``test``; returns
    an :class:`AnalysisReport` whose ``verdict`` is ``racy``,
    ``unknown`` or ``clean``."""
    summaries = summarize_test(test)
    tree = test.scope_tree

    by_location = {}
    unresolved = []
    for summary in summaries:
        for access in summary.accesses:
            if access.location is None:
                unresolved.append(access)
            else:
                by_location.setdefault(access.key, []).append(access)

    sync_locations = {key for key, accesses in by_location.items()
                      if all(access.atomic for access in accesses)}

    pairs = []
    volatile_sync = 0
    atomic_sync = set()
    for key in sorted(by_location):
        accesses = by_location[key]
        for i, a in enumerate(accesses):
            for b in accesses[i + 1:]:
                if a.tid == b.tid or not (a.writes or b.writes):
                    continue
                rank = _required_rank(tree, a.thread, b.thread)
                pair = _classify_pair(test, summaries, sync_locations,
                                      a, b, rank)
                if pair.verdict == SYNC:
                    if a.atomic and b.atomic:
                        atomic_sync.add(key)
                    else:
                        volatile_sync += 1
                pairs.append(pair)

    unresolved_notes = []
    for access in unresolved:
        if _may_conflict(summaries, access):
            unresolved_notes.append(
                "%s: computed address may alias any location"
                % access.describe())

    diagnostics = _guard_diagnostics(test, summaries, tree)

    if any(pair.verdict == RACY for pair in pairs):
        verdict = RACY
    elif unresolved_notes or any(pair.verdict == UNKNOWN for pair in pairs):
        verdict = UNKNOWN
    else:
        verdict = CLEAN
    return AnalysisReport(test_name=test.name, verdict=verdict, pairs=pairs,
                          diagnostics=diagnostics,
                          unresolved=unresolved_notes,
                          volatile_sync_pairs=volatile_sync,
                          atomic_sync_locations=frozenset(atomic_sync))


def _may_conflict(summaries, access):
    """Could a computed-address access conflict with anything?  Only a
    single-threaded test (or an all-readers counterpart set) rules a
    conflict out."""
    for summary in summaries:
        if summary.tid == access.tid:
            continue
        for other in summary.accesses:
            if access.writes or other.writes:
                return True
    return False
