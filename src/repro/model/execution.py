"""Candidate executions: events plus the relations of Sec. 5.1.1.

A candidate execution fixes, for one control-flow unwinding of a litmus
test, the program order ``po``, the communication relations ``rf`` and
``co``, the dependency relations ``addr``/``data``/``ctrl``, the fence
relations ``membar.{cta,gl,sys}`` and the scope relations
``cta``/``gl``/``sys``.  Axiomatic models (Sec. 5.2) then partition
candidate executions into allowed and forbidden.
"""

from ..errors import CatEvalError
from .events import FENCE, READ, WRITE
from .relation import Relation


class CandidateExecution:
    """One candidate execution of a litmus test.

    ``rf`` pairs run write → read; ``co`` is the per-location total
    coherence order (init writes first); ``final_state`` is the
    :class:`~repro.litmus.condition.FinalState` this execution produces.
    """

    def __init__(self, events, po, rf, co, addr, data, ctrl, rmw,
                 same_cta, final_state, test_name=""):
        self.events = tuple(events)
        self.po = po
        self.rf = rf
        self.co = co
        self.addr = addr
        self.data = data
        self.ctrl = ctrl
        self.rmw = rmw
        self._same_cta = same_cta  # callable: (tid, tid) -> bool
        self.final_state = final_state
        self.test_name = test_name
        self._cache = {}

    # -- event sets ---------------------------------------------------------

    @property
    def reads(self):
        return [e for e in self.events if e.kind == READ]

    @property
    def writes(self):
        return [e for e in self.events if e.kind == WRITE]

    @property
    def fences(self):
        return [e for e in self.events if e.kind == FENCE]

    @property
    def accesses(self):
        return [e for e in self.events if e.is_access]

    # -- derived relations ----------------------------------------------------

    def _cached(self, name, build):
        if name not in self._cache:
            self._cache[name] = build()
        return self._cache[name]

    def relation(self, name):
        """Resolve a primitive relation by its .cat name."""
        builders = {
            "po": lambda: self.po,
            "po-loc": self._po_loc,
            "rf": lambda: self.rf,
            "rfe": lambda: self._external(self.rf),
            "rfi": lambda: self._internal(self.rf),
            "co": lambda: self.co,
            "ws": lambda: self.co,
            "coe": lambda: self._external(self.co),
            "coi": lambda: self._internal(self.co),
            "fr": self._fr,
            "fre": lambda: self._external(self._fr()),
            "fri": lambda: self._internal(self._fr()),
            "com": lambda: self.rf | self.co | self._fr(),
            "addr": lambda: self.addr,
            "data": lambda: self.data,
            "ctrl": lambda: self.ctrl,
            "dp": lambda: self.addr | self.data | self.ctrl,
            "rmw": lambda: self.rmw,
            "membar.cta": lambda: self._fence_relation("cta"),
            "membar.gl": lambda: self._fence_relation("gl"),
            "membar.sys": lambda: self._fence_relation("sys"),
            "cta": lambda: self._scope_relation("cta"),
            "gl": lambda: self._scope_relation("gl"),
            "sys": lambda: self._scope_relation("sys"),
            "loc": self._same_loc,
            "int": lambda: self._internal(self._all_pairs()),
            "ext": lambda: self._external(self._all_pairs()),
            "id": lambda: Relation((e, e) for e in self.events),
            "0": Relation.empty,
        }
        if name not in builders:
            raise CatEvalError("unknown primitive relation %r" % name)
        return self._cached(name, builders[name])

    def _fr(self):
        def build():
            return (~self.rf >> self.co).filter(lambda a, b: a is not b)
        return self._cached("_fr", build)

    def _po_loc(self):
        return self.po.filter(
            lambda a, b: a.is_access and b.is_access and a.loc == b.loc)

    def _same_loc(self):
        return Relation(
            (a, b)
            for a in self.accesses for b in self.accesses
            if a is not b and a.loc == b.loc)

    def _all_pairs(self):
        return Relation((a, b) for a in self.events for b in self.events
                        if a is not b)

    @staticmethod
    def _internal(relation):
        return relation.filter(lambda a, b: a.tid == b.tid)

    @staticmethod
    def _external(relation):
        return relation.filter(lambda a, b: a.tid != b.tid)

    def _fence_relation(self, scope):
        """Pairs of accesses separated in po by a fence of exactly ``scope``."""
        fences = [f for f in self.fences if f.scope == scope]
        pairs = set()
        for fence in fences:
            before = [a for a in self.po.predecessors(fence) if a.is_access]
            after = [b for b in self.po.successors(fence) if b.is_access]
            pairs.update((a, b) for a in before for b in after)
        return Relation(pairs)

    def _scope_relation(self, scope):
        """Pairs of events whose threads share the given scope level.

        Init writes belong to every scope.  ``sys`` is the universal
        relation (Sec. 5.1.1).
        """
        def related(a, b):
            if a is b:
                return False
            if scope == "sys":
                return True
            if a.tid == -1 or b.tid == -1 or a.tid == b.tid:
                return True
            if scope == "gl":
                return True  # single-GPU tests: all threads share the grid
            return self._same_cta(a.tid, b.tid)

        return Relation((a, b) for a in self.events for b in self.events
                        if related(a, b))

    # -- reporting --------------------------------------------------------------

    def pretty(self):
        """Readable dump in the spirit of Fig. 14."""
        lines = ["execution of %s:" % (self.test_name or "<test>")]
        for event in sorted(self.events, key=lambda e: (e.tid, e.po_index)):
            lines.append("  " + event.pretty())
        for title, rel in (("rf", self.rf), ("co", self.co)):
            for a, b in sorted(rel, key=lambda p: (p[0].eid, p[1].eid)):
                lines.append("  %s: %s -> %s" % (title, a.pretty(), b.pretty()))
        lines.append("  final: %s" % self.final_state)
        return "\n".join(lines)

    def __repr__(self):
        return "CandidateExecution(%s, %d events, final=%s)" % (
            self.test_name, len(self.events), self.final_state)
