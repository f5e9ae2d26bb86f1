"""Outcome histograms: what the litmus tool prints after 100k runs.

:class:`Histogram` is also the one result type of every campaign
backend.  An oracle with more to say than final-state counts returns a
subclass with typed fields (declared as dataclass fields), overriding
:meth:`Histogram.merge` for them; :meth:`~Histogram.copy` and the JSON
codec (:meth:`~Histogram.to_json` / :meth:`~Histogram.from_json`) carry
every declared field without further code.
"""

from dataclasses import dataclass, field, fields, replace

from ..litmus.condition import FinalState


@dataclass
class Histogram:
    """A multiset of final states observed over many runs."""

    counts: dict = field(default_factory=dict)

    def add(self, state, count=1):
        self.counts[state] = self.counts.get(state, 0) + count

    @property
    def total(self):
        return sum(self.counts.values())

    def __len__(self):
        return len(self.counts)

    def __iter__(self):
        return iter(sorted(self.counts.items(), key=lambda kv: -kv[1]))

    def observations(self, condition):
        """How many runs satisfied the final condition's expression."""
        return sum(count for state, count in self.counts.items()
                   if condition.holds(state))

    def witnesses(self, condition):
        """The distinct final states satisfying the condition."""
        return [state for state in self.counts if condition.holds(state)]

    def per_100k(self, condition):
        """Observation count normalised to the paper's 100k executions."""
        if self.total == 0:
            return 0.0
        return self.observations(condition) * 100000.0 / self.total

    def merged(self, other):
        return type(self).merge([self, other])

    @classmethod
    def merge(cls, histograms):
        """Merge any iterable of histograms into a new one.

        Counts add per state; merging is commutative and associative,
        which is what lets the session's sharded runs recombine into the
        same histogram regardless of completion order.
        """
        result = cls()
        for histogram in histograms:
            for state, count in histogram.counts.items():
                result.add(state, count)
        return result

    def copy(self):
        """An independent copy, typed fields included."""
        return replace(self, counts=dict(self.counts))

    def to_json(self):
        """A JSON-ready dict: the states as ``{regs, mem, count}``
        records (sorted, so equal histograms encode identically) plus
        every typed field of a subclass."""
        payload = {name: getattr(self, name) for name in self._fields()}
        payload["states"] = [
            {"regs": [[tid, reg, value] for (tid, reg), value in state.regs],
             "mem": [[loc, value] for loc, value in state.mem],
             "count": count}
            for state, count in sorted(self.counts.items(),
                                       key=lambda kv: str(kv[0]))]
        return payload

    @classmethod
    def from_json(cls, payload):
        """Inverse of :meth:`to_json`; raises ``KeyError``/``TypeError``/
        ``ValueError`` on a malformed payload."""
        histogram = cls(**{name: payload[name] for name in cls._fields()})
        for record in payload["states"]:
            regs = {(tid, reg): value for tid, reg, value in record["regs"]}
            mem = {loc: value for loc, value in record["mem"]}
            histogram.add(FinalState.make(regs, mem), record["count"])
        return histogram

    @classmethod
    def _fields(cls):
        """The typed fields a subclass adds to the state counts."""
        return [item.name for item in fields(cls) if item.name != "counts"]

    def header(self):
        """The first line of :meth:`pretty`."""
        return "Histogram (%d states, %d runs)" % (len(self), self.total)

    def pretty(self, condition=None):
        lines = [self.header()]
        for state, count in self:
            marker = ""
            if condition is not None and condition.holds(state):
                marker = "  *witness*"
            lines.append("%8d : %s%s" % (count, state, marker))
        if condition is not None:
            lines.append("Observation %d/%d for %s"
                         % (self.observations(condition), self.total, condition))
        return "\n".join(lines)
