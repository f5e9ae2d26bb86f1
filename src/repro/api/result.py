"""Result types of the campaign API: :class:`SpecResult` and
:class:`CampaignResult`.

``SpecResult`` is the unified per-cell outcome shared by every backend:
a histogram (or the backend's typed subclass of one) plus the spec that
produced it.  For the sim backend the
histogram counts observed final states over the spec's iterations; for
a model backend it holds the allowed final states (count 1 each), so
``observations``/``allowed`` give the paper's Allowed/Forbidden verdict.

``CampaignResult`` aggregates the cells of one campaign into the
paper's grid — per-test and per-chip views plus the figure-style
summary tables of obs/100k counts.
"""

from dataclasses import dataclass, field

from .._util import format_table


@dataclass
class SpecResult:
    """Outcome of one :class:`~repro.api.spec.RunSpec` on one backend."""

    spec: object                   #: the RunSpec that produced this result
    backend: str                   #: name of the backend that ran it
    #: The backend's result: a Histogram of final states, or the typed
    #: subclass named by the backend's ``result_type``.
    histogram: object
    cached: bool = False           #: satisfied from the result cache?

    # -- spec delegation --------------------------------------------------

    @property
    def test(self):
        return self.spec.test

    @property
    def chip(self):
        return self.spec.chip

    @property
    def incantations(self):
        return self.spec.incantations

    @property
    def iterations(self):
        return self.spec.iterations

    # -- verdicts ---------------------------------------------------------

    @property
    def observations(self):
        return self.histogram.observations(self.test.condition)

    @property
    def per_100k(self):
        return self.histogram.per_100k(self.test.condition)

    @property
    def observed_weak(self):
        return self.observations > 0

    @property
    def allowed(self):
        """Model-backend reading: does the backend allow the condition?"""
        return self.observations > 0

    def summary(self):
        return ("%s on %s [%s] via %s: %d/%d weak (%.0f per 100k)%s"
                % (self.test.name, self.chip.short, self.incantations,
                   self.backend, self.observations, self.histogram.total,
                   self.per_100k, " [cached]" if self.cached else ""))


@dataclass
class CampaignResult:
    """The grid of one campaign: ``(test name, chip short) -> SpecResult``."""

    results: dict = field(default_factory=dict)

    def add(self, result):
        self.results[result.spec.key] = result

    def get(self, test_name, chip_short):
        return self.results[(test_name, chip_short)]

    def __len__(self):
        return len(self.results)

    def __iter__(self):
        return iter(self.results.values())

    def __contains__(self, key):
        return key in self.results

    @property
    def tests(self):
        """Test names in first-seen campaign order."""
        return list(dict.fromkeys(name for name, _ in self.results))

    @property
    def chips(self):
        """Chip short names in first-seen campaign order."""
        return list(dict.fromkeys(short for _, short in self.results))

    def by_test(self, test_name):
        """``{chip short: SpecResult}`` for one test."""
        return {short: result for (name, short), result in self.results.items()
                if name == test_name}

    def by_chip(self, chip_short):
        """``{test name: SpecResult}`` for one chip."""
        return {name: result for (name, short), result in self.results.items()
                if short == chip_short}

    def weak_cells(self):
        """The ``(test name, chip short)`` cells with observed weakness."""
        return [key for key, result in self.results.items()
                if result.observed_weak]

    @property
    def total_iterations(self):
        return sum(result.iterations for result in self)

    @property
    def cached_cells(self):
        return sum(1 for result in self if result.cached)

    def summary_table(self, paper=None):
        """Paper-style obs/100k table: one row per test, one column per
        chip (the bottom-of-figure tables of Figs. 1-11).  ``paper``
        optionally maps ``(test name, chip short)`` to published counts,
        rendered alongside."""
        headers = ["obs/100k"] + self.chips
        rows = []
        for name in self.tests:
            per_chip = self.by_test(name)
            row = [name]
            for short in self.chips:
                result = per_chip.get(short)
                if result is None:
                    row.append("n/a")
                    continue
                cell = "%.0f" % result.per_100k
                if paper is not None and (name, short) in paper:
                    cell += " (paper %s)" % paper[(name, short)]
                row.append(cell)
            rows.append(row)
        return format_table(headers, rows)

    def summary(self):
        weak = self.weak_cells()
        return ("campaign: %d cells (%d tests x %d chips), %d weak, "
                "%d cached, %d iterations"
                % (len(self), len(self.tests), len(self.chips), len(weak),
                   self.cached_cells, self.total_iterations))
