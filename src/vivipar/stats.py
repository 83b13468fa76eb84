"""Per-worker solver counters and their derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class Stats:
    """Counters accumulated by one solver worker.

    ``propagations_vivify`` is the share of ``propagations_total`` spent
    inside clause vivification; the derived percentage is the headline
    overhead metric.  ``vivify_successes`` counts attempts that shortened or
    replaced a clause.
    """

    propagations_total: int = 0
    propagations_vivify: int = 0
    vivify_attempts: int = 0
    vivify_successes: int = 0
    literals_removed: int = 0
    clauses_learned: int = 0
    clauses_exported: int = 0
    clauses_imported: int = 0
    improvements_published: int = 0
    improvements_adopted: int = 0
    restarts: int = 0
    reductions: int = 0
    conflicts: int = 0
    buffer_overflows: int = 0

    @property
    def vivify_prop_pct(self):
        """Percentage of all propagations spent on vivification, in [0, 100]."""
        if self.propagations_total == 0:
            return 0.0
        return 100.0 * self.propagations_vivify / self.propagations_total

    @property
    def success_rate(self):
        """Fraction of vivification attempts that improved the clause, in [0, 1]."""
        if self.vivify_attempts == 0:
            return 0.0
        return self.vivify_successes / self.vivify_attempts

    def check(self):
        """Assert the cross-counter invariants."""
        assert 0 <= self.propagations_vivify <= self.propagations_total
        assert 0 <= self.vivify_successes <= self.vivify_attempts
        assert self.improvements_published <= self.vivify_successes
        assert 0.0 <= self.vivify_prop_pct <= 100.0
        assert 0.0 <= self.success_rate <= 1.0
        return True


# the counter names in declaration order: the stats CSV's column schema
COUNTERS = tuple(f.name for f in fields(Stats))


def merge_stats(stats_list):
    """Sum a list of per-worker Stats into one aggregate."""
    return Stats(*(sum(getattr(s, name) for s in stats_list) for name in COUNTERS))
