import itertools

import pytest

from vivipar.cdcl import Engine
from vivipar.formula import Formula, check_meta, normalize_clause


def mk_formula(num_vars, clauses):
    """Formula from raw literal lists (normalized)."""
    normed = []
    for c in clauses:
        n = normalize_clause(c)
        if n is not None and n != ():
            normed.append(n)
    return Formula(num_vars=num_vars, clauses=tuple(normed))


def php(pigeons, holes):
    """Pigeonhole formula PHP(p, h): UNSAT iff p > h.

    Variable (i, j) -> pigeon i sits in hole j, numbered i*holes + j + 1.
    """
    def v(i, j):
        return i * holes + j + 1

    clauses = [[v(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i1, i2 in itertools.combinations(range(pigeons), 2):
            clauses.append([-v(i1, j), -v(i2, j)])
    return mk_formula(pigeons * holes, clauses)


def of_kind(events, kind):
    """The events of one kind, in order, from a list used as the recorder
    (``recorder=events.append``)."""
    return [e for e in events if e[0] == kind]


@pytest.fixture
def engine_checks(monkeypatch):
    """Every Engine in the test runs the per-conflict invariant checks: the
    learned clause is falsified after analysis (in probes too), it is
    asserting when `_learn` stores it (every literal but the first is false,
    the first unassigned), and every clause `_learn` or `_admit` makes passes
    `check_meta`."""
    analyze, learn, admit = Engine.analyze_conflict, Engine._learn, Engine._admit

    def analyze_conflict(self, confl, bump=True):
        out = analyze(self, confl, bump)
        assert all(self.value(l) == -1 for l in out[0]), \
            "learned clause not falsified at the conflict level"
        return out

    def _learn(self, lits, lbd):
        assert all(self.value(l) == -1 for l in lits[1:]), "learned clause not asserting"
        assert self.value(lits[0]) == 0, "asserting literal already assigned"
        c = learn(self, lits, lbd)
        check_meta(c)
        return c

    def _admit(self, lits, lbd, imported=False):
        c = admit(self, lits, lbd, imported)
        if c is not None:
            check_meta(c)
        return c

    monkeypatch.setattr(Engine, "analyze_conflict", analyze_conflict)
    monkeypatch.setattr(Engine, "_learn", _learn)
    monkeypatch.setattr(Engine, "_admit", _admit)
