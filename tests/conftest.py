import itertools

import pytest

import vivipar.strategy
from vivipar.cdcl import Engine
from vivipar.formula import Clause, Formula, check_meta, normalize_clause


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


def watch_visit_engine(size, w, probed=False):
    """Engine set up for one visit to the watch list of literal 1.

    Three learned clauses over 12 variables are attached in the order
    A = (1 10 11), C, B = (1 9), so the list is [A, C, B]; ``probed`` appends
    P = (1 12) to it.  C has ``size`` literals: 1 at watch position ``w``,
    2 at the other watch position, then 3, 4, ... in order.  Nothing is
    assigned.  Returns the engine and the clauses by name."""
    c_lits = [1, 2] if w == 0 else [2, 1]
    c_lits += range(3, size + 1)
    clauses = [("A", [1, 10, 11]), ("C", c_lits), ("B", [1, 9])]
    if probed:
        clauses.append(("P", [1, 12]))
    eng = Engine(mk_formula(12, []))
    named = {}
    for name, lits in clauses:
        eng._cid += 1
        c = Clause(list(lits), lbd=2, learned=True, cid=eng._cid)
        eng.learned_db.append(c)
        eng._attach(c)
        named[name] = c
    return eng, named


def lists_by_literal(eng, lists, named):
    """{literal: clause names in list order} for the non-empty lists among
    ``lists``, (watch-list index, clauses) pairs."""
    name_of = {c.cid: name for name, c in named.items()}
    return {i - eng.num_vars: "".join(name_of[c.cid] for c in wl)
            for i, wl in lists if wl}


def fingerprint(eng):
    """Everything a vivification probe must leave as it found it: the
    assignment, the heuristics, every watch list in order (as cids) and
    every clause's literal list, LBD and activity."""
    return (list(eng.trail), list(eng.litval),
            [r if r is None else r.cid for r in eng.reason], eng.qhead,
            list(eng.activity), list(eng.saved_phase), eng.var_inc, eng.cla_inc,
            [[c.cid for c in wl] for wl in eng.watches],
            {c.cid: (list(c.lits), c.lbd, c.activity)
             for c in eng.originals + eng.learned_db})


@pytest.fixture
def engine_checks(monkeypatch):
    """Every Engine in the test runs the per-conflict invariant checks: the
    learned clause is falsified after analysis (in probes too), analysis
    leaves no variable marked in ``seen``, the learned clause is
    asserting when `_learn` stores it (every literal but the first is false,
    the first unassigned), every clause `_learn` or `_admit` makes passes
    `check_meta`, and every clause `_admit` makes watches its positions 0 and
    1, both unassigned.  Every vivification probe a `Strategy` makes leaves the
    engine's `fingerprint` as it found it."""
    analyze, learn, admit = Engine.analyze_conflict, Engine._learn, Engine._admit
    vivify_clause = vivipar.strategy.vivify_clause

    def analyze_conflict(self, confl, bump=True):
        out = analyze(self, confl, bump)
        assert all(self.value(l) == -1 for l in out[0]), \
            "learned clause not falsified at the conflict level"
        assert not any(self.seen), "analysis left a variable marked"
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
            n = self.num_vars
            for l in c.lits[:2]:
                assert self.value(l) == 0, "admitted clause watches an assigned literal"
                assert c in self.watches[l + n], "admitted clause not on its watch list"
        return c

    def checked_vivify_clause(engine, clause):
        before = fingerprint(engine)
        out = vivify_clause(engine, clause)
        assert fingerprint(engine) == before, "vivification probe left a trace"
        return out

    monkeypatch.setattr(Engine, "analyze_conflict", analyze_conflict)
    monkeypatch.setattr(Engine, "_learn", _learn)
    monkeypatch.setattr(Engine, "_admit", _admit)
    monkeypatch.setattr(vivipar.strategy, "vivify_clause", checked_vivify_clause)
