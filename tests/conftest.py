import itertools

import pytest

import vivipar.cdcl
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


def restart_schedule(patch, window, unit=None):
    """Shorten the restart schedule for small instances: set
    `cdcl.RESTART_WINDOW` to ``window`` and, when given, `cdcl.LUBY_UNIT`
    to ``unit``.  A test passes ``monkeypatch.setattr`` as ``patch``, which
    restores both after the test; a process pool passes ``setattr`` to its
    initializer, which sets them for each worker's lifetime."""
    patch(vivipar.cdcl, "RESTART_WINDOW", window)
    if unit is not None:
        patch(vivipar.cdcl, "LUBY_UNIT", unit)


def of_kind(events, kind):
    """The events of one kind, in order, from a list used as the recorder
    (``recorder=events.append``)."""
    return [e for e in events if e[0] == kind]


def watch_visit_engine(size, w):
    """Engine set up for one visit to the watch list of literal 1.

    Three learned clauses over 12 variables are attached in the order
    A = (1 10 11), C, B = (1 9), so the list is [A, C, B].  C has ``size``
    literals: 1 at watch position ``w``, 2 at the other watch position, then
    3, 4, ... in order.  Nothing is assigned.  Returns the engine and the
    clauses by name."""
    c_lits = [1, 2] if w == 0 else [2, 1]
    c_lits += range(3, size + 1)
    eng = Engine(mk_formula(12, []))
    named = {}
    for name, lits in [("A", [1, 10, 11]), ("C", c_lits), ("B", [1, 9])]:
        eng._cid += 1
        c = Clause(list(lits), lbd=2, learned=True, cid=eng._cid)
        eng.learned_db.append(c)
        eng._attach(c)
        named[name] = c
    return eng, named


# One visit of the propagation kernel to clause C, watched on 1 and 2, when 1
# is falsified (see `watch_visit_engine`: literal 1's list is [A, C, B], with
# A = (1 10 11) and B = (1 9)).  9 is made true first, then each row's
# "before" literals, each assumed and propagated; the "visit" literals are
# assumed together and propagated once.  Rows pin, after the visit, C's
# literals, the watch lists other than A's (10 and 11) and B's 9, the trail,
# the reasons and the conflict.  Every outcome, for C of 2 to 5 literals:
# other watch true, replacement at position 2, at position 3 or later,
# unit, conflict.
WATCH_VISITS = {
    # id: (size, before, visit, C's literals, lists 1-5, trail, reasons, conflict)
    "2-true": (2, [2], [-1], [2, 1], {1: "CB", 2: "C"}, [9, 2, -1], {}, None),
    "2-unit": (2, [], [-1], [2, 1], {1: "CB", 2: "C"}, [9, -1, 2], {2: "C"}, None),
    "2-conflict": (2, [], [-1, -2], [2, 1], {1: "CB", 2: "C"}, [9, -1, -2], {}, "C"),
    "3-true": (3, [2], [-1], [2, 1, 3], {1: "CB", 2: "C"}, [9, 2, -1], {}, None),
    "3-pos2": (3, [], [-1], [2, 3, 1], {1: "B", 2: "C", 3: "C"}, [9, -1], {}, None),
    "3-unit": (3, [-3], [-1], [2, 1, 3], {1: "CB", 2: "C"}, [9, -3, -1, 2], {2: "C"},
               None),
    "3-conflict": (3, [-3], [-1, -2], [2, 1, 3], {1: "CB", 2: "C"}, [9, -3, -1, -2],
                   {}, "C"),
    "4-true": (4, [2], [-1], [2, 1, 3, 4], {1: "CB", 2: "C"}, [9, 2, -1], {}, None),
    "4-pos2": (4, [], [-1], [2, 3, 1, 4], {1: "B", 2: "C", 3: "C"}, [9, -1], {}, None),
    "4-pos3": (4, [-3], [-1], [2, 4, 3, 1], {1: "B", 2: "C", 4: "C"}, [9, -3, -1], {},
               None),
    "4-unit": (4, [-3, -4], [-1], [2, 1, 3, 4], {1: "CB", 2: "C"}, [9, -3, -4, -1, 2],
               {2: "C"}, None),
    "4-conflict": (4, [-3, -4], [-1, -2], [2, 1, 3, 4], {1: "CB", 2: "C"},
                   [9, -3, -4, -1, -2], {}, "C"),
    "5-true": (5, [2], [-1], [2, 1, 3, 4, 5], {1: "CB", 2: "C"}, [9, 2, -1], {}, None),
    "5-pos2": (5, [], [-1], [2, 3, 1, 4, 5], {1: "B", 2: "C", 3: "C"}, [9, -1], {},
               None),
    "5-pos4": (5, [-3, -4], [-1], [2, 5, 3, 4, 1], {1: "B", 2: "C", 5: "C"},
               [9, -3, -4, -1], {}, None),
    "5-unit": (5, [-3, -4, -5], [-1], [2, 1, 3, 4, 5], {1: "CB", 2: "C"},
               [9, -3, -4, -5, -1, 2], {2: "C"}, None),
    "5-conflict": (5, [-3, -4, -5], [-1, -2], [2, 1, 3, 4, 5], {1: "CB", 2: "C"},
                   [9, -3, -4, -5, -1, -2], {}, "C"),
}


def visit_and_check(eng, named, case):
    """Make the `WATCH_VISITS` row ``case`` on an engine from
    `watch_visit_engine` and check what it pins.  Returns the conflict."""
    _, before, visit, lits, lists, trail, reasons, conflict = WATCH_VISITS[case]
    for lit in [9, *before]:
        eng.assume(lit)
        assert eng.propagate() is None
    for lit in visit:
        eng.assume(lit)
    confl = eng.propagate()
    name_of = {c.cid: name for name, c in named.items()}
    assert (name_of[confl.cid] if confl else None) == conflict
    # the falsified watch always ends at position 1, whichever it started at
    assert named["C"].lits == lits
    assert named["A"].lits == [10, 11, 1]  # A moves out first, at position 2
    # B, after C, is not visited once C conflicts
    assert named["B"].lits == ([1, 9] if conflict else [9, 1])
    assert lists_by_literal(eng, named) == {**lists, 9: "B", 10: "A", 11: "A"}
    assert eng.trail == trail
    assert {v: name_of[r.cid] for v, r in enumerate(eng.reason) if r} == reasons
    if conflict is None:
        assert eng.qhead == len(eng.trail)
    return confl


def lists_by_literal(eng, named):
    """{literal: clause names in list order} for the non-empty watch lists."""
    name_of = {c.cid: name for name, c in named.items()}
    return {i - eng.num_vars: "".join(name_of[c.cid] for c in wl)
            for i, wl in enumerate(eng.watches) if wl}


def fingerprint(eng):
    """What a vivification probe must leave as it found it: the assignment,
    the heuristics, and every clause's literal set, LBD and activity.  The
    order of the watch lists and of the literals inside clauses is left out:
    the probe's propagation may change it, as any backtrack may."""
    return (list(eng.trail), list(eng.litval),
            [r if r is None else r.cid for r in eng.reason], eng.qhead,
            list(eng.activity), list(eng.saved_phase), eng.var_inc, eng.cla_inc,
            {c.cid: (sorted(c.lits), c.lbd, c.activity)
             for c in eng.originals + eng.learned_db})


def check_probe(eng, clause, before):
    """The probe contract, after vivifying ``clause`` from the `fingerprint`
    ``before``: the fingerprint is unchanged, the probed clause is back on
    the watch lists of its positions 0 and 1, and `check_watches` passes."""
    assert fingerprint(eng) == before, "vivification probe left a trace"
    n = eng.num_vars
    for l in clause.lits[:2]:
        assert clause in eng.watches[l + n], \
            "vivification probe left a trace: probed clause off its watch list"
    eng.check_watches()


@pytest.fixture
def engine_checks(monkeypatch):
    """Every Engine in the test runs the per-conflict invariant checks: the
    learned clause is falsified after analysis (in probes too), analysis
    leaves no variable marked in ``seen``, the learned clause is
    asserting when `_learn` stores it (every literal but the first is false,
    the first unassigned), every clause `_learn` or `_admit` makes passes
    `check_meta`, and every clause `_admit` makes watches its positions 0 and
    1, both unassigned.  Every vivification probe a `Strategy` makes keeps
    the probe contract of `check_probe` and spends at most one propagation
    per variable unassigned at level 0.  `Strategy.on_level_zero` leaves a
    non-terminal engine with no pending propagation and an empty inbound
    buffer, which is why it drains the buffer once."""
    analyze, learn, admit = Engine.analyze_conflict, Engine._learn, Engine._admit
    vivify_clause = vivipar.strategy.vivify_clause
    on_level_zero = vivipar.strategy.Strategy.on_level_zero

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
        props = engine.stats.propagations_total
        out = vivify_clause(engine, clause)
        check_probe(engine, clause, before)
        assert (engine.stats.propagations_total - props
                <= engine.num_vars - len(engine.trail)), \
            "probe spent more propagations than unassigned variables"
        return out

    def checked_on_level_zero(self):
        on_level_zero(self)
        eng = self.engine
        if eng._terminal is None:
            assert eng.qhead == len(eng.trail), \
                "level-0 hook left a propagation pending"
            assert self.pool.pending(eng.worker_id) == 0, \
                "level-0 hook left records in the inbound buffer"

    monkeypatch.setattr(Engine, "analyze_conflict", analyze_conflict)
    monkeypatch.setattr(Engine, "_learn", _learn)
    monkeypatch.setattr(Engine, "_admit", _admit)
    monkeypatch.setattr(vivipar.strategy, "vivify_clause", checked_vivify_clause)
    monkeypatch.setattr(vivipar.strategy.Strategy, "on_level_zero",
                        checked_on_level_zero)
