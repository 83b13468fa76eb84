import random

import pytest

from vivipar import vivify
from vivipar.cdcl import Engine, EngineConfig
from vivipar.formula import Clause
from vivipar.harness import gen_random_3sat
from vivipar.oracle import implied
from vivipar.strategy import PCM, Strategy
from vivipar.vivify import (CONFLICT_REPLACED, SHORTENED, UNCHANGED,
                            VivifyOutcome, apply_outcome, satisfied_at_root,
                            select_candidates, vivify_clause)

from conftest import mk_formula, of_kind


def engine_with_clause(f_clauses, num_vars, clause_lits, **cfg):
    """Engine over the formula plus one learned clause in the given order."""
    eng = Engine(mk_formula(num_vars, f_clauses), EngineConfig(**cfg))
    assert eng.propagate() is None
    eng._cid += 1
    c = Clause(list(clause_lits), lbd=min(2, len(clause_lits)), learned=True,
               cid=eng._cid)
    eng.learned_db.append(c)
    eng._attach(c)
    return eng, c


def fingerprint(eng):
    """Everything vivify_clause must leave untouched."""
    watches = {i: sorted(c.cid for c in wl) for i, wl in enumerate(eng.watches) if wl}
    watches1 = {i: sorted(c.cid for c in wl)
                for i, wl in enumerate(eng.watches_one) if wl}
    positions = {c.cid: (c.lits[0], c.lits[1])
                 for c in eng.originals + eng.learned_db
                 if not c.removed and len(c.lits) >= 2 and not c.one_watched}
    return (list(eng.trail), list(eng.activity), list(eng.saved_phase),
            eng.var_inc, eng.cla_inc, watches, watches1, positions)


# ------------------------------------------------------------ spec examples

def test_vivify_drops_propagated_false_literal():
    # F={(-a v b)}, C=(b v c v a): assuming -b forces -a, so a is removed
    eng, c = engine_with_clause([[-1, 2]], 3, [2, 3, 1])
    out = vivify_clause(eng, c)
    assert out.kind == SHORTENED
    assert out.new_lits == (2, 3)
    assert implied(3, [(-1, 2), (2, 3, 1)], out.new_lits)
    assert c.vivify_attempted
    assert eng.decision_level == 0 and eng.trail == []


def test_vivify_stops_at_true_literal():
    # F={(a v b)}, C=(a v b v c): assuming -a forces b true; c is dropped
    eng, c = engine_with_clause([[1, 2]], 3, [1, 2, 3])
    out = vivify_clause(eng, c)
    assert out.kind == SHORTENED
    assert out.new_lits == (1, 2)
    assert implied(3, [(1, 2), (1, 2, 3)], out.new_lits)


def test_vivify_nothing_to_propagate():
    eng, c = engine_with_clause([], 3, [1, 2, 3])
    out = vivify_clause(eng, c)
    assert out.kind == UNCHANGED
    assert out.new_lits is None


def test_vivify_conflict_replacement():
    # F={(a v b), (a v -b)}, C=(a v c): assuming -a conflicts; analysis gives (a)
    eng, c = engine_with_clause([[1, 2], [1, -2]], 3, [1, 3])
    out = vivify_clause(eng, c)
    assert out.kind == CONFLICT_REPLACED
    assert out.new_lits == (1,)
    assert implied(3, [(1, 2), (1, -2), (1, 3)], out.new_lits)


# ------------------------------------------------------------ rollback order
#
# Watch-list order decides the order of later propagation, so it is part of
# the deterministic behaviour.  The rollback contract (see vivify.py) fixes
# it: each list keeps the residents that stayed, in their original order,
# followed by the residents that moved out, in reverse order.


def engine_with_lists(num_vars, two_watched, one_watched=()):
    """Engine over an empty formula plus learned clauses with exact literal
    order, attached in the given order.  ``one_watched`` holds
    (lits, watched position) pairs put on the one-watch standby."""
    eng = Engine(mk_formula(num_vars, []), EngineConfig())
    added = []
    for lits in two_watched:
        eng._cid += 1
        c = Clause(list(lits), lbd=2, learned=True, cid=eng._cid)
        eng.learned_db.append(c)
        eng._attach(c)
        added.append(c)
    for lits, pos in one_watched:
        eng._cid += 1
        c = Clause(list(lits), lbd=2, learned=True, imported=True, cid=eng._cid)
        eng.learned_db.append(c)
        eng._attach_one(c, lits[pos])
        added.append(c)
    return eng, added


def watch_orders(eng):
    """Non-empty watch lists as {literal: [cid, ...]} in list order."""
    n = eng.num_vars
    two = {i - n: [c.cid for c in wl] for i, wl in enumerate(eng.watches) if wl}
    one = {i - n: [c.cid for c in wl] for i, wl in enumerate(eng.watches_one) if wl}
    return two, one


def probe_and_check(eng, clause, kind):
    """Vivify ``clause`` and check that the probe left no trace beyond the
    documented list order; returns the post-probe watch orders."""
    before = fingerprint(eng)
    lits_before = {c.cid: list(c.lits) for c in eng.learned_db}
    out = vivify_clause(eng, clause)
    assert out.kind == kind
    assert fingerprint(eng) == before
    assert {c.cid: list(c.lits) for c in eng.learned_db} == lits_before
    eng.check_watches()
    return watch_orders(eng)


def test_rollback_clause_moved_twice_into_falsified_list():
    # probe (-1, -2, -3): #1 leaves list 1 for list 6; -2 forces -6 through
    # #2, and #1 moves on from list 6 to list 7 (with #7 and #8 leaving too)
    eng, cl = engine_with_lists(20, [
        [1, 5, 6, 7], [2, -6], [1, 8], [1, 9, 10], [9, 1, 11],
        [6, 12], [6, 13, 14], [13, 6, 15], [1, 2, 3]])
    two, one = probe_and_check(eng, cl[-1], UNCHANGED)
    assert two == {-6: [2], 1: [3, 5, 4, 1, 9], 2: [2, 9], 5: [1],
                   6: [6, 8, 7], 8: [3], 9: [4, 5], 12: [6], 13: [7, 8]}
    assert one == {}


def test_rollback_conflict_mid_watch_list():
    # probe (-1): #1 forces -22, #2 moves to list 21 (a list the probe never
    # falsifies), #3 conflicts; #4 and #5 are never visited
    eng, cl = engine_with_lists(30, [
        [1, -22], [1, 20, 21], [1, 22], [1, 23, 24], [25, 1], [21, 26],
        [1, 3, 4]])
    two, one = probe_and_check(eng, cl[-1], CONFLICT_REPLACED)
    assert two == {-22: [1], 1: [1, 3, 4, 5, 2, 7], 3: [7], 20: [2],
                   21: [6], 22: [3], 23: [4], 25: [5], 26: [6]}
    assert one == {}


def test_rollback_one_watch_relocation():
    # probe (-1, -30, -36): #2, #3, #5 leave standby list 1; #2 lands on
    # list 30, which -30 then empties (#4 and #2 both move on)
    eng, cl = engine_with_lists(40, [[1, 30, 36]], [
        ([1, 30, 31], 0), ([32, 1, 33], 1), ([30, 35], 0), ([1, 37], 0)])
    two, one = probe_and_check(eng, cl[0], UNCHANGED)
    assert two == {1: [1], 30: [1]}
    assert one == {1: [5, 3, 2], 30: [4]}


def test_rollback_one_watch_conflict_keeps_scanning():
    # probe (-2, -1): on standby list 1, #4 conflicts between #3 and #5,
    # both of which still move (#3 onto list 40, which keeps its resident)
    eng, cl = engine_with_lists(45, [[2, -22], [2, 1, 3]], [
        ([1, 40, 41], 0), ([1, 22], 0), ([1, 42], 0), ([40, 43], 0)])
    two, one = probe_and_check(eng, cl[1], CONFLICT_REPLACED)
    assert two == {-22: [1], 1: [2], 2: [1, 2]}
    assert one == {1: [4, 5, 3], 40: [6]}


# ------------------------------------------------------------ selection

def mk_db(lbds, activities=None):
    acts = activities or [0.0] * len(lbds)
    db = []
    for i, (lbd, act) in enumerate(zip(lbds, acts)):
        c = Clause([10 * i + 1, 10 * i + 2, 10 * i + 3], lbd=lbd, learned=True,
                   cid=i)
        c.activity = act
        db.append(c)
    return db


def test_select_lowest_half_with_lbd_cap():
    db = mk_db([2, 6, 3, 8, 5, 7])
    got = select_candidates(db)
    assert sorted(c.lbd for c in got) == [2, 3, 5]


def test_select_empty_when_lowest_half_exceeds_cap():
    db = mk_db([6, 7, 8, 9])
    assert select_candidates(db) == []


def test_select_skips_already_attempted():
    db = mk_db([2, 6, 3, 8, 5, 7])
    db[0].vivify_attempted = True  # the LBD-2 clause
    got = select_candidates(db)
    assert sorted(c.lbd for c in got) == [3, 5]


def test_select_skips_imported():
    db = mk_db([2, 6, 3, 8, 5, 7])
    db[2].imported = True
    got = select_candidates(db)
    assert sorted(c.lbd for c in got) == [2, 5]
    db[2].imported = False
    got = select_candidates(db)
    assert sorted(c.lbd for c in got) == [2, 3, 5]


def test_select_ties_broken_by_higher_activity():
    db = mk_db([3, 3, 3, 3], activities=[0.5, 2.0, 1.0, 0.1])
    got = select_candidates(db)
    assert [c.activity for c in got] == [2.0, 1.0]


# ------------------------------------------------------------ apply_outcome

def test_apply_shortened_to_unit_enqueues_at_level_zero():
    eng, c = engine_with_clause([[1, 2, 3]], 5, [4, 5])
    out = VivifyOutcome(SHORTENED, (4,), None)
    eng.stats.vivify_attempts += 1
    res = apply_outcome(eng, c, out)
    assert res is None
    assert c.removed
    assert eng.value(4) == 1 and eng.level[4] == 0
    assert eng.stats.vivify_successes == 1
    assert eng.stats.literals_removed == 1


def test_apply_unchanged_counts_attempt_only():
    eng, c = engine_with_clause([], 3, [1, 2, 3])
    out = vivify_clause(eng, c)
    assert out.kind == UNCHANGED
    res = apply_outcome(eng, c, out)
    assert res is c and not c.removed
    assert eng.stats.vivify_attempts == 1
    assert eng.stats.vivify_successes == 0


def test_apply_replacement_rewatches():
    eng, c = engine_with_clause([[-1, 2]], 4, [2, 3, 1])
    out = vivify_clause(eng, c)
    assert out.new_lits == (2, 3)
    new = apply_outcome(eng, c, out)
    assert c.removed and not new.removed
    assert new.lits[0] in (2, 3) and new.lits[1] in (2, 3)
    assert new in eng.watches[new.lits[0] + eng.num_vars]
    assert new in eng.watches[new.lits[1] + eng.num_vars]
    assert new.lbd <= min(c.lbd, len(new.lits))
    eng.check_watches()


def test_apply_satisfied_removes():
    eng, c = engine_with_clause([[1]], 3, [1, 2])
    assert satisfied_at_root(eng, c)
    res = eng.remove_clause(c)
    assert res is None and c.removed
    assert eng.stats.vivify_successes == 0


# ------------------------------------------------------------ properties

def test_level_discipline_asserted():
    eng, c = engine_with_clause([], 3, [1, 2, 3])
    eng.assume(1)
    with pytest.raises(AssertionError):
        vivify_clause(eng, c)


def test_budget_aborts_as_unchanged(monkeypatch):
    monkeypatch.setattr(vivify, "VIVIFY_BUDGET", 5)
    chain = [[-i, i + 1] for i in range(1, 40)]
    eng, c = engine_with_clause(chain, 45, [-1, 45])
    before = eng.stats.propagations_vivify
    out = vivify_clause(eng, c)
    assert out.kind == UNCHANGED
    assert c.vivify_attempted
    assert eng.stats.propagations_vivify - before > 5


def test_state_restoration_on_random_instances():
    for seed in range(25):
        f = gen_random_3sat(20, 85, seed + 900)
        eng = Engine(f, EngineConfig())
        if eng.step(pause_after=40) is not None:
            continue  # solved inside the warmup budget
        eng.backtrack(0)
        assert eng.propagate() is None
        cands = [c for c in eng.learned_db
                 if not c.removed and not satisfied_at_root(eng, c)
                 and len(c.lits) >= 2]
        if not cands:
            continue
        before = fingerprint(eng)
        props_before = eng.stats.propagations_total
        vivify_clause(eng, cands[0])
        after = fingerprint(eng)
        assert before == after  # counters aside, the probe left no trace
        assert eng.stats.propagations_total >= props_before
        eng.check_watches()


def test_strict_progress_and_soundness_random():
    total = successes = 0
    for seed in range(40):
        f = gen_random_3sat(22, 94, seed + 321)
        log = []
        eng = Engine(f, EngineConfig(reduce_first=10, reduce_inc=5,
                                     restart_window=8), recorder=log.append)
        Strategy(PCM, eng)
        eng.step(conflict_limit=400)
        for _, _, old, new in of_kind(log, "replace"):
            total += 1
            assert len(new) < len(old)
            assert implied(f.num_vars, list(f.clauses) + [old], new)
        successes += eng.stats.vivify_successes
        assert eng.stats.vivify_successes <= eng.stats.vivify_attempts
    assert total == successes
    assert total > 0  # the corpus must actually exercise vivification
