import pytest

from vivipar import strategy
from vivipar.cdcl import Engine, EngineConfig
from vivipar.exchange import SharedPool
from vivipar.formula import Clause
from vivipar.harness import gen_random_3sat
from vivipar.oracle import implied
from vivipar.strategy import Strategy
from vivipar.vivify import (CONFLICT_REPLACED, SHORTENED, UNCHANGED,
                            VivifyOutcome, apply_outcome, satisfied_at_root,
                            select_candidates, vivify_clause)

from conftest import (WATCH_VISITS, check_probe, fingerprint, mk_formula, of_kind,
                      restart_schedule, visit_and_check, watch_visit_engine)


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


# ------------------------------------------------------------ probe contract
#
# A probe runs the search kernel, so the watch moves it makes stay; the
# contract (`check_probe`) holds however the probe ends.


def engine_with_lists(num_vars, clauses):
    """Engine over an empty formula plus learned clauses with exact literal
    order, attached in the given order."""
    eng = Engine(mk_formula(num_vars, []), EngineConfig())
    added = []
    for lits in clauses:
        eng._cid += 1
        c = Clause(list(lits), lbd=2, learned=True, cid=eng._cid)
        eng.learned_db.append(c)
        eng._attach(c)
        added.append(c)
    return eng, added


def test_rollback_clause_moved_twice_into_falsified_list():
    # probe (-1, -2, -3): #1 leaves list 1 for list 6; -2 forces -6 through
    # #2, and #1 moves on from list 6 to list 7, where it stays
    eng, cl = engine_with_lists(20, [
        [1, 5, 6, 7], [2, -6], [1, 8], [1, 9, 10], [9, 1, 11],
        [6, 12], [6, 13, 14], [13, 6, 15], [1, 2, 3]])
    before = fingerprint(eng)
    assert vivify_clause(eng, cl[-1]).kind == UNCHANGED
    check_probe(eng, cl[-1], before)
    assert cl[0].lits[:2] == [5, 7]


def test_rollback_conflict_mid_watch_list():
    # probe (-1): #1 forces -22, #2 moves to list 21 (a list the probe never
    # falsifies), #3 conflicts; #4 and #5 are never visited and keep their
    # places, and the probed #7 goes back on list 1 at its end
    eng, cl = engine_with_lists(30, [
        [1, -22], [1, 20, 21], [1, 22], [1, 23, 24], [25, 1], [21, 26],
        [1, 3, 4]])
    before = fingerprint(eng)
    assert vivify_clause(eng, cl[-1]).kind == CONFLICT_REPLACED
    check_probe(eng, cl[-1], before)
    n = eng.num_vars
    assert [c.cid for c in eng.watches[1 + n]] == [1, 3, 4, 5, 7]
    assert [c.cid for c in eng.watches[21 + n]] == [6, 2]


@pytest.mark.parametrize("w", [0, 1], ids=["watch0", "watch1"])
@pytest.mark.parametrize("case", WATCH_VISITS)
def test_probe_kernel_visit(case, w):
    # each visit of `test_search_kernel_visit`, made inside a probe of
    # P = (1 12): detached, P takes no part, so the visit is the search's
    eng, named = watch_visit_engine(WATCH_VISITS[case][0], w)
    probed = Clause([1, 12], lbd=2, learned=True, cid=4)
    eng.learned_db.append(probed)
    eng._attach(probed)
    before = fingerprint(eng)
    eng._detach(probed)
    visit_and_check(eng, named, case)
    eng.backtrack(0, save_phase=False)
    eng.undo_probe_moves(probed)
    check_probe(eng, probed, before)
    assert probed.lits == [1, 12]


def test_probed_clause_takes_no_part_in_its_own_probe():
    # F={(a v b v -c)}, C=(a v b v c): assuming -a, -b forces -c through F,
    # so c is dropped.  C stays off its watch lists during the probe: on
    # them, it would force c itself and conflict with F.
    eng, c = engine_with_clause([[1, 2, -3]], 3, [1, 2, 3])
    out = vivify_clause(eng, c)
    assert (out.kind, out.new_lits) == (SHORTENED, (1, 2))
    eng.check_watches()


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


def test_engine_checks_catch_a_probe_that_leaves_a_trace(engine_checks,
                                                        monkeypatch):
    # a probe that never puts the probed clause back on its watch lists
    eng, c = engine_with_clause([[4, 7, 8]], 8, [4, 5, 6])
    monkeypatch.setattr(Engine, "undo_probe_moves", lambda self, clause: None)
    with pytest.raises(AssertionError, match="left a trace"):
        strategy.vivify_clause(eng, c)


def test_state_restoration_on_random_instances():
    # uf50-class instances, which 40 conflicts mostly leave unsolved, so
    # that the probes run
    probed = 0
    for seed in range(25):
        f = gen_random_3sat(50, 213, seed + 900)
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
        check_probe(eng, cands[0], before)
        assert eng.stats.propagations_total >= props_before
        probed += 1
    assert probed >= 10


def test_strict_progress_and_soundness_random(monkeypatch):
    restart_schedule(monkeypatch.setattr, window=8)
    total = successes = 0
    for seed in range(40):
        f = gen_random_3sat(22, 94, seed + 321)
        log = []
        eng = Engine(f, EngineConfig(reduce_first=10, reduce_inc=5),
                     recorder=log.append)
        Strategy("pcm", eng, SharedPool(1))
        eng.step(conflict_limit=400)
        for _, _, old, new in of_kind(log, "replace"):
            total += 1
            assert len(new) < len(old)
            assert implied(f.num_vars, list(f.clauses) + [old], new)
        successes += eng.stats.vivify_successes
        assert eng.stats.vivify_successes <= eng.stats.vivify_attempts
    assert total == successes
    assert total > 0  # the corpus must actually exercise vivification
