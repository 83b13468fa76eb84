import random

import pytest

from vivipar.cdcl import (SAT, UNSAT, UNKNOWN, Engine, EngineConfig, luby,
                          should_restart)
from vivipar.exchange import SharedClause, SharedPool
from vivipar.formula import Clause, Formula
from vivipar.harness import gen_random_3sat
from vivipar.oracle import brute_force, entails, implied, models
from vivipar.strategy import NONE, Strategy

from conftest import mk_formula, of_kind, php


def engine_for(clauses, num_vars, **cfg):
    return Engine(mk_formula(num_vars, clauses), EngineConfig(**cfg))


def add_learned(engine, lits, lbd=2, activity=0.0):
    engine._cid += 1
    c = Clause(list(lits), lbd=lbd, learned=True, cid=engine._cid)
    c.activity = activity
    engine.learned_db.append(c)
    engine._attach(c)
    return c


# ---------------------------------------------------------------- propagate

def test_propagate_input_unit():
    eng = engine_for([[1]], 1)
    assert eng.propagate() is None
    assert eng.value(1) == 1
    assert eng.level[1] == 0


def test_propagate_binary_implication_records_reason():
    eng = engine_for([[1, 2]], 2)
    assert eng.propagate() is None
    eng.assume(-1)
    assert eng.propagate() is None
    assert eng.value(2) == 1
    assert eng.reason[2].lits[0] == 2  # implied literal sits at position 0
    assert eng.level[2] == 1


def test_propagate_contradictory_units_conflict():
    # contradictory input units make the engine UNSAT at construction
    eng = engine_for([[1], [-1]], 1)
    assert eng.step() == UNSAT
    assert eng.stats.propagations_total == 0


def test_propagation_counter_attribution():
    eng = engine_for([[1, 2], [-2, 3]], 3)
    eng.assume(-1)
    eng.propagate()
    assert eng.stats.propagations_total > 0
    assert eng.stats.propagations_vivify == 0


# ---------------------------------------------------------------- analyze

def test_analyze_unit_learned_at_level_one():
    eng = engine_for([[-1, 2], [-1, -2]], 2)
    eng.assume(1)
    confl = eng.propagate()
    assert confl is not None
    learnt, blevel, lbd = eng.analyze_conflict(confl)
    assert learnt == [-1]
    assert blevel == 0
    assert lbd == 1


def test_learned_clauses_implied_by_formula(engine_checks):
    # 200 random instances; every learned clause must be entailed by F
    for seed in range(200):
        f = gen_random_3sat(20, 85, seed)
        log = []
        eng = Engine(f, EngineConfig(), recorder=log.append)
        Strategy(NONE, eng)
        eng.step(conflict_limit=150)
        learns = of_kind(log, "learn")
        words = models(f.num_vars, f.clauses)  # F |= C iff no model falsifies C
        for _, _, _, _, lits in learns:
            assert entails(words, lits), (seed, lits)


def test_asserting_after_backtrack_debug_checks(engine_checks):
    # the fixture's assertions fire on every conflict; a clean run means
    # every learned clause was falsified at the conflict level and asserting
    # after the backjump
    for seed in range(30):
        f = gen_random_3sat(15, 64, seed)
        eng = Engine(f, EngineConfig())
        assert eng.step() in (SAT, UNSAT)


def test_engine_checks_fixture_is_active(engine_checks):
    # the checks are live: storing a clause whose literals are all
    # unassigned is not asserting, and analysing a conflict clause that is
    # not falsified yields a learned clause that is not falsified either
    eng = engine_for([[1, 2, 3]], 3)
    with pytest.raises(AssertionError, match="not asserting"):
        eng._learn([1, 2], 2)
    eng = engine_for([], 3)
    eng.assume(2)
    eng.assume(1)
    with pytest.raises(AssertionError, match="not falsified"):
        eng.analyze_conflict(Clause([-1, 2]), bump=False)
    eng.backtrack(0)
    with pytest.raises(AssertionError, match="duplicate"):
        eng._admit([2, 2, 1], 1)


# ---------------------------------------------------------------- minimize

def test_minimize_no_redundancy_unchanged():
    eng = engine_for([[1, 2, 3]], 3)
    eng.assume(-1)
    eng.propagate()
    eng.assume(-2)
    eng.propagate()
    # neither -1 nor -2 has a reason (both decisions): nothing is redundant
    lits = [3, -1, -2]
    assert eng.minimize_learned(list(lits)) == lits


def test_minimize_self_subsuming_literal_removed():
    # x3 was forced by (-1, 3): its reason literals all appear in the clause,
    # so -3 is redundant in (2, -1, -3)
    eng = engine_for([[-1, 3]], 3)
    eng.assume(1)
    eng.propagate()
    assert eng.value(3) == 1
    out = eng.minimize_learned([2, -1, -3])
    assert out == [2, -1]


def test_minimized_clause_still_implied(engine_checks):
    for seed in range(40):
        f = gen_random_3sat(16, 68, seed + 500)
        log = []
        eng = Engine(f, EngineConfig(), recorder=log.append)
        Strategy(NONE, eng)
        eng.step(conflict_limit=100)
        for _, _, _, _, lits in of_kind(log, "learn"):
            assert implied(f.num_vars, f.clauses, lits)


# ---------------------------------------------------------------- lbd

def test_compute_lbd_single_level():
    eng = engine_for([[2, 3], [2, 4]], 4)
    eng.assume(-2)
    eng.propagate()
    assert eng.compute_lbd([3, 4, -2]) == 1  # all at level 1


def test_compute_lbd_three_levels():
    eng = engine_for([[1]], 3)
    eng.propagate()  # x1 true at level 0
    eng.assume(2)
    eng.assume(3)
    assert eng.compute_lbd([1, 2, 3]) == 3  # levels {0, 1, 2}


def test_compute_lbd_unit_at_level_zero():
    eng = engine_for([[1]], 1)
    eng.propagate()
    assert eng.compute_lbd([1]) == 1


# ---------------------------------------------------------------- decide

def test_decide_all_assigned():
    eng = engine_for([[1]], 1)
    eng.propagate()
    assert eng.decide() is None


def test_decide_argmax_activity():
    eng = engine_for([[1, 2]], 2)
    eng.activity[2] = 5.0
    assert abs(eng.decide()) == 2


def test_decide_tie_breaks_to_lowest_index():
    eng = engine_for([[1, 2, 3]], 3)
    assert abs(eng.decide()) == 1


def test_decide_uses_saved_phase():
    eng = engine_for([[1, 2]], 2, phase_init=False)
    assert eng.decide() == -1
    eng.saved_phase[1] = True
    assert eng.decide() == 1


# ---------------------------------------------------------------- restarts

def test_luby_sequence_prefix():
    assert [luby(i) for i in range(1, 10)] == [1, 1, 2, 1, 1, 2, 4, 1, 1]


def test_luby_restart_thresholds():
    # unit 100: thresholds 100,100,200,100,100,200,400,...
    cfg = EngineConfig(restart_kind="luby", luby_unit=100)
    thresholds = [100, 100, 200, 100, 100, 200, 400, 100, 100]
    for idx, th in enumerate(thresholds, start=1):
        assert should_restart(cfg, [], 0.0, th, idx)
        assert not should_restart(cfg, [], 0.0, th - 1, idx)


def test_dynamic_restart_window_mean_exceeds_k_times_global():
    cfg = EngineConfig(restart_kind="dynamic", restart_window=50)
    window = [10] * 50
    assert should_restart(cfg, window, 5.0, 10, 1)  # 10 > 0.8 * 5
    assert not should_restart(cfg, [4] * 50, 5.0, 10, 1)  # 4 is not > 0.8 * 5


def test_dynamic_restart_window_not_full():
    cfg = EngineConfig(restart_kind="dynamic", restart_window=50)
    assert not should_restart(cfg, [10] * 49, 5.0, 10, 1)


# ---------------------------------------------------------------- reduce

def test_reduce_halves_unprotected():
    eng = engine_for([], 30)
    for i in range(10):
        add_learned(eng, [3 * i + 1, 3 * i + 2, 3 * i + 3], lbd=i + 1)
    assert eng.reduce_db() == 5
    assert len(eng.learned_db) == 5
    # the worst (highest) LBDs were dropped
    assert max(c.lbd for c in eng.learned_db) == 5


def test_reduce_keeps_protected_even_with_worst_lbd():
    eng = engine_for([], 30)
    clauses = [add_learned(eng, [3 * i + 1, 3 * i + 2, 3 * i + 3], lbd=i + 1)
               for i in range(10)]
    clauses[-1].protected = True  # worst LBD
    eng.reduce_db()
    assert clauses[-1] in eng.learned_db
    assert not clauses[-1].removed


def test_reduce_keeps_reasons():
    eng = engine_for([], 9)
    locked = add_learned(eng, [1, 2, 3], lbd=9)
    add_learned(eng, [4, 5, 6], lbd=1)
    add_learned(eng, [7, 8, 9], lbd=1)
    eng.assume(-2)
    eng.assume(-3)
    eng.propagate()
    assert eng.reason[1] is locked
    eng.reduce_db()
    assert not locked.removed


def test_reduce_keeps_binaries():
    eng = engine_for([], 20)
    b = add_learned(eng, [1, 2], lbd=9)
    for i in range(4):
        add_learned(eng, [3 * i + 3, 3 * i + 4, 3 * i + 5], lbd=5)
    eng.reduce_db()
    assert not b.removed


def test_reduce_schedule_advances():
    eng = engine_for([], 10, reduce_first=100, reduce_inc=50)
    assert eng.next_reduce == 100
    eng.stats.conflicts = 120
    eng.reduce_db()
    assert eng.next_reduce == 120 + 100 + 50


# ---------------------------------------------------------------- solve

def test_solve_unsat_simple():
    eng = engine_for([[1, 2], [-1], [-2]], 2)
    assert eng.step() == UNSAT


def test_solve_sat_forced_literal():
    eng = engine_for([[1, 2], [-1, 2]], 2)
    assert eng.step() == SAT
    assert 2 in eng.model()  # b is forced in every model


def test_solve_php_unsat(engine_checks):
    f = php(4, 3)
    assert brute_force(f)[0] == "UNSAT"
    eng = Engine(f, EngineConfig())
    assert eng.step() == UNSAT


def test_solve_empty_clause_input():
    eng = Engine(Formula(1, (), contains_empty=True), EngineConfig())
    assert eng.step() == UNSAT


def test_solve_conflict_limit_unknown():
    f = php(6, 5)
    eng = Engine(f, EngineConfig())
    assert eng.step(conflict_limit=3) == UNKNOWN


def test_step_pause_and_resume(engine_checks):
    f = php(5, 4)
    eng = Engine(f, EngineConfig())
    paused = 0
    while True:
        st = eng.step(pause_after=5)
        if st is None:
            paused += 1
            eng.check_watches()
            continue
        assert st == UNSAT
        break
    assert paused >= 1


def test_watch_invariant_after_solve():
    for seed in range(20):
        f = gen_random_3sat(18, 76, seed)
        eng = Engine(f, EngineConfig())
        eng.step()
        eng.check_watches()


def test_oracle_equivalence_mini():
    for seed in range(60):
        n = random.Random(seed).randint(10, 22)
        f = gen_random_3sat(n, round(4.26 * n), seed + 123)
        eng = Engine(f, EngineConfig())
        assert eng.step() == brute_force(f)[0]


def test_vsids_rescale_preserves_order():
    # conflict analysis bumps 2 past 1e100, which rescales every activity by
    # 1e-100 before 1 is bumped; the unbumped 3 and 4 keep their order
    eng = engine_for([[-1, 2], [-1, -2]], 4)
    eng.activity[1:] = [3.0, 1.0, 2.0, 5.0]
    eng.var_inc = 1e101
    eng.assume(1)
    eng.analyze_conflict(eng.propagate())
    assert eng.var_inc == 1e101 * 1e-100
    assert eng.activity[2] > eng.activity[4] > eng.activity[3] > 0.0
    assert eng.activity[1] == 3e-100 + eng.var_inc
    assert eng.activity[4] == 5e-100


def test_import_watches_unassigned_literals():
    # -1 holds at level 0, so the import (1 2 3) must watch 2 and 3 in its
    # own positions 0 and 1, and propagate 2 once 3 is false
    pool = SharedPool(2)
    eng = Engine(mk_formula(3, [[-1]]), EngineConfig(), pool=pool, worker_id=1)
    assert eng.propagate() is None
    pool.broadcast(SharedClause((1, 2, 3), 2, 0))
    assert eng._integrate_imports() == 1
    imported = eng.learned_db[0]
    assert not imported.one_watched
    assert eng.value(imported.lits[0]) == 0 and eng.value(imported.lits[1]) == 0
    eng.assume(-3)
    assert eng.propagate() is None
    assert eng.value(2) == 1
    assert eng.reason[2] is imported


def test_lazy_import_one_watch_conflict_detection():
    # a one-watched clause must still raise a conflict when fully falsified
    pool = SharedPool(2)
    f = mk_formula(5, [[1, 2, 3, 4, 5]])
    eng = Engine(f, EngineConfig(), pool=pool, worker_id=0)
    from vivipar.exchange import SharedClause
    pool.broadcast(SharedClause(lits=(-1, -2, -3), lbd=5, origin=1))
    eng.propagate()
    assert eng._integrate_imports() == 1
    imported = eng.learned_db[0]
    assert imported.one_watched  # lbd 5 >= 4: standby watch
    eng.assume(1)
    eng.assume(2)
    confl = eng.propagate()
    assert confl is None  # one-watch moves along, -3 is never propagated
    assert eng.value(3) == 0
    eng.assume(3)
    confl = eng.propagate()
    assert confl is imported


def test_check_watches_reports_stale_standby_entries():
    # a one-watch list must hold only live one-watched clauses containing
    # its literal, and no one-watched clause may sit on a two-watch list
    pool = SharedPool(2)
    eng = Engine(mk_formula(5, [[1, 2, 3, 4, 5]]), EngineConfig(), pool=pool,
                 worker_id=0)
    pool.broadcast(SharedClause(lits=(-1, -2, -3), lbd=5, origin=1))
    assert eng.propagate() is None
    assert eng._integrate_imports() == 1
    standby = eng.learned_db[0]
    assert standby.one_watched and eng.check_watches()
    n = eng.num_vars

    def planted(lst, c, match):
        lst.append(c)
        with pytest.raises(AssertionError, match=match):
            eng.check_watches()
        lst.pop()
        assert eng.check_watches()

    planted(eng.watches_one[4 + n], standby, "stale one-watch entry")
    planted(eng.watches_one[1 + n], eng.originals[0], "two-watched .* one-watch list")
    planted(eng.watches[-1 + n], standby, "one-watched .* two-watch list")
    eng.remove_clause(standby)
    planted(eng.watches_one[-1 + n], standby, "removed clause")
