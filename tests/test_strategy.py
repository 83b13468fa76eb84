from vivipar.cdcl import Engine, EngineConfig, SAT
from vivipar.exchange import SharedPool
from vivipar.formula import Clause
from vivipar.harness import gen_random_3sat
from vivipar.strategy import LPCM, NONE, PCM, Strategy, ecm, mode_from_label

from conftest import mk_formula, of_kind


def wire(mode, f_clauses=(), num_vars=8, num_workers=2, worker=0, log=None,
         **cfg):
    pool = SharedPool(num_workers)
    eng = Engine(mk_formula(num_vars, list(f_clauses)), EngineConfig(**cfg),
                 pool=pool, worker_id=worker, recorder=log)
    strat = Strategy(mode, eng)
    assert eng.propagate() is None
    return pool, eng, strat


def learn_clause(eng, lits, lbd):
    """Simulate a freshly learned clause sitting in the database."""
    eng._cid += 1
    c = Clause(list(lits), lbd=lbd, learned=True, cid=eng._cid)
    if len(lits) >= 2:
        eng.learned_db.append(c)
        eng._attach(c)
    return c


def test_mode_labels():
    assert NONE.label == "none" and PCM.label == "pcm" and LPCM.label == "lpcm"
    assert ecm(3).label == "ecm3" and ecm(4).label == "ecm4"
    assert mode_from_label("ecm4") == ecm(4)
    assert mode_from_label("pcm") == PCM


# ---------------------------------------------------------------- on_learn

def test_ecm3_withholds_low_lbd():
    pool, eng, strat = wire(ecm(3))
    c = learn_clause(eng, [1, 2, 3], lbd=3)
    strat.on_learn(c)
    assert c.protected
    assert list(strat.ecm_withheld) == [c]
    assert pool.pending(1) == 0  # not exported


def test_ecm3_exports_lbd_at_threshold():
    pool, eng, strat = wire(ecm(3))
    c = learn_clause(eng, [1, 2, 3, 4], lbd=4)
    strat.on_learn(c)
    assert not c.protected
    assert pool.pending(1) == 1  # 4 is not < 4: normal filtered export


def test_pcm_exports_immediately_without_link():
    pool, eng, strat = wire(PCM)
    c = learn_clause(eng, [1, 2, 3], lbd=3)
    strat.on_learn(c)
    rec = pool.drain(1)[0]
    assert rec.lits == (1, 2, 3) and rec.cid is None
    assert c.link is None


def test_unit_lemma_is_exported_even_under_ecm():
    pool, eng, strat = wire(ecm(3))
    c = learn_clause(eng, [5], lbd=1)
    strat.on_learn(c)
    assert c.vivify_attempted  # vacuously minimized
    assert not strat.ecm_withheld
    assert pool.drain(1)[0].lits == (5,)


# ---------------------------------------------------------------- on_restart

def test_ecm_flush_vivifies_and_exports_all():
    log = []
    pool, eng, strat = wire(ecm(3), num_vars=20, log=log.append)
    for i in range(5):
        base = 3 * i + 1
        c = learn_clause(eng, [base, base + 1, base + 2], lbd=2)
        strat.on_learn(c)
    assert len(strat.ecm_withheld) == 5
    strat.on_restart()
    assert not strat.ecm_withheld
    assert eng.stats.vivify_attempts == 5
    assert len(of_kind(log, "export")) == 5
    assert all(e[5] for e in of_kind(log, "export"))  # attempted before export
    assert pool.pending(1) == 5
    assert all(not c.protected for c in eng.learned_db)


def test_ecm_flush_shortened_to_unit_enqueues_and_exports():
    # F forces a under -a: the withheld clause (a, c) collapses to (a)
    log = []
    pool, eng, strat = wire(ecm(3), f_clauses=[[1, 2], [1, -2]], num_vars=3,
                            log=log.append)
    c = learn_clause(eng, [1, 3], lbd=2)
    strat.on_learn(c)
    strat.on_restart()
    assert eng.value(1) == 1 and eng.level[1] == 0
    assert c.removed
    exports = of_kind(log, "export")
    assert [e[3] for e in exports] == [(1,)]
    assert pool.drain(1)[0].lits == (1,)


def test_ecm_flush_drops_satisfied_without_export():
    pool, eng, strat = wire(ecm(3), f_clauses=[[4]], num_vars=8)
    c = learn_clause(eng, [4, 5, 6], lbd=2)
    strat.on_learn(c)
    assert c.protected
    strat.on_restart()
    assert c.removed
    assert eng.stats.vivify_attempts == 0  # satisfied: removed, not probed
    assert pool.pending(1) == 0


def test_pcm_restart_without_pending_reduce_is_noop():
    pool, eng, strat = wire(PCM, num_vars=10)
    learn_clause(eng, [1, 2, 3], lbd=2)
    strat.on_restart()
    assert eng.stats.vivify_attempts == 0
    assert eng.stats.reductions == 0


# ---------------------------------------------------------------- before_reduce

def test_before_reduce_defers_above_level_zero():
    pool, eng, strat = wire(PCM, f_clauses=[[1, 2, 3]], num_vars=10)
    eng.assume(-1)
    eng.propagate()
    eng.assume(-4)
    strat.before_reduce()
    assert strat.reduce_pending
    assert eng.stats.reductions == 0
    assert eng.stats.vivify_attempts == 0


def test_deferred_reductions_coalesce():
    pool, eng, strat = wire(PCM, num_vars=10)
    for i in range(6):
        learn_clause(eng, [i + 1, i + 2, i + 3], lbd=2)
    eng.assume(-1)
    strat.before_reduce()
    strat.before_reduce()  # second schedule firing while deferred
    assert strat.reduce_pending
    eng.backtrack(0)
    strat.on_level_zero()
    assert not strat.reduce_pending
    assert eng.stats.reductions == 1


def test_none_mode_reduces_without_vivification():
    pool, eng, strat = wire(NONE, num_vars=30)
    for i in range(8):
        learn_clause(eng, [3 * i + 1, 3 * i + 2, 3 * i + 3], lbd=4)
    eng.assume(-1)  # none mode does not defer to level 0
    strat.before_reduce()
    assert eng.stats.reductions == 1
    assert eng.stats.vivify_attempts == 0
    assert not strat.reduce_pending


def test_pcm_reduce_at_level_zero_runs_vivify_pass():
    pool, eng, strat = wire(PCM, num_vars=30)
    for i in range(8):
        learn_clause(eng, [3 * i + 1, 3 * i + 2, 3 * i + 3], lbd=2)
    strat.before_reduce()
    assert eng.stats.reductions == 1
    assert eng.stats.vivify_attempts == 4  # lowest half of 8


# ---------------------------------------------------------------- LPCM

def test_lpcm_publish_and_importer_adoption():
    # directed two-worker scenario: A learns+exports, B imports, A vivifies
    # and publishes, B reduces and holds the improved clause
    log = []
    pool = SharedPool(2)
    shared = [[-1, 2]]  # under -b, a is forced false: (b,c,a) -> (b,c)
    eng_a = Engine(mk_formula(3, shared), EngineConfig(), pool=pool, worker_id=0,
                   recorder=log.append)
    a = Strategy(LPCM, eng_a)
    eng_b = Engine(mk_formula(3, shared), EngineConfig(), pool=pool, worker_id=1,
                   recorder=log.append)
    b = Strategy(LPCM, eng_b)
    eng_a.propagate()
    eng_b.propagate()

    c = learn_clause(eng_a, [2, 3, 1], lbd=2)
    a.on_learn(c)  # exported with a link
    assert c.link == (0, c.cid)
    # filler keeps c inside the lowest-LBD half of A's database
    learn_clause(eng_a, [-2, -3, -1], lbd=3)

    assert eng_b._integrate_imports() == 1
    copy = [x for x in eng_b.learned_db if x.imported][0]
    assert set(copy.lits) == {2, 3, 1}
    assert copy.link == c.link

    a.before_reduce()  # level 0: vivify pass publishes (2, 3)
    assert eng_a.stats.improvements_published == 1
    assert pool.improvement(c.link) == (2, 3)

    b.before_reduce()  # importer looks its key up during reduction and swaps
    assert eng_b.stats.improvements_adopted == 1
    live = [x for x in eng_b.learned_db if not x.removed and x.imported]
    assert [set(x.lits) for x in live] == [{2, 3}]
    assert copy.removed  # the unimproved copy is gone
    eng_b.check_watches()


def test_pcm_isolation_no_links_ever():
    log = []
    for seed in range(10):
        f = gen_random_3sat(20, 85, seed)
        pool = SharedPool(2)
        eng = Engine(f, EngineConfig(reduce_first=10, reduce_inc=5,
                                     restart_window=8), pool=pool, worker_id=0,
                     recorder=log.append)
        Strategy(PCM, eng)
        eng.step(conflict_limit=300)
        for rec in pool.drain(1):
            assert rec.cid is None
    assert of_kind(log, "publish") == []


def test_adoption_skips_identical_publication():
    pool, eng, strat = wire(LPCM, num_vars=6)
    c = learn_clause(eng, [1, 2, 3], lbd=2)
    c.imported = True
    c.link = (1, 5)  # worker 1's clause 5
    pool.publish(c.link, (3, 1, 2))  # same literal set, different order
    strat._adopt_improvements()
    assert eng.stats.improvements_adopted == 0
    assert not c.removed
    assert c.link is None  # consumed


# ---------------------------------------------------------------- baseline

def test_none_mode_matches_bare_engine_traces():
    for seed in (0, 1, 2):
        f = gen_random_3sat(30, 128, seed + 40)
        cfg = dict(reduce_first=30, reduce_inc=10, restart_window=8)

        bare_events = []
        bare = Engine(f, EngineConfig(**cfg), recorder=bare_events.append)
        status_bare = bare.step()

        pool = SharedPool(1)
        wired_events = []
        wired = Engine(f, EngineConfig(**cfg), pool=pool, worker_id=0,
                       recorder=wired_events.append)
        Strategy(NONE, wired)
        status_wired = wired.step()

        assert status_bare == status_wired
        search = ("decide", "conflict", "restart")
        trace = [e for e in wired_events if e[0] in search]
        assert trace  # the run decided and learned
        assert [e for e in bare_events if e[0] in search] == trace
        assert bare.stats.conflicts == wired.stats.conflicts
        assert bare.stats.propagations_total == wired.stats.propagations_total
        assert bare.stats.restarts == wired.stats.restarts
        assert bare.stats.reductions == wired.stats.reductions
        if status_bare == SAT:
            assert bare.model() == wired.model()
