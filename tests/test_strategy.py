import pytest

from vivipar import cdcl, exchange
from vivipar.cdcl import Engine, EngineConfig, SAT, UNKNOWN, UNSAT
from vivipar.exchange import SharedClause, SharedPool
from vivipar.formula import Clause
from vivipar.harness import gen_random_3sat
from vivipar.strategy import Strategy, mode_from_label

from conftest import mk_formula, of_kind, php, restart_schedule


def wire(mode, f_clauses=(), num_vars=8, num_workers=2, worker=0, log=None,
         **cfg):
    pool = SharedPool(num_workers)
    eng = Engine(mk_formula(num_vars, list(f_clauses)), EngineConfig(**cfg),
                 worker_id=worker, recorder=log)
    strat = Strategy(mode, eng, pool)
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


# label -> the mode it names (a canonical label), or None if it names none
MODE_LABELS = [
    ("none", "none"), ("pcm", "pcm"), ("lpcm", "lpcm"), ("ecm3", "ecm3"),
    ("ecm4", "ecm4"), ("ecm1", "ecm1"), ("ecm10", "ecm10"),
    ("ecm", "ecm3"),  # plain ecm, the one label that is not its own mode
    ("ecm999999999", "ecm999999999"),  # the largest bound: 9 digits
    # a typo, a sign, the wrong case, a bound below 1, a leading zero,
    # non-ASCII digits (Arabic-Indic 3, fullwidth 0), and bounds of 10 and
    # of 5,000 digits
    ("ecmx", None), ("ecm-1", None), ("PCM", None), ("ecm0", None),
    ("ecm04", None), ("ecm\u0663", None), ("ecm\uff10", None),
    ("ecm1000000000", None), ("ecm" + "1" * 5000, None),
]


def test_mode_labels():
    for label, mode in MODE_LABELS:
        if mode is None:
            with pytest.raises(ValueError, match=f"unknown lcm mode '{label}'"):
                mode_from_label(label)
        else:
            assert mode_from_label(label) == mode, label


def test_ecm_bound_is_read_from_the_label():
    for label, bound in [("none", 0), ("pcm", 0), ("lpcm", 0), ("ecm1", 1),
                         ("ecm3", 3), ("ecm10", 10)]:
        pool, eng, strat = wire(label)
        assert strat.ecm_max_lbd == bound, label


# ---------------------------------------------------------------- on_learn

def test_ecm3_withholds_low_lbd():
    pool, eng, strat = wire("ecm3")
    c = learn_clause(eng, [1, 2, 3], lbd=3)
    strat.on_learn(c)
    assert c.protected
    assert list(strat.ecm_withheld) == [c]
    assert pool.pending(1) == 0  # not exported


def test_ecm3_exports_lbd_at_threshold():
    pool, eng, strat = wire("ecm3")
    c = learn_clause(eng, [1, 2, 3, 4], lbd=4)
    strat.on_learn(c)
    assert not c.protected
    assert pool.pending(1) == 1  # 4 is not < 4: normal filtered export


def test_pcm_exports_immediately_without_link():
    pool, eng, strat = wire("pcm")
    c = learn_clause(eng, [1, 2, 3], lbd=3)
    strat.on_learn(c)
    rec = pool.drain(1)[0]
    assert rec.lits == (1, 2, 3) and rec.cid is None
    assert c.link is None


def test_export_filter_reads_the_module_bound(monkeypatch):
    pool, eng, strat = wire("pcm")
    high = exchange.EXPORT_MAX_LBD + 1
    strat.on_learn(learn_clause(eng, [1, 2, 3, 4, 5], lbd=high))
    assert pool.pending(1) == 0
    monkeypatch.setattr(exchange, "EXPORT_MAX_LBD", high)
    strat.on_learn(learn_clause(eng, [1, 2, 3, 4, 6], lbd=high))
    assert [r.lbd for r in pool.drain(1)] == [high]


def test_unit_lemma_is_exported_even_under_ecm():
    pool, eng, strat = wire("ecm3")
    c = learn_clause(eng, [5], lbd=1)
    strat.on_learn(c)
    assert c.vivify_attempted  # vacuously minimized
    assert not strat.ecm_withheld
    assert pool.drain(1)[0].lits == (5,)


# ---------------------------------------------------------------- on_restart

def test_ecm_flush_vivifies_and_exports_all():
    log = []
    pool, eng, strat = wire("ecm3", num_vars=20, log=log.append)
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
    pool, eng, strat = wire("ecm3", f_clauses=[[1, 2], [1, -2]], num_vars=3,
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
    pool, eng, strat = wire("ecm3", f_clauses=[[4]], num_vars=8)
    c = learn_clause(eng, [4, 5, 6], lbd=2)
    strat.on_learn(c)
    assert c.protected
    strat.on_restart()
    assert c.removed
    assert eng.stats.vivify_attempts == 0  # satisfied: removed, not probed
    assert pool.pending(1) == 0


def test_pcm_restart_without_pending_reduce_is_noop():
    pool, eng, strat = wire("pcm", num_vars=10)
    learn_clause(eng, [1, 2, 3], lbd=2)
    strat.on_restart()
    assert eng.stats.vivify_attempts == 0
    assert eng.stats.reductions == 0


# ---------------------------------------------------------------- before_reduce

def test_before_reduce_defers_above_level_zero():
    pool, eng, strat = wire("pcm", f_clauses=[[1, 2, 3]], num_vars=10)
    eng.assume(-1)
    eng.propagate()
    eng.assume(-4)
    strat.before_reduce()
    assert strat.reduce_pending
    assert eng.stats.reductions == 0
    assert eng.stats.vivify_attempts == 0


def test_deferred_reductions_coalesce():
    pool, eng, strat = wire("pcm", num_vars=10)
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
    pool, eng, strat = wire("none", num_vars=30)
    for i in range(8):
        learn_clause(eng, [3 * i + 1, 3 * i + 2, 3 * i + 3], lbd=4)
    eng.assume(-1)  # none mode does not defer to level 0
    strat.before_reduce()
    assert eng.stats.reductions == 1
    assert eng.stats.vivify_attempts == 0
    assert not strat.reduce_pending


def test_pcm_reduce_at_level_zero_runs_vivify_pass():
    pool, eng, strat = wire("pcm", num_vars=30)
    for i in range(8):
        learn_clause(eng, [3 * i + 1, 3 * i + 2, 3 * i + 3], lbd=2)
    strat.before_reduce()
    assert eng.stats.reductions == 1
    assert eng.stats.vivify_attempts == 4  # lowest half of 8


# ---------------------------------------------------------------- imports

def test_refuting_import_ends_the_drain_and_skips_the_pending_pass():
    # -1 and -2 hold at level 0, so the import (1 2) is false as it arrives
    pool, eng, strat = wire("pcm", f_clauses=[[-1], [-2]], num_vars=30)
    for i in range(8):
        learn_clause(eng, [3 * i + 3, 3 * i + 4, 3 * i + 5], lbd=2)
    eng.assume(3)
    strat.before_reduce()
    eng.backtrack(0)
    pool.broadcast(SharedClause((1, 2), 2, origin=1))
    pool.broadcast(SharedClause((27, 28, 29), 2, origin=1))
    strat.on_level_zero()
    assert eng.step() == UNSAT
    assert eng.stats.clauses_imported == 0  # the record after it is not admitted
    assert not any(c.imported for c in eng.learned_db)
    assert strat.reduce_pending
    assert eng.stats.vivify_attempts == 0 and eng.stats.reductions == 0


def test_import_is_admitted_before_the_pending_pass():
    pool, eng, strat = wire("pcm", num_vars=30)
    for i in range(8):
        learn_clause(eng, [3 * i + 1, 3 * i + 2, 3 * i + 3], lbd=2)
    eng.assume(-1)
    strat.before_reduce()
    eng.backtrack(0)
    pool.broadcast(SharedClause((25, 26, 27), 1, origin=1))
    strat.on_level_zero()
    assert eng.stats.clauses_imported == 1
    assert not strat.reduce_pending and eng.stats.reductions == 1
    # the import (LBD 1) ranks first of nine, so the lowest half the pass
    # draws its candidates from holds three own clauses, not four
    assert eng.stats.vivify_attempts == 3


# ---------------------------------------------------------------- LPCM

def test_lpcm_publish_and_importer_adoption():
    # directed two-worker scenario: A learns+exports, B imports, A vivifies
    # and publishes, B reduces and holds the improved clause
    log = []
    pool = SharedPool(2)
    shared = [[-1, 2]]  # under -b, a is forced false: (b,c,a) -> (b,c)
    eng_a = Engine(mk_formula(3, shared), EngineConfig(), worker_id=0,
                   recorder=log.append)
    a = Strategy("lpcm", eng_a, pool)
    eng_b = Engine(mk_formula(3, shared), EngineConfig(), worker_id=1,
                   recorder=log.append)
    b = Strategy("lpcm", eng_b, pool)
    eng_a.propagate()
    eng_b.propagate()

    c = learn_clause(eng_a, [2, 3, 1], lbd=2)
    a.on_learn(c)  # exported with a link
    assert c.link == (0, c.cid)
    # filler keeps c inside the lowest-LBD half of A's database
    learn_clause(eng_a, [-2, -3, -1], lbd=3)

    b.on_level_zero()
    assert eng_b.stats.clauses_imported == 1
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


@pytest.mark.parametrize("label", ["pcm", "ecm4"])
def test_deadline_interrupts_a_vivification_pass(label, monkeypatch):
    # the deadline passes during the first probe; the pass ends before the
    # second, and an interrupted PCM pass leaves its reduction pending
    probed = []
    log = []

    def recorder(event):
        log.append(event)
        if event[0] == "vivify":
            probed.append(event)

    monkeypatch.setattr(cdcl.time, "monotonic",
                        lambda: 2.0 if probed else 0.0)
    eng = Engine(php(8, 7), EngineConfig(reduce_first=100), recorder=recorder)
    strat = Strategy(label, eng, SharedPool(1))
    assert eng.step(deadline=1.0) == UNKNOWN
    assert len(of_kind(log, "vivify")) == eng.stats.vivify_attempts == 1
    if label == "pcm":
        assert strat.reduce_pending and eng.stats.reductions == 0
    else:
        assert strat.ecm_withheld  # the rest stay withheld and protected
        assert all(c.protected for c in strat.ecm_withheld)


def test_pcm_isolation_no_links_ever(monkeypatch):
    restart_schedule(monkeypatch.setattr, window=8)
    log = []
    for seed in range(10):
        f = gen_random_3sat(20, 85, seed)
        pool = SharedPool(2)
        eng = Engine(f, EngineConfig(reduce_first=10, reduce_inc=5),
                     worker_id=0, recorder=log.append)
        Strategy("pcm", eng, pool)
        eng.step(conflict_limit=300)
        for rec in pool.drain(1):
            assert rec.cid is None
    assert of_kind(log, "publish") == []


def test_adoption_skips_identical_publication():
    pool, eng, strat = wire("lpcm", num_vars=6)
    c = learn_clause(eng, [1, 2, 3], lbd=2)
    c.imported = True
    c.link = (1, 5)  # worker 1's clause 5
    pool.publish(c.link, (3, 1, 2))  # same literal set, different order
    strat._adopt_improvements()
    assert eng.stats.improvements_adopted == 0
    assert not c.removed
    assert c.link is None  # consumed


# ---------------------------------------------------------------- baseline

def test_none_mode_matches_bare_engine_traces(monkeypatch):
    # the schedule reduces in every run, so the bare engine's own
    # `reduce_db` is compared with the one `none` mode calls
    restart_schedule(monkeypatch.setattr, window=8)
    for seed in (0, 1, 2):
        f = gen_random_3sat(30, 128, seed + 40)
        cfg = dict(reduce_first=5, reduce_inc=5)

        bare_events = []
        bare = Engine(f, EngineConfig(**cfg), recorder=bare_events.append)
        status_bare = bare.step()

        pool = SharedPool(1)
        wired_events = []
        wired = Engine(f, EngineConfig(**cfg), worker_id=0,
                       recorder=wired_events.append)
        Strategy("none", wired, pool)
        status_wired = wired.step()

        assert status_bare == status_wired
        search = ("decide", "conflict", "restart")
        trace = [e for e in wired_events if e[0] in search]
        assert trace  # the run decided and learned
        assert [e for e in bare_events if e[0] in search] == trace
        assert bare.stats.conflicts == wired.stats.conflicts
        assert bare.stats.propagations_total == wired.stats.propagations_total
        assert bare.stats.restarts == wired.stats.restarts
        assert bare.stats.reductions == wired.stats.reductions > 0
        if status_bare == SAT:
            assert bare.model() == wired.model()
