import dataclasses
import gc
import threading
import time

import pytest

import vivipar
from vivipar.cdcl import SAT, UNSAT, UNKNOWN, Engine, EngineConfig
from vivipar.formula import evaluate
from vivipar.harness import gen_random_3sat
from vivipar.oracle import brute_force
from vivipar.stats import Stats
from vivipar.portfolio import (ConfigError, PortfolioConfig, WorkerFault,
                               _Worker, diversify, run)
from vivipar.strategy import LPCM, NONE, PCM, ecm

from conftest import mk_formula, php


def test_single_worker_deterministic_unsat():
    f = mk_formula(2, [[1, 2], [-1], [-2]])
    res = run(f, PortfolioConfig(num_workers=1, deterministic=True))
    assert res.status == UNSAT
    assert res.winner == 0
    assert res.model is None
    assert res.wall_seconds == 0.0


def test_four_workers_sat_model_verified():
    f = gen_random_3sat(25, 95, seed=5)
    assert brute_force(f)[0] == "SAT"
    res = run(f, PortfolioConfig(num_workers=4, lcm=PCM, time_limit=30))
    assert res.status == SAT
    assert evaluate(f, res.model)
    assert res.winner in range(4)
    assert len(res.worker_stats) == 4


def test_deterministic_reruns_identical():
    f = gen_random_3sat(20, 85, seed=9)
    cfg = dict(num_workers=4, lcm=ecm(3), seed=7, deterministic=True,
               reduce_first=20, reduce_inc=10, restart_window=8, luby_unit=10)
    r1 = run(f, PortfolioConfig(**cfg))
    r2 = run(f, PortfolioConfig(**cfg))
    assert r1.status == r2.status and r1.winner == r2.winner
    assert r1.model == r2.model
    assert r1.worker_stats == r2.worker_stats
    assert r1.wall_seconds == r2.wall_seconds == 0.0


def test_diversify_reference_worker():
    cfg = PortfolioConfig(num_workers=4, seed=3)
    w0 = diversify(0, cfg)
    assert w0.restart_kind == "dynamic"
    assert w0.var_decay == 0.95
    assert w0.phase_init is False


def test_diversify_worker_one_luby_inverted_phase():
    cfg = PortfolioConfig(num_workers=4, seed=3)
    w1 = diversify(1, cfg)
    assert w1.restart_kind == "luby"
    assert w1.phase_init is True
    assert 0.85 <= w1.var_decay < 0.99


def test_diversify_is_deterministic():
    cfg = PortfolioConfig(num_workers=8, seed=11)
    for i in range(8):
        assert diversify(i, cfg) == diversify(i, cfg)
    other = PortfolioConfig(num_workers=8, seed=12)
    assert any(diversify(i, cfg) != diversify(i, other) for i in range(1, 8))


def test_homogeneous_lcm_across_workers():
    from vivipar.exchange import SharedPool
    f = gen_random_3sat(12, 50, seed=0)
    cfg = PortfolioConfig(num_workers=4, lcm=LPCM)
    pool = SharedPool(4)
    workers = [_Worker(i, f, cfg, pool) for i in range(4)]
    assert all(w.strategy.mode == LPCM for w in workers)


def test_config_errors():
    from vivipar.strategy import LcmMode
    f = mk_formula(1, [[1]])
    with pytest.raises(ConfigError):
        run(f, PortfolioConfig(num_workers=0))
    with pytest.raises(ConfigError):
        run(f, PortfolioConfig(time_limit=-1))
    with pytest.raises(ConfigError):
        run(f, PortfolioConfig(time_limit=float("nan")))
    with pytest.raises(ConfigError):
        run(f, PortfolioConfig(quantum=0))
    with pytest.raises(ConfigError):
        run(f, PortfolioConfig(lcm=LcmMode("ecm", 0)))
    with pytest.raises(ConfigError):
        run(f, PortfolioConfig(lcm=LcmMode("pcm", 0)))
    with pytest.raises(ConfigError):
        run(f, PortfolioConfig(export_max_lbd=0))
    with pytest.raises(ValueError):
        ecm(0)


def test_config_surface():
    # every settable value is deliberate: a new knob must edit this test
    assert [f.name for f in dataclasses.fields(PortfolioConfig)] == [
        "num_workers", "lcm", "seed", "deterministic", "time_limit",
        "conflict_limit", "export_max_lbd", "quantum", "reduce_first",
        "reduce_inc", "restart_window", "luby_unit", "recorder"]
    assert [f.name for f in dataclasses.fields(EngineConfig)] == [
        "restart_kind", "restart_window", "luby_unit", "var_decay",
        "phase_init", "reduce_first", "reduce_inc"]
    for name in vivipar.__all__:
        assert getattr(vivipar, name) is not None, name
    assert "ExportFilter" not in vivipar.__all__
    assert "CandidatePolicy" not in vivipar.__all__
    assert not hasattr(vivipar.exchange, "ExportFilter")
    assert not hasattr(vivipar.vivify, "CandidatePolicy")


def test_agreement_across_modes_and_worker_counts():
    for seed in range(8):
        f = gen_random_3sat(16, 68, seed + 77)
        want = brute_force(f)[0]
        for mode in (NONE, PCM, LPCM, ecm(3), ecm(4)):
            for workers in (1, 4):
                res = run(f, PortfolioConfig(
                    num_workers=workers, lcm=mode, deterministic=True,
                    reduce_first=15, reduce_inc=10, restart_window=8,
                    luby_unit=10, quantum=11))
                assert res.status == want, (seed, mode.label, workers)


def test_budget_exhaustion_returns_unknown():
    f = php(7, 6)
    res = run(f, PortfolioConfig(num_workers=2, deterministic=True,
                                 conflict_limit=30))
    assert res.status == UNKNOWN
    assert res.winner is None


def test_deterministic_time_limit_ends_a_turn():
    # one turn would take the whole conflict budget; the deadline must end
    # it long before that
    t0 = time.monotonic()
    res = run(php(9, 8), PortfolioConfig(num_workers=2, deterministic=True,
                                         time_limit=0.3, quantum=10**9,
                                         conflict_limit=5000))
    elapsed = time.monotonic() - t0
    assert res.status == UNKNOWN
    assert all(ws.conflicts < 5000 for ws in res.worker_stats)
    assert elapsed < 3


def test_time_limit_cancels_quickly():
    f = php(9, 8)  # far beyond the budget at desk scale
    t0 = time.monotonic()
    res = run(f, PortfolioConfig(num_workers=4, time_limit=0.5))
    elapsed = time.monotonic() - t0
    assert res.status == UNKNOWN
    assert elapsed < 10  # all workers observed the deadline cooperatively


def test_stop_signal_cancels_at_next_decision():
    f = php(8, 7)
    eng = Engine(f, EngineConfig())
    stop = threading.Event()
    assert eng.step(pause_after=20) is None
    conflicts_before = eng.stats.conflicts
    stop.set()
    assert eng.step(stop=stop) == UNKNOWN
    assert eng.stats.conflicts == conflicts_before  # no further search work


def test_overflow_counts_surface_in_stats():
    f = gen_random_3sat(24, 102, seed=3)
    cfg = PortfolioConfig(num_workers=2, lcm=NONE, deterministic=True,
                          reduce_first=20, restart_window=6, quantum=64)
    from vivipar import portfolio as pf
    from vivipar.exchange import SharedPool
    pool = SharedPool(2, max_pending=4)
    workers = [_Worker(i, f, cfg, pool) for i in range(2)]
    st, _ = pf._run_round_robin(workers, cfg)
    overflowed = sum(pool.overflows)
    total = sum(w.stats.clauses_exported for w in workers)
    if total > 4:
        assert overflowed > 0


# ---------------------------------------------------------- lazy workers

@pytest.fixture
def engine_builds(monkeypatch):
    """Record (worker_id, building thread) for every Engine construction."""
    builds = []
    init = Engine.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        builds.append((self.worker_id, threading.current_thread()))

    monkeypatch.setattr(Engine, "__init__", counting_init)
    return builds


def test_deterministic_idle_worker_never_built(engine_builds):
    # worker 0 answers within its first quantum, so worker 1 gets no turn
    f = gen_random_3sat(20, 60, seed=4)
    res = run(f, PortfolioConfig(num_workers=2, deterministic=True))
    assert res.status == SAT and res.winner == 0
    assert [w for w, _ in engine_builds] == [0]
    assert res.worker_stats[0].conflicts < 512
    assert res.worker_stats[1] == Stats()


def test_deterministic_workers_built_at_first_turn(engine_builds):
    res = run(php(6, 5), PortfolioConfig(num_workers=2, deterministic=True,
                                         quantum=16))
    assert res.status == UNSAT
    assert [w for w, _ in engine_builds] == [0, 1]
    assert all(s.conflicts > 0 for s in res.worker_stats)


def test_threaded_engines_built_before_threads_start(engine_builds, monkeypatch):
    events = []
    start = threading.Thread.start

    def recording_start(self):
        events.append(("start", len(engine_builds)))
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    res = run(php(5, 4), PortfolioConfig(num_workers=3))
    assert res.status == UNSAT
    assert sorted(w for w, _ in engine_builds) == [0, 1, 2]
    assert all(t is threading.main_thread() for _, t in engine_builds)
    assert events == [("start", 3)] * 3


# ---------------------------------------------------------------- faults

def test_worker_fault_in_one_thread_fails_the_run(monkeypatch):
    # worker 1 holds its first decision until worker 0 has failed, so it
    # cannot answer first; it must then be stopped, not reported
    failed = threading.Event()
    decide = Engine.decide

    def faulty_decide(self):
        if self.worker_id == 0:
            failed.set()
            raise RuntimeError("boom")
        failed.wait(10)
        return decide(self)

    monkeypatch.setattr(Engine, "decide", faulty_decide)
    with pytest.raises(WorkerFault) as info:
        run(php(6, 5), PortfolioConfig(num_workers=2))
    assert info.value.worker == 0
    assert str(info.value) == "worker 0 failed: RuntimeError: boom"
    assert isinstance(info.value.__cause__, RuntimeError)


def test_worker_fault_in_every_thread_fails_the_run(monkeypatch):
    def faulty_decide(self):
        raise RuntimeError(f"boom {self.worker_id}")

    monkeypatch.setattr(Engine, "decide", faulty_decide)
    with pytest.raises(WorkerFault) as info:
        run(php(6, 5), PortfolioConfig(num_workers=2))
    w = info.value.worker
    assert w in (0, 1)
    assert str(info.value) == f"worker {w} failed: RuntimeError: boom {w}"
    assert str(info.value.__cause__) == f"boom {w}"


def test_deterministic_mode_propagates_worker_exception(monkeypatch):
    # the same contract as threaded mode: WorkerFault, the error as cause
    def faulty_decide(self):
        raise RuntimeError("boom")

    monkeypatch.setattr(Engine, "decide", faulty_decide)
    with pytest.raises(WorkerFault) as info:
        run(php(6, 5), PortfolioConfig(num_workers=2, deterministic=True))
    assert info.value.worker == 0
    assert str(info.value) == "worker 0 failed: RuntimeError: boom"
    assert isinstance(info.value.__cause__, RuntimeError)


@pytest.mark.parametrize("deterministic", [True, False])
def test_finished_run_freed_by_reference_counting(deterministic):
    # no reference cycle survives a run, so nothing is left for the cyclic GC
    gc.collect()
    gc.disable()
    try:
        run(php(6, 5), PortfolioConfig(num_workers=2, lcm=PCM, reduce_first=30,
                                       deterministic=deterministic))
        assert gc.collect() == 0
    finally:
        gc.enable()
