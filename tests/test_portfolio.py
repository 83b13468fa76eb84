import dataclasses
import gc
import inspect
import time

import pytest

import vivipar
from vivipar.cdcl import SAT, UNSAT, UNKNOWN, Engine, EngineConfig
from vivipar.exchange import SharedPool
from vivipar.formula import evaluate
from vivipar.harness import gen_random_3sat
from vivipar.oracle import brute_force
from vivipar.stats import Stats
from vivipar.portfolio import (ConfigError, PortfolioConfig, WorkerFault,
                               _build_worker, diversify, run)

from conftest import mk_formula, php, restart_schedule


def test_single_worker_deterministic_unsat():
    f = mk_formula(2, [[1, 2], [-1], [-2]])
    res = run(f, PortfolioConfig(num_workers=1, deterministic=True))
    assert res.status == UNSAT
    assert res.winner == 0
    assert res.model is None
    assert res.wall_seconds == 0.0


@pytest.mark.parametrize("mode, conflicts, propagations", [
    ("none", 146, 1747), ("pcm", 145, 2083), ("lpcm", 145, 2083),
    ("ecm3", 139, 2388), ("ecm4", 144, 2604)],
    ids=["none", "pcm", "lpcm", "ecm3", "ecm4"])
def test_single_worker_exports_and_publishes_nothing(mode, conflicts, propagations):
    # no other worker would receive an export, so none is counted or
    # recorded and LPCM sets no link to publish under; the search counters
    # are pinned because skipping exports must not steer the search
    log = []
    res = run(php(6, 5), PortfolioConfig(num_workers=1, deterministic=True,
                                         reduce_first=30, lcm=mode,
                                         recorder=log.append))
    s = res.worker_stats[0]
    assert res.status == UNSAT
    assert s.clauses_exported == s.improvements_published == 0
    assert not [e for e in log if e[0] in ("export", "publish")]
    assert (s.conflicts, s.propagations_total) == (conflicts, propagations)


def test_four_workers_sat_model_verified():
    f = gen_random_3sat(25, 95, seed=5)
    assert brute_force(f)[0] == "SAT"
    res = run(f, PortfolioConfig(num_workers=4, lcm="pcm", time_limit=30))
    assert res.status == SAT
    assert evaluate(f, res.model)
    assert res.winner in range(4)
    assert len(res.worker_stats) == 4


def test_deterministic_reruns_identical(monkeypatch):
    restart_schedule(monkeypatch.setattr, window=8, unit=10)
    f = gen_random_3sat(20, 85, seed=9)
    cfg = dict(num_workers=4, lcm="ecm3", seed=7, deterministic=True,
               reduce_first=20, reduce_inc=10)
    r1 = run(f, PortfolioConfig(**cfg))
    r2 = run(f, PortfolioConfig(**cfg))
    assert r1.status == r2.status and r1.winner == r2.winner
    assert r1.model == r2.model
    assert r1.worker_stats == r2.worker_stats
    assert r1.wall_seconds == r2.wall_seconds == 0.0


def test_nondeterministic_reruns_identical():
    # the round-robin schedule reads no clock, so without the flag only the
    # reported wall time differs between reruns
    def solve():
        log = []
        res = run(php(7, 6), PortfolioConfig(num_workers=2, lcm="pcm", seed=3,
                                             reduce_first=100, quantum=64,
                                             recorder=log.append))
        return res, log

    (r1, log1), (r2, log2) = solve(), solve()
    assert r1.status == r2.status == UNSAT
    assert r1.winner == r2.winner
    assert r1.worker_stats == r2.worker_stats
    assert all(s.conflicts > 0 for s in r1.worker_stats)
    assert log1 == log2
    assert r1.wall_seconds > 0 and r2.wall_seconds > 0


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
    f = gen_random_3sat(12, 50, seed=0)
    cfg = PortfolioConfig(num_workers=4, lcm="lpcm")
    pool = SharedPool(4)
    engines = [_build_worker(i, f, cfg, pool, Stats()) for i in range(4)]
    assert all(eng.hooks.mode == "lpcm" for eng in engines)


def test_config_errors():
    f = mk_formula(1, [[1]])
    with pytest.raises(ConfigError):
        run(f, PortfolioConfig(num_workers=0))
    with pytest.raises(ConfigError):
        run(f, PortfolioConfig(time_limit=-1))
    with pytest.raises(ConfigError):
        run(f, PortfolioConfig(time_limit=float("nan")))
    with pytest.raises(ConfigError):
        run(f, PortfolioConfig(quantum=0))
    # the mode is a canonical label: "ecm" is the CLI's spelling of "ecm3"
    for bad in ("ecm0", "pcmm", "ecm", None):
        with pytest.raises(ConfigError, match=f"not {bad!r}$"):
            run(f, PortfolioConfig(lcm=bad))
    # schedules that hung (no reduction gap)
    for bad in (dict(reduce_first=0, reduce_inc=0), dict(reduce_inc=-1)):
        with pytest.raises(ConfigError):
            run(f, PortfolioConfig(deterministic=True, **bad))


def test_config_surface():
    # every settable value is deliberate: a new knob must edit this test
    assert [f.name for f in dataclasses.fields(PortfolioConfig)] == [
        "num_workers", "lcm", "seed", "deterministic", "time_limit",
        "conflict_limit", "quantum", "reduce_first", "reduce_inc", "recorder"]
    assert [f.name for f in dataclasses.fields(EngineConfig)] == [
        "restart_kind", "var_decay", "phase_init", "reduce_first",
        "reduce_inc"]
    # the restart schedule, the buffer bound, the probe budget and the
    # export filter are fixed
    assert list(inspect.signature(SharedPool).parameters) == ["num_workers"]
    assert vivipar.exchange.EXPORT_MAX_LBD == 4
    assert "max_lbd" not in inspect.signature(vivipar.exchange.export).parameters
    assert list(inspect.signature(vivipar.strategy.Strategy).parameters) == [
        "mode", "engine", "pool"]
    assert not hasattr(vivipar.exchange, "DEFAULT_MAX_PENDING")
    assert not hasattr(vivipar.vivify, "VIVIFY_BUDGET")
    for name in vivipar.__all__:
        assert getattr(vivipar, name) is not None, name
    assert "ExportFilter" not in vivipar.__all__
    assert "CandidatePolicy" not in vivipar.__all__
    # a mode is its label: no mode type or mode constants
    for gone in ("LcmMode", "KINDS", "NONE", "PCM", "LPCM", "ecm"):
        assert gone not in vivipar.__all__ and not hasattr(vivipar.strategy, gone)
    assert not hasattr(vivipar.exchange, "ExportFilter")
    assert not hasattr(vivipar.vivify, "CandidatePolicy")


def test_agreement_across_modes_and_worker_counts(monkeypatch):
    restart_schedule(monkeypatch.setattr, window=8, unit=10)
    for seed in range(8):
        f = gen_random_3sat(16, 68, seed + 77)
        want = brute_force(f)[0]
        for mode in ("none", "pcm", "lpcm", "ecm3", "ecm4"):
            for workers in (1, 4):
                res = run(f, PortfolioConfig(
                    num_workers=workers, lcm=mode, deterministic=True,
                    reduce_first=15, reduce_inc=10, quantum=11))
                assert res.status == want, (seed, mode, workers)


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


def test_overflow_counts_surface_in_stats(monkeypatch):
    # worker 0 answers in its first turn after 11 exports into worker 1's
    # buffer of 4, which worker 1 never drains: the 7 dropped records are
    # counted for worker 1, although it never takes a turn
    restart_schedule(monkeypatch.setattr, window=6)
    monkeypatch.setattr(vivipar.exchange, "MAX_PENDING", 4)
    f = gen_random_3sat(24, 102, seed=3)
    res = run(f, PortfolioConfig(num_workers=2, lcm="none", deterministic=True,
                                 reduce_first=20, quantum=64))
    assert (res.status, res.winner) == (SAT, 0)
    w0, w1 = res.worker_stats
    assert (w0.clauses_exported, w0.buffer_overflows) == (11, 0)
    assert (w1.conflicts, w1.buffer_overflows) == (0, 7)


# ---------------------------------------------------------- lazy workers

@pytest.fixture
def engine_builds(monkeypatch):
    """Record the worker_id of every Engine construction, in order."""
    builds = []
    init = Engine.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        builds.append(self.worker_id)

    monkeypatch.setattr(Engine, "__init__", counting_init)
    return builds


def test_deterministic_idle_worker_never_built(engine_builds):
    # worker 0 answers within its first quantum, so worker 1 gets no turn
    f = gen_random_3sat(20, 60, seed=4)
    res = run(f, PortfolioConfig(num_workers=2, deterministic=True))
    assert res.status == SAT and res.winner == 0
    assert engine_builds == [0]
    assert res.worker_stats[0].conflicts < 512
    assert res.worker_stats[1] == Stats()


def test_idle_workers_never_built(engine_builds):
    # the same without the flag, over a wider portfolio
    f = gen_random_3sat(20, 60, seed=4)
    res = run(f, PortfolioConfig(num_workers=8))
    assert res.status == SAT and res.winner == 0
    assert engine_builds == [0]
    assert res.worker_stats[1:] == [Stats()] * 7


def test_deterministic_workers_built_at_first_turn(engine_builds):
    res = run(php(6, 5), PortfolioConfig(num_workers=2, deterministic=True,
                                         quantum=16))
    assert res.status == UNSAT
    assert engine_builds == [0, 1]
    assert all(s.conflicts > 0 for s in res.worker_stats)


# ---------------------------------------------------------------- faults

def test_worker_fault_in_a_later_turn_fails_the_run(monkeypatch):
    # worker 0 is mid-search after its first turn when worker 1 fails at
    # its first decision; the run ends there, without an answer
    decide = Engine.decide

    def faulty_decide(self):
        if self.worker_id == 1:
            raise RuntimeError("boom")
        return decide(self)

    monkeypatch.setattr(Engine, "decide", faulty_decide)
    with pytest.raises(WorkerFault) as info:
        run(php(6, 5), PortfolioConfig(num_workers=2, quantum=16))
    assert info.value.worker == 1
    assert str(info.value) == "worker 1 failed: RuntimeError: boom"
    assert isinstance(info.value.__cause__, RuntimeError)


def test_deterministic_mode_propagates_worker_exception(monkeypatch):
    # every worker fails; the first to take a turn is named
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
        run(php(6, 5), PortfolioConfig(num_workers=2, lcm="pcm", reduce_first=30,
                                       deterministic=deterministic))
        assert gc.collect() == 0
    finally:
        gc.enable()
