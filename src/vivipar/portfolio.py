"""Run N diversified workers over one formula and race them to an answer.

Parallel mode runs one thread per worker; the shared pool is the only
mutable structure they touch in common, and a cooperative stop event is
polled at every decision.  Deterministic mode runs the same workers on one
thread, round-robin with a fixed conflict quantum per turn, which makes
whole runs (including the stats) exactly reproducible; there a worker's
engine is built at its first turn, so one that never gets a turn costs
nothing.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field, replace

from .cdcl import SAT, UNSAT, UNKNOWN, Engine, EngineConfig
from .exchange import SharedPool
from .formula import evaluate
from .stats import Stats, merge_stats
from .strategy import LcmMode, NONE, Strategy

MAX_DEFAULT_WORKERS = 34


class ConfigError(Exception):
    """Contradictory or out-of-range portfolio configuration."""


class WorkerFault(Exception):
    """A worker raised; the run was stopped without an answer.

    ``worker`` is the index of the first worker that failed; the original
    exception is chained as ``__cause__``.
    """

    def __init__(self, worker, error):
        super().__init__(f"worker {worker} failed: {type(error).__name__}: {error}")
        self.worker = worker


def default_workers():
    return min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS)


@dataclass
class PortfolioConfig:
    num_workers: int = 1
    lcm: LcmMode = NONE
    seed: int = 0
    deterministic: bool = False
    time_limit: float | None = None
    conflict_limit: int | None = None
    export_max_lbd: int = 4
    quantum: int = 512  # conflicts per worker turn in deterministic mode
    reduce_first: int = 2000
    reduce_inc: int = 300
    restart_window: int = 50
    luby_unit: int = 100
    recorder: object = None  # event sink, see Engine

    def validate(self):
        if self.num_workers < 1:
            raise ConfigError("num_workers must be >= 1")
        if self.lcm.ecm_max_lbd < 1:
            raise ConfigError("ecm_max_lbd must be >= 1")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ConfigError("time_limit must be positive")
        if self.conflict_limit is not None and self.conflict_limit < 0:
            raise ConfigError("conflict_limit must be >= 0")
        if self.quantum < 1:
            raise ConfigError("quantum must be >= 1")
        if self.export_max_lbd < 1:
            raise ConfigError("export_max_lbd must be >= 1")


@dataclass
class PortfolioResult:
    status: str
    model: list | None
    winner: int | None
    wall_seconds: float
    worker_stats: list = field(default_factory=list)

    def aggregate(self):
        return merge_stats(self.worker_stats)


def diversify(worker_index, config):
    """Deterministic per-worker engine configuration.

    Worker 0 is the reference: `EngineConfig`'s defaults (dynamic restarts,
    decay 0.95, initial phase false) under the portfolio's schedule.  Odd
    workers run Luby restarts and inverted initial phase; workers past 0
    jitter the VSIDS decay inside [0.85, 0.99) from the seed.  The
    minimization mode is the same for every worker (homogeneous portfolio).
    """
    base = EngineConfig(
        restart_window=config.restart_window,
        luby_unit=config.luby_unit,
        reduce_first=config.reduce_first,
        reduce_inc=config.reduce_inc,
    )
    if worker_index == 0:
        return base
    rng = random.Random((config.seed * 2654435761 + worker_index) & 0xFFFFFFFF)
    return replace(
        base,
        restart_kind="luby" if worker_index % 2 == 1 else "dynamic",
        var_decay=round(0.85 + 0.14 * rng.random(), 4),
        phase_init=worker_index % 2 == 1,
    )


class _Worker:
    """One portfolio worker.  Its Engine and Strategy are built at first use,
    so a deterministic worker that never gets a turn costs nothing and
    reports an all-zero `Stats`."""

    __slots__ = ("index", "stats", "_formula", "_config", "_pool",
                 "_engine", "_strategy")

    def __init__(self, index, formula, config, pool):
        self.index = index
        self.stats = Stats()
        self._formula = formula
        self._config = config
        self._pool = pool
        self._engine = None
        self._strategy = None

    def build(self):
        """Build the engine and its strategy, once."""
        if self._engine is not None:
            return
        config = self._config
        self._engine = Engine(self._formula, diversify(self.index, config),
                              self.stats, pool=self._pool, worker_id=self.index,
                              recorder=config.recorder)
        self._strategy = Strategy(config.lcm, self._engine, config.export_max_lbd)

    @property
    def engine(self):
        self.build()
        return self._engine

    @property
    def strategy(self):
        self.build()
        return self._strategy


def run(formula, config):
    """Solve one formula with the configured portfolio.

    The first definitive answer wins; the rest are cancelled cooperatively.
    A Sat model is verified against the formula before it is reported.  An
    exception in any worker stops the others and raises `WorkerFault`, in
    both modes.
    """
    config.validate()
    pool = SharedPool(config.num_workers)
    workers = [_Worker(i, formula, config, pool) for i in range(config.num_workers)]
    if not config.deterministic:
        # every engine exists before the first thread starts searching
        for w in workers:
            w.build()

    start = time.monotonic()
    if config.deterministic:
        status, winner = _run_round_robin(workers, config)
        wall = 0.0  # reported time is pinned so runs are byte-reproducible
    else:
        status, winner = _run_threads(workers, config)
        wall = time.monotonic() - start

    model = None
    if status == SAT:
        model = workers[winner].engine.model()
        if not evaluate(formula, model):
            raise RuntimeError("winning model failed verification")
    for i, w in enumerate(workers):
        w.stats.buffer_overflows += pool.overflows[i]
        if w._engine is not None:
            # break the engine <-> strategy cycle: reference counting alone
            # then frees the finished run
            w._engine.hooks = None
    return PortfolioResult(status=status, model=model, winner=winner,
                           wall_seconds=wall,
                           worker_stats=[w.stats for w in workers])


def _run_round_robin(workers, config):
    deadline = (time.monotonic() + config.time_limit
                if config.time_limit is not None else None)
    active = [True] * len(workers)
    while any(active):
        for w in workers:
            if not active[w.index]:
                continue
            if deadline is not None and time.monotonic() >= deadline:
                return UNKNOWN, None  # no worker is built past the deadline
            try:
                # .engine builds the worker at its first turn
                status = w.engine.step(pause_after=config.quantum,
                                       deadline=deadline,
                                       conflict_limit=config.conflict_limit)
            except Exception as e:
                raise WorkerFault(w.index, e) from e
            if status is None:
                continue  # quantum used up; next worker's turn
            if status == UNKNOWN:
                active[w.index] = False
                continue
            return status, w.index
    return UNKNOWN, None


def _run_threads(workers, config):
    stop = threading.Event()
    deadline = (time.monotonic() + config.time_limit
                if config.time_limit is not None else None)
    result = {}
    faults = []
    lock = threading.Lock()

    def drive(w):
        try:
            status = w.engine.step(stop=stop, deadline=deadline,
                                   conflict_limit=config.conflict_limit)
        except Exception as e:
            with lock:
                faults.append((w.index, e))
            stop.set()
            return
        if status in (SAT, UNSAT):
            with lock:
                if "status" not in result:
                    result["status"] = status
                    result["winner"] = w.index
            stop.set()

    threads = [threading.Thread(target=drive, args=(w,), daemon=True)
               for w in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if faults:
        index, error = faults[0]
        raise WorkerFault(index, error) from error
    if "status" in result:
        return result["status"], result["winner"]
    return UNKNOWN, None
