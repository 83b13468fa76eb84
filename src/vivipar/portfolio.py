"""Run N diversified workers over one formula and race them to an answer.

Every run takes round-robin turns on the calling thread: each worker in
index order searches for a quantum of conflicts, then the next worker takes
its turn, until one answers, every worker has spent its conflict budget, or
the time limit passes.  Workers share only the clause pool.  A worker's
engine is built at its first turn, so one that never gets a turn costs
nothing.  The schedule depends on no clock, so a run's search, stats and
events are the same on every rerun unless the time limit fires; deterministic
mode also pins the reported wall time to 0, which makes whole stats CSVs
byte-reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace

from .cdcl import SAT, UNKNOWN, Engine, EngineConfig
from .exchange import SharedPool
from .formula import evaluate
from .stats import Stats, merge_stats
from .strategy import Strategy, mode_from_label

class ConfigError(Exception):
    """Contradictory or out-of-range portfolio configuration."""


class WorkerFault(Exception):
    """A worker raised; the run was stopped without an answer.

    ``worker`` is the index of the worker that failed; the original
    exception is chained as ``__cause__``.
    """

    def __init__(self, worker, error):
        super().__init__(f"worker {worker} failed: {type(error).__name__}: {error}")
        self.worker = worker


@dataclass
class PortfolioConfig:
    num_workers: int = 1
    lcm: str = "none"  # a mode label, canonical: "ecm3", not "ecm"
    seed: int = 0
    deterministic: bool = False  # pins the reported wall time to 0
    time_limit: float | None = None
    conflict_limit: int | None = None
    quantum: int = 512  # conflicts per worker turn
    reduce_first: int = 2000
    reduce_inc: int = 300
    recorder: object = None  # event sink, see Engine

    def validate(self):
        if self.num_workers < 1:
            raise ConfigError("num_workers must be >= 1")
        try:
            canonical = mode_from_label(self.lcm) == self.lcm
        except ValueError:
            canonical = False
        if not canonical:
            raise ConfigError(f"lcm must be none, pcm, lpcm or ecmN (N >= 1), "
                              f"not {self.lcm!r}")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ConfigError("time_limit must be positive")
        if self.conflict_limit is not None and self.conflict_limit < 0:
            raise ConfigError("conflict_limit must be >= 0")
        if self.quantum < 1:
            raise ConfigError("quantum must be >= 1")
        # a zero schedule hangs (reductions with no conflict between them)
        if self.reduce_first < 1:
            raise ConfigError("reduce_first must be >= 1")
        if self.reduce_inc < 0:
            raise ConfigError("reduce_inc must be >= 0")


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
    decay 0.95, initial phase false) under the portfolio's reduction
    schedule.  Odd workers run Luby restarts and inverted initial phase;
    workers past 0 jitter the VSIDS decay inside [0.85, 0.99) from the seed.
    The restart window and Luby unit are the same for every worker
    (`cdcl.RESTART_WINDOW`, `cdcl.LUBY_UNIT`), and so is the minimization
    mode (homogeneous portfolio).
    """
    base = EngineConfig(reduce_first=config.reduce_first,
                        reduce_inc=config.reduce_inc)
    if worker_index == 0:
        return base
    rng = random.Random((config.seed * 2654435761 + worker_index) & 0xFFFFFFFF)
    return replace(
        base,
        restart_kind="luby" if worker_index % 2 == 1 else "dynamic",
        var_decay=round(0.85 + 0.14 * rng.random(), 4),
        phase_init=worker_index % 2 == 1,
    )


def _build_worker(index, formula, config, pool, stats):
    """Build worker ``index``: its engine, counting into ``stats``, with a
    strategy over ``pool`` installed as the engine's hooks."""
    engine = Engine(formula, diversify(index, config), stats, worker_id=index,
                    recorder=config.recorder)
    Strategy(config.lcm, engine, pool)
    return engine


def run(formula, config):
    """Solve one formula with the configured portfolio.

    The first definitive answer wins and ends the run.  A Sat model is
    verified against the formula before it is reported.  An exception in any
    worker ends the run and raises `WorkerFault`.
    """
    config.validate()
    n = config.num_workers
    pool = SharedPool(n)
    stats = [Stats() for _ in range(n)]
    engines = [None] * n

    def build(i):
        return _build_worker(i, formula, config, pool, stats[i])

    start = time.monotonic()
    status, winner = _run_round_robin(engines, build, config)
    # deterministic mode pins the reported time so runs are byte-reproducible
    wall = 0.0 if config.deterministic else time.monotonic() - start

    model = None
    if status == SAT:
        model = engines[winner].model()
        if not evaluate(formula, model):
            raise RuntimeError("winning model failed verification")
    for i, engine in enumerate(engines):
        stats[i].buffer_overflows += pool.overflows[i]
        if engine is not None:
            # break the engine <-> strategy cycle: reference counting alone
            # then frees the finished run
            engine.hooks = None
    return PortfolioResult(status=status, model=model, winner=winner,
                           wall_seconds=wall, worker_stats=stats)


def _run_round_robin(engines, build, config):
    """Give each worker a turn of ``config.quantum`` conflicts in order.
    ``engines[i]`` stays None until worker i's first turn, which builds it
    with ``build(i)``."""
    deadline = (time.monotonic() + config.time_limit
                if config.time_limit is not None else None)
    active = [True] * len(engines)
    while any(active):
        for i in range(len(engines)):
            if not active[i]:
                continue
            if deadline is not None and time.monotonic() >= deadline:
                return UNKNOWN, None  # no worker is built past the deadline
            try:
                if engines[i] is None:
                    engines[i] = build(i)
                status = engines[i].step(pause_after=config.quantum,
                                         deadline=deadline,
                                         conflict_limit=config.conflict_limit)
            except Exception as e:
                raise WorkerFault(i, e) from e
            if status is None:
                continue  # quantum used up; next worker's turn
            if status == UNKNOWN:
                active[i] = False
                continue
            return status, i
    return UNKNOWN, None
