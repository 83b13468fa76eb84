"""Cross-worker clause sharing: export filter, inbound buffers, improvements.

Exported clauses are copied into every other worker's inbound buffer as
immutable records.  Under LPCM a record also carries the origin's clause
id; the origin's clause and each imported copy hold the key ``(origin,
cid)``, under which the origin later publishes the strengthened literals
once, and importers look it up in the pool during their reductions.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import NamedTuple

# A worker's inbound buffer holds at most this many records.
MAX_PENDING = 1 << 16
# Longer clauses are never exported, whatever their LBD.
EXPORT_MAX_LEN = 30
# Clauses with a higher LBD are never exported, whatever their length.
EXPORT_MAX_LBD = 4


class DoublePublish(Exception):
    """An improvement was published twice under one key; at most once."""


class SharedClause(NamedTuple):
    """One exported clause record as seen by importers."""
    lits: tuple
    lbd: int
    origin: int
    cid: int | None = None  # the origin's clause id, set under LPCM


class SharedPool:
    """Per-worker inbound buffers and one dict of published improvements.

    Buffers hold at most `MAX_PENDING` records each and drop the oldest on
    overflow, counted per worker in ``overflows``; producers append under a
    per-buffer lock, and each worker drains only its own buffer and never
    sees its own exports.  Improvements are looked up, never drained: one
    must stay readable until every importer of its clause has looked its key
    up, so the dict never shrinks during a run.  The locks make the pool safe
    to share between threads; `portfolio.run` itself calls it from one.
    """

    def __init__(self, num_workers):
        self.num_workers = num_workers
        self._buffers = [deque() for _ in range(num_workers)]
        self._locks = [threading.Lock() for _ in range(num_workers)]
        self.overflows = [0] * num_workers
        self._improvements = {}
        self._publish_lock = threading.Lock()

    def broadcast(self, record):
        """Append a record to every buffer except the origin's."""
        for w in range(self.num_workers):
            if w == record.origin:
                continue
            with self._locks[w]:
                buf = self._buffers[w]
                if len(buf) >= MAX_PENDING:
                    buf.popleft()
                    self.overflows[w] += 1
                buf.append(record)

    def drain(self, worker):
        """Remove and return all pending records for ``worker``, FIFO."""
        buf = self._buffers[worker]
        if not buf:
            return []
        with self._locks[worker]:
            out = list(buf)
            buf.clear()
        return out

    def pending(self, worker):
        return len(self._buffers[worker])

    def publish(self, key, lits):
        """Store the improved literals of clause ``key = (origin, cid)``,
        at most once per key."""
        lits = tuple(lits)
        with self._publish_lock:
            if key in self._improvements:
                raise DoublePublish(f"improvement of {key} already published")
            self._improvements[key] = lits

    def improvement(self, key):
        """The literals published under ``key``, or None.  Lock-free: one
        dict store puts the key and its finished tuple in place."""
        return self._improvements.get(key)


def export(pool, worker, clause, mode, lits=None, lbd=None, stats=None,
           recorder=None):
    """Export a clause of ``worker`` if its LBD is at most `EXPORT_MAX_LBD`
    and it has at most `EXPORT_MAX_LEN` literals.

    ``lits``/``lbd`` override the clause's current form (the ECM flush
    exports the post-vivification form).  In LPCM mode a clause the worker
    has not yet tried to vivify (else nothing is left to publish) gets the
    link ``(worker, cid)`` and its cid goes in the record; units cannot
    shrink, so they never carry a link.  ``stats`` and ``recorder`` are the
    exporting engine's.
    Returns True when the record was exported; a pool of one worker has
    nobody to export to.
    """
    if pool.num_workers == 1:
        return False
    lits = tuple(lits if lits is not None else clause.lits)
    lbd = lbd if lbd is not None else clause.lbd
    if lbd > EXPORT_MAX_LBD or len(lits) > EXPORT_MAX_LEN:
        return False
    cid = None
    if mode == "lpcm" and not clause.vivify_attempted and len(lits) >= 2:
        cid = clause.cid
        clause.link = (worker, cid)
    record = SharedClause(lits, lbd, worker, cid)
    pool.broadcast(record)
    if stats is not None:
        stats.clauses_exported += 1
    if recorder is not None:
        recorder(("export", worker, clause.cid, lits, lbd, clause.vivify_attempted))
    return True
