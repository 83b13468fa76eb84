"""Cross-worker clause sharing: export filter, inbound buffers, mailboxes.

Exported clauses are copied into every other worker's inbound buffer as
immutable records.  Under LPCM a record also carries the origin's clause
id; the origin's clause and each imported copy hold the key ``(origin,
cid)``, under which the origin later publishes the strengthened literals
once, and importers look it up in their mailboxes during their reductions.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

DEFAULT_MAX_PENDING = 1 << 16


class DoublePublish(Exception):
    """An improvement was published twice under one key; at most once."""


@dataclass(frozen=True)
class ExportFilter:
    """A clause is exported iff lbd <= max_lbd and len <= max_len."""
    max_lbd: int = 4
    max_len: int = 30

    def passes(self, lits, lbd):
        return lbd <= self.max_lbd and len(lits) <= self.max_len


class SharedClause(NamedTuple):
    """One exported clause record as seen by importers."""
    lits: tuple
    lbd: int
    origin: int
    cid: int | None = None  # the origin's clause id, set under LPCM


class SharedPool:
    """Per-worker inbound buffers and improvement mailboxes.

    Buffers are bounded, drop-oldest on overflow; producers append under a
    per-buffer lock, and each worker drains only its own buffer and never
    sees its own exports.  Mailboxes are looked up, never drained.
    """

    def __init__(self, num_workers, max_pending=DEFAULT_MAX_PENDING):
        self.num_workers = num_workers
        self.max_pending = max_pending
        self._buffers = [deque() for _ in range(num_workers)]
        self._locks = [threading.Lock() for _ in range(num_workers)]
        self.overflows = [0] * num_workers
        self._mailboxes = [{} for _ in range(num_workers)]

    def broadcast(self, record):
        """Append a record to every buffer except the origin's."""
        for w in range(self.num_workers):
            if w == record.origin:
                continue
            with self._locks[w]:
                buf = self._buffers[w]
                if len(buf) >= self.max_pending:
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
        """Store the improved literals of clause ``key = (origin, cid)`` in
        every mailbox; the origin's copy only catches a second publish."""
        lits = tuple(lits)
        for w in range(self.num_workers):
            with self._locks[w]:
                box = self._mailboxes[w]
                if key in box:
                    raise DoublePublish(f"improvement of {key} already published")
                box[key] = lits

    def improvement(self, worker, key):
        """The literals published under ``key``, or None.  Lock-free: one
        dict store puts the key and its finished tuple in place."""
        return self._mailboxes[worker].get(key)


def export(pool, worker, clause, filt, mode, lits=None, lbd=None, stats=None,
           recorder=None):
    """Export a clause of ``worker`` through the filter.

    ``lits``/``lbd`` override the clause's current form (the ECM flush
    exports the post-vivification form).  In LPCM mode a clause the worker
    has not yet tried to vivify (else nothing is left to publish) gets the
    link ``(worker, cid)`` and its cid goes in the record; units cannot
    shrink, so they never carry a link.  ``stats`` and ``recorder`` are the
    exporting engine's.
    Returns True when the record was exported.
    """
    lits = tuple(lits if lits is not None else clause.lits)
    lbd = lbd if lbd is not None else clause.lbd
    if not filt.passes(lits, lbd):
        return False
    cid = None
    if (mode is not None and getattr(mode, "kind", None) == "lpcm"
            and not clause.vivify_attempted and len(lits) >= 2):
        cid = clause.cid
        clause.link = (worker, cid)
    record = SharedClause(lits, lbd, worker, cid)
    pool.broadcast(record)
    if stats is not None:
        stats.clauses_exported += 1
    if recorder is not None:
        recorder(("export", worker, clause.cid, lits, lbd, clause.vivify_attempted))
    return True
