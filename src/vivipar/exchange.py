"""Cross-worker clause sharing: export filter, inbound buffers, link cells.

Exported clauses are copied into every other worker's inbound buffer as
immutable records.  Under LPCM each record additionally carries a LinkCell:
a write-once publication slot through which the learning worker can later
share a strengthened version of the clause.  Readers poll it wait-free and
observe either nothing or the complete improved literal sequence; the
single reference assignment in `publish` is atomic under the GIL, and the
published tuple is immutable, so no torn read is possible.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

DEFAULT_MAX_PENDING = 1 << 16


class DoublePublish(Exception):
    """A LinkCell was published twice; publications are at-most-once."""


class LinkCell:
    """Single-writer, many-reader improvement slot for one exported clause."""

    __slots__ = ("_value",)

    def __init__(self):
        self._value = None

    def publish(self, lits):
        if self._value is not None:
            raise DoublePublish("improvement already published on this link")
        self._value = tuple(lits)

    def poll(self):
        """The published literals, or None.  Non-blocking and idempotent."""
        return self._value


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
    link: LinkCell | None = None


class SharedPool:
    """Per-worker inbound buffers; bounded, drop-oldest on overflow.

    Producers append under a per-buffer lock and never block consumers for
    long; each worker drains only its own buffer and never sees its own
    exports.
    """

    def __init__(self, num_workers, max_pending=DEFAULT_MAX_PENDING):
        self.num_workers = num_workers
        self.max_pending = max_pending
        self._buffers = [deque() for _ in range(num_workers)]
        self._locks = [threading.Lock() for _ in range(num_workers)]
        self.overflows = [0] * num_workers

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


def export(pool, worker, clause, filt, mode, lits=None, lbd=None, stats=None,
           recorder=None):
    """Export a clause of ``worker`` through the filter.

    ``lits``/``lbd`` override the clause's current form (the ECM flush
    exports the post-vivification form).  In LPCM mode a fresh LinkCell is
    allocated and attached iff the exporting worker has not yet attempted to
    vivify the clause (an already-vivified clause has nothing left to
    publish); units cannot shrink, so they never carry a link.
    Returns True when the record was exported.
    """
    lits = tuple(lits if lits is not None else clause.lits)
    lbd = lbd if lbd is not None else clause.lbd
    if not filt.passes(lits, lbd):
        return False
    link = None
    if (mode is not None and getattr(mode, "kind", None) == "lpcm"
            and not clause.vivify_attempted and len(lits) >= 2):
        link = LinkCell()
        clause.link = link
    record = SharedClause(lits, lbd, worker, link)
    pool.broadcast(record)
    if stats is not None:
        stats.clauses_exported += 1
    if recorder is not None:
        recorder.on_export(worker, clause, lits, lbd)
    return True
