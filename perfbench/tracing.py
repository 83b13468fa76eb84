"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the vivipar modules from
outside (nothing in ``src/vivipar`` knows about it) and records one span per
call: id, parent id, layer name, start and end (``perf_counter`` seconds).
Spans are kept in memory, one buffer per thread, and written out once at
the end of the run.  A span's self time is its duration minus the time its
child spans cover; the tracer sums self time and calls per layer as it goes.

Inside ``vivify_clause`` only the probe's propagation and watch rollback
get spans of their own (``vivify.propagate``, ``vivify.undo``); every other
engine call made by a probe counts as the probe's self time, so search-side
layers (``cdcl.*``) never include vivification work.

``Engine.step`` is the root of each worker's search.  Around it the tracer
also reads ``time.thread_time()``, which gives each worker's CPU time and,
as the rest of its wall time, the time it waited for the interpreter lock
or for a processor.
"""

from __future__ import annotations

import json
import threading
import time
from array import array

COLUMNS = (("id", "q"), ("parent", "q"), ("name", "H"), ("start", "d"), ("end", "d"))


def layer_table(vivipar):
    """(owner, attribute, layer name, layer name under vivify_clause).

    A layer name of None means the call gets no span of its own there.
    Functions that strategy.py imports by name are patched in both modules.
    """
    Engine = vivipar.cdcl.Engine
    Strategy = vivipar.strategy.Strategy
    table = [
        (vivipar.formula, "parse_dimacs", "formula.parse", None),
        (vivipar.portfolio, "run", "portfolio.run", None),
        (Engine, "__init__", "cdcl.init", None),
        (Engine, "step", "cdcl.step", None),
        (Engine, "propagate", "cdcl.propagate", "vivify.propagate"),
        (Engine, "decide", "cdcl.decide", None),
        (Engine, "analyze_conflict", "cdcl.analyze", None),
        (Engine, "minimize_learned", "cdcl.minimize", None),
        (Engine, "backtrack", "cdcl.backtrack", None),
        (Engine, "reduce_db", "cdcl.reduce_db", None),
        (Engine, "undo_probe_moves", "vivify.undo", "vivify.undo"),
        (vivipar.exchange, "export", "exchange.export", None),
        (vivipar.exchange.SharedPool, "drain", "exchange.drain", None),
    ]
    for hook in ("on_learn", "on_restart", "before_reduce", "on_level_zero"):
        table.append((Strategy, hook, "strategy.hooks", None))
    for module in (vivipar.vivify, vivipar.strategy):
        table += [
            (module, "vivify_clause", "vivify.probe", None),
            (module, "select_candidates", "vivify.select", None),
            (module, "apply_outcome", "vivify.apply", None),
        ]
    return table


class _ThreadLog:
    """Span buffers and running totals of one thread."""

    def __init__(self, tid, num_names):
        self.next_id = tid << 40
        self.stack = []  # frames [span id, time covered by children]
        self.in_vivify = 0
        self.columns = [array(code) for _, code in COLUMNS]
        self.self_time = [0.0] * num_names
        self.calls = [0] * num_names
        self.cpu = 0.0
        self.wall = 0.0


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``."""

    def __init__(self, vivipar):
        self._table = layer_table(vivipar)
        self.names = sorted({n for _, _, a, b in self._table for n in (a, b) if n})
        self._index = {n: i for i, n in enumerate(self.names)}
        self._local = threading.local()
        self._logs = []
        self._lock = threading.Lock()
        self._saved = []

    def _log(self):
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs), len(self.names))
                self._logs.append(log)
            self._local.log = log
        return log

    def install(self):
        for owner, attr, outer, inner in self._table:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, outer, inner,
                                            marks_vivify=outer == "vivify.probe",
                                            reads_cpu=outer == "cdcl.step"))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, outer, inner, marks_vivify, reads_cpu):
        outer_id = self._index[outer]
        inner_id = self._index[inner] if inner else -1
        get_log = self._log
        perf = time.perf_counter
        cpu_clock = time.thread_time

        def traced(*args, **kwargs):
            log = get_log()
            nid = inner_id if log.in_vivify else outer_id
            if nid < 0:
                return fn(*args, **kwargs)
            stack = log.stack
            sid = log.next_id
            log.next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            if marks_vivify:
                log.in_vivify += 1
            c0 = cpu_clock() if reads_cpu else 0.0
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                if reads_cpu:
                    log.cpu += cpu_clock() - c0
                    log.wall += t1 - t0
                if marks_vivify:
                    log.in_vivify -= 1
                stack.pop()
                dur = t1 - t0
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    parent_id = parent[0]
                else:
                    parent_id = -1
                log.self_time[nid] += dur - frame[1]
                log.calls[nid] += 1
                ids, parents, names, starts, ends = log.columns
                ids.append(sid)
                parents.append(parent_id)
                names.append(nid)
                starts.append(t0)
                ends.append(t1)

        traced.__wrapped__ = fn
        return traced

    # -- results -------------------------------------------------------

    def self_time(self, name):
        i = self._index[name]
        return sum(log.self_time[i] for log in self._logs)

    def calls(self, name):
        i = self._index[name]
        return sum(log.calls[i] for log in self._logs)

    def self_total_here(self, exclude=()):
        """Summed self time of every layer on the calling thread."""
        log = self._log()
        return sum(t for name, t in zip(self.names, log.self_time)
                   if name not in exclude)

    def worker_cpu_wall(self):
        """Summed CPU and wall seconds spent inside ``Engine.step``."""
        return (sum(log.cpu for log in self._logs),
                sum(log.wall for log in self._logs))

    def span_count(self):
        return sum(len(log.columns[0]) for log in self._logs)

    def write(self, path, meta):
        """Write every span: one JSON header line, then each column's raw
        bytes in COLUMNS order (native byte order)."""
        header = dict(meta, names=self.names, count=self.span_count(),
                      columns=[list(c) for c in COLUMNS])
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for k in range(len(COLUMNS)):
                for log in self._logs:
                    log.columns[k].tofile(fh)


def load_spans(path):
    """Read a file written by ``Tracer.write``: (header, {column: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for name, code in header["columns"]:
            a = array(code)
            a.fromfile(fh, header["count"])
            cols[name] = a
    return header, cols
