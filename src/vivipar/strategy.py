"""When vivification runs and how improvements flow: none, PCM, LPCM, ECM.

* none: baseline — learned clauses are exported through the filter, the
  database is reduced on schedule, nothing is vivified.
* PCM: before each database reduction (deferred to decision level 0) the
  most promising own clauses are vivified; improvements stay private.
* LPCM: PCM, plus successful vivifications of exported clauses are
  published to the pool under the key (origin, cid); importers look their
  copies' keys up during their own reductions, swapping in improvements.
* ECM (ecmN): freshly learned clauses with LBD <= N are withheld from
  export and protected from reduction; at the next restart they are
  vivified, exported in final form, and unprotected.
"""

from __future__ import annotations

import re
from collections import deque

from . import exchange
from .vivify import (apply_outcome, satisfied_at_root, select_candidates,
                     vivify_clause)


# "ecmN" with N >= 1 in ASCII digits and no leading zero, so that a label
# and its mode are inverses; at most 9 digits, so that int() never meets
# Python's limit on the digits of a str-to-int conversion
_ECM_LABEL = re.compile(r"ecm([1-9][0-9]{0,8})")


def _ecm_bound(label):
    """N for the ECM mode "ecmN"; 0 for every other label."""
    m = _ECM_LABEL.fullmatch(label) if isinstance(label, str) else None
    return int(m[1]) if m else 0


def mode_from_label(label):
    """The mode that ``label`` names, as its canonical label: none, pcm,
    lpcm or ecmN.  Plain "ecm" means ecm3; any other label is its own
    mode or raises ValueError."""
    if label == "ecm":
        return "ecm3"
    if label in ("none", "pcm", "lpcm") or _ecm_bound(label):
        return label
    raise ValueError(f"unknown lcm mode {label!r}")


class Strategy:
    """Per-worker minimization workflow, installed as the engine's hooks.

    The strategy makes every pool call of its worker: it exports learned
    clauses (only with LBD <= `exchange.EXPORT_MAX_LBD`), admits imports
    at level 0, and publishes and adopts LPCM improvements.  So the record
    format and the LPCM key stay between it and the exchange module.
    """

    def __init__(self, mode, engine, pool):
        self.mode = mode  # a canonical label, see `mode_from_label`
        self.ecm_max_lbd = _ecm_bound(mode)  # 0: not ECM, nothing withheld
        self.engine = engine
        self.pool = pool
        self.reduce_pending = False
        self.ecm_withheld = deque()
        engine.hooks = self

    # -- engine hooks --------------------------------------------------

    def on_learn(self, clause):
        """Export the fresh clause, or withhold it under ECM."""
        if len(clause.lits) == 1:
            # a unit cannot shrink; treat it as vacuously vivified so it is
            # shareable immediately even under ECM
            clause.vivify_attempted = True
        recorder = self.engine.recorder
        if recorder is not None:
            recorder(("learn", self.engine.worker_id, clause.cid, clause.lbd,
                      tuple(clause.lits)))
        if clause.lbd <= self.ecm_max_lbd and not clause.vivify_attempted:
            clause.protected = True
            self.ecm_withheld.append(clause)
            if recorder is not None:
                recorder(("withhold", self.engine.worker_id, clause.cid))
            return
        self._export(clause)

    def on_restart(self):
        """The engine just backtracked to level 0 for a restart."""
        if self.ecm_max_lbd:
            self._flush_withheld()
        elif self.reduce_pending:
            self._vivify_and_reduce()

    def before_reduce(self):
        """The reduction schedule is due; the engine calls this again
        before each decision until the database is reduced."""
        if self.mode in ("pcm", "lpcm"):
            if self.engine.decision_level > 0:
                # vivification needs level 0: defer; deferred firings coalesce
                self.reduce_pending = True
            else:
                self._vivify_and_reduce()
        else:
            self.engine.reduce_db()

    def on_level_zero(self):
        """Quiescent at level 0 (restart or natural backjump).

        Drains the worker's inbound buffer once, admitting each record
        under the exporter's claimed LBD, and stops at the first record that
        leaves the engine terminal.  Then runs a pending PCM/LPCM pass.
        Nothing here broadcasts, and the other workers wait for their turns,
        so the buffer stays empty after the drain.
        """
        eng = self.engine
        for rec in self.pool.drain(eng.worker_id):
            c = eng._admit(rec.lits, rec.lbd, imported=True)
            if c is not None and rec.cid is not None:
                c.link = (rec.origin, rec.cid)
            if eng._terminal is not None:
                return
        if self.reduce_pending:
            self._vivify_and_reduce()

    # -- internals -----------------------------------------------------

    def _export(self, clause, lits=None, lbd=None):
        eng = self.engine
        return exchange.export(self.pool, eng.worker_id, clause, self.mode,
                               lits=lits, lbd=lbd, stats=eng.stats,
                               recorder=eng.recorder)

    def _vivify(self, c):
        """Vivify one clause at level 0 and fold the outcome back.

        Returns the outcome, or None when the clause is satisfied at the
        root (and is removed now).
        """
        eng = self.engine
        if satisfied_at_root(eng, c):
            eng.remove_clause(c)
            return None
        out = vivify_clause(eng, c)
        apply_outcome(eng, c, out)
        return out

    def _flush_withheld(self):
        """Vivify every withheld clause, export its final form, unprotect.
        An interrupted step leaves the rest withheld."""
        eng = self.engine
        while self.ecm_withheld:
            if eng.interrupted():
                return
            c = self.ecm_withheld.popleft()
            c.protected = False
            out = self._vivify(c)
            if out is None:
                continue
            # an Unchanged outcome has no new form: the clause's own goes out
            self._export(c, lits=out.new_lits, lbd=out.new_lbd)
            if eng._terminal is not None:
                return

    def _vivify_and_reduce(self):
        """PCM/LPCM: vivify the candidate set, then reduce the database.
        An interrupted step ends the pass early and leaves the reduction
        pending."""
        self.reduce_pending = False
        eng = self.engine
        for c in select_candidates(eng.learned_db):
            if eng.interrupted():
                self.reduce_pending = True
                return
            out = self._vivify(c)
            if (self.mode == "lpcm" and out is not None and out.success
                    and c.link is not None):
                self.pool.publish(c.link, out.new_lits)
                eng.stats.improvements_published += 1
                if eng.recorder is not None:
                    eng.recorder(("publish", eng.worker_id, out.new_lits))
            if eng._terminal is not None:
                return
        if self.mode == "lpcm":
            self._adopt_improvements()
            if eng._terminal is not None:
                return
        eng.reduce_db()

    def _adopt_improvements(self):
        """Look up the keys of imported clauses and swap in published
        improvements before reduction scoring."""
        eng = self.engine
        for c in list(eng.learned_db):
            if c.removed or not c.imported or c.link is None:
                continue
            lits = self.pool.improvement(c.link)
            if lits is None:
                continue
            c.link = None  # publications are at-most-once; nothing more comes
            if set(lits) == set(c.lits):
                continue
            eng.stats.improvements_adopted += 1
            if eng.recorder is not None:
                eng.recorder(("adopt", eng.worker_id, tuple(c.lits), lits))
            # no analysis LBD: the old one, clamped to the new length
            eng.replace_clause(c, lits, c.lbd)
            if eng._terminal is not None:
                return
