"""When vivification runs and how improvements flow: none, PCM, LPCM, ECM.

* none: baseline — learned clauses are exported through the filter, the
  database is reduced on schedule, nothing is vivified.
* PCM: before each database reduction (deferred to decision level 0) the
  most promising own clauses are vivified; improvements stay private.
* LPCM: PCM, plus successful vivifications of exported clauses are
  published to the pool under the key (origin, cid); importers look their
  copies' keys up during their own reductions, swapping in improvements.
* ECM: freshly learned clauses with LBD <= ecm_max_lbd are withheld from
  export and protected from reduction; at the next restart they are
  vivified, exported in final form, and unprotected.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import exchange
from .vivify import (apply_outcome, satisfied_at_root, select_candidates,
                     vivify_clause)


@dataclass(frozen=True)
class LcmMode:
    kind: str  # "none" | "pcm" | "lpcm" | "ecm"
    ecm_max_lbd: int = 3

    @property
    def label(self):
        if self.kind == "ecm":
            return f"ecm{self.ecm_max_lbd}"
        return self.kind


NONE = LcmMode("none")
PCM = LcmMode("pcm")
LPCM = LcmMode("lpcm")


def ecm(max_lbd=3):
    if max_lbd < 1:
        raise ValueError("ecm_max_lbd must be >= 1")
    return LcmMode("ecm", ecm_max_lbd=max_lbd)


def mode_from_label(label):
    """Inverse of LcmMode.label, e.g. "ecm4" -> LcmMode("ecm", 4)."""
    if label.startswith("ecm") and label != "ecm":
        return ecm(int(label[3:]))
    if label in ("none", "pcm", "lpcm"):
        return LcmMode(label)
    if label == "ecm":
        return ecm()
    raise ValueError(f"unknown lcm mode {label!r}")


class Strategy:
    """Per-worker minimization workflow, installed as the engine's hooks.

    Clauses go to and improvements come from the engine's pool; a clause is
    exported only with LBD <= ``export_max_lbd``.
    """

    def __init__(self, mode, engine, export_max_lbd=4):
        self.mode = mode
        self.engine = engine
        self.export_max_lbd = export_max_lbd
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
        mode = self.mode
        if (mode.kind == "ecm" and not clause.vivify_attempted
                and clause.lbd <= mode.ecm_max_lbd):
            clause.protected = True
            self.ecm_withheld.append(clause)
            if recorder is not None:
                recorder(("withhold", self.engine.worker_id, clause.cid))
            return
        self._export(clause)

    def on_restart(self):
        """The engine just backtracked to level 0 for a restart."""
        if self.mode.kind == "ecm":
            self._flush_withheld()
        elif self.reduce_pending:
            self._vivify_and_reduce()

    def before_reduce(self):
        """The reduction schedule fired."""
        if self.mode.kind in ("pcm", "lpcm"):
            if self.engine.decision_level > 0:
                # vivification needs level 0: defer; deferred firings coalesce
                self.reduce_pending = True
            else:
                self._vivify_and_reduce()
        else:
            self.engine.reduce_db()

    def on_level_zero(self):
        """Quiescent at level 0 (restart or natural backjump)."""
        if self.reduce_pending:
            self._vivify_and_reduce()

    # -- internals -----------------------------------------------------

    def _export(self, clause, lits=None, lbd=None):
        eng = self.engine
        if eng.pool is None:
            return False
        return exchange.export(eng.pool, eng.worker_id, clause,
                               self.export_max_lbd, self.mode, lits=lits, lbd=lbd,
                               stats=eng.stats, recorder=eng.recorder)

    def _vivify(self, c):
        """Vivify one clause at level 0 and fold the outcome back.

        Returns the outcome, or None when the clause was already removed or
        is satisfied at the root (and is removed now).
        """
        eng = self.engine
        if c.removed:
            return None
        if satisfied_at_root(eng, c):
            eng.remove_clause(c)
            return None
        out = vivify_clause(eng, c)
        apply_outcome(eng, c, out)
        return out

    def _flush_withheld(self):
        """Vivify every withheld clause, export its final form, unprotect."""
        eng = self.engine
        while self.ecm_withheld:
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
        """PCM/LPCM: vivify the candidate set, then reduce the database."""
        self.reduce_pending = False
        eng = self.engine
        for c in select_candidates(eng.learned_db):
            out = self._vivify(c)
            if (self.mode.kind == "lpcm" and out is not None and out.success
                    and c.link is not None):
                eng.pool.publish(c.link, out.new_lits)
                eng.stats.improvements_published += 1
                if eng.recorder is not None:
                    eng.recorder(("publish", eng.worker_id, out.new_lits))
            if eng._terminal is not None:
                return
        if self.mode.kind == "lpcm":
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
            lits = eng.pool.improvement(c.link)
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
