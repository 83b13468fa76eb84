"""Sequential CDCL engine: one instance per portfolio worker.

Two-watched-literal propagation, first-UIP conflict analysis with recursive
minimization, VSIDS branching with phase saving, dynamic-LBD or Luby
restarts, and activity/LBD-based database reduction with protection flags.

Watched literals live in clause positions 0 and 1.  A clause that propagates
always has the implied literal at position 0, so ``reason[v].lits[0]`` is the
literal the clause forced.  Imported clauses with a weak LBD are kept on a
single watch (lazy standby): they can still raise conflicts but never
propagate, which is sound because they are implied by the input formula.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from .formula import Clause
from .stats import Stats

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

# Imported clauses at least this strong are two-watched immediately;
# weaker ones go on the one-watch standby.
IMPORT_TWO_WATCH_LBD = 4

# A dynamic restart fires when the recent LBD mean exceeds RESTART_K times
# the global mean; clause activity decays by CLAUSE_DECAY per conflict.
RESTART_K = 0.8
CLAUSE_DECAY = 0.999


def luby(i):
    """i-th element (1-indexed) of the Luby sequence 1,1,2,1,1,2,4,..."""
    assert i >= 1
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


@dataclass
class EngineConfig:
    restart_kind: str = "dynamic"  # "dynamic" or "luby"
    restart_window: int = 50
    luby_unit: int = 100
    var_decay: float = 0.95
    phase_init: bool = False
    reduce_first: int = 2000
    reduce_inc: int = 300


def should_restart(cfg, recent_lbds, global_lbd_mean, conflicts_since_restart,
                   restart_index):
    """Restart decision under the restart fields of an EngineConfig.

    Dynamic mode fires when the sliding window of ``restart_window`` LBDs is
    full and its mean exceeds `RESTART_K` times the global mean.  Luby mode
    fires when the conflicts since the last restart reach
    ``luby_unit * luby(restart_index)``.
    """
    if cfg.restart_kind == "luby":
        return conflicts_since_restart >= cfg.luby_unit * luby(restart_index)
    if len(recent_lbds) < cfg.restart_window:
        return False
    window_mean = sum(recent_lbds) / len(recent_lbds)
    return window_mean > RESTART_K * global_lbd_mean


class Engine:
    """A single CDCL solver over an immutable Formula.

    Owned by exactly one worker; all cross-worker traffic goes through the
    ``pool`` (see the exchange module).  ``hooks`` is the strategy object
    driving vivification and exports; without hooks the engine behaves as a
    plain baseline solver.  ``recorder``, when set, is the run's event sink:
    the engine, its strategy, vivification and export call it with one plain
    tuple per event, ``(kind, worker, ...)`` (README lists the kinds).  The
    engine's own are ``("decide", w, lit)``, ``("conflict", w, lbd)``,
    ``("restart", w)`` and ``("reduce_remove", w, cid, protected)``.
    """

    def __init__(self, formula, config=None, stats=None, pool=None, worker_id=0,
                 recorder=None):
        self.formula = formula
        self.cfg = config or EngineConfig()
        self.stats = stats if stats is not None else Stats()
        self.pool = pool
        self.worker_id = worker_id
        self.recorder = recorder
        self.hooks = None

        n = formula.num_vars
        self.num_vars = n
        # litval is indexed by lit+n: 1 true, -1 false, 0 unassigned
        self.litval = [0] * (2 * n + 1)
        self.level = [0] * (n + 1)
        self.reason = [None] * (n + 1)
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.decision_level = 0
        self.seen = bytearray(n + 1)

        self.activity = [0.0] * (n + 1)
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.saved_phase = [self.cfg.phase_init] * (n + 1)

        self.lbd_window = deque(maxlen=self.cfg.restart_window)
        self._lbd_sum = 0
        self._since_restart = 0

        self.next_reduce = self.cfg.reduce_first

        self.watches = [[] for _ in range(2 * n + 1)]
        self.watches_one = [[] for _ in range(2 * n + 1)]
        self.originals = []
        self.learned_db = []
        self._cid = 0
        self._terminal = None

        self._in_vivify = False
        # probe rollback records, see _propagate_probe and undo_probe_moves
        self._probe_swaps = []
        self._probe_lists = {}

        if formula.contains_empty:
            self._terminal = UNSAT
        watches = self.watches
        originals = self.originals
        cid = 0
        for lits in formula.clauses:
            if len(lits) == 1:
                l = lits[0]
                if not self._enqueue(l, None):
                    self._terminal = UNSAT  # contradictory input units
            else:
                cid += 1
                c = Clause(lits, 1, False, False, cid)
                originals.append(c)
                watches[lits[0] + n].append(c)
                watches[lits[1] + n].append(c)
        self._cid = cid

    # ------------------------------------------------------------------
    # assignment and watches

    def value(self, lit):
        return self.litval[lit + self.num_vars]

    def _enqueue(self, lit, reason_clause):
        n = self.num_vars
        val = self.litval[lit + n]
        if val != 0:
            return val == 1
        v = lit if lit > 0 else -lit
        self.litval[lit + n] = 1
        self.litval[-lit + n] = -1
        self.level[v] = self.decision_level
        self.reason[v] = reason_clause
        self.trail.append(lit)
        return True

    def assume(self, lit):
        """Open a new decision level and assign ``lit`` as a decision."""
        self.trail_lim.append(len(self.trail))
        self.decision_level += 1
        ok = self._enqueue(lit, None)
        assert ok, "assumed an already-falsified literal"

    def backtrack(self, blevel):
        """Undo all assignments above ``blevel``."""
        if self.decision_level <= blevel:
            return
        n = self.num_vars
        litval = self.litval
        reason = self.reason
        saved_phase = self.saved_phase
        trail = self.trail
        mark = self.trail_lim[blevel]
        save_phase = not self._in_vivify
        # each variable appears once on the trail, so the order is free
        for lit in trail[mark:]:
            v = lit if lit > 0 else -lit
            litval[lit + n] = 0
            litval[n - lit] = 0
            reason[v] = None
            if save_phase:
                saved_phase[v] = lit > 0
        del trail[mark:]
        del self.trail_lim[blevel:]
        self.qhead = mark
        self.decision_level = blevel

    def _attach(self, c):
        n = self.num_vars
        self.watches[c.lits[0] + n].append(c)
        self.watches[c.lits[1] + n].append(c)

    def _attach_one(self, c, wlit):
        c.one_watched = True
        self.watches_one[wlit + self.num_vars].append(c)

    def _detach(self, c):
        n = self.num_vars
        if c.one_watched:
            for l in c.lits:
                wl = self.watches_one[l + n]
                if c in wl:
                    wl.remove(c)
                    return
            raise AssertionError("one-watched clause not found in any watch list")
        self.watches[c.lits[0] + n].remove(c)
        self.watches[c.lits[1] + n].remove(c)

    def undo_probe_moves(self):
        """Roll back every watch move made during a vivification probe.

        Afterwards every clause has its pre-probe literal order again (so the
        same watched positions), and every watch list holds the clauses it
        held before the probe.  Order within a list is fixed too: a list the
        probe processed keeps the residents that stayed, in their original
        order, followed by the residents that moved out, in reverse order of
        their moves; a list the probe only appended to is cut back to its
        pre-probe contents.  No list is scanned: the literal swaps are
        replayed in reverse, then each touched list is truncated and
        extended once.
        """
        for c, a, b in reversed(self._probe_swaps):
            lits = c.lits
            lits[a], lits[b] = lits[b], lits[a]
        for wl, keep, moved in self._probe_lists.values():
            del wl[keep - len(moved):]
            if moved:
                moved.reverse()
                wl.extend(moved)
        self._probe_swaps.clear()
        self._probe_lists.clear()

    # ------------------------------------------------------------------
    # propagation

    def propagate(self):
        """Boolean constraint propagation to fixpoint.

        Returns the conflicting clause, or None.  Every processed trail
        literal counts as one propagation.  Inside a vivification probe the
        work goes to `_propagate_probe`, which also attributes the
        propagations to vivification.
        """
        if self._in_vivify:
            return self._propagate_probe()
        n = self.num_vars
        litval = self.litval
        watches = self.watches
        watches_one = self.watches_one
        trail = self.trail
        level = self.level
        reason = self.reason
        dl = self.decision_level
        confl = None
        start = qhead = self.qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            np_ = -p  # the falsified literal
            fidx = n + np_
            wl = watches[fidx]
            # Compact in place: entries kept are written back to wl[:j], the
            # ones that moved to another list are dropped.  A move never
            # appends to wl itself (its target literal is not false).
            j = moved = 0
            for c in wl:
                lits = c.lits
                if lits[0] == np_:
                    lits[0] = lits[1]
                    lits[1] = np_
                first = lits[0]
                if litval[first + n] == 1:
                    wl[j] = c
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    lk = lits[k]
                    if litval[lk + n] != -1:
                        lits[1] = lk
                        lits[k] = np_
                        watches[lk + n].append(c)
                        moved += 1
                        break
                else:
                    wl[j] = c
                    j += 1
                    if litval[first + n] == -1:
                        confl = c
                        break
                    # unit: lits[0] is implied
                    litval[first + n] = 1
                    litval[n - first] = -1
                    v = first if first > 0 else -first
                    level[v] = dl
                    reason[v] = c
                    trail.append(first)
            if confl is not None:
                # wl[j:j + moved] holds stale copies of visited entries; the
                # unvisited rest must stay
                del wl[j:j + moved]
                break
            del wl[j:]
            # one-watch standby list: moves watches, detects full conflicts,
            # never propagates
            ol = watches_one[fidx]
            if ol:
                j = 0
                for c in ol:
                    for lk in c.lits:
                        if lk != np_ and litval[lk + n] != -1:
                            watches_one[lk + n].append(c)
                            break
                    else:
                        ol[j] = c
                        j += 1
                        if confl is None:
                            confl = c
                del ol[j:]
                if confl is not None:
                    break
        self.qhead = qhead
        self.stats.propagations_total += qhead - start
        return confl

    def _propagate_probe(self):
        """`propagate` inside a vivification probe, recording its rollback.

        Inside one probe assignments only grow, so each falsified literal's
        watch lists are processed at most once and nothing moves into them
        afterwards.  That lets the rollback restore each list from two
        records made here: its length before the probe first appended to it
        or processed it, and the pre-probe residents that moved out of it.

        A watch move swaps the falsified watch, at position 0 or 1, straight
        with position k.  Positions 2 and up thus hold what the search loop
        would leave there, and positions 0 and 1 the same two literals,
        maybe swapped.  They are put in search order (implied or other watch
        at 0, falsified watch at 1) only when the clause becomes a reason or
        the conflict: conflict analysis reads the literal order of no other
        clause.  Every literal swap is logged for the rollback.
        """
        n = self.num_vars
        litval = self.litval
        watches = self.watches
        watches_one = self.watches_one
        trail = self.trail
        level = self.level
        reason = self.reason
        dl = self.decision_level
        swaps = self._probe_swaps
        touched = self._probe_lists  # key -> (list, pre-probe length, moved out)
        confl = None
        nprops = 0
        qhead = self.qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            nprops += 1
            np_ = -p  # the falsified literal
            fidx = n - p
            wl = watches[fidx]
            if wl:
                rec = touched.get(fidx)
                if rec is None:
                    rec = touched[fidx] = (wl, len(wl), [])
                _, keep, moved = rec
                i = j = 0
                end = len(wl)
                while i < end:
                    c = wl[i]
                    i += 1
                    lits = c.lits
                    first = lits[0]
                    if first == np_:
                        first = lits[1]
                        w = 0
                    else:
                        w = 1
                    if litval[first + n] == 1:
                        wl[j] = c
                        j += 1
                        continue
                    for k in range(2, len(lits)):
                        lk = lits[k]
                        if litval[lk + n] != -1:
                            lits[w] = lk
                            lits[k] = np_
                            swaps.append((c, w, k))
                            t = lk + n
                            tl = watches[t]
                            if t not in touched:
                                touched[t] = (tl, len(tl), [])
                            tl.append(c)
                            if i <= keep:
                                moved.append(c)
                            break
                    else:
                        wl[j] = c
                        j += 1
                        if w == 0:
                            lits[0] = first
                            lits[1] = np_
                            swaps.append((c, 0, 1))
                        if litval[first + n] == -1:
                            while i < end:
                                wl[j] = wl[i]
                                j += 1
                                i += 1
                            confl = c
                            break
                        # unit: lits[0] is implied
                        litval[first + n] = 1
                        litval[n - first] = -1
                        v = first if first > 0 else -first
                        level[v] = dl
                        reason[v] = c
                        trail.append(first)
                del wl[j:]
                if confl is not None:
                    break
            ol = watches_one[fidx]
            if ol:
                key = ~fidx  # one-watch lists use negative keys
                rec = touched.get(key)
                if rec is None:
                    rec = touched[key] = (ol, len(ol), [])
                _, keep, moved = rec
                i = j = 0
                end = len(ol)
                while i < end:
                    c = ol[i]
                    i += 1
                    for lk in c.lits:
                        if lk != np_ and litval[lk + n] != -1:
                            t = lk + n
                            tl = watches_one[t]
                            if ~t not in touched:
                                touched[~t] = (tl, len(tl), [])
                            tl.append(c)
                            if i <= keep:
                                moved.append(c)
                            break
                    else:
                        ol[j] = c
                        j += 1
                        if confl is None:
                            confl = c
                del ol[j:]
                if confl is not None:
                    break
        self.qhead = qhead
        stats = self.stats
        stats.propagations_total += nprops
        stats.propagations_vivify += nprops
        return confl

    # ------------------------------------------------------------------
    # conflict analysis

    def compute_lbd(self, lits):
        """Number of distinct decision levels among the (assigned) literals."""
        level = self.level
        return max(1, len({level[l if l > 0 else -l] for l in lits}))

    def analyze_conflict(self, confl, bump=True):
        """First-UIP analysis with recursive minimization.

        Returns (learned literals, backtrack level, lbd).  The asserting
        literal is at position 0 and the highest remaining level at position
        1.  ``bump=False`` suppresses all heuristic updates so vivification
        probes leave VSIDS and clause activities untouched.
        """
        seen = self.seen
        trail = self.trail
        level = self.level
        reason = self.reason
        act = self.activity
        var_inc = self.var_inc
        cur = self.decision_level
        learnt = [0]
        to_clear = []
        pathc = 0
        p = 0
        idx = len(trail) - 1
        c = confl
        while True:
            if bump and c.learned:
                self._bump_clause(c)
                if c.lbd > 2:
                    tightened = self.compute_lbd(c.lits)
                    if tightened < c.lbd:
                        c.lbd = tightened
            # a reason clause's lits[0] is the literal it implied: skip it
            for q in (c.lits[1:] if p else c.lits):
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    to_clear.append(v)
                    if bump:
                        a = act[v] + var_inc
                        act[v] = a
                        if a > 1e100:
                            self._rescale_var_activity()
                            var_inc = self.var_inc
                    if level[v] >= cur:
                        pathc += 1
                    else:
                        learnt.append(q)
            while True:
                p = trail[idx]
                idx -= 1
                pv = p if p > 0 else -p
                if seen[pv]:
                    break
            pathc -= 1
            if pathc <= 0:
                break
            c = reason[pv]
            seen[pv] = 0
        learnt[0] = -p
        for v in to_clear:
            seen[v] = 0

        learnt = self.minimize_learned(learnt)

        if len(learnt) == 1:
            blevel = 0
        else:
            # the first literal of the highest level goes to position 1
            mi = 1
            q = learnt[1]
            blevel = level[q if q > 0 else -q]
            for i in range(2, len(learnt)):
                q = learnt[i]
                lv = level[q if q > 0 else -q]
                if lv > blevel:
                    mi = i
                    blevel = lv
            learnt[1], learnt[mi] = learnt[mi], learnt[1]
        lbd = self.compute_lbd(learnt)
        return learnt, blevel, lbd

    def minimize_learned(self, lits):
        """Remove literals made redundant by the implication graph.

        ``lits[0]`` (the asserting literal) is always retained; any removed
        literal is implied false by the negation of the remaining clause.
        """
        if len(lits) <= 1:
            return lits
        seen = self.seen
        reason = self.reason
        level = self.level
        to_clear = []
        for q in lits:
            v = q if q > 0 else -q
            seen[v] = 1
            to_clear.append(v)
        clause_levels = {level[q if q > 0 else -q] for q in lits[1:]}
        kept = [lits[0]]
        for q in lits[1:]:
            r = reason[q if q > 0 else -q]
            if r is None:
                kept.append(q)
                continue
            # q is redundant iff a depth-first walk over reasons reaches only
            # seen or level-0 variables; the walk stops at a decision or at a
            # level absent from the clause
            top = len(to_clear)
            stack = [r]
            while stack:
                for l in stack.pop().lits[1:]:
                    v = l if l > 0 else -l
                    if seen[v] or level[v] == 0:
                        continue
                    rv = reason[v]
                    if rv is None or level[v] not in clause_levels:
                        break
                    seen[v] = 1
                    to_clear.append(v)
                    stack.append(rv)
                else:
                    continue
                # not redundant: unmark what this walk marked, keep q
                for v in to_clear[top:]:
                    seen[v] = 0
                del to_clear[top:]
                kept.append(q)
                break
        for v in to_clear:
            seen[v] = 0
        return kept

    # ------------------------------------------------------------------
    # heuristics

    def _rescale_var_activity(self):
        act = self.activity
        for i in range(1, self.num_vars + 1):
            act[i] *= 1e-100
        self.var_inc *= 1e-100

    def _bump_clause(self, c):
        c.activity += self.cla_inc
        if c.activity > 1e20:
            for cl in self.learned_db:
                cl.activity *= 1e-20
            self.cla_inc *= 1e-20

    def _decay(self):
        self.var_inc /= self.cfg.var_decay
        self.cla_inc /= CLAUSE_DECAY

    def decide(self):
        """Pick the unassigned variable of maximal activity (ties: lowest
        index) with its saved phase; None when all variables are assigned."""
        n = self.num_vars
        if len(self.trail) == n:
            return None
        litval = self.litval
        act = self.activity
        best = 0
        best_a = -1.0
        for v in range(1, n + 1):
            if litval[v + n] == 0 and act[v] > best_a:
                best = v
                best_a = act[v]
        return best if self.saved_phase[best] else -best

    # ------------------------------------------------------------------
    # clause lifecycle

    def _learn(self, lits, lbd):
        self.stats.clauses_learned += 1
        self._cid += 1
        c = Clause(lits, lbd, True, False, self._cid)
        c.activity = self.cla_inc
        if len(lits) >= 2:
            # unit lemmas are enqueued at level 0 and never stored
            self.learned_db.append(c)
            self._attach(c)
        self._enqueue(lits[0], c if len(lits) >= 2 else None)
        return c

    def locked(self, c):
        """True iff the clause is the reason of its implied literal."""
        l0 = c.lits[0]
        return self.litval[l0 + self.num_vars] == 1 and self.reason[abs(l0)] is c

    def reduce_db(self):
        """Glucose-style halving of the removable learned clauses.

        Reasons on the trail, binary clauses, and protected clauses always
        survive.  The removable rest is sorted worst-first (high LBD, then
        low activity) and the worst half is dropped.
        """
        removable = [c for c in self.learned_db
                     if len(c.lits) > 2 and not c.protected
                     and not c.removed and not self.locked(c)]
        removable.sort(key=lambda c: (-c.lbd, c.activity))
        ndel = len(removable) // 2
        for c in removable[:ndel]:
            self.remove_clause(c)
            if self.recorder is not None:
                self.recorder(("reduce_remove", self.worker_id, c.cid, c.protected))
        self.learned_db = [c for c in self.learned_db if not c.removed]
        stats = self.stats
        stats.reductions += 1
        self.next_reduce = (stats.conflicts + self.cfg.reduce_first
                            + self.cfg.reduce_inc * stats.reductions)
        return ndel

    def _admit(self, lits, lbd, imported=False):
        """Add a learned clause at decision level 0: the one way in for
        imports and vivified replacements.

        A clause true at level 0 is dropped; one with no unassigned literal
        marks the engine UNSAT; a single unassigned literal is enqueued and
        propagated (a conflict marks the engine UNSAT).  Any other clause
        joins the learned database with its LBD clamped to [1, len].  An
        import whose claimed LBD is at least `IMPORT_TWO_WATCH_LBD` goes on
        the one-watch standby at its first unassigned literal; every other
        clause watches two unassigned literals, moved into its own positions
        0 and 1.  An import counts in ``clauses_imported`` unless dropped or
        refuted.  Returns the new Clause, or None.
        """
        assert self.decision_level == 0
        n = self.num_vars
        litval = self.litval
        if any(litval[l + n] == 1 for l in lits):
            return None
        free = [l for l in lits if litval[l + n] == 0]
        if not free:
            self._terminal = UNSAT
            return None
        if imported:
            self.stats.clauses_imported += 1
        if len(free) == 1:
            self._enqueue(free[0], None)
            if self.propagate() is not None:
                self._terminal = UNSAT
            return None
        self._cid += 1
        c = Clause(lits, max(1, min(lbd, len(lits))), True, imported, self._cid)
        self.learned_db.append(c)
        if imported and lbd >= IMPORT_TWO_WATCH_LBD:
            self._attach_one(c, free[0])
        else:
            own = c.lits
            for pos in (0, 1):
                i = own.index(free[pos])
                own[pos], own[i] = own[i], own[pos]
            self._attach(c)
        return c

    def replace_clause(self, old, new_lits, new_lbd):
        """Swap ``old`` for a strictly stronger clause, at decision level 0.

        The replacement is admitted by `_admit`, so ``new_lbd`` is clamped
        to [1, len(new_lits)], and takes over the old clause's activity and
        flags.  Returns the new attached Clause, or None when the
        replacement dissolved (satisfied at level 0, enqueued as a unit, or
        derived a level-0 conflict, which marks the engine UNSAT).
        """
        self.remove_clause(old)
        c = self._admit(new_lits, new_lbd)
        if c is not None:
            c.imported = old.imported
            c.activity = old.activity
            c.vivify_attempted = old.vivify_attempted
            c.protected = old.protected
        return c

    def remove_clause(self, c):
        """Detach and drop a clause: satisfied at level 0, replaced or reduced."""
        self._detach(c)
        c.removed = True
        v0 = abs(c.lits[0])
        if self.reason[v0] is c:  # level-0 reasons may dangle otherwise
            self.reason[v0] = None

    # ------------------------------------------------------------------
    # clause import

    def _integrate_imports(self):
        """Drain the inbound share buffer at decision level 0.

        Each record goes through `_admit`, which keys the watch policy on
        the exporter's claimed LBD.  Returns the number of records
        integrated (level-0 conflicts mark the engine UNSAT).
        """
        records = self.pool.drain(self.worker_id)
        if not records:
            return 0
        stats = self.stats
        before = stats.clauses_imported
        for rec in records:
            c = self._admit(rec.lits, rec.lbd, imported=True)
            if c is not None and rec.cid is not None:
                c.link = (rec.origin, rec.cid)
            if self._terminal is not None:
                break
        return stats.clauses_imported - before

    # ------------------------------------------------------------------
    # search

    def _restart_due(self):
        conflicts = self.stats.conflicts
        if conflicts == 0 or self._since_restart == 0:
            return False
        mean = self._lbd_sum / conflicts
        return should_restart(self.cfg, self.lbd_window, mean,
                              self._since_restart, self.stats.restarts + 1)

    def step(self, pause_after=None, stop=None, deadline=None, conflict_limit=None):
        """Run the search loop: the engine's one entry point.

        Returns SAT/UNSAT on a definitive answer, UNKNOWN when the stop
        signal, deadline, or conflict limit fires, and None when
        ``pause_after`` conflicts elapsed in this step (resumable).  With
        ``pause_after=None`` it runs to an answer or a budget.
        """
        if self._terminal is not None:
            return self._terminal
        stats = self.stats
        start_conflicts = stats.conflicts
        while True:
            confl = self.propagate()
            if confl is not None:
                if self.decision_level == 0:
                    self._terminal = UNSAT
                    return UNSAT
                stats.conflicts += 1
                self._since_restart += 1
                lits, blevel, lbd = self.analyze_conflict(confl)
                self.backtrack(blevel)
                c = self._learn(lits, lbd)
                self.lbd_window.append(lbd)
                self._lbd_sum += lbd
                self._decay()
                if self.recorder is not None:
                    self.recorder(("conflict", self.worker_id, lbd))
                if self.hooks is not None:
                    self.hooks.on_learn(c)
                continue
            if self._terminal is not None:
                return self._terminal
            if self.decision_level == 0:
                if self.pool is not None and self._integrate_imports():
                    if self._terminal is not None:
                        return self._terminal
                    continue
                if self._terminal is not None:
                    return self._terminal
                if self.hooks is not None:
                    self.hooks.on_level_zero()
                    if self._terminal is not None:
                        return self._terminal
                    if self.qhead < len(self.trail):
                        continue
            if self._restart_due():
                stats.restarts += 1
                self._since_restart = 0
                self.lbd_window.clear()
                self.backtrack(0)
                if self.recorder is not None:
                    self.recorder(("restart", self.worker_id))
                if self.hooks is not None:
                    self.hooks.on_restart()
                    if self._terminal is not None:
                        return self._terminal
                continue
            if stats.conflicts >= self.next_reduce and not (
                    self.hooks is not None and self.hooks.reduce_pending):
                if self.hooks is not None:
                    self.hooks.before_reduce()
                    if self._terminal is not None:
                        return self._terminal
                else:
                    self.reduce_db()
                continue
            if stop is not None and stop.is_set():
                return UNKNOWN
            if conflict_limit is not None and stats.conflicts >= conflict_limit:
                return UNKNOWN
            if deadline is not None and time.monotonic() >= deadline:
                return UNKNOWN
            if pause_after is not None and stats.conflicts - start_conflicts >= pause_after:
                return None
            lit = self.decide()
            if lit is None:
                self._terminal = SAT
                return SAT
            if self.recorder is not None:
                self.recorder(("decide", self.worker_id, lit))
            self.assume(lit)

    def model(self):
        """The satisfying assignment as signed literals, one per variable."""
        n = self.num_vars
        litval = self.litval
        return [v if litval[v + n] == 1 else -v for v in range(1, n + 1)]

    # ------------------------------------------------------------------
    # debug helpers

    def check_watches(self):
        """Assert the watched-literal invariants (slow; debug only)."""
        n = self.num_vars
        live = [c for c in self.originals + self.learned_db
                if not c.removed and len(c.lits) >= 2]
        for c in live:
            if c.one_watched:
                hits = sum(1 for l in c.lits if c in self.watches_one[l + n])
                assert hits == 1, f"one-watched {c!r} on {hits} lists"
            else:
                assert c in self.watches[c.lits[0] + n], f"{c!r} missing watch 0"
                assert c in self.watches[c.lits[1] + n], f"{c!r} missing watch 1"
                if self.qhead == len(self.trail):
                    v0, v1 = self.value(c.lits[0]), self.value(c.lits[1])
                    assert not (v0 == -1 and v1 == -1), f"{c!r} has two false watches"
                    if v0 == -1:
                        assert v1 == 1, f"{c!r} false watch 0 without satisfied partner"
                    if v1 == -1:
                        assert v0 == 1, f"{c!r} false watch 1 without satisfied partner"
        for idx, wl in enumerate(self.watches):
            for c in wl:
                lit = idx - n
                assert not c.one_watched, f"one-watched {c!r} on a two-watch list"
                assert lit in (c.lits[0], c.lits[1]), f"stale watch entry for {c!r}"
                assert not c.removed, f"removed clause {c!r} still watched"
        for idx, ol in enumerate(self.watches_one):
            for c in ol:
                assert c.one_watched, f"two-watched {c!r} on a one-watch list"
                assert idx - n in c.lits, f"stale one-watch entry for {c!r}"
                assert not c.removed, f"removed clause {c!r} still watched"
        return True
