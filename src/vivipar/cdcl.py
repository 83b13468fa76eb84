"""Sequential CDCL engine: one instance per portfolio worker.

Two-watched-literal propagation, first-UIP conflict analysis with recursive
minimization, VSIDS branching with phase saving, dynamic-LBD or Luby
restarts, and activity/LBD-based database reduction with protection flags.

Watched literals live in clause positions 0 and 1.  A clause that propagates
always has the implied literal at position 0, so ``reason[v].lits[0]`` is the
literal the clause forced.  Every clause watches two literals: imports and
vivified replacements are admitted at level 0 watching two unassigned ones.
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

# A dynamic restart fires when the mean LBD of the last RESTART_WINDOW
# conflicts exceeds RESTART_K times the global mean; a Luby restart fires
# after LUBY_UNIT * luby(i) conflicts.  Clause activity decays by
# CLAUSE_DECAY per conflict.
RESTART_K = 0.8
RESTART_WINDOW = 50
LUBY_UNIT = 100
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
    var_decay: float = 0.95
    phase_init: bool = False
    reduce_first: int = 2000
    reduce_inc: int = 300


def should_restart(cfg, recent_lbds, global_lbd_mean, conflicts_since_restart,
                   restart_index):
    """Restart decision under ``cfg.restart_kind``.

    Dynamic mode fires when the sliding window of `RESTART_WINDOW` LBDs is
    full and its mean exceeds `RESTART_K` times the global mean.  Luby mode
    fires when the conflicts since the last restart reach
    ``LUBY_UNIT * luby(restart_index)``.
    """
    if cfg.restart_kind == "luby":
        return conflicts_since_restart >= LUBY_UNIT * luby(restart_index)
    if len(recent_lbds) < RESTART_WINDOW:
        return False
    window_mean = sum(recent_lbds) / len(recent_lbds)
    return window_mean > RESTART_K * global_lbd_mean


class Engine:
    """A single CDCL solver over an immutable Formula.

    Owned by exactly one worker, and knows nothing of sharing: all
    cross-worker traffic goes through the pool, which only ``hooks`` (the
    strategy object driving vivification, exports and imports) touches.
    Without hooks the engine behaves as a plain baseline solver.
    ``recorder``, when set, is the run's event sink: the engine, its
    strategy, vivification and export call it with one plain tuple per
    event, ``(kind, worker, ...)`` (README lists the kinds).  The
    engine's own are ``("decide", w, lit)``, ``("conflict", w, lbd)``,
    ``("restart", w)`` and ``("reduce_remove", w, cid, protected)``.
    """

    def __init__(self, formula, config=None, stats=None, worker_id=0,
                 recorder=None):
        self.cfg = config or EngineConfig()
        self.stats = stats if stats is not None else Stats()
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

        self.lbd_window = deque(maxlen=RESTART_WINDOW)
        self._lbd_sum = 0
        self._since_restart = 0

        self.next_reduce = self.cfg.reduce_first

        self.watches = [[] for _ in range(2 * n + 1)]
        self.originals = []
        self.learned_db = []
        self._cid = 0
        self._terminal = None
        self._deadline = None  # of the running step()

        watches = self.watches
        originals = self.originals
        cid = 0
        for lits in formula.clauses:
            if len(lits) > 1:
                cid += 1
                c = Clause(lits, 1, False, False, cid)
                originals.append(c)
                watches[lits[0] + n].append(c)
                watches[lits[1] + n].append(c)
            elif not lits or not self._enqueue(lits[0], None):
                self._terminal = UNSAT  # an empty clause or contradictory units
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

    def backtrack(self, blevel, save_phase=True):
        """Undo all assignments above ``blevel``.  ``save_phase=False``
        keeps the saved phases, so vivification probes leave them untouched."""
        if self.decision_level <= blevel:
            return
        n = self.num_vars
        litval = self.litval
        reason = self.reason
        saved_phase = self.saved_phase
        trail = self.trail
        mark = self.trail_lim[blevel]
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

    def _detach(self, c):
        n = self.num_vars
        self.watches[c.lits[0] + n].remove(c)
        self.watches[c.lits[1] + n].remove(c)

    def undo_probe_moves(self, clause):
        """End a vivification probe: put the probed clause back on the watch
        lists of its positions 0 and 1, which the probe left untouched."""
        self._attach(clause)

    # ------------------------------------------------------------------
    # propagation

    def propagate(self):
        """Boolean constraint propagation to fixpoint.

        Returns the conflicting clause, or None.  Every processed trail
        literal counts as one propagation.  Vivification probes run this
        kernel too, with the probed clause detached.
        """
        n = self.num_vars
        litval = self.litval
        watches = self.watches
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
            wl = watches[n + np_]
            # Compact in place: entries kept are written back to wl[:j], the
            # ones that moved to another list are dropped.  A move never
            # appends to wl itself (its target literal is not false).
            # Most clauses are short, so position 2 is tried inline and the
            # scan from position 3 runs only for clauses of 4+ literals.
            j = moved = 0
            for c in wl:
                lits = c.lits
                first = lits[0]
                if first == np_:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = np_
                if litval[first + n] == 1:
                    wl[j] = c
                    j += 1
                    continue
                size = len(lits)
                if size > 2:
                    lk = lits[2]
                    if litval[lk + n] != -1:
                        lits[1] = lk
                        lits[2] = np_
                        watches[lk + n].append(c)
                        moved += 1
                        continue
                    if size > 3:
                        for k in range(3, size):
                            lk = lits[k]
                            if litval[lk + n] != -1:
                                lits[1] = lk
                                lits[k] = np_
                                watches[lk + n].append(c)
                                moved += 1
                                break
                        else:
                            k = 0  # no replacement
                        if k:
                            continue
                # no replacement watch: unit or conflict
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
            if moved:
                del wl[j:]
        self.qhead = qhead
        self.stats.propagations_total += qhead - start
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
        # resolved variables were unmarked, so `seen` marks learnt's variables
        learnt = self.minimize_learned(learnt)
        if len(learnt) == 1:
            return learnt, 0, 1
        levels = [level[q if q > 0 else -q] for q in learnt]
        # the first literal of the highest remaining level goes to position 1
        blevel = max(levels[1:])
        i = levels.index(blevel, 1)
        learnt[1], learnt[i] = learnt[i], learnt[1]
        return learnt, blevel, len(set(levels))

    def minimize_learned(self, lits):
        """Remove literals made redundant by the implication graph.

        ``lits[0]`` (the asserting literal) is always retained; any removed
        literal is implied false by the negation of the remaining clause.
        On entry ``seen`` marks exactly the variables of ``lits``, as
        `analyze_conflict` leaves it; on return no variable is marked.
        """
        seen = self.seen
        reason = self.reason
        level = self.level
        to_clear = []
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
        for q in lits:
            seen[q if q > 0 else -q] = 0
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
        joins the learned database with its LBD clamped to [1, len] and
        watches two unassigned literals, moved into its own positions 0 and
        1.  An import counts in ``clauses_imported`` unless dropped or
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
    # search

    def _restart_due(self):
        conflicts = self.stats.conflicts
        if conflicts == 0 or self._since_restart == 0:
            return False
        mean = self._lbd_sum / conflicts
        return should_restart(self.cfg, self.lbd_window, mean,
                              self._since_restart, self.stats.restarts + 1)

    def interrupted(self):
        """True once the deadline of the running `step` has passed; the
        hooks test it between vivifications."""
        deadline = self._deadline
        return deadline is not None and time.monotonic() >= deadline

    def step(self, pause_after=None, deadline=None, conflict_limit=None):
        """Run the search loop: the engine's one entry point.

        Returns SAT/UNSAT on a definitive answer, UNKNOWN when the deadline
        (a `time.monotonic` value) or the conflict limit fires, and None
        when ``pause_after`` conflicts elapsed in this step (resumable); the
        portfolio gives each worker turns of ``pause_after`` conflicts.
        With ``pause_after=None`` it runs to an answer or a budget.  The
        deadline is tested before each decision and, through `interrupted`,
        between the clauses of a vivification pass.
        """
        if self._terminal is not None:
            return self._terminal
        self._deadline = deadline
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
            if self.decision_level == 0 and self.hooks is not None:
                self.hooks.on_level_zero()
                if self._terminal is not None:
                    return self._terminal
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
            if stats.conflicts >= self.next_reduce:
                # hooks that defer the reduction hear of it again before
                # each decision, until they reduce
                if self.hooks is not None:
                    self.hooks.before_reduce()
                    if self._terminal is not None:
                        return self._terminal
                else:
                    self.reduce_db()
            if self.interrupted() or (conflict_limit is not None
                                      and stats.conflicts >= conflict_limit):
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
                assert lit in (c.lits[0], c.lits[1]), f"stale watch entry for {c!r}"
                assert not c.removed, f"removed clause {c!r} still watched"
        return True
