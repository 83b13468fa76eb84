"""Clause vivification: strengthen a clause by assuming its literals false.

At decision level 0, the negation of each literal is assumed in clause order
and propagated.  Three things can happen:

* a conflict: the first-UIP clause derived over the assumption levels
  replaces the original (kept only when strictly shorter);
* some literal of the clause turns out true under the assumptions: the
  clause shrinks to the processed prefix plus that literal;
* a literal is already false without having been assumed: it is dropped.

A probe runs the search kernel with the probed clause detached, since that
clause would otherwise imply its own last literal.  It leaves the assignment,
the heuristics (activities, phases) and every clause's literal set as it
found them, and changes only the counters and the clause's attempted flag.
The order of the watch lists and of the literals inside clauses may change,
as after any backtrack.  The engine holds no probe state: the probe passes
the clause and the flags that spare the heuristics (``bump=False``,
``save_phase=False``) to each engine call.
"""

from __future__ import annotations

from dataclasses import dataclass

UNCHANGED = "unchanged"
SHORTENED = "shortened"
CONFLICT_REPLACED = "conflict_replaced"


@dataclass(frozen=True)
class VivifyOutcome:
    kind: str
    new_lits: tuple | None = None
    new_lbd: int | None = None  # the replacement's LBD, set on success

    @property
    def success(self):
        return self.kind in (SHORTENED, CONFLICT_REPLACED)


# Clauses with a higher LBD are not worth a vivification attempt.
VIVIFY_MAX_LBD = 5


def select_candidates(db):
    """The learned clauses worth vivifying: rank the database by (LBD
    ascending, activity descending), keep the lowest half, and drop clauses
    above `VIVIFY_MAX_LBD` or already tried.  Imported clauses are left out:
    only the worker that learned a clause vivifies it."""
    live = [c for c in db if c.learned and not c.removed]
    live.sort(key=lambda c: (c.lbd, -c.activity))
    out = []
    for c in live[:len(live) // 2]:
        if c.lbd > VIVIFY_MAX_LBD:
            continue
        if c.vivify_attempted or c.imported:
            continue
        out.append(c)
    return out


def satisfied_at_root(engine, clause):
    """True iff some literal of the clause is true at decision level 0."""
    return any(engine.value(l) == 1 for l in clause.lits)


def vivify_clause(engine, clause):
    """Probe one clause at decision level 0 and report the outcome.

    Preconditions: no pending propagation, clause attached and not
    satisfied at level 0.  Marks the clause as attempted regardless of the
    result.  The clause is off its watch lists during the probe, and back on
    them after.  A probe does not backtrack before it ends, so it spends at
    most one propagation per variable unassigned at level 0.  The database
    is not modified here; pair with `apply_outcome`.  Emits
    ``("vivify", w, cid, kind)`` to the engine's recorder.
    """
    assert engine.decision_level == 0, "vivification runs at decision level 0 only"
    assert engine.qhead == len(engine.trail), "pending propagation before vivify"
    stats = engine.stats
    stats.vivify_attempts += 1
    clause.vivify_attempted = True

    engine._detach(clause)
    start = stats.propagations_total

    lits = clause.lits
    kept = []  # the assumed literals, then at most one found true
    learnt = None
    lbd = len(lits)  # a shortening has no conflict-analysis LBD
    for l in lits:
        val = engine.value(l)
        if val == -1:
            # non-decisionally false (we never assumed this literal): drop it
            continue
        kept.append(l)
        if val == 1:
            # propagated true: everything not yet processed is redundant
            break
        engine.assume(-l)
        confl = engine.propagate()
        if confl is not None:
            learnt, _blevel, lbd = engine.analyze_conflict(confl, bump=False)
            break

    engine.backtrack(0, save_phase=False)
    engine.undo_probe_moves(clause)
    stats.propagations_vivify += stats.propagations_total - start

    kind, new = (SHORTENED, kept) if learnt is None else (CONFLICT_REPLACED, learnt)
    if len(new) < len(lits):
        new_lits = tuple(new)
        # the replacement's literals are unassigned at level 0, so the old
        # LBD, the new length and the conflict-analysis LBD all bound it
        lbd = max(1, min(clause.lbd, len(new), lbd))
    else:
        kind, new_lits, lbd = UNCHANGED, None, None
    if engine.recorder is not None:
        engine.recorder(("vivify", engine.worker_id, clause.cid, kind))
    return VivifyOutcome(kind, new_lits, lbd)


def apply_outcome(engine, clause, outcome):
    """Fold a vivification outcome back into the database.

    Returns the surviving clause (the original for Unchanged, the
    replacement for a success) or None when the replacement dissolved:
    satisfied at level 0, shrunk to a level-0 unit, or refuted (engine goes
    UNSAT).  A success emits ``("replace", w, old lits, new lits)`` to the
    engine's recorder and stores the replacement with the outcome's LBD.
    """
    if outcome.kind == UNCHANGED:
        return clause
    engine.stats.vivify_successes += 1
    engine.stats.literals_removed += len(clause.lits) - len(outcome.new_lits)
    if engine.recorder is not None:
        engine.recorder(("replace", engine.worker_id, tuple(clause.lits),
                         outcome.new_lits))
    return engine.replace_clause(clause, outcome.new_lits, outcome.new_lbd)
