"""Clause vivification: strengthen a clause by assuming its literals false.

At decision level 0, the negation of each literal is assumed in clause order
and propagated.  Three things can happen:

* a conflict: the first-UIP clause derived over the assumption levels
  replaces the original (kept only when strictly shorter);
* some literal of the clause turns out true under the assumptions: the
  clause shrinks to the processed prefix plus that literal;
* a literal is already false without having been assumed: it is dropped.

The probe leaves the engine exactly as it found it: the clause is detached
while probing so it cannot propagate against itself, heuristic bumps are
suppressed, phases are not saved, and every watch move is rolled back.
Only the propagation counters survive.

Rollback contract (`Engine.undo_probe_moves`): every clause gets back its
pre-probe literal order, so it watches the same literals at the same
positions, and every watch list holds the same clauses as before.  A list the
probe processed keeps the residents that stayed, in their original order,
followed by the residents that moved out, in reverse order of their moves.
The probed clause is re-attached at the end of its two watch lists.  The
order is part of the deterministic behaviour: later propagation visits
clauses in list order.
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
# A probe that spends more propagations than this gives up as Unchanged.
VIVIFY_BUDGET = 1_000_000


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

    Preconditions: no pending propagation, clause attached and not satisfied
    at level 0.  Marks the clause as attempted regardless of the result and
    aborts as Unchanged once the probe has spent more than `VIVIFY_BUDGET`
    propagations.  The database is not modified here; pair with
    `apply_outcome`.  Emits ``("vivify", w, cid, kind)`` to the engine's
    recorder.
    """
    assert engine.decision_level == 0, "vivification runs at decision level 0 only"
    assert engine.qhead == len(engine.trail), "pending propagation before vivify"
    stats = engine.stats
    stats.vivify_attempts += 1
    clause.vivify_attempted = True

    engine._detach(clause)
    engine._in_vivify = True
    start = stats.propagations_vivify

    lits = list(clause.lits)
    prefix = []
    result = None
    for l in lits:
        val = engine.value(l)
        if val == 1:
            # propagated true: everything not yet processed is redundant
            kept = prefix + [l]
            if len(kept) < len(lits):
                result = (SHORTENED, kept, None)
            else:
                result = (UNCHANGED, None, None)
            break
        if val == -1:
            # non-decisionally false (we never assumed this literal): drop it
            continue
        engine.assume(-l)
        confl = engine.propagate()
        if stats.propagations_vivify - start > VIVIFY_BUDGET:
            result = (UNCHANGED, None, None)
            break
        if confl is not None:
            learnt, _blevel, lbd = engine.analyze_conflict(confl, bump=False)
            if len(learnt) < len(lits):
                result = (CONFLICT_REPLACED, learnt, lbd)
            else:
                result = (UNCHANGED, None, None)
            break
        prefix.append(l)

    engine.backtrack(0)
    engine._in_vivify = False
    engine.undo_probe_moves()
    engine._attach(clause)

    if result is None:
        if len(prefix) < len(lits):
            result = (SHORTENED, prefix, None)
        else:
            result = (UNCHANGED, None, None)
    kind, new, lbd = result
    new_lits = tuple(new) if new is not None else None
    if new_lits is not None:
        assert len(new_lits) < len(lits), "vivification must strictly shorten"
        # the replacement's literals are unassigned at level 0, so the old
        # LBD, the new length and the conflict-analysis LBD (a shortening
        # has none) all bound it
        lbd = max(1, min(clause.lbd, len(new_lits), lbd or len(new_lits)))
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
