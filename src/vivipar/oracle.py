"""Exhaustive-enumeration SAT oracle for tests and soundness checks.

Enumerates all 2^n assignments, 64 at a time: each uint64 word packs the
64 assignments of variables 1..6, and the word's index in the array fixes
variables 7..n.  That keeps a full scan at n = 25 under half a second while
remaining a genuinely exhaustive, solver-independent check.

Capped at 25 variables; anything larger raises TooLarge.
"""

from __future__ import annotations

import numpy as np

MAX_ORACLE_VARS = 25

_PACK_BITS = 6  # variables 1..6 live inside each 64-bit word

# _INNER[v-1]: bit i of the pattern is set iff variable v is true in the
# low-6-bit assignment i.
_INNER = np.array([
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
], dtype=np.uint64)

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
_ZERO = np.uint64(0)
_ONE = np.uint64(1)


class TooLarge(Exception):
    """Instance exceeds the exhaustive-enumeration variable cap."""


def _first_model(words, base, num_vars):
    """Decode the lowest satisfying assignment from a block of live words."""
    idx = int(np.flatnonzero(words)[0])
    word = int(words[idx])
    bit = (word & -word).bit_length() - 1
    assignment = ((base + idx) << _PACK_BITS) | bit
    return [v if (assignment >> (v - 1)) & 1 else -v for v in range(1, num_vars + 1)]


def _clause_mask(clause, outer):
    """Per word of ``outer``, the bits of the assignments satisfying ``clause``."""
    mask = np.zeros(len(outer), dtype=np.uint64)
    for lit in clause:
        v = abs(lit)
        if v <= _PACK_BITS:
            pat = _INNER[v - 1] if lit > 0 else ~_INNER[v - 1]
            mask |= pat
        else:
            on = (outer >> np.uint64(v - 1 - _PACK_BITS)) & _ONE
            # on is 0 or 1; unsigned, 0 - on and on - 1 wrap to all-ones
            # exactly where the literal is true
            mask |= (_ZERO - on) if lit > 0 else (on - _ONE)
    return mask


def _alive(clauses, outer, num_vars):
    """Per word of ``outer``, the bits of the assignments satisfying every
    clause; stops early once no assignment is left."""
    if num_vars >= _PACK_BITS:
        init = _FULL
    else:
        init = np.uint64((1 << (1 << num_vars)) - 1)
    alive = np.full(len(outer), init, dtype=np.uint64)
    for clause in clauses:
        alive &= _clause_mask(clause, outer)
        if not alive.any():
            break
    return alive


def _check_size(num_vars):
    if num_vars > MAX_ORACLE_VARS:
        raise TooLarge(f"{num_vars} variables exceeds oracle cap {MAX_ORACLE_VARS}")


def satisfiable(num_vars, clauses, chunk_words=1 << 15):
    """Return a satisfying model (list of signed literals) or None.

    ``clauses`` is any iterable of literal sequences.  Exhaustive over all
    2^num_vars assignments.
    """
    _check_size(num_vars)
    clauses = [tuple(c) for c in clauses]
    if any(len(c) == 0 for c in clauses):
        return None
    num_vars = max(1, num_vars)

    n_outer = 1 << max(0, num_vars - _PACK_BITS)
    for base in range(0, n_outer, chunk_words):
        count = min(chunk_words, n_outer - base)
        outer = np.arange(base, base + count, dtype=np.uint64)
        alive = _alive(clauses, outer, num_vars)
        if alive.any():
            return _first_model(alive, base, num_vars)
    return None


def models(num_vars, clauses):
    """Every model of the clause set, packed as in `satisfiable`: bit i of
    word k is set iff assignment ``(k << 6) | i`` is a model."""
    _check_size(num_vars)
    num_vars = max(1, num_vars)
    outer = np.arange(1 << max(0, num_vars - _PACK_BITS), dtype=np.uint64)
    return _alive([tuple(c) for c in clauses], outer, num_vars)


def entails(model_words, target):
    """True iff the clause set whose `models` are ``model_words`` entails
    ``target``: no model falsifies it."""
    outer = np.arange(len(model_words), dtype=np.uint64)
    return not (model_words & ~_clause_mask(target, outer)).any()


def brute_force(formula):
    """Exhaustively solve a Formula: returns ("SAT", model) or ("UNSAT", None)."""
    _check_size(formula.num_vars)
    if formula.contains_empty:
        return "UNSAT", None
    model = satisfiable(formula.num_vars, formula.clauses)
    if model is None:
        return "UNSAT", None
    return "SAT", model


def implied(num_vars, clauses, target):
    """True iff the clause set entails ``target``: conjoin the negation of
    every target literal as a unit and check unsatisfiability."""
    augmented = list(clauses) + [(-l,) for l in target]
    return satisfiable(num_vars, augmented) is None
