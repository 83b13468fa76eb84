"""CNF problem representation and DIMACS parsing.

Literals are signed integers in the DIMACS convention: variable ``v`` is a
positive index, ``v`` means the variable is true, ``-v`` means it is false.
Negation is plain arithmetic negation, so ``-(-l) == l`` for free.  Every
module in the package shares this encoding.

`Formula` is immutable after parsing and safe to hand to any number of
solver workers concurrently.  `Clause` objects, by contrast, are the mutable
per-worker clause records (literals plus bookkeeping metadata) that solver
engines build for themselves from a Formula.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field


class ParseError(Exception):
    """DIMACS input could not be parsed.  Carries file/line context."""

    def __init__(self, message, filename="<input>", line=0):
        super().__init__(f"{filename}:{line}: {message}")
        self.filename = filename
        self.line = line


class MissingHeader(ParseError):
    pass


class LiteralOutOfRange(ParseError):
    pass


class UnterminatedClause(ParseError):
    pass


class ParseWarning(UserWarning):
    """Non-fatal DIMACS oddity (e.g. more clauses than the header declared)."""


def normalize_clause(lits):
    """Deduplicate and sort a raw literal sequence.

    Returns a tuple of literals sorted by (variable, polarity), ``None`` if
    the clause is a tautology (contains both ``l`` and ``-l``), and the empty
    tuple for an empty input.
    """
    unique = set(lits)
    if 0 in unique:
        raise ValueError("0 is not a literal")
    for l in unique:
        if -l in unique:
            return None
    return tuple(sorted(unique, key=lambda l: (abs(l), l < 0)))


@dataclass(frozen=True)
class Formula:
    """An immutable CNF instance.

    ``clauses`` holds normalized clauses (no duplicate literals, no
    tautologies, literals sorted).  ``contains_empty`` flags an input empty
    clause, which is never stored: it makes the formula trivially
    unsatisfiable.
    """

    num_vars: int
    clauses: tuple = field(default_factory=tuple)
    contains_empty: bool = False

    def __post_init__(self):
        for c in self.clauses:
            for l in c:
                if not 1 <= abs(l) <= self.num_vars:
                    raise ValueError(f"literal {l} out of range 1..{self.num_vars}")


def parse_dimacs(text, filename="<input>"):
    """Parse DIMACS CNF text (str or bytes) into a Formula.

    Accepts competition-flavor input: ``c`` comment lines, a
    ``p cnf <vars> <clauses>`` header, whitespace-separated signed integers
    with ``0`` terminating each clause, and the SATLIB ``%`` end marker.
    Clauses beyond the declared count are accepted with a ParseWarning.
    Tautological clauses are dropped; duplicate literals are merged.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")

    num_vars = None
    declared_clauses = None
    clauses = []
    contains_empty = False
    pending = []
    pending_line = 0

    for lineno, line in enumerate(io.StringIO(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("%"):
            break
        if stripped.startswith("p"):
            if num_vars is not None:
                raise ParseError("duplicate header", filename, lineno)
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise MissingHeader(f"bad header {stripped!r}", filename, lineno)
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise MissingHeader(f"bad header {stripped!r}", filename, lineno) from None
            if num_vars < 0 or declared_clauses < 0:
                raise MissingHeader("negative counts in header", filename, lineno)
            continue
        if num_vars is None:
            raise MissingHeader(f"clause data before header: {stripped!r}", filename, lineno)
        for tok in stripped.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"bad token {tok!r}", filename, lineno) from None
            if lit == 0:
                norm = normalize_clause(pending)
                if norm is not None:  # tautologies are dropped
                    if norm == ():
                        contains_empty = True
                    else:
                        clauses.append(norm)
                pending = []
            else:
                if abs(lit) > num_vars:
                    raise LiteralOutOfRange(
                        f"literal {lit} exceeds declared variable count {num_vars}",
                        filename, lineno)
                if not pending:
                    pending_line = lineno
                pending.append(lit)

    if pending:
        raise UnterminatedClause("clause not terminated by 0 at EOF", filename, pending_line)
    if num_vars is None:
        raise MissingHeader("no 'p cnf' header found", filename, 0)
    total = len(clauses) + (1 if contains_empty else 0)
    if total > declared_clauses:
        warnings.warn(
            f"{filename}: {total} clauses found, header declared {declared_clauses}",
            ParseWarning, stacklevel=2)
    return Formula(num_vars=num_vars, clauses=tuple(clauses), contains_empty=contains_empty)


def parse_dimacs_file(path):
    with open(path, "rb") as fh:
        return parse_dimacs(fh.read(), filename=str(path))


def to_dimacs(formula):
    """Render a Formula back to DIMACS text.  Round-trips through parse_dimacs."""
    n_clauses = len(formula.clauses) + (1 if formula.contains_empty else 0)
    out = [f"p cnf {formula.num_vars} {n_clauses}"]
    for c in formula.clauses:
        out.append(" ".join(str(l) for l in c) + " 0")
    if formula.contains_empty:
        out.append("0")
    return "\n".join(out) + "\n"


def evaluate(formula, model):
    """True iff the model (iterable of signed literals, one per variable)
    satisfies every clause of the formula.

    A clause is satisfied iff it shares a literal with the model; the
    disjointness tests run in C, one call per clause.
    """
    if formula.contains_empty:
        return False
    true_lits = set(model)
    return not any(map(true_lits.isdisjoint, formula.clauses))


class Clause:
    """A solver-side clause: literals plus lifecycle metadata.

    The literal list is mutable because propagation keeps the two watched
    literals in positions 0 and 1.  Metadata invariants (checked by
    `check_meta`): lbd >= 1 and lbd <= len(lits); imported implies learned;
    vivify_attempted never transitions back to False.
    """

    __slots__ = ("lits", "lbd", "activity", "learned", "imported",
                 "vivify_attempted", "protected", "link", "cid", "removed",
                 "one_watched")

    def __init__(self, lits, lbd=1, learned=False, imported=False, cid=0):
        self.lits = list(lits)
        self.lbd = lbd
        self.activity = 0.0
        self.learned = learned
        self.imported = imported
        self.vivify_attempted = False
        self.protected = False
        self.link = None
        self.cid = cid
        self.removed = False
        self.one_watched = False

    def __len__(self):
        return len(self.lits)

    def __repr__(self):
        kind = "imp" if self.imported else ("lrn" if self.learned else "orig")
        return f"Clause#{self.cid}({self.lits}, lbd={self.lbd}, {kind})"


def check_meta(clause):
    """Debug assertion for ClauseMeta invariants."""
    assert len(clause.lits) >= 1, "empty clauses are never stored"
    assert len(set(clause.lits)) == len(clause.lits), f"duplicate literals in {clause!r}"
    assert all(-l not in clause.lits for l in clause.lits), f"tautology stored: {clause!r}"
    assert 1 <= clause.lbd <= len(clause.lits), f"lbd out of range in {clause!r}"
    assert clause.activity >= 0.0
    assert clause.learned or not clause.imported, "imported implies learned"
    return True
