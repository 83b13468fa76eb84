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
import re
import warnings
from dataclasses import dataclass, field
from itertools import chain


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
    # without a tautology no two literals share a variable, so |l| orders them
    return tuple(sorted(unique, key=abs))


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
        lits = set(chain.from_iterable(self.clauses))
        n = self.num_vars
        if lits and (max(lits) > n or min(lits) < -n or 0 in lits):
            for l in chain.from_iterable(self.clauses):  # name the first offender
                if not 1 <= abs(l) <= n:
                    raise ValueError(f"literal {l} out of range 1..{n}")


def parse_dimacs(text, filename="<input>"):
    """Parse DIMACS CNF text (str or bytes) into a Formula.

    Accepts competition-flavor input: ``c`` comment lines, a
    ``p cnf <vars> <clauses>`` header, whitespace-separated signed integers
    with ``0`` terminating each clause, and the SATLIB ``%`` end marker.
    A number is ASCII digits with an optional sign (``+1`` is accepted, as
    MiniSat's reader accepts it); ``1_0`` and non-ASCII digits are bad
    tokens, though Python's ``int`` takes them.
    Clauses beyond the declared count are accepted with a ParseWarning.
    Tautological clauses are dropped; duplicate literals are merged.

    Well-formed input is parsed in one bulk pass over the whole text.
    Anything that pass declines (comments after the header, and every
    malformed input) goes through the line-by-line parser, which alone
    reports errors with their line numbers.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    parsed = _parse_bulk(text)
    if parsed is None:
        parsed = _parse_lines(text, filename)
    formula, declared_clauses = parsed
    total = len(formula.clauses) + (1 if formula.contains_empty else 0)
    if total > declared_clauses:
        warnings.warn(
            f"{filename}: {total} clauses found, header declared {declared_clauses}",
            ParseWarning, stacklevel=2)
    return formula


# A line "starts with" a character after its leading whitespace, as in
# ``line.strip()``: regex ``\s`` and ``str.strip`` agree on every code point,
# and both ``^`` under re.M and io.StringIO break lines only at "\n".
_HEADER_LINE = re.compile(r"^[^\S\n]*(p[^\n]*)", re.M)
_END_MARKER_LINE = re.compile(r"^[^\S\n]*%", re.M)


def _dimacs_int(tok):
    """``int(tok)`` for a DIMACS number: ValueError on ``_`` or non-ASCII."""
    if "_" in tok or not tok.isascii():
        raise ValueError(f"not a DIMACS number: {tok!r}")
    return int(tok)


def _parse_bulk(text):
    """Parse well-formed DIMACS text with whole-text C-level calls.

    Returns ``(formula, declared_clauses)`` exactly as `_parse_lines` would,
    or ``None`` for any input it declines: a non-comment line before the
    header, a bad header, a comment or second header after it, a bad token,
    an out-of-range literal or an unterminated clause.
    """
    m = _HEADER_LINE.search(text)
    if m is None:
        return None
    for line in text[:m.start()].split("\n"):
        line = line.strip()
        if line and line[0] != "c":
            return None
    parts = m.group(1).split()
    if len(parts) != 4 or parts[1] != "cnf":
        return None
    try:
        num_vars, declared_clauses = _dimacs_int(parts[2]), _dimacs_int(parts[3])
    except ValueError:
        return None
    if num_vars < 0 or declared_clauses < 0:
        return None

    body = text[m.end():]
    if "%" in body:
        end = _END_MARKER_LINE.search(body)
        if end is not None:
            body = body[:end.start()]
    if "_" in body or not body.isascii():  # bad tokens to DIMACS, not to int()
        return None
    try:  # a comment or second header line declines here: no int starts with c or p
        toks = list(map(int, body.split()))
    except ValueError:
        return None
    if toks and (toks[-1] != 0 or max(toks) > num_vars or min(toks) < -num_vars):
        return None

    clauses = []
    append = clauses.append
    contains_empty = False
    index = toks.index
    start, n = 0, len(toks)
    while start < n:
        stop = index(0, start)
        lits = toks[start:stop]
        start = stop + 1
        if not lits:
            contains_empty = True
            continue
        lits.sort(key=abs)
        if len(set(map(abs, lits))) == len(lits):
            append(tuple(lits))
        else:  # a repeated variable: a duplicate literal or a tautology
            norm = normalize_clause(lits)
            if norm is not None:
                append(norm)
    return Formula(num_vars, tuple(clauses), contains_empty), declared_clauses


def _parse_lines(text, filename):
    """Parse DIMACS text line by line; the reference for `_parse_bulk`.

    Returns ``(formula, declared_clauses)``, or raises a ParseError naming
    the offending line.
    """
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
                num_vars, declared_clauses = _dimacs_int(parts[2]), _dimacs_int(parts[3])
            except ValueError:
                raise MissingHeader(f"bad header {stripped!r}", filename, lineno) from None
            if num_vars < 0 or declared_clauses < 0:
                raise MissingHeader("negative counts in header", filename, lineno)
            continue
        if num_vars is None:
            raise MissingHeader(f"clause data before header: {stripped!r}", filename, lineno)
        for tok in stripped.split():
            try:
                lit = _dimacs_int(tok)
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
    return Formula(num_vars=num_vars, clauses=tuple(clauses),
                   contains_empty=contains_empty), declared_clauses


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
                 "vivify_attempted", "protected", "link", "cid", "removed")

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
