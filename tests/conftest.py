import itertools

from vivipar.formula import Formula, normalize_clause


def mk_formula(num_vars, clauses):
    """Formula from raw literal lists (normalized)."""
    normed = []
    for c in clauses:
        n = normalize_clause(c)
        if n is not None and n != ():
            normed.append(n)
    return Formula(num_vars=num_vars, clauses=tuple(normed))


def php(pigeons, holes):
    """Pigeonhole formula PHP(p, h): UNSAT iff p > h.

    Variable (i, j) -> pigeon i sits in hole j, numbered i*holes + j + 1.
    """
    def v(i, j):
        return i * holes + j + 1

    clauses = [[v(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i1, i2 in itertools.combinations(range(pigeons), 2):
            clauses.append([-v(i1, j), -v(i2, j)])
    return mk_formula(pigeons * holes, clauses)


def of_kind(events, kind):
    """The events of one kind, in order, from a list used as the recorder
    (``recorder=events.append``)."""
    return [e for e in events if e[0] == kind]
