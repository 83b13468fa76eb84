import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vivipar.formula import (Clause, Formula, LiteralOutOfRange, MissingHeader,
                             ParseWarning, UnterminatedClause, check_meta,
                             evaluate, normalize_clause, parse_dimacs, to_dimacs)
from vivipar.harness import gen_random_3sat


def test_parse_basic():
    f = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
    assert f.num_vars == 3
    assert f.clauses == ((1, -2), (2, 3))


def test_parse_drops_tautology():
    f = parse_dimacs("p cnf 1 1\n1 -1 0\n")
    assert f.num_vars == 1
    assert f.clauses == ()


def test_parse_literal_out_of_range():
    with pytest.raises(LiteralOutOfRange):
        parse_dimacs("p cnf 2 1\n1 3 0\n")


def test_parse_missing_header():
    with pytest.raises(MissingHeader):
        parse_dimacs("1 2 0\n")
    with pytest.raises(MissingHeader):
        parse_dimacs("c only a comment\n")


def test_parse_unterminated_clause():
    with pytest.raises(UnterminatedClause):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_parse_comments_multiline_and_satlib_percent():
    text = "c header comment\np cnf 4 3\nc mid comment\n1 2\n-3 0\n4 0\n-1 -4 0\n%\n0\n"
    f = parse_dimacs(text)
    assert f.num_vars == 4
    assert f.clauses == ((1, 2, -3), (4,), (-1, -4))


def test_parse_extra_clauses_warn():
    with pytest.warns(ParseWarning):
        f = parse_dimacs("p cnf 2 1\n1 0\n2 0\n")
    assert len(f.clauses) == 2


def test_parse_variable_gaps_allowed():
    f = parse_dimacs("p cnf 10 1\n1 10 0\n")
    assert f.clauses == ((1, 10),)


def test_parse_empty_clause_is_unsat_marker():
    f = parse_dimacs("p cnf 2 2\n0\n1 2 0\n")
    assert f.contains_empty
    assert f.clauses == ((1, 2),)


def test_parse_bytes_input():
    f = parse_dimacs(b"p cnf 2 1\n-1 2 0\n")
    assert f.clauses == ((-1, 2),)


def test_normalize_dedup():
    assert normalize_clause([1, 1, 2]) == (1, 2)


def test_normalize_tautology():
    assert normalize_clause([1, -1]) is None


def test_normalize_empty():
    assert normalize_clause([]) == ()


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize_clause([0, 1])


def test_normalize_order_is_var_then_polarity():
    assert normalize_clause([-2, 1, 2]) is None
    assert normalize_clause([-3, 1, -2]) == (1, -2, -3)


def test_roundtrip_random_formulas():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randint(1, 12)
        clauses = []
        for _ in range(rng.randint(0, 30)):
            k = rng.randint(1, min(4, n))
            vs = rng.sample(range(1, n + 1), k)
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        normed = [normalize_clause(c) for c in clauses]
        f = Formula(n, tuple(c for c in normed if c not in (None, ())))
        assert parse_dimacs(to_dimacs(f)) == f


def test_formula_rejects_out_of_range():
    with pytest.raises(ValueError):
        Formula(2, ((1, 3),))


def test_evaluate():
    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
    assert evaluate(f, [1, 2])
    assert evaluate(f, [-1, 2])
    assert not evaluate(f, [1, -2])


def naive_evaluate(formula, model):
    """Reference model check: a plain loop over clauses and literals."""
    true_lits = set(model)
    for clause in formula.clauses:
        for lit in clause:
            if lit in true_lits:
                break
        else:
            return False
    return not formula.contains_empty


@st.composite
def formulas_and_models(draw):
    n = draw(st.integers(1, 6))
    lits = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    raw = draw(st.lists(st.lists(lits, min_size=1, max_size=4), max_size=12))
    clauses = tuple(c for c in map(normalize_clause, raw) if c is not None)
    formula = Formula(n, clauses, contains_empty=draw(st.booleans()))
    total = st.tuples(*[st.sampled_from((v, -v)) for v in range(1, n + 1)])
    model = draw(st.one_of(total, st.lists(lits, max_size=2 * n)))
    return formula, list(model)


@settings(max_examples=300, deadline=None)
@given(formulas_and_models())
def test_evaluate_matches_naive_loop(case):
    formula, model = case
    assert evaluate(formula, model) == naive_evaluate(formula, model)


@pytest.mark.parametrize("clauses, contains_empty, model, expected", [
    ((), False, [], True),                 # empty formula: vacuously satisfied
    ((), True, [1, 2], False),             # only the empty clause
    (((1,), (-2,)), False, [1, -2], True),  # unit clauses
    (((1,), (-2,)), False, [1, 2], False),
    (((1,), (1, 2)), True, [1, 2], False),  # satisfied, but an empty clause
])
def test_evaluate_edge_cases(clauses, contains_empty, model, expected):
    f = Formula(2, clauses, contains_empty=contains_empty)
    assert evaluate(f, model) is expected
    assert naive_evaluate(f, model) is expected


def test_clause_meta_invariants():
    c = Clause([1, -2, 3], lbd=2, learned=True)
    assert check_meta(c)
    c.imported = True
    assert check_meta(c)  # imported and learned
    c.learned = False
    with pytest.raises(AssertionError):
        check_meta(c)
    bad = Clause([1, 2], lbd=3)
    with pytest.raises(AssertionError):
        check_meta(bad)  # lbd exceeds length


def test_gen_random_3sat_shape():
    f = gen_random_3sat(20, 85, seed=1)
    assert f == gen_random_3sat(20, 85, seed=1)
    assert f != gen_random_3sat(20, 85, seed=2)
    assert len(f.clauses) == 85
    for c in f.clauses:
        assert len({abs(l) for l in c}) == 3
