import random
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vivipar import formula
from vivipar.formula import (Clause, Formula, LiteralOutOfRange, MissingHeader,
                             ParseError, ParseWarning, UnterminatedClause,
                             check_meta, evaluate, normalize_clause, parse_dimacs,
                             to_dimacs)
from vivipar.harness import gen_random_3sat

from conftest import mk_formula


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


@pytest.mark.parametrize("text, line, token", [
    ("p cnf 10 1\n1_0 0\n", 2, "1_0"),             # int() reads this as 10
    ("p cnf 3 1\n\u0663 -1 0\n", 2, "\u0663"),      # Arabic-Indic digit three
    ("c x\np cnf 3 2\n1 0\n-2 \uff11 0\n", 4, "\uff11"),  # fullwidth digit one
])
def test_parse_rejects_non_dimacs_digits(text, line, token):
    with pytest.raises(ParseError, match=f"<input>:{line}: bad token {token!r}"):
        parse_dimacs(text)


def test_parse_rejects_non_dimacs_header_counts():
    with pytest.raises(MissingHeader):
        parse_dimacs("p cnf 1_0 1\n1 0\n")


@pytest.mark.parametrize("text, line, message", [
    ("p cnf -3 2\n1 0\n", 1, "negative counts in header"),
    ("c x\np cnf 3 -1\n1 0\n", 2, "negative counts in header"),
    ("p cnf x 2\n1 0\n", 1, "bad header 'p cnf x 2'"),
    ("p cnf 3\n1 0\n", 1, "bad header 'p cnf 3'"),
    ("p dnf 3 1\n1 0\n", 1, "bad header 'p dnf 3 1'"),
    ("p cnf 3 1 7\n1 0\n", 1, "bad header 'p cnf 3 1 7'"),
], ids=["negative-vars", "negative-clauses-line-2", "vars-not-a-number",
        "three-fields", "not-cnf", "five-fields"])
def test_parse_rejects_bad_header(text, line, message):
    with pytest.raises(MissingHeader,
                       match=re.escape(f"<input>:{line}: {message}")):
        parse_dimacs(text)


def test_parse_accepts_plus_sign():
    # MiniSat's reader accepts an explicit plus sign, so this parser does too
    assert parse_dimacs("p cnf 3 1\n+1 -2 +3 0\n").clauses == ((1, -2, 3),)


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
    assert f.clauses == ((), (1, 2))
    assert parse_dimacs(to_dimacs(f)) == f
    assert not evaluate(f, [1, 2])


@pytest.mark.parametrize("text, clauses, found", [
    ("p cnf 1 1\n1 -1 0\n1 0\n", ((1,),), 2),  # a dropped tautology
    ("p cnf 1 1\n0\n0\n", ((), ()), 2),  # two empty clauses
    ("p cnf 1 1\n1 0\n0\n0\n", ((1,), (), ()), 3),
])
def test_parse_extra_clauses_warn_counts_every_clause_read(text, clauses, found):
    with pytest.warns(ParseWarning) as caught:
        f = parse_dimacs(text, filename="t.cnf")
    assert f.clauses == clauses
    assert [str(w.message) for w in caught] == [
        f"t.cnf: {found} clauses found, header declared 1"]
    assert formula._parse_bulk(text) == formula._parse_lines(text, "t.cnf")


def test_parse_bytes_input():
    f = parse_dimacs(b"p cnf 2 1\n-1 2 0\n")
    assert f.clauses == ((-1, 2),)


# SATLIB's uf20-91 layout: comments before a header with a double space and a
# trailing blank, clause lines with a leading space, and the "%" / "0" trailer.
SATLIB_STYLE = """c This Formular is generated by mcnf
c
c    horn? no 
c    forced? no 
c    mixed sat? no 
c    clause length = 3 
c
p cnf 5  4 
 4 -1 5 0
3 1 -5 0
-2  -4 3 0
 5 2 -3 0
%
0

"""


def test_satlib_style_file_takes_the_bulk_pass(monkeypatch):
    def line_parser(text, filename):
        raise AssertionError("the line parser ran")

    monkeypatch.setattr(formula, "_parse_lines", line_parser)
    f = parse_dimacs(SATLIB_STYLE)
    assert f == Formula(5, ((-1, 4, 5), (1, 3, -5), (-2, 3, -4), (2, -3, 5)))


_SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", "\r", "\x0c", "\xa0"])
_ODD_TOKENS = st.sampled_from(["+0", "-0", "00", "1_0", "+1", "\u0663", "x", "1.0", "--1"])
_TERMINATORS = st.sampled_from(["0", "0", "0", "0", "-0", "+0", "00"])
_COMMENT_LINES = st.sampled_from(["", "  ", "c", "c comment", " c x", "c 100%"])
_ODD_HEADERS = ["p cnf", "p dnf {n} {m}", "p cnf -1 {m}", "p cnf {n} x",
                "p cnf +{n} 0{m}", "pcnf 1 1", "p cnf {n} 1 2", " p  cnf {n} {m} "]
_ODD_BODY_LINES = st.sampled_from(["", "  ", "c mid", " c", "%", " % x", "p cnf 1 1"])
_RARE = st.sampled_from([False] * 19 + [True])  # True one draw in twenty; shrinks to False


@st.composite
def dimacs_texts(draw):
    """DIMACS-like text: mostly well formed, with every oddity the parser
    handles (comments, "%", CRLF, blank lines, odd zero tokens, duplicate
    and tautological literals, empty clauses, bad headers, out-of-range
    literals, unterminated clauses, more clauses than declared)."""
    def rarely():
        return draw(_RARE)

    n = draw(st.integers(0, 6))
    var = st.integers(1, n) if n and not rarely() else st.just(n + 1)
    lit = var.flatmap(lambda v: st.sampled_from((str(v), str(-v))))
    lines = draw(st.lists(_COMMENT_LINES, max_size=3))
    if rarely():
        lines.append(draw(st.sampled_from(["%", "1 0"])))
    if not rarely():
        m = draw(st.integers(0, 6))
        header = draw(st.sampled_from(_ODD_HEADERS)) if rarely() else "p cnf {n} {m}"
        lines.append(header.format(n=n, m=m))
    for _ in range(draw(st.integers(0, 7))):
        if rarely():
            lines.append(draw(_ODD_BODY_LINES))
            continue
        sep = draw(_SEPARATORS)
        toks = [draw(_ODD_TOKENS) if rarely() else draw(lit)
                for _ in range(draw(st.integers(0, 4)))]
        if not rarely():
            toks.append(draw(_TERMINATORS))
        lines.append(draw(st.sampled_from(["", sep])) + sep.join(toks))
    if draw(st.booleans()):
        lines += ["%", draw(st.sampled_from(["0", "junk", "c", ""]))]
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


def _outcome(parse, text):
    """(Formula or (error type, message), [(warning type, message, file)])."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text)
        except ParseError as e:
            result = (type(e), str(e))
    return result, [(w.category, str(w.message), w.filename) for w in caught]


@settings(max_examples=500, deadline=None)
@given(dimacs_texts())
def test_parse_dimacs_matches_line_parser(text):
    def reference(text):
        formula_, found, declared = formula._parse_lines(text, "t.cnf")
        if found > declared:
            warnings.warn(f"t.cnf: {found} clauses found, header declared {declared}",
                          ParseWarning)
        return formula_

    got = _outcome(lambda t: parse_dimacs(t, filename="t.cnf"), text)
    assert got == _outcome(reference, text)
    for *_, filename in got[1]:
        assert filename == __file__  # warnings name parse_dimacs's caller
    bulk = formula._parse_bulk(text)
    if bulk is not None:
        assert bulk == formula._parse_lines(text, "t.cnf")


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
        f = Formula(n, tuple(c for c in normed if c is not None))
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
    return True


@st.composite
def formulas_and_models(draw):
    n = draw(st.integers(1, 6))
    lits = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    raw = draw(st.lists(st.lists(lits, max_size=4), max_size=12))
    clauses = tuple(c for c in map(normalize_clause, raw) if c is not None)
    formula = Formula(n, clauses)
    total = st.tuples(*[st.sampled_from((v, -v)) for v in range(1, n + 1)])
    model = draw(st.one_of(total, st.lists(lits, max_size=2 * n)))
    return formula, list(model)


@settings(max_examples=300, deadline=None)
@given(formulas_and_models())
def test_evaluate_matches_naive_loop(case):
    formula, model = case
    assert evaluate(formula, model) == naive_evaluate(formula, model)


@pytest.mark.parametrize("clauses, with_empty, model, expected", [
    ((), False, [], True),                 # empty formula: vacuously satisfied
    ((), True, [1, 2], False),             # only the empty clause
    (((1,), (-2,)), False, [1, -2], True),  # unit clauses
    (((1,), (-2,)), False, [1, 2], False),
    (((1,), (1, 2)), True, [1, 2], False),  # satisfied, but an empty clause
])
def test_evaluate_edge_cases(clauses, with_empty, model, expected):
    f = Formula(2, clauses + ((),) * with_empty)
    assert evaluate(f, model) is expected
    assert naive_evaluate(f, model) is expected


def test_evaluate_true_literal():
    assert evaluate(mk_formula(2, [[1, 2]]), [1, -2])


def test_evaluate_contradiction_unsatisfiable():
    f = mk_formula(1, [[1], [-1]])
    assert not evaluate(f, [1])
    assert not evaluate(f, [-1])


def test_evaluate_empty_formula_vacuous():
    assert evaluate(Formula(0, ()), [])


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
