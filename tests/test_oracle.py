import itertools
import random

import pytest

from vivipar.formula import Formula, evaluate
from vivipar.harness import gen_random_3sat
from vivipar.oracle import (TooLarge, brute_force, entails, implied, models,
                            satisfiable)

from conftest import mk_formula, php


def naive_satisfiable(n, clauses):
    for bits in itertools.product([False, True], repeat=n):
        if all(any((l > 0) == bits[abs(l) - 1] for l in c) for c in clauses):
            return [v if bits[v - 1] else -v for v in range(1, n + 1)]
    return None


def test_brute_force_sat_trivial():
    status, model = brute_force(mk_formula(2, [[1, 2], [-1, 2]]))
    assert status == "SAT"
    assert 2 in model


def test_brute_force_php_unsat():
    status, _ = brute_force(php(4, 3))
    assert status == "UNSAT"
    status, model = brute_force(php(3, 3))
    assert status == "SAT"


def test_implied_matches_vivify_example():
    # F = {(-a v b)} plus clause (b v c v a) entails (b v c)
    assert implied(3, [(-1, 2), (2, 3, 1)], (2, 3))
    assert not implied(3, [(-1, 2)], (2, 3))


def test_too_large():
    with pytest.raises(TooLarge):
        brute_force(Formula(26, ()))
    with pytest.raises(TooLarge):
        satisfiable(26, [])


def test_empty_clause_unsat():
    f = Formula(2, ((1, 2),), contains_empty=True)
    assert brute_force(f) == ("UNSAT", None)


def test_agrees_with_naive_enumeration():
    rng = random.Random(3)
    for _ in range(120):
        n = rng.randint(1, 9)
        clauses = []
        for _ in range(rng.randint(0, 4 * n)):
            k = rng.randint(1, min(3, n))
            vs = rng.sample(range(1, n + 1), k)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        got = satisfiable(n, clauses)
        want = naive_satisfiable(n, clauses)
        assert (got is None) == (want is None)
        if got is not None:
            assert all(any(l in got for l in c) for c in clauses)


def test_model_is_returned_and_satisfies():
    for seed in range(20):
        f = gen_random_3sat(12, 40, seed)
        status, model = brute_force(f)
        if status == "SAT":
            assert evaluate(f, model)


def test_self_check_under_variable_renaming():
    # permuting variable names must not change the status
    rng = random.Random(11)
    for seed in range(15):
        n = 10
        f = gen_random_3sat(n, 42, seed)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        mapped = tuple(tuple((perm[abs(l) - 1]) * (1 if l > 0 else -1) for l in c)
                       for c in f.clauses)
        assert brute_force(f)[0] == brute_force(Formula(n, mapped))[0]


def test_chunking_boundaries():
    # n just around the 6-bit pack boundary and chunk sizes
    for n in (1, 2, 5, 6, 7, 8):
        clauses = [(v,) for v in range(1, n + 1)]
        model = satisfiable(n, clauses, chunk_words=1)
        assert model == list(range(1, n + 1))
        assert satisfiable(n, clauses + [(-1,)], chunk_words=1) is None


def test_entails_over_models_agrees_with_implied():
    # one enumeration of F's models answers every F |= C question
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(1, 10)
        clauses = [tuple(rng.choice((-1, 1)) * v
                         for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
                   for _ in range(rng.randint(0, 3 * n))]
        words = models(n, clauses)
        for _ in range(5):
            target = tuple(rng.choice((-1, 1)) * v
                           for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
            assert entails(words, target) == implied(n, clauses, target)
    assert not models(3, [(1,), (-1,)]).any()  # UNSAT: entails everything
    assert entails(models(3, [(1,), (-1,)]), (2,))
