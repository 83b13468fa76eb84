"""Property tests: every mode and worker count agrees with the brute-force
oracle on small formulas of mixed shape.

Three families, all at n <= 12: mixed clause lengths 1-5, unit-heavy
formulas, and structured ones (pigeonhole PHP(p, p-1) and XOR chains) under a
seeded renaming of variables, polarities and clause order.  Each formula is
solved in all five LCM modes with 1 and 2 deterministic workers, on a
schedule small enough that reductions, restarts, vivification and clause
sharing all happen within a few conflicts.  The engine's per-conflict
invariant checks (the `engine_checks` fixture) stay on throughout.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vivipar.oracle import brute_force
from vivipar.portfolio import PortfolioConfig, run

from conftest import mk_formula, php, restart_schedule

MODES = ("none", "pcm", "lpcm", "ecm3", "ecm4")
MAX_VARS = 12
# a reduction every few conflicts, short turns and, through the autouse
# fixture, short restart windows and Luby units
SCHEDULE = dict(quantum=2, reduce_first=3, reduce_inc=1)


@pytest.fixture(autouse=True)
def short_restarts(monkeypatch):
    restart_schedule(monkeypatch.setattr, window=3, unit=2)


PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


def solve_everywhere(f):
    """Solve ``f`` in every mode and worker count and check each answer
    against the oracle; returns the per-run aggregate Stats."""
    expected = brute_force(f)[0]
    out = []
    for mode, workers in itertools.product(MODES, (1, 2)):
        result = run(f, PortfolioConfig(num_workers=workers, lcm=mode,
                                        deterministic=True, **SCHEDULE))
        assert result.status == expected, (mode, workers)
        for s in result.worker_stats:
            s.check()
        out.append((mode, result.aggregate()))
    return out


def random_clauses(rng, n, lengths, count):
    """``count`` clauses over variables 1..n, each of a length drawn from
    ``lengths`` (repeats weight a length; repeated literals merge)."""
    return [[rng.choice((1, -1)) * rng.randint(1, n)
             for _ in range(rng.choice(lengths))] for _ in range(count)]


# Hypothesis draws each family's size and seed; the clauses come from a
# seeded generator, which keeps generation cheap at 200 clauses.
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def mixed_formulas(draw):
    # up to two units over clauses of 2-5 literals, weighted to the long
    # ones and dense enough that the search has conflicts to learn from
    n = draw(st.integers(8, MAX_VARS))
    m = draw(st.integers(5 * n, 9 * n))
    rng = random.Random(draw(SEEDS))
    units = random_clauses(rng, n, (1,), rng.randint(0, 2))
    return mk_formula(n, units + random_clauses(rng, n, (2, 3, 4, 4, 5, 5, 5), m))


@st.composite
def unit_heavy_formulas(draw):
    # up to half the variables fixed by input units (contradictory ones
    # included), among a dense rest of 4- and 5-literal clauses
    n = draw(st.integers(8, MAX_VARS))
    m = draw(st.integers(10 * n, 16 * n))
    rng = random.Random(draw(SEEDS))
    clauses = (random_clauses(rng, n, (1,), rng.randint(2, n // 2))
               + random_clauses(rng, n, (4, 5), m))
    rng.shuffle(clauses)
    return mk_formula(n, clauses)


def xor_clauses(vs, parity):
    """CNF of v1 xor ... xor vk = parity: one clause forbids each assignment
    of the wrong parity."""
    out = []
    for signs in itertools.product((1, -1), repeat=len(vs)):
        if sum(s < 0 for s in signs) % 2 != parity:
            # the assignment setting v true iff its sign is -1
            out.append([s * v for s, v in zip(signs, vs)])
    return out


def xor_chain(n, parities):
    """x_i xor x_i+1 xor x_i+2 = parities[i] along 1..n, closed by
    x_n xor x_1 = parities[-1]; SAT or UNSAT depending on the parities."""
    clauses = []
    for i in range(n - 2):
        clauses += xor_clauses([i + 1, i + 2, i + 3], parities[i])
    clauses += xor_clauses([n, 1], parities[-1])
    return clauses


def renamed(n, clauses, seed):
    """The formula under a seeded permutation of variables, polarity flips
    and clause order."""
    rng = random.Random(seed)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    flip = [rng.choice((1, -1)) for _ in range(n)]

    def lit(l):
        v = abs(l)
        return (perm[v - 1] if l > 0 else -perm[v - 1]) * flip[v - 1]

    out = [[lit(l) for l in c] for c in clauses]
    rng.shuffle(out)
    return mk_formula(n, out)


@st.composite
def structured_formulas(draw):
    seed = draw(SEEDS)
    if draw(st.booleans()):
        p = draw(st.integers(2, 4))  # PHP(4, 3) has 12 variables
        f = php(p, p - 1)
        return renamed(f.num_vars, f.clauses, seed)
    n = draw(st.integers(3, MAX_VARS))
    parities = draw(st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1))
    return renamed(n, xor_chain(n, parities), seed)


@PROPERTY_SETTINGS
@given(mixed_formulas())
def test_mixed_lengths_agree_with_oracle(engine_checks, f):
    solve_everywhere(f)


@PROPERTY_SETTINGS
@given(unit_heavy_formulas())
def test_unit_heavy_agree_with_oracle(engine_checks, f):
    solve_everywhere(f)


@PROPERTY_SETTINGS
@given(structured_formulas())
def test_structured_agree_with_oracle(engine_checks, f):
    solve_everywhere(f)


def test_schedule_makes_vivification_fire(engine_checks):
    # the schedule is small enough that every minimizing mode vivifies on
    # the structured family, and two workers share clauses
    runs = solve_everywhere(php(4, 3))
    for mode, s in runs:
        assert mode == "none" or s.vivify_attempts > 0, mode
    assert all(s.clauses_imported > 0 for _, s in runs[1::2])  # 2 workers
