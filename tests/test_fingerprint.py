"""Golden behaviour fingerprint of deterministic portfolio runs.

Deterministic mode makes a run's search exact, so the per-worker counters
and the winner are a fingerprint of the solver's behaviour.  A refactor or
speed-up that must not change the search has to reproduce these values bit
for bit; a change that alters the search on purpose re-records them and
says so.

Every case runs 2 workers round-robin with a small conflict quantum, so both
workers search, share clauses and (with an early first reduction) vivify.
"""

import dataclasses

import pytest

from vivipar.harness import gen_random_3sat
from vivipar.portfolio import PortfolioConfig, run
from vivipar.stats import Stats
from vivipar.strategy import mode_from_label

from conftest import php

# the order of the counters in each tuple below
STATS_FIELDS = (
    "propagations_total", "propagations_vivify", "vivify_attempts",
    "vivify_successes", "literals_removed", "clauses_learned",
    "clauses_exported", "clauses_imported", "improvements_published",
    "improvements_adopted", "restarts", "reductions", "conflicts",
    "buffer_overflows",
)

SMALL = dict(reduce_first=30, quantum=16)
CASES = {
    "php65": (lambda: php(6, 5), SMALL),
    "uf50-1": (lambda: gen_random_3sat(50, 213, 1), SMALL),
    "uf50-2": (lambda: gen_random_3sat(50, 213, 2), SMALL),
    "uf50-3": (lambda: gen_random_3sat(50, 213, 3), SMALL),
    "php76": (lambda: php(7, 6), dict(reduce_first=100, quantum=64)),
}
MODES = ("none", "pcm", "lpcm", "ecm3", "ecm4")

# (status, winner, per-worker counters)
GOLDEN = {
    # php65
    ('php65', 'none'): ('UNSAT', 1, (
        (1122, 0, 0, 0, 0, 99, 71, 49, 0, 0, 1, 1, 99, 0),
        (1032, 0, 0, 0, 0, 91, 69, 60, 0, 0, 0, 1, 91, 0),
    )),
    ('php65', 'pcm'): ('UNSAT', 1, (
        (1712, 520, 26, 10, 26, 100, 71, 48, 0, 0, 2, 1, 100, 0),
        (1554, 471, 25, 12, 25, 95, 73, 66, 0, 0, 0, 1, 95, 0),
    )),
    ('php65', 'lpcm'): ('UNSAT', 0, (
        (1707, 520, 26, 10, 26, 97, 66, 57, 10, 0, 1, 1, 97, 0),
        (1432, 471, 25, 12, 25, 83, 72, 48, 11, 9, 0, 1, 83, 0),
    )),
    ('php65', 'ecm3'): ('UNSAT', 1, (
        (1698, 590, 34, 18, 43, 100, 62, 23, 0, 0, 2, 1, 100, 0),
        (1042, 0, 0, 0, 0, 94, 29, 58, 0, 0, 0, 1, 94, 0),
    )),
    ('php65', 'ecm4'): ('UNSAT', 1, (
        (1789, 674, 35, 18, 34, 99, 38, 2, 0, 0, 1, 1, 99, 0),
        (1063, 0, 0, 0, 0, 93, 5, 37, 0, 0, 0, 1, 93, 0),
    )),
    # uf50-1
    ('uf50-1', 'none'): ('UNSAT', 1, (
        (472, 0, 0, 0, 0, 34, 32, 0, 0, 0, 0, 1, 34, 0),
        (469, 0, 0, 0, 0, 33, 30, 32, 0, 0, 0, 1, 33, 0),
    )),
    ('uf50-1', 'pcm'): ('UNSAT', 1, (
        (472, 0, 0, 0, 0, 34, 32, 0, 0, 0, 0, 0, 34, 0),
        (453, 11, 1, 1, 3, 31, 28, 32, 0, 0, 0, 0, 31, 0),
    )),
    ('uf50-1', 'lpcm'): ('UNSAT', 1, (
        (472, 0, 0, 0, 0, 34, 32, 0, 0, 0, 0, 0, 34, 0),
        (453, 11, 1, 1, 3, 31, 28, 32, 1, 0, 0, 0, 31, 0),
    )),
    ('uf50-1', 'ecm3'): ('UNSAT', 1, (
        (763, 69, 6, 6, 12, 54, 24, 10, 0, 0, 1, 1, 54, 0),
        (441, 0, 0, 0, 0, 36, 11, 11, 0, 0, 0, 1, 36, 0),
    )),
    ('uf50-1', 'ecm4'): ('UNSAT', 0, (
        (745, 29, 1, 1, 2, 50, 5, 0, 0, 0, 1, 1, 50, 0),
        (397, 0, 0, 0, 0, 33, 0, 0, 0, 0, 0, 1, 33, 0),
    )),
    # uf50-2
    ('uf50-2', 'none'): ('SAT', 0, (
        (255, 0, 0, 0, 0, 13, 10, 0, 0, 0, 0, 0, 13, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    )),
    ('uf50-2', 'pcm'): ('SAT', 0, (
        (255, 0, 0, 0, 0, 13, 10, 0, 0, 0, 0, 0, 13, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    )),
    ('uf50-2', 'lpcm'): ('SAT', 0, (
        (255, 0, 0, 0, 0, 13, 10, 0, 0, 0, 0, 0, 13, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    )),
    ('uf50-2', 'ecm3'): ('SAT', 0, (
        (255, 0, 0, 0, 0, 13, 2, 0, 0, 0, 0, 0, 13, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    )),
    ('uf50-2', 'ecm4'): ('SAT', 0, (
        (255, 0, 0, 0, 0, 13, 0, 0, 0, 0, 0, 0, 13, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    )),
    # uf50-3
    ('uf50-3', 'none'): ('SAT', 1, (
        (254, 0, 0, 0, 0, 16, 8, 0, 0, 0, 0, 0, 16, 0),
        (63, 0, 0, 0, 0, 1, 1, 8, 0, 0, 0, 0, 1, 0),
    )),
    ('uf50-3', 'pcm'): ('SAT', 1, (
        (254, 0, 0, 0, 0, 16, 8, 0, 0, 0, 0, 0, 16, 0),
        (63, 0, 0, 0, 0, 1, 1, 8, 0, 0, 0, 0, 1, 0),
    )),
    ('uf50-3', 'lpcm'): ('SAT', 1, (
        (254, 0, 0, 0, 0, 16, 8, 0, 0, 0, 0, 0, 16, 0),
        (63, 0, 0, 0, 0, 1, 1, 8, 0, 0, 0, 0, 1, 0),
    )),
    ('uf50-3', 'ecm3'): ('SAT', 1, (
        (254, 0, 0, 0, 0, 16, 4, 0, 0, 0, 0, 0, 16, 0),
        (63, 0, 0, 0, 0, 1, 1, 4, 0, 0, 0, 0, 1, 0),
    )),
    ('uf50-3', 'ecm4'): ('SAT', 1, (
        (254, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 16, 0),
        (63, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0),
    )),
    # php76
    ('php76', 'none'): ('UNSAT', 0, (
        (9986, 0, 0, 0, 0, 752, 123, 83, 0, 0, 13, 2, 752, 0),
        (9139, 0, 0, 0, 0, 721, 84, 80, 0, 0, 5, 2, 721, 0),
    )),
    ('php76', 'pcm'): ('UNSAT', 1, (
        (14917, 5411, 205, 93, 184, 720, 130, 103, 0, 0, 13, 2, 720, 0),
        (13820, 4950, 201, 93, 242, 686, 130, 124, 0, 0, 5, 2, 686, 0),
    )),
    ('php76', 'lpcm'): ('UNSAT', 0, (
        (14241, 4629, 176, 79, 164, 724, 114, 113, 23, 3, 13, 2, 724, 0),
        (14274, 5071, 209, 82, 169, 715, 119, 108, 24, 21, 5, 2, 715, 0),
    )),
    ('php76', 'ecm3'): ('UNSAT', 1, (
        (9506, 549, 20, 5, 8, 715, 95, 80, 0, 0, 12, 2, 715, 0),
        (9630, 780, 37, 14, 26, 698, 104, 87, 0, 0, 5, 2, 698, 0),
    )),
    ('php76', 'ecm4'): ('UNSAT', 0, (
        (11571, 1632, 64, 17, 48, 783, 68, 116, 0, 0, 13, 2, 783, 0),
        (12959, 3214, 116, 34, 74, 778, 116, 64, 0, 0, 5, 2, 778, 0),
    )),
}


def test_stats_field_order():
    assert tuple(f.name for f in dataclasses.fields(Stats)) == STATS_FIELDS


@pytest.mark.parametrize("case", list(CASES))
def test_deterministic_fingerprint(case):
    make, knobs = CASES[case]
    formula = make()
    for mode in MODES:
        res = run(formula, PortfolioConfig(
            num_workers=2, lcm=mode_from_label(mode), deterministic=True,
            **knobs))
        got = (res.status, res.winner,
               tuple(dataclasses.astuple(s) for s in res.worker_stats))
        assert got == GOLDEN[case, mode], f"{case} {mode}"
