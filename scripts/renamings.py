"""Renaming comparison of two vivipar checkouts, for changes that alter the
deterministic search on purpose.

    python3 scripts/renamings.py --base ../parent --new .

A search change moves counters on every instance by luck as much as by
cost.  This script weighs the change against that luck: it solves a fixed
corpus under seeded renamings, in every LCM mode, on both checkouts, and
compares the change's movement with the parent's own spread across
renamings.

The protocol is fixed.  Instances: PHP(7, 6) and ``gen_random_3sat(150,
639, s)`` for s = 0-11, each under the renamings of
``tests/test_properties.py::renamed`` with seeds 1000-1004.  Runs: 2
workers, deterministic, ``quantum`` 64, ``reduce_first`` 300,
``reduce_inc`` 100, no limit.  Both checkouts are loaded into this one
process as ``scripts/ab.py`` loads them, each parses the corpus with its
own parser, and the two sides run back to back on every formula, base
first on even formulas and new first on odd ones.

Prints, per mode: the geometric mean over instances of new/base, where each
side's value for an instance is its median over renamings of the summed
conflicts, summed propagations (over the workers) and the run's time; the
median over instances of the parent's renaming range (max - min) / median
of the summed conflicts; and each side's vivification propagations per
attempt and success rate over all its runs.  A conflict ratio inside
[1 / (1 + range), 1 + range] is within the parent's renaming spread.  Exits
1 if any answer is wrong, or if answers disagree for one instance.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from ab import load_checkout  # noqa: E402
from conftest import php  # noqa: E402
from test_properties import renamed  # noqa: E402
from vivipar.formula import to_dimacs  # noqa: E402
from vivipar.harness import gen_random_3sat  # noqa: E402

MODES = ("none", "pcm", "lpcm", "ecm3", "ecm4")
SEEDS = range(1000, 1005)
SETTINGS = dict(num_workers=2, deterministic=True, quantum=64,
                reduce_first=300, reduce_inc=100)


def instances():
    """(name, formula, expected status or None) of every corpus instance."""
    return [("php76", php(7, 6), "UNSAT"),
            *((f"uf150-{s}", gen_random_3sat(150, 639, s), None) for s in range(12))]


class Side:
    """One checkout with the renamed corpus parsed by its own parser."""

    def __init__(self, vivipar, corpus):
        self.v = vivipar
        self.formulas = [[vivipar.formula.parse_dimacs(dimacs) for dimacs in texts]
                         for texts in corpus]
        self.modes = {m: vivipar.strategy.mode_from_label(m) for m in MODES}

    def solve(self, i, r, mode):
        """(status, summed Stats, seconds) of one run; SAT models checked."""
        formula = self.formulas[i][r]
        config = self.v.portfolio.PortfolioConfig(lcm=self.modes[mode], **SETTINGS)
        t0 = time.perf_counter()
        result = self.v.portfolio.run(formula, config)
        elapsed = time.perf_counter() - t0
        if result.status == "SAT" and not self.v.formula.evaluate(formula, result.model):
            return "WRONG MODEL", result.aggregate(), elapsed
        return result.status, result.aggregate(), elapsed


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def rate(num, den):
    return f"{num / den:.3f}" if den else "-"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="root of the parent checkout")
    p.add_argument("--new", required=True, help="root of the checkout under test")
    args = p.parse_args(argv)

    insts = instances()
    corpus = [[to_dimacs(renamed(f.num_vars, f.clauses, s)) for s in SEEDS]
              for _, f, _ in insts]
    base = Side(load_checkout(args.base, "vivipar_renamings_base"), corpus)
    new = Side(load_checkout(args.new, "vivipar_renamings_new"), corpus)

    bad = 0
    # (side, mode) -> per instance, per renaming: (conflicts, propagations, seconds)
    runs = {(side, m): [[] for _ in insts] for side in (base, new) for m in MODES}
    vivify = {(side, m): [0, 0, 0] for side in (base, new) for m in MODES}
    for i, (name, _, expect) in enumerate(insts):
        answers = set()
        for r in range(len(SEEDS)):
            order = (base, new) if (i * len(SEEDS) + r) % 2 == 0 else (new, base)
            for m in MODES:
                for side in order:
                    status, s, seconds = side.solve(i, r, m)
                    answers.add(status)
                    runs[side, m][i].append((s.conflicts, s.propagations_total, seconds))
                    v = vivify[side, m]
                    v[0] += s.propagations_vivify
                    v[1] += s.vivify_attempts
                    v[2] += s.vivify_successes
        allowed = {expect} if expect else {"SAT", "UNSAT"}
        if len(answers) != 1 or not answers <= allowed:
            bad += 1
            print(f"WRONG or DISAGREEING answers for {name}: {sorted(answers)}",
                  file=sys.stderr)
        print(f"{name} done", file=sys.stderr)

    print(f"renamings: {len(insts)} instances x {len(SEEDS)} renamings, "
          + ", ".join(f"{k} {v}" for k, v in SETTINGS.items()))
    print("  new/base: geometric mean over instances of medians over renamings;"
          " range: the parent's (max - min) / median of conflicts")
    print(f"  {'mode':6s} {'confl':>6s} {'props':>6s} {'time':>6s} {'range':>6s}"
          f"  {'props/attempt base new':>22s}  {'success base new':>16s}")
    for m in MODES:
        ratios = []
        for k in range(3):
            ratios.append(geomean([
                statistics.median(x[k] for x in n) / statistics.median(x[k] for x in b)
                for b, n in zip(runs[base, m], runs[new, m])]))
        spread = statistics.median(
            (max(conflicts) - min(conflicts)) / statistics.median(conflicts)
            for conflicts in ([x[0] for x in b] for b in runs[base, m]))
        (bp, ba, bs), (np_, na, ns) = vivify[base, m], vivify[new, m]
        print(f"  {m:6s} {ratios[0]:6.3f} {ratios[1]:6.3f} {ratios[2]:6.3f} {spread:6.2f}"
              f"  {rate(bp, ba):>14s} {rate(np_, na):>7s}"
              f"  {rate(bs, ba):>8s} {rate(ns, na):>7s}")
    if bad:
        print(f"{bad} instance(s) with wrong or disagreeing answers", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
