"""Seeded benchmark inputs whose answers are known without the solver.

Three families, one per workload:

* ``uf_sat``: uniform random 3-SAT at m/n = 4.26, kept only when the
  benchmark's own WalkSAT finds a satisfying assignment, which is stored as
  the instance's certificate (SATLIB filters its uf sets the same way).  The
  filter never calls vivipar, so the kept set depends on the seed alone.
* ``php``: the pigeonhole formula PHP(p, p-1), UNSAT by construction.
* ``planted``: random 3-SAT at m/n = 4.26 with every clause satisfied by a
  hidden model drawn first, so the instance is SAT by construction.

Every generator takes the workload seed and nothing else that varies, so
the same seed gives the same clauses.  ``satisfies`` is the benchmark's
own clause-by-clause model check; it shares no code with vivipar.

Write a corpus to disk with::

    python3 perfbench/corpus.py --workload uf-sat-det --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
from dataclasses import dataclass

SAT = "SAT"
UNSAT = "UNSAT"

CLAUSE_RATIO = 4.26
WALKSAT_NOISE = 0.5


@dataclass(frozen=True)
class Instance:
    """One benchmark input: clauses as given to the solver, the answer
    known from construction, and a certificate model for SAT instances."""

    name: str
    num_vars: int
    clauses: tuple
    expect: str
    certificate: tuple | None = None

    def dimacs(self):
        lines = [f"c {self.name}", f"p cnf {self.num_vars} {len(self.clauses)}"]
        lines += [" ".join(map(str, c)) + " 0" for c in self.clauses]
        return "\n".join(lines) + "\n"


def satisfies(clauses, model):
    """True iff ``model`` (one signed literal per variable, in variable
    order) makes every clause true."""
    true_lit = [False] * (2 * len(model) + 1)
    n = len(model)
    for v, lit in enumerate(model, start=1):
        if abs(lit) != v:
            return False
        true_lit[lit + n] = True
    for c in clauses:
        for lit in c:
            if not 1 <= abs(lit) <= n:
                return False
        if not any(true_lit[lit + n] for lit in c):
            return False
    return True


def _random_clause(rng, n):
    return tuple(v if rng.random() < 0.5 else -v
                 for v in rng.sample(range(1, n + 1), 3))


def walksat(num_vars, clauses, rng, max_flips):
    """WalkSAT/SKC local search.  Returns a model or None after
    ``max_flips`` flips without one."""
    n = num_vars
    val = [False] + [rng.random() < 0.5 for _ in range(n)]
    occ = [[] for _ in range(2 * n + 1)]
    for ci, c in enumerate(clauses):
        for lit in c:
            occ[lit + n].append(ci)
    ntrue = [0] * len(clauses)
    unsat = []
    pos = [-1] * len(clauses)
    for ci, c in enumerate(clauses):
        k = sum(1 for lit in c if val[abs(lit)] == (lit > 0))
        ntrue[ci] = k
        if k == 0:
            pos[ci] = len(unsat)
            unsat.append(ci)

    for _ in range(max_flips):
        if not unsat:
            return tuple(v if val[v] else -v for v in range(1, n + 1))
        c = clauses[unsat[rng.randrange(len(unsat))]]
        # every literal of c is false, so flipping var(l) makes -l false
        best, best_break = None, None
        for lit in c:
            brk = 0
            for ci in occ[n - lit]:
                if ntrue[ci] == 1:
                    brk += 1
            if best_break is None or brk < best_break:
                best, best_break = lit, brk
        if best_break > 0 and rng.random() < WALKSAT_NOISE:
            best = c[rng.randrange(3)]
        v = abs(best)
        val[v] = not val[v]
        for ci in occ[n - best]:  # -best was true, is now false
            ntrue[ci] -= 1
            if ntrue[ci] == 0:
                pos[ci] = len(unsat)
                unsat.append(ci)
        for ci in occ[n + best]:  # best is now true
            ntrue[ci] += 1
            if ntrue[ci] == 1:
                i, last = pos[ci], unsat[-1]
                unsat[i] = last
                pos[last] = i
                unsat.pop()
                pos[ci] = -1
    return None


def uf_sat(seed, n, count, max_flips):
    """``count`` certified-SAT uniform random 3-SAT instances over n vars.

    Candidates the local search does not solve within ``max_flips`` flips
    are discarded (UNSAT ones among them), as SATLIB discarded the
    instances its filter could not show satisfiable.
    """
    rng = random.Random(f"uf-sat:{n}:{seed}")
    m = round(CLAUSE_RATIO * n)
    out = []
    for k in itertools.count():
        if len(out) == count:
            return out
        clauses = tuple(_random_clause(rng, n) for _ in range(m))
        model = walksat(n, clauses, rng, max_flips)
        if model is None:
            continue
        if not satisfies(clauses, model):
            raise AssertionError("local search returned a non-model")
        out.append(Instance(f"uf{n}-s{seed}-c{k}", n, clauses, SAT, model))


def php(pigeons):
    """PHP(p, p-1) in its canonical encoding: variable i*h + j + 1 says
    pigeon i sits in hole j.  There is one such formula per size, so the
    seed does not enter."""
    holes = pigeons - 1

    def var(i, j):
        return i * holes + j + 1

    clauses = [tuple(var(i, j) for j in range(holes)) for i in range(pigeons)]
    for j in range(holes):
        for i1, i2 in itertools.combinations(range(pigeons), 2):
            clauses.append((-var(i1, j), -var(i2, j)))
    return [Instance(f"php{pigeons}-{holes}", pigeons * holes, tuple(clauses), UNSAT)]


def planted(seed, n):
    """Random 3-SAT over n vars at m/n = 4.26, each clause drawn until the
    hidden model satisfies it; the hidden model is the certificate."""
    rng = random.Random(f"planted:{n}:{seed}")
    model = tuple(v if rng.random() < 0.5 else -v for v in range(1, n + 1))
    truth = set(model)
    clauses = []
    while len(clauses) < round(CLAUSE_RATIO * n):
        c = _random_clause(rng, n)
        if any(lit in truth for lit in c):
            clauses.append(c)
    return [Instance(f"planted{n}-s{seed}", n, tuple(clauses), SAT, model)]


def main(argv=None):
    # imported here so that run.py can import this module without a cycle
    from run import SIZES, WORKLOADS

    p = argparse.ArgumentParser(description="Write a workload's corpus as "
                                "DIMACS files plus an answers.json of "
                                "expected answers and certificates.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=sorted(SIZES))
    p.add_argument("--out", required=True, help="directory to write into")
    args = p.parse_args(argv)
    instances = WORKLOADS[args.workload].make(args.seed, SIZES[args.size][args.workload])
    os.makedirs(args.out, exist_ok=True)
    answers = {}
    for inst in instances:
        with open(os.path.join(args.out, inst.name + ".cnf"), "w") as fh:
            fh.write(inst.dimacs())
        answers[inst.name] = {"expect": inst.expect,
                              "certificate": inst.certificate}
    with open(os.path.join(args.out, "answers.json"), "w") as fh:
        json.dump(answers, fh)
    print(f"wrote {len(instances)} instances to {args.out}")


if __name__ == "__main__":
    main()
