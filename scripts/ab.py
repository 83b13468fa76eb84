"""In-process A/B timing of two vivipar checkouts on one benchmark workload.

    python3 scripts/ab.py --base ../parent --new . --workload uf-sat-det --reps 12

Both checkouts' ``src/vivipar`` packages are loaded into this one process
under different package names, so that both sides share the interpreter,
its warm caches and every stretch of host noise.  The workload's corpus
(from this checkout's ``perfbench``, at the same sizes and settings as
``perfbench/run.py``) is solved in all five LCM modes, and the two sides run
back to back on each operation, base first on even reps and new first on
odd ones.  Each operation counts at its fastest rep.  The default of 12
reps is what it takes to resolve a few percent on ``php-unsat-det``: there
one rep is 5 operations on one instance, so a few host stalls move a 4-rep
reading by several percent.

Each side parses the corpus with its own parser; if any instance parses to
a different formula (``num_vars`` or ``clauses``), the script prints
``FORMULA differs for <instance>`` and exits 1 before solving anything.
Before the timed reps, one untimed pass solves every operation on both sides
with an event recorder attached.  Prints, per mode, each side's total of
per-operation minimum times and their ratio new/base, then the same over all
modes, then each rep's ratio new/base of its summed times and the number of
reps that new won, which shows whether the reading held rep by rep.  Exits 1
unless every answer is correct, every operation's ``worker_stats`` are
identical between the two sides and between reps, and every operation's
winner and the SHA-256 of its event stream's ``repr`` are identical between
the two sides, which is how a change that claims bit-identical search is
checked.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as bench  # noqa: E402  (perfbench/run.py: workloads, sizes, answer check)


def load_checkout(root, name):
    """Import ``<root>/src/vivipar`` as the package ``name``."""
    pkg = os.path.join(os.path.abspath(root), "src", "vivipar")
    init = os.path.join(pkg, "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: no vivipar sources under {pkg}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One checkout with the corpus parsed by its own parser."""

    def __init__(self, vivipar, instances, workload, size):
        self.v = vivipar
        self.formulas = [vivipar.formula.parse_dimacs(inst.dimacs()) for inst in instances]
        self.modes = [vivipar.strategy.mode_from_label(m) for m in bench.MODE_LABELS]
        self.deterministic = workload.deterministic
        self.budget = size.get("budget")
        self.schedule = {k: size[k] for k in ("reduce_first",) if k in size}
        self.best = {}  # (instance index, mode label) -> fastest seconds
        self.rep_seconds = {}  # rep -> summed seconds of that rep's solves

    def config(self, m, recorder=None):
        return self.v.portfolio.PortfolioConfig(
            num_workers=bench.WORKERS, lcm=self.modes[m],
            deterministic=self.deterministic, conflict_limit=self.budget,
            recorder=recorder, **self.schedule)

    def trace(self, i, m):
        """The winner and the event stream digest of one untimed solve."""
        events = []
        result = self.v.portfolio.run(self.formulas[i], self.config(m, events.append))
        return result.winner, hashlib.sha256(repr(events).encode()).hexdigest()

    def solve(self, i, m, rep):
        config = self.config(m)
        t0 = time.perf_counter()
        result = self.v.portfolio.run(self.formulas[i], config)
        elapsed = time.perf_counter() - t0
        key = (i, bench.MODE_LABELS[m])
        self.best[key] = min(elapsed, self.best.get(key, elapsed))
        self.rep_seconds[rep] = self.rep_seconds.get(rep, 0.0) + elapsed
        return result

    def totals(self):
        out = {label: 0.0 for label in bench.MODE_LABELS}
        for (_, label), t in self.best.items():
            out[label] += t
        return out


def stats_key(result):
    return (result.status, [dataclasses.astuple(ws) for ws in result.worker_stats])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="root of the reference checkout")
    p.add_argument("--new", required=True, help="root of the checkout under test")
    p.add_argument("--workload", required=True,
                   choices=sorted(k for k, w in bench.WORKLOADS.items() if w.deterministic))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--size", default="full", choices=sorted(bench.SIZES))
    p.add_argument("--reps", type=int, default=12)
    args = p.parse_args(argv)
    if args.reps < 1:
        p.error("--reps must be at least 1")

    workload = bench.WORKLOADS[args.workload]
    size = bench.SIZES[args.size][args.workload]
    instances = workload.make(args.seed, size)
    base = Side(load_checkout(args.base, "vivipar_ab_base"), instances, workload, size)
    new = Side(load_checkout(args.new, "vivipar_ab_new"), instances, workload, size)

    differ = [inst.name for inst, b, n in zip(instances, base.formulas, new.formulas)
              if (b.num_vars, b.clauses) != (n.num_vars, n.clauses)]
    for name in differ:
        print(f"FORMULA differs for {name}", file=sys.stderr)
    if differ:
        return 1

    bad = 0
    for i, inst in enumerate(instances):
        for m, label in enumerate(bench.MODE_LABELS):
            if base.trace(i, m) != new.trace(i, m):
                bad += 1
                print(f"WINNER or EVENTS differ for {inst.name} {label}",
                      file=sys.stderr)
    print("event pass done", file=sys.stderr)

    first = {}  # (instance index, mode index) -> the first run's stats
    for rep in range(args.reps):
        order = (base, new) if rep % 2 == 0 else (new, base)
        for i, inst in enumerate(instances):
            for m, label in enumerate(bench.MODE_LABELS):
                for side in order:
                    result = side.solve(i, m, rep)
                    verdict, reason = bench.check(inst, result, side.budget)
                    if verdict != "ok":
                        bad += 1
                        print(f"{verdict.upper()} {inst.name} {label}: {reason}",
                              file=sys.stderr)
                    key = stats_key(result)
                    if first.setdefault((i, m), key) != key:
                        bad += 1
                        print(f"STATS differ for {inst.name} {label} "
                              f"({'new' if side is new else 'base'}, rep {rep + 1})",
                              file=sys.stderr)
        print(f"rep {rep + 1}/{args.reps} done", file=sys.stderr)

    bt, nt = base.totals(), new.totals()
    ops = len(instances) * len(bench.MODE_LABELS)
    print(f"{args.workload} seed {args.seed} size {args.size}: {ops} operations, "
          f"{args.reps} reps, per-operation minimum seconds")
    print(f"  {'mode':6s} {'base':>10s} {'new':>10s} {'new/base':>9s}")
    for label in (*bench.MODE_LABELS, "all"):
        b = sum(bt.values()) if label == "all" else bt[label]
        n = sum(nt.values()) if label == "all" else nt[label]
        print(f"  {label:6s} {b:10.4f} {n:10.4f} {n / b:9.3f}")
    ratios = [new.rep_seconds[r] / base.rep_seconds[r] for r in range(args.reps)]
    print(f"  per rep new/base {' '.join(f'{r:.3f}' for r in ratios)}; "
          f"new won {sum(r < 1 for r in ratios)}/{args.reps}")
    if bad:
        print(f"{bad} operation(s) wrong or with differing worker_stats, "
              f"winner or events", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
