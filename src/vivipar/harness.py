"""CLI entry point, run records, CSV emission, and the test-corpus generator.

Output follows SAT-Competition conventions: an ``s`` status line, ``v``
model lines for satisfiable instances, and exit codes 10 (SAT), 20 (UNSAT),
0 (unknown), 1 (usage or input error), 3 (a worker failed).
"""

from __future__ import annotations

import argparse
import csv
import os
import random
import sys
import traceback
from dataclasses import make_dataclass

from . import portfolio
from .cdcl import SAT, UNSAT
from .formula import Formula, ParseError, normalize_clause, parse_dimacs_file
from .portfolio import ConfigError, PortfolioConfig, WorkerFault
from .stats import COUNTERS
from .strategy import LcmMode

SEED_ENV_VAR = "VIVIPAR_SEED"
DEFAULT_TIME_LIMIT = 60.0

CSV_COLUMNS = ["instance", "mode", "workers", "status", "wall_seconds",
               *COUNTERS, "vivify_prop_pct", "success_rate"]


def gen_random_3sat(n, m, seed):
    """Uniform random 3-SAT: m clauses over 3 distinct variables each,
    polarities fair coin flips, reproducible from the seed."""
    assert n >= 3
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(normalize_clause(
            [v if rng.random() < 0.5 else -v for v in vs]))
    return Formula(num_vars=n, clauses=tuple(clauses))


RunRecord = make_dataclass(
    "RunRecord",
    [("instance", str), ("mode", str), ("workers", int), ("status", str),
     ("wall_seconds", float), *((name, int) for name in COUNTERS),
     ("vivify_prop_pct", float), ("success_rate", float)],
    frozen=True,
    namespace={"__doc__": "One CSV row: a (instance, mode) run with one field "
                          "per `Stats` counter, summed over its workers.  Float "
                          "fields are pre-rounded to their CSV precision, so "
                          "emitting and re-parsing a record reproduces it."})


def make_record(instance, mode_label, workers, status, wall_seconds, stats):
    """Build a RunRecord from aggregated Stats."""
    return RunRecord(
        instance, mode_label, workers, status, float(f"{wall_seconds:.3f}"),
        *(getattr(stats, name) for name in COUNTERS),
        float(f"{stats.vivify_prop_pct:.2f}"), float(f"{stats.success_rate:.4f}"))


def emit_csv(records, path):
    """Write header plus one row per record, stable column order,
    percentages with two decimals."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow([
                r.instance, r.mode, r.workers, r.status,
                f"{r.wall_seconds:.3f}",
                *(getattr(r, name) for name in COUNTERS),
                f"{r.vivify_prop_pct:.2f}",
                f"{r.success_rate:.4f}",
            ])


def read_csv(path):
    """Parse a stats CSV back into RunRecords (inverse of emit_csv)."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == CSV_COLUMNS, "unexpected CSV schema"
        for row in reader:
            records.append(RunRecord(
                row["instance"], row["mode"], int(row["workers"]), row["status"],
                float(row["wall_seconds"]),
                *(int(row[name]) for name in COUNTERS),
                float(row["vivify_prop_pct"]), float(row["success_rate"])))
    return records


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    p = _CliParser(prog="vivipar",
                   description="Parallel portfolio CDCL SAT solver with "
                               "vivification-based learned-clause minimization.")
    p.add_argument("file", help="DIMACS CNF input")
    p.add_argument("--lcm", default="none", choices=["none", "pcm", "lpcm", "ecm"],
                   help="learned-clause minimization mode (default: none)")
    p.add_argument("--ecm-max-lbd", type=int, default=3, metavar="N",
                   help="ECM withholds clauses with LBD <= N (default: 3)")
    p.add_argument("--threads", type=int, default=portfolio.default_workers(),
                   metavar="N", help="number of workers")
    p.add_argument("--seed", type=int, default=None,
                   help=f"base seed (default: ${SEED_ENV_VAR} or 0)")
    p.add_argument("--deterministic", action="store_true",
                   help="single-threaded round-robin scheduling, reproducible runs")
    p.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT,
                   metavar="SECONDS", help="wall-clock limit (default: 60)")
    p.add_argument("--conflict-limit", type=int, default=None, metavar="N",
                   help="per-worker conflict budget")
    p.add_argument("--stats-csv", metavar="PATH",
                   help="write one CSV row of run statistics")
    p.add_argument("--export-max-lbd", type=int, default=4, metavar="N",
                   help="export filter LBD bound (default: 4)")
    return p


def cli_main(argv=None):
    """Run the solver CLI; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1

    seed = args.seed
    if seed is None:
        raw_seed = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(raw_seed)
        except ValueError:
            print(f"error: {SEED_ENV_VAR} must be an integer, got {raw_seed!r}",
                  file=sys.stderr)
            return 1

    try:
        formula = parse_dimacs_file(args.file)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    # --ecm-max-lbd is checked under every --lcm, not only where it is used
    mode = LcmMode(args.lcm, args.ecm_max_lbd)
    config = PortfolioConfig(
        num_workers=args.threads,
        lcm=mode,
        seed=seed,
        deterministic=args.deterministic,
        time_limit=args.time_limit,
        conflict_limit=args.conflict_limit,
        export_max_lbd=args.export_max_lbd,
    )
    try:
        config.validate()
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    print(f"c vivipar: {formula.num_vars} vars, {len(formula.clauses)} clauses, "
          f"mode={mode.label}, workers={config.num_workers}"
          f"{', deterministic' if config.deterministic else ''}")
    try:
        result = portfolio.run(formula, config)
    except WorkerFault as e:
        traceback.print_exception(e.__cause__, file=sys.stderr)
        print(f"c {e}")
        return 3

    if args.stats_csv:
        record = make_record(args.file, mode.label, config.num_workers,
                             result.status, result.wall_seconds,
                             result.aggregate())
        emit_csv([record], args.stats_csv)

    # run() has already verified a SAT model against the formula
    if result.status == SAT:
        print("s SATISFIABLE")
        _print_model(result.model)
        print(f"c solved by worker {result.winner} in {result.wall_seconds:.3f}s")
        return 10
    if result.status == UNSAT:
        print("s UNSATISFIABLE")
        print(f"c solved by worker {result.winner} in {result.wall_seconds:.3f}s")
        return 20
    print("s UNKNOWN")
    return 0


def _print_model(model, per_line=16):
    """Print ``v`` lines of at most ``per_line`` literals; the last line ends
    with the terminating 0, so an empty model still prints ``v 0``."""
    chunks = [model[i:i + per_line] for i in range(0, len(model), per_line)] or [[]]
    chunks[-1] = [*chunks[-1], 0]
    for chunk in chunks:
        print("v " + " ".join(map(str, chunk)))


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
