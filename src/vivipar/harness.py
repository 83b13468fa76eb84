"""CLI entry point, stats-CSV rows, and the test-corpus generator.

Output follows SAT-Competition conventions: an ``s`` status line, ``v``
model lines for satisfiable instances, and exit codes 10 (SAT), 20 (UNSAT),
0 (unknown), 1 (usage or input error, or a stats CSV that cannot be
written), 3 (a worker failed).  A stats CSV
holds a header and one row per run, each built by `csv_row` from the
instance, the mode label, the worker count and the run's `PortfolioResult`.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import traceback

from . import portfolio
from .cdcl import SAT, UNSAT
from .formula import Formula, ParseError, normalize_clause, parse_dimacs_file
from .portfolio import ConfigError, PortfolioConfig, WorkerFault
from .stats import COUNTERS
from .strategy import mode_from_label

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


def csv_row(instance, mode_label, workers, result):
    """One stats-CSV row of a `PortfolioResult`: its status and wall time,
    then its `Stats` summed over its workers, in `CSV_COLUMNS` order."""
    stats = result.aggregate()
    return [instance, mode_label, workers, result.status,
            f"{result.wall_seconds:.3f}",
            *(getattr(stats, name) for name in COUNTERS),
            f"{stats.vivify_prop_pct:.2f}", f"{stats.success_rate:.4f}"]


def write_csv(rows, fh):
    """Write the header and ``rows`` (each from `csv_row`) to a text file
    opened with ``newline=""``."""
    w = csv.writer(fh)
    w.writerow(CSV_COLUMNS)
    w.writerows(rows)


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _lcm_mode(label):
    """`--lcm`'s type: a mode label, read by `strategy.mode_from_label`."""
    try:
        return mode_from_label(label)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _build_parser():
    p = _CliParser(prog="vivipar",
                   description="Parallel portfolio CDCL SAT solver with "
                               "vivification-based learned-clause minimization.")
    p.add_argument("file", help="DIMACS CNF input")
    p.add_argument("--lcm", default="none", type=_lcm_mode, metavar="MODE",
                   help="learned-clause minimization mode: none, pcm, lpcm, "
                        "or ecmN, where ECM withholds clauses with LBD <= N "
                        "(ecm means ecm3; default: none)")
    p.add_argument("--threads", type=int, default=2, metavar="N",
                   help="portfolio size: workers that take round-robin turns "
                        "(default: 2)")
    p.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
    p.add_argument("--deterministic", action="store_true",
                   help="report wall time as 0, so stats CSVs are byte-identical")
    p.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT,
                   metavar="SECONDS", help="wall-clock limit (default: 60)")
    p.add_argument("--conflict-limit", type=int, default=None, metavar="N",
                   help="per-worker conflict budget")
    p.add_argument("--stats-csv", metavar="PATH",
                   help="write one CSV row of run statistics")
    return p


def cli_main(argv=None):
    """Run the solver CLI; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1

    try:
        formula = parse_dimacs_file(args.file)
        config = PortfolioConfig(
            num_workers=args.threads,
            lcm=args.lcm,
            seed=args.seed,
            deterministic=args.deterministic,
            time_limit=args.time_limit,
            conflict_limit=args.conflict_limit,
        )
        config.validate()
        # opened before the solve: a bad path fails as bad input does,
        # not after the answer is found
        stats_fh = open(args.stats_csv, "w", newline="") if args.stats_csv else None
    except (ParseError, OSError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    print(f"c vivipar: {formula.num_vars} vars, {len(formula.clauses)} clauses, "
          f"mode={config.lcm}, workers={config.num_workers}"
          f"{', deterministic' if config.deterministic else ''}")
    try:
        result = portfolio.run(formula, config)
    except WorkerFault as e:
        if stats_fh is not None:
            stats_fh.close()
        traceback.print_exception(e.__cause__, file=sys.stderr)
        print(f"c {e}")
        return 3
    code = _print_answer(result, config)
    if stats_fh is not None:  # written after the answer, so a failure loses only the stats
        try:
            with stats_fh:
                write_csv([csv_row(args.file, config.lcm, config.num_workers, result)],
                          stats_fh)
        except OSError as e:
            print(f"error: cannot write stats CSV {args.stats_csv}: {e}", file=sys.stderr)
            return 1
    return code


def _print_answer(result, config):
    """Print the ``s`` line and the ``c``/``v`` lines that go with it;
    returns the exit code of the answer."""
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
    print(f"c {_stop_reason(result, config)}")
    print("s UNKNOWN")
    return 0


def _stop_reason(result, config):
    """What ended a run without an answer: every worker spent its conflict
    budget, or else the time limit passed."""
    limit = config.conflict_limit
    if limit is not None and all(s.conflicts >= limit for s in result.worker_stats):
        return f"stopped: every worker spent --conflict-limit {limit}"
    return f"stopped: time limit of {config.time_limit:g} s reached"


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
