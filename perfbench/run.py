"""vivipar benchmark: solve seeded corpora in every LCM mode and report
end-to-end times, or, with ``--trace 1``, per-layer times and counts.

    python3 perfbench/run.py --workload uf-sat-det --seed 1 --seconds 55 --trace 0

Each operation is one ``portfolio.run`` call on one (instance, mode) pair;
a round is every instance in every mode, run one at a time from this
process (a closed loop).  Rounds repeat while the next one still fits in
``--seconds``; at least one round always runs, and each operation counts
at its fastest round.  Every answer is checked against a fact established
without the solver (see corpus.py), and the exact Stats counters of
deterministic workloads are compared between rounds, between the traced
and untraced runs, and with the previous run of the same code and seed
(kept under perfbench/out/fingerprints).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same object,
with the run's parameters, is appended to perfbench/out/results.jsonl; a
traced run also writes its spans to perfbench/out/trace-<workload>.spans.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass

import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

MODE_LABELS = ("none", "pcm", "lpcm", "ecm3", "ecm4")
WORKERS = 2  # the benchmark host's core count
WALKSAT_FLIPS = 5000

# setup_s samples are spread evenly through each round, so that their
# median sees the same stretches of host noise as the solves
SETUP_SAMPLES_PER_ROUND = 2
SETUP_SAMPLE_SECONDS = 0.02


@dataclass(frozen=True)
class Workload:
    make: object  # (seed, size parameters) -> list of corpus.Instance
    deterministic: bool


WORKLOADS = {
    "uf-sat-det": Workload(
        lambda seed, s: corpus.uf_sat(seed, s["n"], s["count"], WALKSAT_FLIPS),
        deterministic=True),
    "php-unsat-det": Workload(
        lambda seed, s: corpus.php(s["pigeons"]), deterministic=True),
    "large-threads": Workload(
        lambda seed, s: corpus.planted(seed, s["n"]), deterministic=False),
}

# "budget" is the per-worker conflict limit.  It must pass reduce_first:
# PCM and LPCM vivify only at a database reduction, so a smaller budget
# would time them as plain CDCL.  php-unsat-det and large-threads move the
# first reduction below the default 2000 conflicts, so that PCM and LPCM
# vivify on operations short enough to repeat many times (see README.md).
SIZES = {
    "full": {
        "uf-sat-det": {"n": 50, "count": 400},
        "php-unsat-det": {"pigeons": 7, "reduce_first": 300},
        "large-threads": {"n": 2000, "budget": 600, "reduce_first": 500},
    },
    "tiny": {
        "uf-sat-det": {"n": 40, "count": 2},
        "php-unsat-det": {"pigeons": 5, "reduce_first": 30},
        "large-threads": {"n": 150, "budget": 300, "reduce_first": 200},
    },
}


def import_vivipar():
    """Import vivipar from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "vivipar", "__init__.py")):
        sys.exit(f"error: vivipar sources not found under {src}")
    sys.path.insert(0, src)
    import vivipar  # its __init__ imports every module the benchmark uses
    if os.path.dirname(os.path.dirname(os.path.abspath(vivipar.__file__))) != src:
        sys.exit(f"error: imported vivipar from {vivipar.__file__}, not {src}")
    return vivipar


def source_hash():
    """Hash of the solver's and the benchmark's sources: fingerprints are
    only compared between runs of the same code."""
    h = hashlib.sha256()
    for d in (os.path.join(ROOT, "src", "vivipar"), HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def check(inst, result, budget):
    """Judge one answer: (verdict, reason) with verdict ok, failed or wrong."""
    if result.status == corpus.SAT:
        if inst.expect == corpus.UNSAT:
            return "wrong", "SAT on an instance UNSAT by construction"
        if not corpus.satisfies(inst.clauses, result.model):
            return "wrong", "model falsifies a clause"
        return "ok", ""
    if result.status == corpus.UNSAT:
        if inst.expect == corpus.UNSAT:
            return "ok", ""
        return "wrong", "UNSAT on an instance with a certificate model"
    if budget is not None and all(ws.conflicts >= budget for ws in result.worker_stats):
        return "ok", ""
    return "failed", "UNKNOWN before every worker used its conflict budget"


@dataclass
class Round:
    # (instance name, mode label) -> (run() seconds, conflicts, propagations)
    ops: dict = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    fingerprint: dict = dataclasses.field(default_factory=dict)
    stats: list = dataclasses.field(default_factory=list)
    setup: list = dataclasses.field(default_factory=list)  # seconds per corpus parse

    @property
    def seconds(self):
        return sum(op[0] for op in self.ops.values())


class Bench:
    def __init__(self, vivipar, name, workload, instances, size, workers):
        self.v = vivipar
        self.name = name
        self.workload = workload
        self.instances = instances
        self.texts = [inst.dimacs() for inst in instances]
        self.budget = size.get("budget")
        self.schedule = {k: size[k] for k in ("reduce_first",) if k in size}
        self.workers = workers
        self.modes = [vivipar.strategy.mode_from_label(m) for m in MODE_LABELS]

    def parse_all(self):
        parse = self.v.formula.parse_dimacs
        return [parse(t) for t in self.texts]

    def setup_sample(self):
        """Seconds to parse the whole corpus once, timed over enough
        repeated parses to last SETUP_SAMPLE_SECONDS."""
        reps = 0
        t0 = time.perf_counter()
        while True:
            self.parse_all()
            reps += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= SETUP_SAMPLE_SECONDS:
                return elapsed / reps

    def run_round(self, formulas, with_setup=False):
        """Every instance in every mode, once; with ``with_setup``, parse-time
        samples are taken at evenly spread points between operations."""
        rnd = Round()
        run = self.v.portfolio.run
        Config = self.v.portfolio.PortfolioConfig
        ops = len(formulas) * len(MODE_LABELS)
        sample_every = max(1, ops // SETUP_SAMPLES_PER_ROUND)
        for inst, formula in zip(self.instances, formulas):
            for label, mode in zip(MODE_LABELS, self.modes):
                if with_setup and rnd.attempted % sample_every == 0:
                    rnd.setup.append(self.setup_sample())
                config = Config(num_workers=self.workers, lcm=mode,
                                deterministic=self.workload.deterministic,
                                conflict_limit=self.budget, **self.schedule)
                rnd.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = run(formula, config)
                except Exception as e:  # an operation that raises is counted failed
                    rnd.ops[inst.name, label] = (time.perf_counter() - t0, 0, 0)
                    rnd.failed += 1
                    print(f"FAILED {inst.name} {label}: {e!r}", file=sys.stderr)
                    continue
                elapsed = time.perf_counter() - t0
                verdict, reason = check(inst, result, self.budget)
                if verdict != "ok":
                    setattr(rnd, verdict, getattr(rnd, verdict) + 1)
                    print(f"{verdict.upper()} {inst.name} {label}: {reason} "
                          f"(status {result.status})", file=sys.stderr)
                agg = result.aggregate()
                rnd.stats.append(agg)
                rnd.ops[inst.name, label] = (elapsed, agg.conflicts, agg.propagations_total)
                rnd.fingerprint[f"{inst.name}/{label}"] = [
                    result.status, result.winner,
                    [dataclasses.astuple(ws) for ws in result.worker_stats]]
        return rnd


def fingerprint_mismatches(rounds, key):
    """Compare deterministic counters between rounds and with the stored
    fingerprint of an earlier run of the same code; store them if none.
    Returns the number of (instance, mode) pairs that differ."""
    first = json.loads(json.dumps(rounds[0].fingerprint))  # tuples -> lists
    bad = set()
    for rnd in rounds[1:]:
        other = json.loads(json.dumps(rnd.fingerprint))
        bad |= {k for k in first if first[k] != other.get(k)}
    path = os.path.join(OUT, "fingerprints", key + ".json")
    src = source_hash()
    stored = None
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
    if stored is not None and stored["source"] == src:
        bad |= {k for k in first if first[k] != stored["counters"].get(k)}
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"source": src, "counters": first}, fh)
    for k in sorted(bad):
        print(f"FINGERPRINT differs for {k}", file=sys.stderr)
    return len(bad)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(bench, seconds):
    formulas = bench.parse_all()
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(bench.run_round(formulas, with_setup=True))
        last = time.perf_counter() - t0
        print(f"round {len(rounds)}: {last:.2f} s", file=sys.stderr)
        if time.perf_counter() - start + last > seconds:
            break
    # Each operation counts at its fastest round.  Other tenants of the host
    # only ever slow a run down, so the minimum is the steadiest estimate.
    fastest = {}
    for r in rounds:
        for key, op in r.ops.items():
            if key not in fastest or op[0] < fastest[key][0]:
                fastest[key] = op
    metrics = {f"wall_s.{m}": metric(
        sum(op[0] for (_, label), op in fastest.items() if label == m), "s")
        for m in MODE_LABELS}
    total = sum(op[0] for op in fastest.values())
    metrics["conflicts_per_s"] = metric(sum(op[1] for op in fastest.values()) / total, "1/s")
    metrics["props_per_s"] = metric(sum(op[2] for op in fastest.values()) / total, "1/s")
    metrics["setup_s"] = metric(statistics.median(t for r in rounds for t in r.setup), "s")
    return rounds, metrics


def per_layer(bench, trace_path):
    from tracing import Tracer

    rounds = [bench.run_round(bench.parse_all())]
    tracer = Tracer(bench.v)
    tracer.install()
    try:
        formulas = bench.parse_all()
        rounds.append(bench.run_round(formulas))
    finally:
        tracer.uninstall()
    untraced, traced = rounds
    untraced_s, traced_s = untraced.seconds, traced.seconds
    s = tracer.self_time
    stats = traced.stats
    total = {f: sum(getattr(a, f) for a in stats)
             for f in ("conflicts", "propagations_total", "propagations_vivify",
                       "vivify_attempts", "vivify_successes",
                       "improvements_published", "improvements_adopted",
                       "clauses_exported", "clauses_imported", "buffer_overflows")}
    cpu, wall = tracer.worker_cpu_wall()
    # portfolio.run's self time includes waiting for worker threads
    search = [n for n in tracer.names if n not in ("formula.parse", "portfolio.run")]
    vivify_share = 100.0 * sum(s(n) for n in search if n.startswith("vivify.")) / sum(
        s(n) for n in search)
    m = {
        "formula.parse_s": metric(s("formula.parse"), "s"),
        "cdcl.init_s": metric(s("cdcl.init"), "s"),
        "cdcl.step_s": metric(s("cdcl.step"), "s"),
        "cdcl.propagate_s": metric(s("cdcl.propagate"), "s"),
        "cdcl.propagate_calls": metric(tracer.calls("cdcl.propagate"), "count"),
        "cdcl.propagations": metric(total["propagations_total"] - total["propagations_vivify"], "count"),
        "cdcl.decide_s": metric(s("cdcl.decide"), "s"),
        "cdcl.decisions": metric(tracer.calls("cdcl.decide"), "count"),
        "cdcl.analyze_s": metric(s("cdcl.analyze"), "s"),
        "cdcl.minimize_s": metric(s("cdcl.minimize"), "s"),
        "cdcl.conflicts": metric(total["conflicts"], "count"),
        "cdcl.backtrack_s": metric(s("cdcl.backtrack"), "s"),
        "cdcl.reduce_db_s": metric(s("cdcl.reduce_db"), "s"),
        "vivify.probe_s": metric(s("vivify.probe"), "s"),
        "vivify.propagate_s": metric(s("vivify.propagate"), "s"),
        "vivify.undo_s": metric(s("vivify.undo"), "s"),
        "vivify.select_s": metric(s("vivify.select"), "s"),
        "vivify.apply_s": metric(s("vivify.apply"), "s"),
        "vivify.attempts": metric(total["vivify_attempts"], "count"),
        "vivify.successes": metric(total["vivify_successes"], "count"),
        "vivify.success_ratio": metric(
            total["vivify_successes"] / max(1, total["vivify_attempts"]), "ratio"),
        "vivify.prop_share": metric(
            100.0 * total["propagations_vivify"] / max(1, total["propagations_total"]), "%"),
        "vivify.time_share": metric(vivify_share, "%"),
        "strategy.hooks_s": metric(s("strategy.hooks"), "s"),
        "strategy.published": metric(total["improvements_published"], "count"),
        "strategy.adopted": metric(total["improvements_adopted"], "count"),
        "exchange.export_s": metric(s("exchange.export"), "s"),
        "exchange.drain_s": metric(s("exchange.drain"), "s"),
        "exchange.exported": metric(total["clauses_exported"], "count"),
        "exchange.imported": metric(total["clauses_imported"], "count"),
        "exchange.overflows": metric(total["buffer_overflows"], "count"),
        "portfolio.run_s": metric(s("portfolio.run"), "s"),
        "portfolio.worker_cpu_s": metric(cpu, "s"),
        "portfolio.gil_wait_s": metric(wall - cpu, "s"),
        "trace.overhead_pct": metric(100.0 * (traced_s - untraced_s) / untraced_s, "%"),
        "trace.self_sum_pct": metric(100.0 * tracer.self_total_here(
            exclude=("formula.parse",)) / untraced_s, "%"),
    }
    os.makedirs(OUT, exist_ok=True)
    tracer.write(trace_path, {"workload": bench.name})
    return rounds, m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full", choices=sorted(SIZES),
                   help="corpus size (tiny is for the self-check)")
    p.add_argument("--workers", type=int, default=WORKERS,
                   help="workers per run (change only for reference runs)")
    args = p.parse_args(argv)

    vivipar = import_vivipar()
    workload = WORKLOADS[args.workload]
    size = SIZES[args.size][args.workload]
    bench = Bench(vivipar, args.workload, workload, workload.make(args.seed, size),
                  size, args.workers)

    if args.trace:
        rounds, metrics = per_layer(
            bench, os.path.join(OUT, f"trace-{args.workload}.spans"))
    else:
        rounds, metrics = end_to_end(bench, args.seconds)

    wrong = sum(r.wrong for r in rounds)
    if workload.deterministic:
        key = f"{args.workload}-{args.size}-w{args.workers}-seed{args.seed}"
        wrong += fingerprint_mismatches(rounds, key)
    result = {"correct": wrong == 0,
              "attempted": sum(r.attempted for r in rounds),
              "failed": sum(r.failed for r in rounds),
              "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "size": args.size, "workers": args.workers,
                             "rounds": len(rounds), **result}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
