"""Acceptance suite: one test per criterion, one printed PASS line each.

The heavy corpora (criteria 1-4, 7-8) fan out over a small process pool;
every run is deterministic-mode with fixed seeds, so reruns are exact.
Competition-scale results (solved-instance counts over 1,050 benchmarks,
34 cores, 15,000 s limits) are explicitly not reproduced here; criterion 9
runs the desk-scale smoke substitute instead.
"""

import multiprocessing as mp
import os
import random
import threading
from statistics import mean

import pytest

from vivipar.cdcl import SAT, UNSAT, Engine, EngineConfig
from vivipar.exchange import DoublePublish, SharedPool
from vivipar.formula import Clause, evaluate, to_dimacs
from vivipar.harness import cli_main, gen_random_3sat
from vivipar.oracle import brute_force, implied
from vivipar.portfolio import PortfolioConfig, run
from vivipar.strategy import LPCM, Strategy, mode_from_label

from conftest import mk_formula, of_kind

MODE_LABELS = ["none", "pcm", "lpcm", "ecm3", "ecm4"]
VIVIFY_MODE_LABELS = ["pcm", "lpcm", "ecm3", "ecm4"]


def announce(capsys, message):
    """Print a criterion PASS line on the live terminal, capture or not."""
    with capsys.disabled():
        print(message)


N_CORPUS = 1000
N_MEDIUM = 60
N_SMOKE = 10

# schedule knobs that make reductions/restarts (and therefore vivification)
# actually fire on n <= 25 instances; protocol semantics are unchanged
TINY_KNOBS = dict(reduce_first=30, reduce_inc=15, restart_window=8,
                  luby_unit=10, quantum=64)


def corpus_formula(seed):
    n = random.Random(seed).randint(10, 25)
    return gen_random_3sat(n, round(4.26 * n), seed)


def medium_formula(seed):
    return gen_random_3sat(150, 639, 10_000 + seed)


def smoke_formula(seed):
    return gen_random_3sat(100, 426, 20_000 + seed)


def _pool():
    return mp.Pool(min(os.cpu_count() or 1, 4))


# -------------------------------------------------------------- criterion 1+3

def _solve_against_oracle(seed):
    f = corpus_formula(seed)
    want = brute_force(f)[0]
    mismatches = []
    sat_runs = 0
    model_failures = 0
    for label in MODE_LABELS:
        for workers in (1, 4):
            res = run(f, PortfolioConfig(
                num_workers=workers, lcm=mode_from_label(label), seed=seed,
                deterministic=True, **TINY_KNOBS))
            if res.status != want:
                mismatches.append((seed, label, workers, res.status, want))
            if res.status == SAT:
                sat_runs += 1
                if len(res.model) != f.num_vars or not evaluate(f, res.model):
                    model_failures += 1
    return mismatches, sat_runs, model_failures


@pytest.fixture(scope="module")
def oracle_equivalence_results():
    with _pool() as pool:
        results = pool.map(_solve_against_oracle, range(N_CORPUS), chunksize=25)
    return results


@pytest.mark.slow
def test_criterion_1_oracle_equivalence(oracle_equivalence_results, capsys):
    mismatches = [m for r in oracle_equivalence_results for m in r[0]]
    total = N_CORPUS * len(MODE_LABELS) * 2
    assert mismatches == [], mismatches[:10]
    announce(capsys, f"\nACCEPTANCE 1 oracle equivalence: PASS "
          f"({total} runs over {N_CORPUS} instances, 0 mismatches)")


@pytest.mark.slow
def test_criterion_3_model_soundness(oracle_equivalence_results, capsys):
    sat_runs = sum(r[1] for r in oracle_equivalence_results)
    failures = sum(r[2] for r in oracle_equivalence_results)
    assert sat_runs > 0
    assert failures == 0
    announce(capsys, f"\nACCEPTANCE 3 model soundness: PASS "
          f"({sat_runs} Sat answers, all pass formula.evaluate)")


# -------------------------------------------------------------- criterion 2+4

def _instrumented_run(args):
    seed, label = args
    f = corpus_formula(seed)
    log = []
    mode = mode_from_label(label)
    run(f, PortfolioConfig(num_workers=1, lcm=mode, seed=seed,
                           deterministic=True, recorder=log.append, **TINY_KNOBS))
    replacements = unsound = 0
    for _, _, old, new in of_kind(log, "replace"):
        replacements += 1
        if not (len(new) < len(old)
                and implied(f.num_vars, list(f.clauses) + [old], new)):
            unsound += 1

    early_exports = withheld_removed = 0
    if mode.kind == "ecm":
        learn_lbd = {e[2]: e[3] for e in of_kind(log, "learn")}
        pending = set()
        for e in log:
            if e[0] == "withhold":
                pending.add(e[2])
            elif e[0] == "vivify":
                pending.discard(e[2])
            elif e[0] == "export":
                _, _, cid, _, _, attempted = e
                if learn_lbd.get(cid, 99) < mode.ecm_max_lbd + 1 and not attempted:
                    early_exports += 1
            elif e[0] == "reduce_remove" and e[2] in pending:
                withheld_removed += 1
    published_under_pcm = len(of_kind(log, "publish")) if mode.kind == "pcm" else 0
    return replacements, unsound, early_exports, withheld_removed, published_under_pcm


@pytest.fixture(scope="module")
def instrumented_results():
    jobs = [(seed, label) for seed in range(N_CORPUS)
            for label in VIVIFY_MODE_LABELS]
    with _pool() as pool:
        results = pool.map(_instrumented_run, jobs, chunksize=50)
    return results


@pytest.mark.slow
def test_criterion_2_vivification_soundness(instrumented_results, capsys):
    replacements = sum(r[0] for r in instrumented_results)
    unsound = sum(r[1] for r in instrumented_results)
    assert replacements > 0, "corpus produced no replacements to check"
    assert unsound == 0
    announce(capsys, f"\nACCEPTANCE 2 vivification soundness: PASS "
          f"({replacements} replacements, all implied by F and C)")


@pytest.mark.slow
def test_criterion_4_ecm_protocol(instrumented_results, capsys):
    early = sum(r[2] for r in instrumented_results)
    removed = sum(r[3] for r in instrumented_results)
    assert early == 0, f"{early} low-LBD clauses exported before vivify attempt"
    assert removed == 0, f"{removed} withheld clauses deleted by reduce_db"
    announce(capsys, f"\nACCEPTANCE 4 ECM protocol: PASS "
          "(no early exports, no withheld clause reduced)")


@pytest.mark.slow
def test_pcm_isolation_no_publications(instrumented_results, capsys):
    # strategy-module invariant checked on the same instrumented corpus
    assert sum(r[4] for r in instrumented_results) == 0
    announce(capsys, "\nACCEPTANCE extra, PCM isolation: PASS "
                     "(no published improvements under pcm)")


# -------------------------------------------------------------- criterion 5

def test_criterion_5_lpcm_protocol_directed(capsys):
    # worker A learns and exports, B imports; A vivifies and publishes;
    # B's next reduction swaps in the improvement
    pool = SharedPool(2)
    shared = [[-1, 2]]
    eng_a = Engine(mk_formula(3, shared), EngineConfig(), pool=pool, worker_id=0)
    strat_a = Strategy(LPCM, eng_a)
    eng_b = Engine(mk_formula(3, shared), EngineConfig(), pool=pool, worker_id=1)
    strat_b = Strategy(LPCM, eng_b)
    eng_a.propagate()
    eng_b.propagate()

    eng_a._cid += 1
    c = Clause([2, 3, 1], lbd=2, learned=True, cid=eng_a._cid)
    eng_a.learned_db.append(c)
    eng_a._attach(c)
    strat_a.on_learn(c)
    eng_a._cid += 1
    filler = Clause([-2, -3, -1], lbd=3, learned=True, cid=eng_a._cid)
    eng_a.learned_db.append(filler)
    eng_a._attach(filler)

    assert eng_b._integrate_imports() == 1
    copy = [x for x in eng_b.learned_db if x.imported][0]
    assert set(copy.lits) == {1, 2, 3}

    strat_a.before_reduce()
    assert eng_a.stats.improvements_published == 1

    strat_b.before_reduce()
    live = [x for x in eng_b.learned_db if not x.removed and x.imported]
    assert copy.removed
    assert [set(x.lits) for x in live] == [{2, 3}]
    assert eng_b.stats.improvements_adopted == 1
    announce(capsys, f"\nACCEPTANCE 5a LPCM directed scenario: PASS "
          "(importer holds the improved clause after its reduction)")


def test_criterion_5_link_stress_no_torn_reads(capsys):
    # worker 0 publishes improvements of its 500 shared clauses while
    # workers 1-8 look every key up in the pool
    pool = SharedPool(9)
    keys = [(0, cid) for cid in range(500)]
    payloads = []
    rng = random.Random(99)
    for i in range(500):
        lits = tuple(rng.randint(1, 1000) * (1 if rng.random() < 0.5 else -1)
                     for _ in range(rng.randint(1, 12)))
        payloads.append(lits + (-sum(lits),))
    torn = []
    ops = [0] * 8
    done = threading.Event()

    def reader(k):
        while not done.is_set() or ops[k] < 15_000:
            for key in keys:
                got = pool.improvement(key)
                ops[k] += 1
                if got is not None and sum(got[:-1]) != -got[-1]:
                    torn.append(got)
                    return

    threads = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for key, payload in zip(keys, payloads):
        pool.publish(key, payload)
    done.set()
    for t in threads:
        t.join()
    total_ops = sum(ops)
    assert not torn
    assert total_ops >= 100_000
    assert all(pool.improvement(key) == p for key, p in zip(keys, payloads))
    for key in keys:  # each key is published at most once
        with pytest.raises(DoublePublish):
            pool.publish(key, (1,))
    assert all(pool.improvement(key) == p for key, p in zip(keys, payloads))
    announce(capsys, f"\nACCEPTANCE 5b improvement store stress: PASS "
          f"(1 writer / 8 readers, {total_ops} lookups, 0 torn reads)")


# -------------------------------------------------------------- criterion 6

def test_criterion_6_deterministic_csv_identical(tmp_path, capsys):
    f = gen_random_3sat(60, 256, seed=6)
    inst = tmp_path / "det.cnf"
    inst.write_text(to_dimacs(f))
    for label in MODE_LABELS:
        csv_a, csv_b = tmp_path / f"{label}_a.csv", tmp_path / f"{label}_b.csv"
        argv = [str(inst), "--deterministic", "--seed", "17", "--threads", "4",
                "--lcm", label if not label.startswith("ecm") else "ecm"]
        if label.startswith("ecm"):
            argv += ["--ecm-max-lbd", label[3:]]
        code_a = cli_main(argv + ["--stats-csv", str(csv_a)])
        code_b = cli_main(argv + ["--stats-csv", str(csv_b)])
        assert code_a == code_b
        assert csv_a.read_bytes() == csv_b.read_bytes(), label
        assert label.encode() in csv_a.read_bytes()
    announce(capsys, f"\nACCEPTANCE 6 determinism: PASS "
          "(bit-identical stats CSV across reruns, every mode)")


# -------------------------------------------------------------- criterion 7+8

def _medium_run(args):
    seed, label = args
    f = medium_formula(seed)
    res = run(f, PortfolioConfig(num_workers=1, lcm=mode_from_label(label),
                                 seed=seed, deterministic=True,
                                 conflict_limit=8000))
    s = res.aggregate()
    return label, s.vivify_prop_pct, s.success_rate


@pytest.fixture(scope="module")
def medium_metrics():
    jobs = [(seed, label) for seed in range(N_MEDIUM)
            for label in VIVIFY_MODE_LABELS]
    with _pool() as pool:
        rows = pool.map(_medium_run, jobs, chunksize=4)
    metrics = {label: {"vpct": [], "sr": []} for label in VIVIFY_MODE_LABELS}
    for label, vpct, sr in rows:
        metrics[label]["vpct"].append(vpct)
        metrics[label]["sr"].append(sr)
    return metrics


@pytest.mark.slow
def test_criterion_7_overhead_and_success_ordering(medium_metrics, capsys):
    m = medium_metrics
    vpct3, vpct4 = mean(m["ecm3"]["vpct"]), mean(m["ecm4"]["vpct"])
    sr3, sr4 = mean(m["ecm3"]["sr"]), mean(m["ecm4"]["sr"])
    assert vpct3 < vpct4, (vpct3, vpct4)
    assert sr4 > sr3, (sr3, sr4)
    announce(capsys, f"\nACCEPTANCE 7 directional analog: PASS "
          f"(vivify_prop_pct ecm3 {vpct3:.2f} < ecm4 {vpct4:.2f}; "
          f"success_rate ecm4 {sr4:.3f} > ecm3 {sr3:.3f}; {N_MEDIUM} instances)")


@pytest.mark.slow
def test_criterion_8_pcm_overhead_analog(medium_metrics, capsys):
    m = medium_metrics
    sr3 = mean(m["ecm3"]["sr"])
    for label in ("pcm", "lpcm"):
        vpct, sr = mean(m[label]["vpct"]), mean(m[label]["sr"])
        assert vpct > 0.0, label
        assert sr > 0.0, label
        assert sr > sr3, (label, sr, sr3)
    announce(capsys, f"\nACCEPTANCE 8 PCM/LPCM analog: PASS "
          f"(pcm sr {mean(m['pcm']['sr']):.3f}, lpcm sr {mean(m['lpcm']['sr']):.3f} "
          f"> ecm3 sr {sr3:.3f}; positive overhead both)")


# -------------------------------------------------------------- criterion 9

def _smoke_run(args):
    seed, label = args
    f = smoke_formula(seed)
    res = run(f, PortfolioConfig(num_workers=4, lcm=mode_from_label(label),
                                 seed=seed, time_limit=60.0))
    return seed, label, res.status


@pytest.mark.slow
def test_criterion_9_smoke_benchmark(capsys):
    # Table 1 / Figs. 3-4 need 34-core, 15,000 s competition runs and are
    # explicitly out of reach; this is the stated desk-scale substitute:
    # every uf100-class instance solved within 60 s by 4 workers in every mode
    jobs = [(seed, label) for seed in range(N_SMOKE) for label in MODE_LABELS]
    with _pool() as pool:
        rows = pool.map(_smoke_run, jobs, chunksize=1)
    by_instance = {}
    for seed, label, status in rows:
        assert status in (SAT, UNSAT), (seed, label, status)
        by_instance.setdefault(seed, set()).add(status)
    disagreements = {s: sts for s, sts in by_instance.items() if len(sts) > 1}
    assert not disagreements
    statuses = sorted(next(iter(v)) for v in by_instance.values())
    announce(capsys, f"\nACCEPTANCE 9 smoke benchmark: PASS "
          f"({N_SMOKE} uf100-class instances x {len(MODE_LABELS)} modes, "
          f"4 workers, all solved within 60 s; statuses "
          f"{statuses.count('SAT')} SAT / {statuses.count('UNSAT')} UNSAT). "
          f"Competition-scale Table-1 counts not reproducible at desk scale.")
