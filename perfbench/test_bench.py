"""Self-check of the benchmark at a tiny size (a few seconds).

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "uf-sat-det", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_same_seed_same_inputs():
    size = run.SIZES["tiny"]
    for name, w in run.WORKLOADS.items():
        a, b = w.make(5, size[name]), w.make(5, size[name])
        assert [i.dimacs() for i in a] == [i.dimacs() for i in b]
    uf = run.WORKLOADS["uf-sat-det"]
    assert uf.make(5, size["uf-sat-det"])[0].clauses != uf.make(6, size["uf-sat-det"])[0].clauses


def test_certificates_and_evaluator():
    for inst in corpus.uf_sat(1, 30, 3, 5000) + corpus.planted(1, 60):
        assert inst.expect == corpus.SAT
        assert corpus.satisfies(inst.clauses, inst.certificate)
        flipped = (-inst.certificate[0],) + inst.certificate[1:]
        broken = inst.clauses + ((inst.certificate[0],),)
        assert not corpus.satisfies(broken, flipped)
    assert not corpus.satisfies([(1, 2)], (-1, -2))
    assert not corpus.satisfies([(1, 2)], (-1,))  # model too short
    (p,) = corpus.php(4)
    assert p.expect == corpus.UNSAT and p.num_vars == 12 and len(p.clauses) == 4 + 3 * 6


class _Stats:
    def __init__(self, conflicts):
        self.conflicts = conflicts


class _Result:
    def __init__(self, status, model=None, conflicts=()):
        self.status = status
        self.model = model
        self.worker_stats = [_Stats(c) for c in conflicts]


def test_check_verdicts():
    (sat,) = corpus.planted(2, 30)
    (unsat,) = corpus.php(4)
    assert run.check(sat, _Result("SAT", sat.certificate), None)[0] == "ok"
    assert run.check(sat, _Result("SAT", tuple(-l for l in sat.certificate)), None)[0] == "wrong"
    assert run.check(sat, _Result("UNSAT"), None)[0] == "wrong"
    assert run.check(unsat, _Result("UNSAT"), None)[0] == "ok"
    assert run.check(unsat, _Result("SAT", (1,) * 12), None)[0] == "wrong"
    assert run.check(sat, _Result("UNKNOWN", conflicts=(5, 5)), 5)[0] == "ok"
    assert run.check(sat, _Result("UNKNOWN", conflicts=(5, 4)), 5)[0] == "failed"
    assert run.check(sat, _Result("UNKNOWN", conflicts=(9,)), None)[0] == "failed"
