import csv
import os
import subprocess
import sys

import pytest

import vivipar
from vivipar.cdcl import Engine
from vivipar.formula import Formula, evaluate, to_dimacs
from vivipar.harness import CSV_COLUMNS, cli_main, csv_row, gen_random_3sat, write_csv
from vivipar.oracle import brute_force
from vivipar.portfolio import PortfolioResult
from vivipar.stats import Stats, merge_stats

from conftest import php


# ---------------------------------------------------------------- generator

def test_generator_status_mix_at_phase_transition():
    statuses = set()
    for seed in range(40):
        f = gen_random_3sat(15, 64, seed)
        statuses.add(brute_force(f)[0])
    assert statuses == {"SAT", "UNSAT"}


# ---------------------------------------------------------------- stats/CSV

def row(i):
    s = Stats(propagations_total=1000, propagations_vivify=123,
              vivify_attempts=10, vivify_successes=4, conflicts=50)
    result = PortfolioResult("SAT", None, 0, 1.23456, [s, Stats(conflicts=7)])
    return csv_row(f"inst{i}.cnf", "pcm", 4, result)


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        write_csv(rows, fh)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_stats_invariants():
    s = Stats(propagations_total=100, propagations_vivify=25,
              vivify_attempts=8, vivify_successes=2,
              improvements_published=1)
    assert s.check()
    assert s.vivify_prop_pct == 25.0
    assert s.success_rate == 0.25
    assert Stats().vivify_prop_pct == 0.0
    assert Stats().success_rate == 0.0


def test_merge_stats_sums_fields():
    a = Stats(conflicts=3, restarts=1)
    b = Stats(conflicts=4, propagations_total=9)
    m = merge_stats([a, b])
    assert m.conflicts == 7 and m.restarts == 1 and m.propagations_total == 9


def test_emit_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_rows(path, [])
    assert path.read_bytes() == (",".join(CSV_COLUMNS) + "\r\n").encode()


def test_emit_two_rows_and_decimals(tmp_path):
    path = tmp_path / "two.csv"
    write_rows(path, [row(1), row(2)])
    header, first, second = read_rows(path)
    assert header == CSV_COLUMNS
    assert first[:4] == ["inst1.cnf", "pcm", "4", "SAT"]
    assert second[0] == "inst2.cnf"
    col = dict(zip(header, first))
    assert col["vivify_prop_pct"] == "12.30"
    assert col["success_rate"] == "0.4000"
    assert col["wall_seconds"] == "1.235"
    assert col["conflicts"] == "57"  # summed over the workers


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "rt.csv"
    rows = [row(i) for i in range(5)]
    write_rows(path, rows)
    assert read_rows(path) == [CSV_COLUMNS, *([str(v) for v in r] for r in rows)]


# ---------------------------------------------------------------- CLI

@pytest.fixture
def sat_file(tmp_path):
    f = gen_random_3sat(20, 70, seed=2)
    assert brute_force(f)[0] == "SAT"
    p = tmp_path / "sat.cnf"
    p.write_text(to_dimacs(f))
    return str(p), f


@pytest.fixture
def unsat_file(tmp_path):
    p = tmp_path / "unsat.cnf"
    p.write_text("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n")
    return str(p)


def test_cli_sat_exit_10_model_printed(sat_file, capsys):
    path, f = sat_file
    code = cli_main([path, "--deterministic", "--threads", "2"])
    out = capsys.readouterr().out
    assert code == 10
    assert "s SATISFIABLE" in out
    vline = [l for l in out.splitlines() if l.startswith("v ")]
    lits = [int(x) for l in vline for x in l[2:].split()]
    assert lits[-1] == 0
    assert len(lits) - 1 == f.num_vars
    assert evaluate(f, lits[:-1])


def test_cli_zero_variable_sat_prints_v_0(tmp_path, capsys):
    p = tmp_path / "empty.cnf"
    p.write_text("p cnf 0 0\n")
    assert cli_main([str(p), "--deterministic"]) == 10
    lines = capsys.readouterr().out.splitlines()
    assert lines[lines.index("s SATISFIABLE") + 1] == "v 0"


def test_cli_model_lines_end_with_single_0(tmp_path, capsys):
    f = Formula(32, tuple((v,) for v in range(1, 33)))  # 32 literals: two full lines
    p = tmp_path / "units.cnf"
    p.write_text(to_dimacs(f))
    assert cli_main([str(p), "--deterministic"]) == 10
    vlines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("v ")]
    assert vlines == ["v " + " ".join(map(str, range(1, 17))),
                      "v " + " ".join(map(str, range(17, 33))) + " 0"]


def test_cli_unsat_exit_20(unsat_file, capsys):
    assert cli_main([unsat_file, "--deterministic"]) == 20
    assert "s UNSATISFIABLE" in capsys.readouterr().out


def test_cli_default_portfolio_has_two_workers(unsat_file, capsys, monkeypatch):
    # all workers take turns on one thread, so the core count must not size
    # the default portfolio; two is the smallest that shares clauses
    monkeypatch.setattr(os, "cpu_count", lambda: 34)
    assert cli_main([unsat_file, "--deterministic"]) == 20
    assert "workers=2, deterministic" in capsys.readouterr().out


def test_cli_unknown_exit_0(tmp_path, capsys):
    f = gen_random_3sat(50, 213, seed=1)
    p = tmp_path / "hard.cnf"
    p.write_text(to_dimacs(f))
    code = cli_main([str(p), "--deterministic", "--conflict-limit", "0"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "c stopped: every worker spent --conflict-limit 0", "s UNKNOWN"]


def test_cli_unknown_on_time_limit_says_so(tmp_path, capsys):
    # the deadline has passed before the first turn, whatever the conflict
    # budget
    p = tmp_path / "php87.cnf"
    p.write_text(to_dimacs(php(8, 7)))
    code = cli_main([str(p), "--time-limit", "1e-9", "--conflict-limit", "1000"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "c stopped: time limit of 1e-09 s reached", "s UNKNOWN"]


def test_cli_worker_fault_exit_3(unsat_file, capsys, monkeypatch):
    def faulty_decide(self):
        raise RuntimeError("boom")

    monkeypatch.setattr(Engine, "decide", faulty_decide)
    assert cli_main([unsat_file, "--threads", "2"]) == 3
    captured = capsys.readouterr()
    assert "RuntimeError: boom" in captured.err  # the worker's traceback
    lines = captured.out.splitlines()
    assert not [l for l in lines if l.startswith("s ")]
    assert [l for l in lines if l.startswith("c worker ")] == [
        "c worker 0 failed: RuntimeError: boom"]


def test_cli_deterministic_worker_fault_exit_3(unsat_file, capsys, monkeypatch):
    def faulty_decide(self):
        raise RuntimeError("boom")

    monkeypatch.setattr(Engine, "decide", faulty_decide)
    assert cli_main([unsat_file, "--deterministic", "--threads", "2"]) == 3
    captured = capsys.readouterr()
    assert "RuntimeError: boom" in captured.err
    lines = captured.out.splitlines()
    assert not [l for l in lines if l.startswith("s ")]
    assert [l for l in lines if l.startswith("c worker ")] == [
        "c worker 0 failed: RuntimeError: boom"]


@pytest.mark.parametrize("args, message", [
    (["--time-limit", "nan"], "time_limit must be positive"),
    (["--time-limit", "0"], "time_limit must be positive"),
], ids=["time-limit-nan", "time-limit-0"])
def test_cli_bad_option_value_exit_1(unsat_file, capsys, args, message):
    assert cli_main([unsat_file, "--deterministic", *args]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert not captured.out


def test_cli_usage_error_exit_1(capsys):
    assert cli_main(["--lcm=bogus"]) == 1


def test_cli_parse_error_reports_file_line(tmp_path, capsys):
    p = tmp_path / "bad.cnf"
    p.write_text("p cnf 2 1\n1 5 0\n")
    assert cli_main([str(p)]) == 1
    err = capsys.readouterr().err
    assert "bad.cnf" in err and ":2:" in err
    p.write_text("c x\np cnf 3 -1\n1 0\n")
    assert cli_main([str(p)]) == 1
    assert "bad.cnf:2: negative counts in header" in capsys.readouterr().err


def test_cli_missing_file_exit_1(capsys):
    assert cli_main(["/nonexistent/x.cnf"]) == 1


def test_cli_ecm_mode_label_in_csv(sat_file, tmp_path, capsys):
    path, _ = sat_file
    csv_path = tmp_path / "stats.csv"
    code = cli_main([path, "--lcm=ecm", "--deterministic",
                     "--stats-csv", str(csv_path)])
    assert code == 10
    header, *rows = read_rows(csv_path)
    assert len(rows) == 1
    col = dict(zip(header, rows[0]))
    assert col["mode"] == "ecm3"
    assert col["workers"] == "2"
    assert col["status"] == "SAT"


@pytest.mark.parametrize("label", ["none", "pcm", "lpcm", "ecm3", "ecm4"])
def test_cli_lcm_takes_the_mode_label(sat_file, tmp_path, capsys, label):
    path, _ = sat_file
    csv_path = tmp_path / "stats.csv"
    assert cli_main([path, "--lcm", label, "--deterministic",
                     "--stats-csv", str(csv_path)]) == 10
    header, values = read_rows(csv_path)
    assert values[header.index("mode")] == label
    assert f"mode={label}," in capsys.readouterr().out


@pytest.mark.parametrize("label, message", [
    ("ecm0", "unknown lcm mode 'ecm0'"),
    ("foo", "unknown lcm mode 'foo'"),
    ("ecm\u0663", "unknown lcm mode 'ecm\u0663'"),  # an Arabic-Indic 3
    ("ecm1000000000", "unknown lcm mode 'ecm1000000000'"),
    ("ecm" + "1" * 5000, f"unknown lcm mode 'ecm{'1' * 5000}'"),
], ids=["ecm0", "foo", "ecm-arabic-indic-3", "ecm-10-digits", "ecm-5000-digits"])
def test_cli_bad_lcm_label_exit_1(sat_file, capsys, label, message):
    path, _ = sat_file
    assert cli_main([path, "--lcm", label]) == 1
    captured = capsys.readouterr()
    assert [l for l in captured.err.splitlines() if l.startswith("error:")] == [
        f"error: argument --lcm: {message}"]
    assert not captured.out


def test_cli_bad_stats_csv_path_exit_1_before_solving(sat_file, tmp_path, capsys,
                                                      monkeypatch):
    path, _ = sat_file
    bad = tmp_path / "missing-dir" / "s.csv"

    def no_solve(formula, config):
        raise AssertionError("solved although the stats path cannot be written")

    monkeypatch.setattr(vivipar.portfolio, "run", no_solve)
    assert cli_main([path, "--deterministic", "--stats-csv", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(bad) in captured.err
    assert len(captured.err.splitlines()) == 1
    assert not captured.out
    assert not bad.parent.exists()


def test_import_does_not_load_numpy():
    """numpy is for the test oracle only; the solver and CLI never import it."""
    src = os.path.dirname(os.path.dirname(vivipar.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = "import sys, vivipar, vivipar.harness; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "False"
