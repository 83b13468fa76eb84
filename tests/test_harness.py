import os
import subprocess
import sys

import pytest

import vivipar
from vivipar.cdcl import Engine
from vivipar.formula import Formula, evaluate, to_dimacs
from vivipar.harness import (CSV_COLUMNS, cli_main, emit_csv, gen_random_3sat,
                             make_record, read_csv)
from vivipar.oracle import brute_force
from vivipar.stats import Stats, merge_stats


# ---------------------------------------------------------------- generator

def test_generator_status_mix_at_phase_transition():
    statuses = set()
    for seed in range(40):
        f = gen_random_3sat(15, 64, seed)
        statuses.add(brute_force(f)[0])
    assert statuses == {"SAT", "UNSAT"}


# ---------------------------------------------------------------- stats/CSV

def rec(i, pct=12.345, rate=0.56789):
    s = Stats(propagations_total=1000, propagations_vivify=123,
              vivify_attempts=10, vivify_successes=4, conflicts=50)
    r = make_record(f"inst{i}.cnf", "pcm", 4, "SAT", 1.23456, s)
    return r


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
    emit_csv([], path)
    assert path.read_bytes() == (",".join(CSV_COLUMNS) + "\r\n").encode()


def test_emit_two_rows_and_decimals(tmp_path):
    path = tmp_path / "two.csv"
    emit_csv([rec(1), rec(2)], path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[0] == "inst1.cnf" and row[1] == "pcm"
    assert row[CSV_COLUMNS.index("vivify_prop_pct")] == "12.30"
    assert row[CSV_COLUMNS.index("success_rate")] == "0.4000"
    assert row[CSV_COLUMNS.index("wall_seconds")] == "1.235"


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "rt.csv"
    records = [rec(i) for i in range(5)]
    emit_csv(records, path)
    assert read_csv(path) == records


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


def test_cli_unknown_exit_0(tmp_path, capsys):
    f = gen_random_3sat(50, 213, seed=1)
    p = tmp_path / "hard.cnf"
    p.write_text(to_dimacs(f))
    code = cli_main([str(p), "--deterministic", "--conflict-limit", "0"])
    assert code == 0
    assert "s UNKNOWN" in capsys.readouterr().out


def test_cli_worker_fault_exit_3(unsat_file, capsys, monkeypatch):
    def faulty_decide(self):
        raise RuntimeError("boom")

    monkeypatch.setattr(Engine, "decide", faulty_decide)
    assert cli_main([unsat_file, "--threads", "2"]) == 3
    captured = capsys.readouterr()
    assert "RuntimeError: boom" in captured.err  # the worker's traceback
    lines = captured.out.splitlines()
    assert not [l for l in lines if l.startswith("s ")]
    faults = [l for l in lines if l.startswith("c worker ")]
    assert faults in (["c worker 0 failed: RuntimeError: boom"],
                      ["c worker 1 failed: RuntimeError: boom"])


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
    (["--lcm=ecm", "--ecm-max-lbd", "0"], "ecm_max_lbd must be >= 1"),
    (["--lcm=pcm", "--ecm-max-lbd", "0"], "ecm_max_lbd must be >= 1"),
    (["--export-max-lbd", "0"], "export_max_lbd must be >= 1"),
    (["--time-limit", "nan"], "time_limit must be positive"),
    (["--time-limit", "0"], "time_limit must be positive"),
], ids=["ecm-max-lbd-0", "pcm-ecm-max-lbd-0", "export-max-lbd-0",
        "time-limit-nan", "time-limit-0"])
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


def test_cli_missing_file_exit_1(capsys):
    assert cli_main(["/nonexistent/x.cnf"]) == 1


def test_cli_ecm_mode_label_in_csv(sat_file, tmp_path, capsys):
    path, _ = sat_file
    csv_path = tmp_path / "stats.csv"
    code = cli_main([path, "--lcm=ecm", "--ecm-max-lbd=3", "--deterministic",
                     "--stats-csv", str(csv_path)])
    assert code == 10
    records = read_csv(csv_path)
    assert len(records) == 1
    assert records[0].mode == "ecm3"
    assert records[0].workers >= 1
    assert records[0].status == "SAT"


def test_cli_seed_env_fallback(sat_file, tmp_path, capsys, monkeypatch):
    path, _ = sat_file
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("VIVIPAR_SEED", "99")
    cli_main([path, "--deterministic", "--threads", "3", "--lcm=pcm",
              "--stats-csv", str(a)])
    monkeypatch.delenv("VIVIPAR_SEED")
    cli_main([path, "--deterministic", "--threads", "3", "--lcm=pcm",
              "--seed", "99", "--stats-csv", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_seed_env_not_an_integer_exit_1(sat_file, capsys, monkeypatch):
    path, _ = sat_file
    monkeypatch.setenv("VIVIPAR_SEED", "abc")
    assert cli_main([path, "--deterministic"]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == "error: VIVIPAR_SEED must be an integer, got 'abc'"
    assert "s " not in captured.out


def test_import_does_not_load_numpy():
    """numpy is for the test oracle only; the solver and CLI never import it."""
    src = os.path.dirname(os.path.dirname(vivipar.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = "import sys, vivipar, vivipar.harness; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "False"
