"""Self-tests of scripts/ab.py, the in-process A/B timing harness, at the
benchmark's tiny size, and of scripts/renamings.py on one small instance."""

import importlib.util
import os
import shutil
import subprocess
import sys

from conftest import php

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB = os.path.join(ROOT, "scripts", "ab.py")
RENAMINGS = os.path.join(ROOT, "scripts", "renamings.py")
MODES = ["none", "pcm", "lpcm", "ecm3", "ecm4"]


def ab(base, new):
    return subprocess.run(
        [sys.executable, AB, "--base", str(base), "--new", str(new),
         "--workload", "uf-sat-det", "--size", "tiny", "--reps", "2"],
        capture_output=True, text=True, timeout=120)


def test_same_checkout_on_both_sides_passes():
    proc = ab(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rows = [line.split() for line in lines[2:-1]]
    assert [r[0] for r in rows] == [*MODES, "all"]
    for _, base, new, ratio in rows:
        assert float(base) > 0 and float(new) > 0 and float(ratio) > 0
    # one ratio of summed times per rep, and how many reps new won
    ratios, won = lines[-1].split(";")
    assert ratios.split()[:3] == ["per", "rep", "new/base"]
    assert [float(r) > 0 for r in ratios.split()[3:]] == [True, True]
    assert won.split() in (["new", "won", f"{k}/2"] for k in range(3))


def test_differing_worker_stats_fail(tmp_path):
    # a copy whose search kernel counts one propagation too many per call
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cdcl = tmp_path / "src" / "vivipar" / "cdcl.py"
    count = "self.stats.propagations_total += qhead - start"
    text = cdcl.read_text()
    assert count in text
    cdcl.write_text(text.replace(count, count + " + 1"))
    proc = ab(ROOT, tmp_path)
    assert proc.returncode == 1
    assert "STATS differ for" in proc.stderr


def test_differing_events_fail(tmp_path):
    # a copy whose learn event lists the clause's literals sorted: the
    # search and every counter are unchanged, only the event stream differs
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    strategy = tmp_path / "src" / "vivipar" / "strategy.py"
    lits = "tuple(clause.lits)))"
    text = strategy.read_text()
    assert text.count(lits) == 1
    strategy.write_text(text.replace(lits, "tuple(sorted(clause.lits))))"))
    proc = ab(ROOT, tmp_path)
    assert proc.returncode == 1
    assert "WINNER or EVENTS differ for" in proc.stderr
    assert "STATS differ for" not in proc.stderr


def test_renamings_same_checkout_on_both_sides(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends to it
    spec = importlib.util.spec_from_file_location("renamings", RENAMINGS)
    renamings = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(renamings)
    # one small instance, with a reduction early enough that pcm vivifies
    monkeypatch.setattr(renamings, "instances", lambda: [("php43", php(4, 3), "UNSAT")])
    monkeypatch.setattr(renamings, "SETTINGS",
                        dict(renamings.SETTINGS, reduce_first=3, reduce_inc=1))
    assert renamings.main(["--base", ROOT, "--new", ROOT]) == 0
    rows = {line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()[3:]}
    assert list(rows) == MODES
    for conflicts, props, seconds, spread, *vivify in rows.values():
        # identical search on both sides; only the time may differ
        assert float(conflicts) == float(props) == 1.0
        assert float(seconds) > 0 and float(spread) >= 0
        # props/attempt and success rate, base and new
        assert vivify[0] == vivify[1] and vivify[2] == vivify[3]
    assert rows["none"][4:] == ["-"] * 4
    assert float(rows["pcm"][4]) > 0 and 0 < float(rows["pcm"][6]) <= 1
