"""Self-test of scripts/ab.py, the in-process A/B timing harness, at the
benchmark's tiny size."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB = os.path.join(ROOT, "scripts", "ab.py")
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
