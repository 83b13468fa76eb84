"""Golden behaviour fingerprint of deterministic portfolio runs.

Deterministic mode makes a run's search exact, so the per-worker counters
and the winner are a fingerprint of the solver's behaviour.  A refactor or
speed-up that must not change the search has to reproduce these values bit
for bit; a change that alters the search on purpose re-records them and
says so.

Every case runs 2 workers round-robin with a small conflict quantum, so both
workers search, share clauses and (with an early first reduction) vivify.

To re-record, run ``PYTHONPATH=src python tests/test_fingerprint.py`` from
the repository root: it prints `GOLDEN`, `GOLDEN_EVENTS` and `GOLDEN_CSV`
for the current tree as the source literals of this file.
"""

import collections
import contextlib
import dataclasses
import hashlib
import io
import os
import tempfile

import pytest

from vivipar.exchange import SharedPool
from vivipar.formula import to_dimacs
from vivipar.harness import cli_main, gen_random_3sat
from vivipar.portfolio import PortfolioConfig, _build_worker, run
from vivipar.stats import Stats
from vivipar.strategy import mode_from_label

from conftest import php

# the order of the counters in each tuple below
STATS_FIELDS = (
    "propagations_total", "propagations_vivify", "vivify_attempts",
    "vivify_successes", "literals_removed", "clauses_learned",
    "clauses_exported", "clauses_imported", "improvements_published",
    "improvements_adopted", "restarts", "reductions", "conflicts",
    "buffer_overflows",
)

SMALL = dict(reduce_first=30, quantum=16)
CASES = {
    "php65": (lambda: php(6, 5), SMALL),
    "uf50-1": (lambda: gen_random_3sat(50, 213, 1), SMALL),
    "uf50-2": (lambda: gen_random_3sat(50, 213, 2), SMALL),
    "uf50-3": (lambda: gen_random_3sat(50, 213, 3), SMALL),
    "php76": (lambda: php(7, 6), dict(reduce_first=100, quantum=64)),
}
MODES = ("none", "pcm", "lpcm", "ecm3", "ecm4")

# (status, winner, per-worker counters)
GOLDEN = {
    # php65
    ('php65', 'none'): ('UNSAT', 0, (
        (1154, 0, 0, 0, 0, 98, 73, 50, 0, 0, 1, 1, 98, 0),
        (911, 0, 0, 0, 0, 81, 60, 43, 0, 0, 0, 1, 81, 0),
    )),
    ('php65', 'pcm'): ('UNSAT', 1, (
        (1690, 543, 26, 10, 22, 97, 69, 48, 0, 0, 1, 1, 97, 0),
        (1588, 472, 25, 10, 18, 94, 74, 57, 0, 0, 0, 1, 94, 0),
    )),
    ('php65', 'lpcm'): ('UNSAT', 0, (
        (1725, 543, 26, 10, 22, 100, 72, 58, 10, 0, 1, 1, 100, 0),
        (1581, 472, 25, 10, 18, 97, 68, 57, 9, 10, 0, 1, 97, 0),
    )),
    ('php65', 'ecm3'): ('UNSAT', 0, (
        (1656, 539, 30, 13, 30, 100, 59, 24, 0, 0, 2, 1, 100, 0),
        (950, 0, 0, 0, 0, 83, 30, 46, 0, 0, 0, 1, 83, 0),
    )),
    ('php65', 'ecm4'): ('UNSAT', 0, (
        (1820, 709, 37, 21, 46, 100, 41, 3, 0, 0, 2, 1, 100, 0),
        (865, 0, 0, 0, 0, 80, 3, 36, 0, 0, 0, 1, 80, 0),
    )),
    # uf50-1
    ('uf50-1', 'none'): ('UNSAT', 1, (
        (472, 0, 0, 0, 0, 34, 32, 0, 0, 0, 0, 1, 34, 0),
        (469, 0, 0, 0, 0, 33, 30, 32, 0, 0, 0, 1, 33, 0),
    )),
    ('uf50-1', 'pcm'): ('UNSAT', 1, (
        (472, 0, 0, 0, 0, 34, 32, 0, 0, 0, 0, 0, 34, 0),
        (455, 11, 1, 1, 3, 31, 28, 32, 0, 0, 0, 0, 31, 0),
    )),
    ('uf50-1', 'lpcm'): ('UNSAT', 1, (
        (472, 0, 0, 0, 0, 34, 32, 0, 0, 0, 0, 0, 34, 0),
        (455, 11, 1, 1, 3, 31, 28, 32, 1, 0, 0, 0, 31, 0),
    )),
    ('uf50-1', 'ecm3'): ('UNSAT', 0, (
        (842, 203, 15, 12, 24, 50, 30, 11, 0, 0, 1, 1, 50, 0),
        (391, 0, 0, 0, 0, 32, 11, 5, 0, 0, 0, 1, 32, 0),
    )),
    ('uf50-1', 'ecm4'): ('UNSAT', 0, (
        (745, 29, 1, 1, 2, 50, 5, 0, 0, 0, 1, 1, 50, 0),
        (397, 0, 0, 0, 0, 33, 0, 0, 0, 0, 0, 1, 33, 0),
    )),
    # uf50-2
    ('uf50-2', 'none'): ('SAT', 0, (
        (255, 0, 0, 0, 0, 13, 10, 0, 0, 0, 0, 0, 13, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    )),
    ('uf50-2', 'pcm'): ('SAT', 0, (
        (255, 0, 0, 0, 0, 13, 10, 0, 0, 0, 0, 0, 13, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    )),
    ('uf50-2', 'lpcm'): ('SAT', 0, (
        (255, 0, 0, 0, 0, 13, 10, 0, 0, 0, 0, 0, 13, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    )),
    ('uf50-2', 'ecm3'): ('SAT', 0, (
        (255, 0, 0, 0, 0, 13, 2, 0, 0, 0, 0, 0, 13, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    )),
    ('uf50-2', 'ecm4'): ('SAT', 0, (
        (255, 0, 0, 0, 0, 13, 0, 0, 0, 0, 0, 0, 13, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    )),
    # uf50-3
    ('uf50-3', 'none'): ('SAT', 1, (
        (254, 0, 0, 0, 0, 16, 8, 0, 0, 0, 0, 0, 16, 0),
        (63, 0, 0, 0, 0, 1, 1, 8, 0, 0, 0, 0, 1, 0),
    )),
    ('uf50-3', 'pcm'): ('SAT', 1, (
        (254, 0, 0, 0, 0, 16, 8, 0, 0, 0, 0, 0, 16, 0),
        (63, 0, 0, 0, 0, 1, 1, 8, 0, 0, 0, 0, 1, 0),
    )),
    ('uf50-3', 'lpcm'): ('SAT', 1, (
        (254, 0, 0, 0, 0, 16, 8, 0, 0, 0, 0, 0, 16, 0),
        (63, 0, 0, 0, 0, 1, 1, 8, 0, 0, 0, 0, 1, 0),
    )),
    ('uf50-3', 'ecm3'): ('SAT', 1, (
        (254, 0, 0, 0, 0, 16, 4, 0, 0, 0, 0, 0, 16, 0),
        (63, 0, 0, 0, 0, 1, 1, 4, 0, 0, 0, 0, 1, 0),
    )),
    ('uf50-3', 'ecm4'): ('SAT', 1, (
        (254, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 16, 0),
        (63, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0),
    )),
    # php76
    ('php76', 'none'): ('UNSAT', 1, (
        (10148, 0, 0, 0, 0, 784, 154, 97, 0, 0, 12, 2, 784, 0),
        (9709, 0, 0, 0, 0, 776, 145, 116, 0, 0, 5, 2, 776, 0),
    )),
    ('php76', 'pcm'): ('UNSAT', 0, (
        (14290, 3939, 143, 50, 114, 823, 129, 116, 0, 0, 13, 2, 823, 0),
        (15092, 5231, 201, 74, 189, 777, 119, 78, 0, 0, 5, 2, 777, 0),
    )),
    ('php76', 'lpcm'): ('UNSAT', 0, (
        (15632, 5713, 209, 101, 270, 814, 137, 119, 30, 2, 11, 2, 814, 0),
        (15174, 5191, 191, 91, 209, 774, 129, 101, 26, 29, 5, 2, 774, 0),
    )),
    ('php76', 'ecm3'): ('UNSAT', 0, (
        (11024, 851, 31, 5, 8, 807, 115, 91, 0, 0, 14, 2, 807, 0),
        (9931, 714, 27, 5, 17, 775, 95, 79, 0, 0, 5, 2, 775, 0),
    )),
    ('php76', 'ecm4'): ('UNSAT', 0, (
        (13278, 1558, 61, 22, 50, 952, 65, 92, 0, 0, 16, 2, 952, 0),
        (14177, 2580, 99, 29, 50, 903, 99, 61, 0, 0, 6, 2, 903, 0),
    )),
}


def test_stats_field_order():
    assert tuple(f.name for f in dataclasses.fields(Stats)) == STATS_FIELDS


def observed(case, mode):
    """(status, winner, per-worker counters) of one fingerprint run."""
    make, knobs = CASES[case]
    res = run(make(), PortfolioConfig(
        num_workers=2, lcm=mode_from_label(mode), deterministic=True, **knobs))
    return (res.status, res.winner,
            tuple(dataclasses.astuple(s) for s in res.worker_stats))


@pytest.mark.parametrize("case", list(CASES))
def test_deterministic_fingerprint(case):
    for mode in MODES:
        assert observed(case, mode) == GOLDEN[case, mode], f"{case} {mode}"


@pytest.mark.parametrize("case", ["php65", "uf50-1", "php76"])
def test_watch_invariant_between_turns(case):
    # the fingerprint runs, turn by turn: every paused engine holds the
    # watched-literal invariant, imports and vivified replacements included
    make, knobs = CASES[case]
    formula = make()
    for mode in MODES:
        config = PortfolioConfig(num_workers=2, lcm=mode_from_label(mode),
                                 deterministic=True, **knobs)
        pool = SharedPool(2)
        engines = [_build_worker(i, formula, config, pool, Stats())
                   for i in range(2)]
        status = None
        while status is None:
            for eng in engines:
                status = eng.step(pause_after=config.quantum)
                if status is not None:
                    break
                assert eng.check_watches()


# The event stream of a deterministic PHP(6,5) run with 2 workers: the count
# of each of the eight sharing and vivification event kinds, and the SHA-256
# of the repr of those events in order.  Recorded before the stream also
# carried the engine's decide/conflict/restart events, which are filtered out.
SHARING_EVENTS = ("learn", "withhold", "export", "vivify", "replace",
                  "reduce_remove", "publish", "adopt")
GOLDEN_EVENTS = {
    "lpcm": ({"adopt": 10, "export": 140, "learn": 197, "publish": 19,
              "reduce_remove": 69, "replace": 20, "vivify": 51},
             "11aec76b490c35c22e781a9987d7354f72810912e7ae44538aa6b8e80e2a7ab1"),
    "ecm3": ({"export": 89, "learn": 183, "reduce_remove": 23, "replace": 13,
              "vivify": 30, "withhold": 78},
             "abe756f3f0678bdeaec2e4dd41805c7445d17842cb61781853e3b1dd8c578a62"),
}


def event_run(mode):
    """The PHP(6,5) run's result, its whole event stream, and the (counts,
    digest) of its sharing and vivification events."""
    events = []
    res = run(php(6, 5), PortfolioConfig(
        num_workers=2, lcm=mode_from_label(mode), deterministic=True,
        recorder=events.append, **SMALL))
    sharing = [e for e in events if e[0] in SHARING_EVENTS]
    counts = dict(collections.Counter(e[0] for e in sharing))
    digest = hashlib.sha256(repr(sharing).encode()).hexdigest()
    return res, events, (counts, digest)


@pytest.mark.parametrize("mode", list(GOLDEN_EVENTS))
def test_event_stream_fingerprint(mode):
    res, events, got = event_run(mode)
    assert got == GOLDEN_EVENTS[mode]
    # the engine's own events agree with its counters
    for w, ws in enumerate(res.worker_stats):
        mine = collections.Counter(e[0] for e in events if e[1] == w)
        assert mine["conflict"] == ws.conflicts
        assert mine["restart"] == ws.restarts
        assert mine["learn"] == ws.clauses_learned
        assert mine["decide"] > 0


# --stats-csv bytes of `vivipar php65.cnf --deterministic --threads 2 --lcm pcm`
GOLDEN_CSV = (
    b"instance,mode,workers,status,wall_seconds,propagations_total,"
    b"propagations_vivify,vivify_attempts,vivify_successes,literals_removed,"
    b"clauses_learned,clauses_exported,clauses_imported,improvements_published,"
    b"improvements_adopted,restarts,reductions,conflicts,buffer_overflows,"
    b"vivify_prop_pct,success_rate\r\n"
    b"php65.cnf,pcm,2,UNSAT,0.000,1777,0,0,0,0,152,99,0,0,0,3,0,152,0,0.00,0.0000\r\n"
)


def stats_csv():
    """The bytes the CLI run above writes, run in a scratch directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        os.chdir(tmp)
        try:
            with open("php65.cnf", "w") as fh:
                fh.write(to_dimacs(php(6, 5)))
            argv = ["php65.cnf", "--deterministic", "--threads", "2",
                    "--lcm", "pcm", "--stats-csv", "php65.csv"]
            assert cli_main(argv) == 20
            with open("php65.csv", "rb") as fh:
                return fh.read()
        finally:
            os.chdir(cwd)


def test_stats_csv_fingerprint():
    assert stats_csv() == GOLDEN_CSV


# ------------------------------------------------------------ re-recording

WIDTH = 80  # the printer breaks lines to stay within this many columns


def packed(head, items, indent, close=""):
    """Source lines that start with ``head``, then ``indent``, hold the
    ``items`` in order and each end with ``close``; a line breaks between
    two items when the next would pass `WIDTH`."""
    lines, line = [], head
    for item in items:
        if line != head and len((line + item).rstrip() + close) > WIDTH:
            lines.append(line.rstrip() + close)
            line = indent
        line += item
    return lines + [line.rstrip() + close]


def golden_source():
    """`GOLDEN`, `GOLDEN_EVENTS` and `GOLDEN_CSV` of the current tree, as
    the source literals of this file."""
    out = ["GOLDEN = {"]
    for case in CASES:
        out.append(f"    # {case}")
        for mode in MODES:
            status, winner, workers = observed(case, mode)
            out.append(f"    {(case, mode)!r}: ({status!r}, {winner!r}, (")
            out += [f"        {w!r}," for w in workers]
            out.append("    )),")
    out += ["}", "", "", "GOLDEN_EVENTS = {"]
    for mode in GOLDEN_EVENTS:
        counts, digest = event_run(mode)[2]
        items = [f'"{k}": {v}, ' for k, v in sorted(counts.items())]
        items[-1] = items[-1][:-2] + "},"
        out += packed(f'    "{mode}": ({{', items, " " * 14)
        out.append(f'             "{digest}"),')
    out += ["}", "", "", "GOLDEN_CSV = ("]
    header, *rows = stats_csv().decode().split("\r\n")[:-1]
    fields = [f + "," for f in header.split(",")]
    fields[-1] = fields[-1][:-1] + "\\r\\n"
    out += packed('    b"', fields, '    b"', close='"')
    out += [f'    b"{row}\\r\\n"' for row in rows]
    out.append(")")
    return "\n".join(out)


if __name__ == "__main__":
    print(golden_source())
