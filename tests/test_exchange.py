import sys
import threading
import time

import pytest

from vivipar.exchange import (EXPORT_MAX_LEN, DoublePublish, SharedClause,
                              SharedPool, export)
from vivipar.formula import Clause
from vivipar.strategy import LPCM, PCM


def mk_clause(lits, lbd, attempted=False):
    c = Clause(list(lits), lbd=lbd, learned=True, cid=1)
    c.vivify_attempted = attempted
    return c


def test_filter_passes_lbd_within_bound():
    pool = SharedPool(2)
    assert export(pool, 0, mk_clause([1, 2, 3], lbd=3), 4, PCM)
    assert pool.pending(1) == 1


def test_filter_rejects_high_lbd():
    pool = SharedPool(2)
    assert not export(pool, 0, mk_clause([1, 2, 3], lbd=7), 4, PCM)
    assert pool.pending(1) == 0


def test_filter_rejects_long_clause():
    pool = SharedPool(2)
    c = mk_clause(list(range(1, 40)), lbd=2)
    assert not export(pool, 0, c, 4, PCM)
    c = mk_clause(list(range(1, EXPORT_MAX_LEN + 1)), lbd=2)
    assert export(pool, 0, c, 4, PCM)  # the bound is inclusive


def test_lpcm_attaches_link_pcm_does_not():
    pool = SharedPool(2)
    c = mk_clause([1, 2, 3], lbd=2)
    export(pool, 0, c, 4, LPCM)
    rec = pool.drain(1)[0]
    assert rec.cid == c.cid
    assert c.link == (rec.origin, rec.cid) == (0, 1)

    c2 = mk_clause([1, 2, 3], lbd=2)
    export(pool, 0, c2, 4, PCM)
    rec2 = pool.drain(1)[0]
    assert rec2.cid is None and c2.link is None


def test_lpcm_no_link_when_already_vivified():
    pool = SharedPool(2)
    c = mk_clause([1, 2, 3], lbd=2, attempted=True)
    export(pool, 0, c, 4, LPCM)
    assert pool.drain(1)[0].cid is None
    assert c.link is None


def test_import_empty_buffer():
    pool = SharedPool(2)
    assert pool.drain(0) == []


def test_import_fifo_and_no_self_import():
    pool = SharedPool(3)
    export(pool, 0, mk_clause([1, 2], lbd=1), 4, PCM)
    export(pool, 0, mk_clause([3, 4], lbd=1), 4, PCM)
    got = pool.drain(1)
    assert [r.lits for r in got] == [(1, 2), (3, 4)]
    assert all(r.origin == 0 for r in got)
    assert pool.drain(0) == []  # origin never sees its own exports
    assert [r.lits for r in pool.drain(2)] == [(1, 2), (3, 4)]


def test_import_records_byte_identical():
    pool = SharedPool(3)
    c = mk_clause([5, -7, 2], lbd=3)
    export(pool, 0, c, 4, PCM)
    r1 = pool.drain(1)[0]
    r2 = pool.drain(2)[0]
    assert r1.lits == tuple(c.lits) and r1.lbd == c.lbd
    assert r1 is r2  # one shared immutable record


def test_bounded_buffer_drop_oldest():
    pool = SharedPool(2, max_pending=3)
    for i in range(5):
        pool.broadcast(SharedClause(lits=(i + 1,), lbd=1, origin=0))
    assert pool.overflows[1] == 2
    got = pool.drain(1)
    assert [r.lits for r in got] == [(3,), (4,), (5,)]


def test_duplicate_clauses_from_different_origins_both_kept():
    pool = SharedPool(3)
    pool.broadcast(SharedClause(lits=(1, 2), lbd=1, origin=0))
    pool.broadcast(SharedClause(lits=(1, 2), lbd=1, origin=1))
    assert [r.origin for r in pool.drain(2)] == [0, 1]


def test_publish_poll_roundtrip():
    pool = SharedPool(3)
    key = (0, 7)
    assert pool.improvement(key) is None
    pool.publish(key, [1, 2])
    assert pool.improvement(key) == (1, 2)
    # idempotent, and every reader gets the one stored tuple
    assert pool.improvement(key) is pool.improvement(key)
    assert pool.improvement((0, 8)) is None
    assert pool.improvement((2, 7)) is None  # keys name the origin


def test_double_publish_raises():
    for workers in (1, 2):
        pool = SharedPool(workers)
        pool.publish((0, 1), (1,))
        with pytest.raises(DoublePublish):
            pool.publish((0, 1), (2,))
        assert pool.improvement((0, 1)) == (1,)


class _YieldingKey(tuple):
    """A key whose hashing yields the interpreter lock, so another thread can
    run between a publish's check and its store."""

    def __hash__(self):
        time.sleep(0)
        return tuple.__hash__(self)


def test_racing_publishers_store_each_key_once():
    # 4 writers race to publish the same 300 keys: per key exactly one
    # publish succeeds, every other raises, and the stored tuple is the
    # winner's
    pool = SharedPool(4)
    keys = [_YieldingKey((0, cid)) for cid in range(300)]
    won = [[] for _ in range(4)]
    lost = [0] * 4

    def writer(w):
        for key in keys:
            try:
                pool.publish(key, (w, key[1]))
                won[w].append(key)
            except DoublePublish:
                lost[w] += 1

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(k for keys_won in won for k in keys_won) == keys
    assert sum(lost) == 3 * len(keys)
    for w, keys_won in enumerate(won):
        assert all(pool.improvement(key) == (w, key[1]) for key in keys_won)


def test_link_stress_no_torn_reads():
    # 1 writer, 8 readers, >= 1e5 lookups; a lookup sees None or the
    # complete clause (checksum literal must match)
    pool = SharedPool(9)
    keys = [(0, cid) for cid in range(400)]
    payloads = []
    for i, _ in enumerate(keys):
        lits = tuple(range(1, (i % 9) + 2))
        payloads.append(lits + (-sum(lits),))
    errors = []
    ops = [0] * 8
    done = threading.Event()

    def reader(k):
        while not done.is_set() or ops[k] < 15000:
            for key in keys:
                got = pool.improvement(key)
                ops[k] += 1
                if got is not None and sum(got[:-1]) != -got[-1]:
                    errors.append(got)
                    return

    threads = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many more thread switches per publish
    try:
        for t in threads:
            t.start()
        for key, payload in zip(keys, payloads):
            pool.publish(key, payload)
        done.set()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert sum(ops) >= 100_000
    for key, payload in zip(keys, payloads):
        assert pool.improvement(key) == payload
