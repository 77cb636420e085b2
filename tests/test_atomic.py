import sys
import threading
import time

from spanalloc.atomic import AtomicWord


def test_compare_exchange_replaces_only_the_expected_word():
    w = AtomicWord(5)
    assert w.compare_exchange(5, 7) is True
    assert w.load() == 7
    assert w.compare_exchange(5, 9) is False
    assert w.load() == 7
    assert not w._lock.locked()             # released on the failing path


def test_exchange_and_fetch_add_return_the_previous_word():
    w = AtomicWord()
    assert w.exchange(3) == 0
    assert w.load() == 3
    assert w.fetch_add() == 3
    assert w.fetch_add(10) == 4
    assert w.load() == 14
    w.store(-1)
    assert w.load() == -1


def test_every_operation_releases_the_lock():
    w = AtomicWord(1)
    ops = [
        lambda: w.store(2),
        lambda: w.compare_exchange(2, 3),   # succeeds
        lambda: w.compare_exchange(2, 4),   # fails
        lambda: w.exchange(5),
        lambda: w.fetch_add(1),
        w.load,
    ]
    for op in ops:
        op()
        assert not w._lock.locked()
    assert w.load() == 6


def test_concurrent_increments_are_not_lost():
    # More threads than cores, switching every microsecond: an increment
    # lost to a torn read-modify-write would show in the totals.
    threads_n, per_thread = 4, 5_000
    added, casd = AtomicWord(), AtomicWord()

    def work():
        for _ in range(per_thread):
            added.fetch_add(1)
            while True:
                old = casd.load()
                if casd.compare_exchange(old, old + 1):
                    break

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        elapsed = time.perf_counter() - start
    finally:
        sys.setswitchinterval(interval)
    assert sys.getswitchinterval() == interval
    assert not any(t.is_alive() for t in threads)
    assert added.load() == casd.load() == threads_n * per_thread
    assert not added._lock.locked() and not casd._lock.locked()
    assert elapsed < 1.0
