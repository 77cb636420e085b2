import threading

from helpers import in_threads
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


def cas_increment(word):
    while True:
        old = word.load()
        if word.compare_exchange(old, old + 1):
            return


def test_concurrent_increments_are_not_lost():
    # More threads than cores, switching every microsecond: an increment
    # lost to a torn read-modify-write would show in the totals.
    threads_n, per_thread = 4, 5_000
    added, casd = AtomicWord(), AtomicWord()

    def work(_):
        for _ in range(per_thread):
            added.fetch_add(1)
            cas_increment(casd)

    elapsed = in_threads(work, threads_n)
    assert added.load() == casd.load() == threads_n * per_thread
    assert not added._lock.locked() and not casd._lock.locked()
    assert elapsed < 1.0


def test_words_sharing_a_lock_release_it_after_every_operation():
    lock = threading.Lock()
    a, b = AtomicWord(1, lock), AtomicWord(10, lock)
    assert a._lock is lock and b._lock is lock
    assert AtomicWord(0)._lock is not lock
    ops = [
        lambda: a.store(2),
        lambda: b.compare_exchange(10, 11),  # succeeds
        lambda: a.compare_exchange(9, 4),    # fails
        lambda: b.compare_exchange(10, 4),   # fails
        lambda: a.exchange(5),
        lambda: b.exchange(12),
        lambda: a.fetch_add(1),
        lambda: b.fetch_add(3),
        a.load,
        b.load,
    ]
    for op in ops:
        op()
        assert not lock.locked()
    assert (a.load(), b.load()) == (6, 15)


def test_guarded_compare_exchange_needs_both_words_to_match():
    lock = threading.Lock()
    word, guard = AtomicWord(1, lock), AtomicWord(7, lock)
    assert word.compare_exchange_guarded(guard, 6, 1, 2) is False
    assert word.compare_exchange_guarded(guard, 7, 0, 2) is False
    assert word.load() == 1 and not lock.locked()
    assert word.compare_exchange_guarded(guard, 7, 1, 2) is True
    assert (word.load(), guard.load()) == (2, 7)
    assert not lock.locked()


def test_concurrent_increments_on_words_sharing_a_lock():
    # Each thread alternates which word takes the fetch_add and which
    # the CAS-retry increment, so both kinds hit both words at once.
    threads_n, per_thread = 4, 5_000
    lock = threading.Lock()
    words = (AtomicWord(0, lock), AtomicWord(0, lock))

    def work(_):
        for i in range(per_thread):
            words[i & 1].fetch_add(1)
            cas_increment(words[~i & 1])

    elapsed = in_threads(work, threads_n)
    assert words[0].load() == words[1].load() == threads_n * per_thread
    assert not lock.locked()
    assert elapsed < 1.0
