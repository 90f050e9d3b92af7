"""Channels, semaphores, gates."""

import pytest

from repro.sim import Channel, Gate, Semaphore, Simulator
from repro.sim.core import SimError
from repro.sim.sync import ChannelClosed


# -- Channel ----------------------------------------------------------------


def test_channel_put_then_get():
    sim = Simulator()
    ch = Channel(sim)
    ch.put("a")
    ch.put("b")

    def main():
        x = yield ch.get()
        y = yield ch.get()
        return x, y

    assert sim.run_until_complete(sim.spawn(main())) == ("a", "b")


def test_channel_get_blocks_until_put():
    sim = Simulator()
    ch = Channel(sim)

    def consumer():
        value = yield ch.get()
        return value, sim.now

    p = sim.spawn(consumer())
    sim.call_later(3.0, lambda: ch.put("late"))
    assert sim.run_until_complete(p) == ("late", 3.0)


def test_channel_fifo_across_waiters():
    sim = Simulator()
    ch = Channel(sim)
    got = []

    def consumer(tag):
        value = yield ch.get()
        got.append((tag, value))

    sim.spawn(consumer("first"))
    sim.spawn(consumer("second"))
    sim.call_later(1.0, lambda: (ch.put(1), ch.put(2)))
    sim.run()
    assert got == [("first", 1), ("second", 2)]


def test_channel_close_fails_waiters_and_future_gets():
    sim = Simulator()
    ch = Channel(sim)

    def waiter():
        try:
            yield ch.get()
        except ChannelClosed:
            return "closed"

    p = sim.spawn(waiter())
    sim.call_later(1.0, ch.close)
    assert sim.run_until_complete(p) == "closed"
    with pytest.raises(ChannelClosed):
        ch.put("after")


# -- Semaphore --------------------------------------------------------------------


def test_semaphore_limits_concurrency():
    sim = Simulator()
    sem = Semaphore(sim, capacity=2)
    active = []
    peak = []

    def worker(i):
        yield sem.acquire()
        active.append(i)
        peak.append(len(active))
        yield sim.timeout(1.0)
        active.remove(i)
        sem.release()

    for i in range(6):
        sim.spawn(worker(i))
    sim.run()
    assert max(peak) == 2
    assert sim.now == 3.0  # 6 workers, 2 at a time, 1s each


def test_semaphore_release_without_acquire_rejected():
    sim = Simulator()
    sem = Semaphore(sim)
    with pytest.raises(SimError):
        sem.release()


def test_semaphore_fifo_handoff():
    sim = Simulator()
    sem = Semaphore(sim, capacity=1)
    order = []

    def worker(i):
        yield sem.acquire()
        order.append(i)
        yield sim.timeout(0.1)
        sem.release()

    for i in range(4):
        sim.spawn(worker(i))
    sim.run()
    assert order == [0, 1, 2, 3]


def test_semaphore_counters():
    sim = Simulator()
    sem = Semaphore(sim, capacity=1)

    def holder():
        yield sem.acquire()
        assert sem.in_use == 1
        yield sim.timeout(1.0)
        sem.release()

    def contender():
        yield sim.timeout(0.5)
        assert sem.queued == 0
        yield sem.acquire()
        sem.release()

    sim.spawn(holder())
    sim.spawn(contender())
    sim.run()
    assert sem.in_use == 0


# -- Gate -----------------------------------------------------------------------------


def test_gate_open_passes_immediately():
    sim = Simulator()
    gate = Gate(sim, open=True)

    def main():
        yield gate.wait()
        return sim.now

    assert sim.run_until_complete(sim.spawn(main())) == 0.0


def test_gate_closed_blocks_until_open():
    sim = Simulator()
    gate = Gate(sim, open=False)

    def main():
        yield gate.wait()
        return sim.now

    p = sim.spawn(main())
    sim.call_later(2.0, gate.open)
    assert sim.run_until_complete(p) == 2.0
    assert gate.is_open


def test_gate_reclose():
    sim = Simulator()
    gate = Gate(sim, open=True)
    gate.close()
    assert not gate.is_open
    waited = []

    def main():
        yield gate.wait()
        waited.append(sim.now)

    sim.spawn(main())
    sim.call_later(1.0, gate.open)
    sim.run()
    assert waited == [1.0]


# -- RwLock -----------------------------------------------------------------


def test_rwlock_shared_readers_exclusive_writer():
    from repro.sim import RwLock

    sim = Simulator()
    lock = RwLock(sim)
    assert lock.try_acquire_read()
    assert lock.try_acquire_read()
    assert lock.readers == 2
    assert not lock.try_acquire_write()
    lock.release_read()
    lock.release_read()
    assert lock.try_acquire_write()
    assert lock.write_locked
    assert not lock.try_acquire_read()
    lock.release_write()
    assert lock.try_acquire_read()
    lock.release_read()
    assert lock.readers == 0


def test_rwlock_fifo_no_reader_barging():
    """A reader arriving after a queued writer waits behind it."""
    from repro.sim import RwLock

    sim = Simulator()
    lock = RwLock(sim)
    order = []

    def reader(name, t):
        yield sim.timeout(t)
        if not lock.try_acquire_read():
            yield lock.acquire_read()
        order.append((name, sim.now))
        yield sim.timeout(1.0)
        lock.release_read()

    def writer(name, t):
        yield sim.timeout(t)
        if not lock.try_acquire_write():
            yield lock.acquire_write()
        order.append((name, sim.now))
        yield sim.timeout(1.0)
        lock.release_write()

    sim.spawn(reader("r1", 0.0))
    sim.spawn(writer("w", 0.1))   # queues behind r1
    sim.spawn(reader("r2", 0.2))  # queues behind w, not alongside r1
    sim.run()
    assert order == [("r1", 0.0), ("w", 1.0), ("r2", 2.0)]
    assert lock.wait_count == 2


def test_rwlock_grants_reader_run_after_writer():
    """Consecutive queued readers are admitted together."""
    from repro.sim import RwLock

    sim = Simulator()
    lock = RwLock(sim)
    order = []

    def writer():
        assert lock.try_acquire_write()
        yield sim.timeout(1.0)
        lock.release_write()

    def reader(name):
        yield sim.timeout(0.5)
        if not lock.try_acquire_read():
            yield lock.acquire_read()
        order.append((name, sim.now))
        yield sim.timeout(1.0)
        lock.release_read()

    sim.spawn(writer())
    sim.spawn(reader("a"))
    sim.spawn(reader("b"))
    sim.run()
    # Both readers enter together the moment the writer releases.
    assert order == [("a", 1.0), ("b", 1.0)]


def test_rwlock_release_while_free_raises():
    from repro.sim import RwLock

    sim = Simulator()
    lock = RwLock(sim)
    with pytest.raises(SimError):
        lock.release_read()
    with pytest.raises(SimError):
        lock.release_write()
